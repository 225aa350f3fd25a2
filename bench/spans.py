"""In-memory span tracer around the public entry points of hdclass.

The benchmark records spans from its own files: inside ``instrumented``,
each entry point listed in ``BOUNDARIES`` is replaced, at the
module or class attribute its callers resolve, by a wrapper that opens a
span, calls the original and then adds counts derived from the call's
arguments and result.  Nothing in the package knows about tracing.

Per-sample helpers (``similarity_scores``, ``partial_row``, ...) are
deliberately not wrapped: a span per sample would cost more than the work.
An entry point that no longer exists is skipped, so its ``calls`` stays 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np


def _rows(result) -> dict:
    return {"rows": int(np.shape(result)[0])}


def _regenerated(args, result) -> dict:
    return {"dims": len({int(d) for d in args["dims"]})}


def _epoch_samples(args, result) -> dict:
    return {"samples": len(args["labels"])}


def _train_work(args, result) -> dict:
    iterations = result[2].iterations
    return {"iterations": iterations,
            "sample_iterations": len(args["train_set"].labels) * iterations}


def _distance_rows(args, result) -> dict:
    partial, incorrect = result
    return {"partial_rows": len(partial), "incorrect_rows": len(incorrect)}


def _selection(args, result) -> dict:
    return {"regen.selected_dims": len(result.dims),
            "regen.nominal_dims": result.nominal_count,
            "regen.empty_selections": int(not result.dims)}


def _flipped(args, result) -> dict:
    diff = np.bitwise_xor(args["qm"].packed, result.packed)
    return {"robustness.bits_flipped": int(np.unpackbits(diff).sum())}


def _csv_read(args, result) -> dict:
    return {"rows": result.n_samples, "bytes": os.path.getsize(args["path"])}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


# (span name, attributes that callers resolve, count function of the bound
# arguments and the result).  A count key without a dot is prefixed with
# the span name.  Functions that a module binds by name at import time
# (``from .learner import train`` in the CLI) are patched there too.
BOUNDARIES = [
    ("core.encode_batch", ["hdclass.core:Encoder.encode_batch"], lambda a, r: _rows(r)),
    ("core.regenerate", ["hdclass.core:Encoder.regenerate"], _regenerated),
    ("learner.train", ["hdclass.learner:train", "hdclass.cli:train"], _train_work),
    ("learner.adaptive_fit_epoch", ["hdclass.learner:adaptive_fit_epoch"], _epoch_samples),
    ("learner.score", ["hdclass.learner:_score_matrix"], lambda a, r: _rows(r)),
    ("learner.distance_rows", ["hdclass.learner:_build_distance_rows"], _distance_rows),
    ("regen.select_undesired", ["hdclass.regen:select_undesired"], _selection),
    ("metrics.top_k_accuracy", ["hdclass.metrics:top_k_accuracy"], None),
    ("metrics.margin_scores", ["hdclass.metrics:margin_scores"], None),
    ("metrics.roc_curve", ["hdclass.metrics:roc_curve"], None),
    ("metrics.confusion_matrix", ["hdclass.metrics:confusion_matrix"], None),
    ("robustness.quantize", ["hdclass.robustness:quantize"], None),
    ("robustness.flip_bits", ["hdclass.robustness:flip_bits"], _flipped),
    ("robustness.dequantize", ["hdclass.robustness:dequantize"], None),
    ("robustness.run_trial", ["hdclass.robustness:run_trial"], None),
    ("data.load_csv", ["hdclass.data:load_csv"], _csv_read),
    ("data.apply_normalizer", ["hdclass.data:apply_normalizer"], None),
    ("data.split", ["hdclass.data:split"], None),
    ("data.save_csv", ["hdclass.data:save_csv"], None),
    ("serialize.save_model", ["hdclass.serialize:save_model", "hdclass.cli:save_model"],
     _file_bytes),
    ("serialize.load_model", ["hdclass.serialize:load_model", "hdclass.cli:load_model"],
     _file_bytes),
    ("cli.train", ["hdclass.cli:cmd_train"], None),
    ("cli.eval", ["hdclass.cli:cmd_eval"], None),
    ("cli.noise", ["hdclass.cli:cmd_noise"], None),
    ("cli.roc", ["hdclass.cli:cmd_roc"], None),
]


class Tracer:
    """Spans and counts of one benchmark process, kept in memory.

    Each span is a dict with ``id``, ``name``, ``parent`` (span id or
    None), ``run`` (the workload run id), ``section`` (setup or sequence
    label), ``start``/``end`` (``perf_counter`` seconds) and ``probe_s``,
    the time spent computing its counts after the call returned, which is
    left out of every self time.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.section = ""
        self.active = False
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    @contextlib.contextmanager
    def recording(self, section: str):
        """Record spans and counts under ``section`` for the enclosed block."""
        self.section, self.active = section, True
        try:
            yield
        finally:
            self.active = False

    def call(self, name, fn, args, kwargs, count):
        if not self.active:
            return fn(*args, **kwargs)
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "section": self.section, "probe_s": 0.0}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        counts = self.counts[self.section]
        counts[f"{name}.calls"] += 1
        if count is not None:
            try:
                measured = count(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                # An entry point whose signature or result changed shape
                # keeps its span; only its derived counts are lost.
                measured = {"count_errors": 1}
            for key, value in measured.items():
                counts[key if "." in key else f"{name}.{key}"] += value
            span["probe_s"] = time.perf_counter() - span["end"]
        return result

    def section_totals(self, section: str) -> dict[str, float]:
        """Counts plus ``<name>.self_s`` and ``<name>.wall_s`` for one section.

        Self time is a span's duration minus the time its direct children
        cover, including the time spent counting their results.
        """
        spans = [s for s in self.spans if s["section"] == section]
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"] + s["probe_s"]
        totals: dict[str, float] = defaultdict(float, self.counts.get(section, {}))
        for s in spans:
            duration = s["end"] - s["start"]
            totals[f"{s['name']}.self_s"] += duration - covered[s["id"]]
            totals[f"{s['name']}.wall_s"] += duration
        return dict(totals)


def _resolve(location: str):
    module_name, _, attr = location.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


def _wrap(tracer: Tracer, name: str, fn, count):
    counter = None
    if count is not None:
        signature = inspect.signature(fn)

        def counter(args, kwargs, result):
            return count(signature.bind(*args, **kwargs).arguments, result)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counter)

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer, only=None):
    """Patch the entry points in ``BOUNDARIES`` (or the ``only`` subset).

    Spans are recorded only inside ``tracer.recording``; outside it the
    wrappers call straight through.  Every patch is undone on exit.
    """
    patches = []
    try:
        for name, locations, count in BOUNDARIES:
            if only is not None and name not in only:
                continue
            for location in locations:
                target = _resolve(location)
                if target is None:
                    continue
                owner, leaf = target
                original = getattr(owner, leaf)
                setattr(owner, leaf, _wrap(tracer, name, original, count))
                patches.append((owner, leaf, original))
        yield tracer
    finally:
        for owner, leaf, original in reversed(patches):
            setattr(owner, leaf, original)
