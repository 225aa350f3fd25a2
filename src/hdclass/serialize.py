"""Versioned JSON container for encoder + class model.

Floats are emitted with Python's shortest-roundtrip repr, so the
decimal-to-binary round trip is lossless for 64-bit values.  The encoder's
RNG state rides along so regeneration continues identically after a
save/load cycle.  The atomic text, JSON and CSV writers behind the CLI's
result files live here too.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

import numpy as np

from .core import ClassModel, Encoder

FORMAT_VERSION = 1


def model_to_dict(encoder: Encoder, model: ClassModel) -> dict:
    if model.dim != encoder.dim:
        raise ValueError(
            f"model dimensionality {model.dim} != encoder dimensionality {encoder.dim}")
    return {
        "format_version": FORMAT_VERSION,
        "n_features": encoder.n_features,
        "dim": encoder.dim,
        "n_classes": model.n_classes,
        "labels": list(model.labels),
        "base": encoder.base.tolist(),
        "phase": encoder.phase.tolist(),
        "classes": model.classes.tolist(),
        "seed": encoder.seed,
        "input_scale": encoder.input_scale,
        "rng_state": encoder.rng_state(),
    }


def model_from_dict(doc: dict) -> tuple[Encoder, ClassModel]:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container version: {version!r}")
    base = np.asarray(doc["base"], dtype=np.float64)
    phase = np.asarray(doc["phase"], dtype=np.float64)
    classes = np.asarray(doc["classes"], dtype=np.float64)
    if base.shape != (doc["dim"], doc["n_features"]):
        raise ValueError("base matrix shape does not match declared n/D")
    if classes.shape != (doc["n_classes"], doc["dim"]):
        raise ValueError("classes matrix shape does not match declared k/D")
    if not all(np.all(np.isfinite(a)) for a in (base, phase, classes)):
        raise ValueError("non-finite values in base, phase or classes")
    rng = np.random.default_rng()
    encoder = Encoder(base, phase, rng, seed=doc.get("seed"),
                      input_scale=doc.get("input_scale", 1.0))
    encoder.set_rng_state(doc["rng_state"])
    model = ClassModel(classes, doc["labels"])
    return encoder, model


def save_model(path: str, encoder: Encoder, model: ClassModel) -> None:
    write_json_atomic(path, model_to_dict(encoder, model))


def load_model(path: str) -> tuple[Encoder, ClassModel]:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def write_text_atomic(path: str, text: str) -> None:
    """Write to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, doc) -> None:
    write_text_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def write_csv_atomic(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buf.getvalue())
