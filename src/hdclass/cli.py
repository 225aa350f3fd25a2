"""Command-line harness: train, eval, sweep-weights, noise, roc, synth.

Every command resolves its configuration from built-in defaults, then (only
``train`` and ``sweep-weights``) an optional ``--config`` file of flat
``section.key = value`` lines, then explicit flags (flag wins).  It checks
its inputs, echoes the resolved config into the output directory, computes,
and writes deterministic artifacts only (logs go to stderr).  Exit codes: 0
success, 1 config error (a ValueError; a MemoryError too, as from a ``--dim``
too large to allocate after the echo), 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import data as dio
from . import metrics, robustness
from .core import row_norms, similarity_matrix
from .learner import DYNAMIC, TrainConfig, check_training_sets, train
from .serialize import (load_model, save_model, write_csv_atomic, write_json_atomic,
                        write_text_atomic)

log = logging.getLogger("hdclass")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

OUT_ROOT_ENV = "HDCLASS_OUT_ROOT"


class DataError(Exception):
    pass


class NumericalError(Exception):
    pass


# ---------------------------------------------------------------------------
# config resolution

# Every TrainConfig field is a ``train.<field>`` key and a ``--<field>`` flag;
# the ``data.*`` keys steer ingest and belong to the CLI.  A sweep's grid sets:
GRID_KEYS = ("train.alpha", "train.beta", "train.theta")
TRAIN_DEFAULTS = {
    **{f"train.{f.name}": f.default for f in dataclasses.fields(TrainConfig)},
    "data.normalize": "zscore",
    "data.fractions": "0.8,0.2,0.0",
    "data.label_column": "-1",
}

BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def parse_config_file(path: str) -> dict:
    resolved = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                resolved[key.strip()] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    return resolved


def write_config_echo(path: str, resolved: dict) -> None:
    lines = [f"{k} = {resolved[k]}" for k in sorted(resolved)]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _echo_args(out: str, args) -> None:
    """Echo every parsed option but ``--out`` as a ``<command>.<dest>`` line;
    for the commands that take no config file."""
    write_config_echo(os.path.join(out, "config.txt"), {
        f"{args.command}.{dest}": ("" if value is None else
                                   ",".join(value) if isinstance(value, list) else value)
        for dest, value in vars(args).items() if dest not in ("command", "func", "out")})


def _coerce(key: str, value):
    like = TRAIN_DEFAULTS[key]
    if isinstance(like, bool) and isinstance(value, str):
        word = value.strip().lower()
        if word not in BOOL_WORDS:
            raise ValueError(
                f"{key}: expected one of {'/'.join(BOOL_WORDS)}, got {value!r}")
        return BOOL_WORDS[word]
    try:
        return type(like)(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def resolve_train_config(args) -> dict:
    """The keys a ``train`` or ``sweep-weights`` run reads, resolved (a sweep reads no
    ``GRID_KEYS``, ``train --valid`` no ``data.fractions``); another is a ValueError."""
    run, unread = (("sweep-weights", GRID_KEYS) if args.command == "sweep-weights" else
                   ("train --valid", ("data.fractions",)) if args.valid else ("train", ()))
    resolved = {key: value for key, value in TRAIN_DEFAULTS.items() if key not in unread}
    given = parse_config_file(args.config) if args.config else {}
    given.update({key: value for key in TRAIN_DEFAULTS
                  if (value := getattr(args, key.split(".", 1)[1], None)) is not None})
    if set(given) - set(resolved):
        raise ValueError(f"{run} reads no {sorted(set(given) - set(resolved))}")
    return {key: _coerce(key, given.get(key, value)) for key, value in resolved.items()}


def _parse_list(flag: str, text: str, convert=float) -> list:
    """The items of the comma list ``text`` through ``convert``; an empty or
    non-finite item is a ValueError naming ``flag``."""
    try:
        values = [convert(item) for item in text.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(abs(v) < math.inf for v in values):
        raise ValueError(f"{flag}: expected a comma list of finite "
                         f"{'integers' if convert is int else 'numbers'}, got {text!r}")
    return values


def train_config_from_resolved(resolved: dict) -> TrainConfig:
    return TrainConfig(**{key.split(".", 1)[1]: value for key, value in resolved.items()
                          if key.startswith("train.")})


# ---------------------------------------------------------------------------
# shared helpers

def _out_dir(args, command: str) -> str:
    if args.out:
        out = args.out
    else:
        out = os.path.join(os.environ.get(OUT_ROOT_ENV, "."), command)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _load_dataset(path: str, label_column, names=None) -> dio.Dataset:
    """Read a CSV file; with ``names``, its labels map to ids by those names.
    A NaN or infinite feature value is a DataError naming its data row."""
    if not os.path.exists(path):
        raise DataError(f"dataset not found: {path}")
    try:
        col = int(label_column)
    except (TypeError, ValueError):
        col = label_column
    try:
        ds = dio.load_csv(path, label_column=col, names=names)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(str(exc)) from exc
    return _finite_rows(path, ds)


def _finite_rows(where: str, ds: dio.Dataset) -> dio.Dataset:
    """``ds``; a NaN or infinite value is a DataError naming ``where`` and its row."""
    if not np.isfinite(ds.features).all():
        row, cell = np.argwhere(~np.isfinite(ds.features))[0]
        raise DataError(f"{where}: data row {row + 1}: non-finite feature value "
                        f"{float(ds.features[row, cell])!r}")
    return ds


def _normalized(spec: dio.NormalizationSpec, sets: list, names) -> list:
    """``sets`` normalized by ``spec``, each checked under its name in ``names``.

    The list is rewritten in place, one set at a time: where it holds the
    only reference to the raw sets, just the set being normalized exists
    twice at once."""
    for i in range(len(sets)):
        sets[i] = _finite_rows(f"{names[i]}, {spec.mode}-normalized",
                               dio.apply_normalizer(spec, sets[i]))
    return sets


def _check_describable(flag: str, value: int, *shape: int) -> None:
    """A ValueError naming ``flag`` when numpy cannot describe a float64
    array of ``shape``: its byte size would overflow ``np.intp``."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"{flag} {value}: a {' x '.join(map(str, shape))} float64 "
                         f"array is larger than numpy can describe")


def _class_grouped(labels: np.ndarray) -> bool:
    """True when the rows of each class form one contiguous run."""
    return np.count_nonzero(np.diff(labels)) + 1 == np.unique(labels).size


def _train_checked(cfg, train_ds, valid_ds):
    """``train()``'s result; a NumericalError when a prototype norm, which every
    cosine divides by, is NaN or infinite (a NaN or infinite prototype entry
    gives one; the encoder's draws are finite).  That error reports an
    overflow, so numpy's warnings on the arithmetic behind it are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        encoder, model, report = train(cfg, train_ds, valid_ds)
        if not np.isfinite(row_norms(model.classes)).all():
            raise NumericalError("non-finite values detected in model state")
    return encoder, model, report


def _warn_if_stale(report, run: str) -> None:
    """Log a WARNING when ``run`` returned a snapshot that predates every
    regeneration, so the regeneration weights never reached its model."""
    regenerated = [r.iteration for r in report.rows if r.regenerated]
    if regenerated and report.snapshot_iteration <= regenerated[0]:
        log.warning("%s returned the snapshot of iteration %d, which predates every "
                    "regeneration (the first came at iteration %d), so alpha, beta and "
                    "theta did not shape its model", run, report.snapshot_iteration,
                    regenerated[0])


def _evaluate(scores, labels) -> dict:
    """Top-1 accuracy, confusion matrix and per-class rates of a score matrix."""
    preds = scores.argmax(axis=1)
    cm = metrics.confusion_matrix(preds, labels, scores.shape[1])
    per_class = {}
    for c in range(scores.shape[1]):
        rates = metrics.sensitivity_specificity(cm, c)
        # JSON has no NaN, so an undefined rate is written as null.
        per_class[str(c)] = {name: None if math.isnan(rate) else rate
                             for name, rate in dataclasses.asdict(rates).items()}
    return {
        "accuracy": metrics.accuracy(preds, labels),
        "confusion_matrix": cm.tolist(),
        "per_class": per_class,
    }


def _truth(labels, cls: int):
    """The 0/1 truth of class ``cls``; None when it is absent or fills every row."""
    truth = (labels == cls).astype(int)
    return None if truth.min() == truth.max() else truth


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    out = _out_dir(args, "synth")
    for flag, count in (("--features", args.features), ("--classes", args.classes),
                        ("--per-class", args.per_class)):
        if count < 1:
            raise ValueError(f"{flag} must be >= 1, got {count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    ds = dio.synth_blobs(args.features, args.classes, args.per_class,
                         args.separation, args.seed)
    _echo_args(out, args)
    dio.save_csv(os.path.join(out, "blobs.csv"), ds)
    return EXIT_OK


def _load_training(args, test_split: bool):
    """The resolved config, TrainConfig, norm spec (None for ``none``) and
    normalized (train, valid) sets of a ``train`` or ``sweep-weights`` run,
    plus the test set under ``test_split``, where valid fractions with a test
    share of 0 split 0.6/0.2/0.2.  Reads and checks everything; writes nothing.
    The unsplit data is dropped once split, and each part replaced by its
    normalized copy as that is made, so at most the parts and one normalized
    part are held at once."""
    resolved = resolve_train_config(args)
    cfg = train_config_from_resolved(resolved)
    fractions = resolved.get("data.fractions")  # None under train --valid
    if fractions is not None:
        fractions = dio.check_fractions(_parse_list("--fractions", fractions))
        if test_split and fractions[2] == 0:
            fractions, resolved["data.fractions"] = (0.6, 0.2, 0.2), "0.6,0.2,0.2"
    ds = _load_dataset(args.data, resolved["data.label_column"])
    if getattr(args, "valid", None):
        sets = [ds, _load_dataset(args.valid, resolved["data.label_column"],
                                  names=ds.names)]
        if sets[1].n_features != ds.n_features:
            raise DataError(f"feature count mismatch between splits: {ds.n_features} "
                            f"vs {sets[1].n_features}")
        names = [args.data, args.valid]
    else:
        sets = list(dio.split(ds, fractions, stratified=True, seed=cfg.seed)[
            :3 if test_split else 2])
        names = [f"{args.data} ({part} split)" for part in ("train", "valid", "test")]
    del ds
    n_classes = check_training_sets(sets[0], sets[1])[0]
    _check_describable("--dim", cfg.dim, cfg.dim, sets[0].n_features)
    spec = None
    if resolved["data.normalize"] != "none":
        spec = dio.fit_normalizer(sets[0], resolved["data.normalize"])
        sets = _normalized(spec, sets, names)
    if not cfg.shuffle and _class_grouped(sets[0].labels):
        log.warning("the training rows are grouped by class and train.shuffle is off; the "
                    "sequential update learns poorly in this order, so consider --shuffle")
    if cfg.mode == DYNAMIC and n_classes == 2:
        log.warning("the training set has two classes, so this dynamic run never "
                    "regenerates: every miss ranks its true class second, and only misses "
                    "that rank it lower select dimensions to redraw; it trains as a static "
                    "run does")
    return resolved, cfg, spec, sets


def cmd_train(args) -> int:
    out = _out_dir(args, "train")
    resolved, cfg, spec, (train_ds, valid_ds) = _load_training(args, test_split=False)
    write_config_echo(os.path.join(out, "config.txt"), resolved)
    encoder, model, report = _train_checked(cfg, train_ds, valid_ds)
    if args.dump_regen:
        _write_dump_csv(os.path.join(out, "regen_dump.csv"), report.rows)
    save_model(os.path.join(out, "model.json"), encoder, model)
    write_text_atomic(os.path.join(out, "report.jsonl"), report.to_jsonl())
    if spec is not None:
        write_json_atomic(os.path.join(out, "norm.json"), spec.to_dict())
    log.info("trained %s iterations (converged=%s); returned the snapshot of "
             "iteration %s", report.iterations, report.converged,
             report.snapshot_iteration)
    _warn_if_stale(report, "train")
    return EXIT_OK


def _read_checked(what: str, path: str, reader):
    """``reader(path)``; an unreadable or malformed file is a DataError."""
    try:
        return reader(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _read_norm(path: str) -> dio.NormalizationSpec:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return dio.NormalizationSpec.from_dict(json.load(fh))


def _load_scored(args, paths):
    """The ``(encoder, model)`` pair of each path in ``paths`` and the
    ``--data`` rows, labels mapped by the models' class names and
    normalized by ``--norm``.  The models must differ in ``dim`` and agree
    on their class names."""
    loaded, labels = {}, None
    for path in paths:
        encoder, model = _read_checked("model", path, load_model)
        if model.dim in loaded:
            raise ValueError(f"{path}: another --model already has dim {model.dim}")
        if labels is None:
            labels = model.labels
        elif model.labels != labels:
            raise DataError(f"{path}: class names {model.labels} differ from "
                            f"{labels} of {paths[0]}")
        loaded[model.dim] = (encoder, model)
    names = labels if all(isinstance(label, str) for label in labels) else None
    if names is None:
        log.warning("model %s holds class ids, not names, as every format 1 container "
                    "does; the data labels map to its classes by sorted order", paths[0])
    ds = _load_dataset(args.data, args.label_column, names=names)
    if args.norm:
        spec = _read_checked("norm file", args.norm, _read_norm)
        if spec.shift.shape[0] != ds.n_features:
            raise DataError(
                f"norm file {args.norm} covers {spec.shift.shape[0]} features, "
                f"dataset has {ds.n_features}")
        [ds] = _normalized(spec, [ds], [args.data])
    for encoder, _ in loaded.values():
        if ds.n_features != encoder.n_features:
            raise DataError(
                f"feature count mismatch: encoder expects {encoder.n_features}, "
                f"dataset has {ds.n_features}")
    return list(loaded.values()), ds


def cmd_eval(args) -> int:
    out = _out_dir(args, "eval")
    [(encoder, model)], ds = _load_scored(args, [args.model])
    k_list = _parse_list("--topk", args.topk, int)
    if any(not 1 <= k <= model.n_classes for k in k_list):
        raise ValueError(f"top-k values must lie in [1, {model.n_classes}]")
    _echo_args(out, args)
    encoded = encoder.encode_batch(ds.features)
    report = _evaluate(similarity_matrix(model, encoded), ds.labels)
    report["top_k_accuracy"] = {
        str(k): metrics.top_k_accuracy(model, encoded, ds.labels, k) for k in k_list}
    write_json_atomic(os.path.join(out, "eval.json"), report)
    return EXIT_OK


def _mean(values) -> float:
    """The mean, or NaN for no values."""
    return float(np.mean(values)) if values else float("nan")


def _sweep_point(cfg, train_ds, valid_ds, test_ds):
    """A grid point's ``sweep.csv`` row and its (class, ROC curve) pairs."""
    encoder, model, trained = _train_checked(cfg, train_ds, valid_ds)
    _warn_if_stale(trained, f"the grid point alpha={cfg.alpha!r}, beta={cfg.beta!r}, "
                           f"theta={cfg.theta!r}")
    scores = similarity_matrix(model, encoder.encode_batch(test_ds.features))
    report = _evaluate(scores, test_ds.labels)
    rocs = [(c, metrics.roc_curve(metrics.margin_scores(scores, c), truth))
            for c in range(model.n_classes)
            if (truth := _truth(test_ds.labels, c)) is not None]
    rates = report["per_class"].values()
    sens = [r["sensitivity"] for r in rates if r["sensitivity"] is not None]
    spec = [r["specificity"] for r in rates if r["specificity"] is not None]
    # Row i is iteration i + 1, and a snapshot precedes its own iteration's regeneration.
    before = sum(r.regenerated for r in trained.rows[:trained.snapshot_iteration - 1])
    row = [cfg.alpha, cfg.beta, cfg.theta, report["accuracy"], _mean(sens), _mean(spec),
           _mean([curve.auc for _, curve in rocs]), trained.snapshot_iteration, before]
    return row, rocs


def cmd_sweep_weights(args) -> int:
    out = _out_dir(args, "sweep")
    # A sweep scores a held-out test split, so it makes one.
    resolved, cfg_base, _, (train_ds, valid_ds, test_ds) = _load_training(
        args, test_split=True)
    names = ("alphas", "betas", "thetas")
    alphas, betas, thetas = [_parse_list(f"--{n}", getattr(args, n)) for n in names]
    grid = [(a, b, t) for a in alphas for b in betas for t in thetas]
    configs, bad = [], []
    for i, (a, b, t) in enumerate(grid):
        try:
            configs.append(dataclasses.replace(cfg_base, alpha=a, beta=b, theta=t))
        except ValueError as exc:
            bad.append((i, str(exc)))
    if bad:
        raise ValueError(f"invalid grid points at indices {[i for i, _ in bad]}: "
                         f"{bad[0][1]}")
    write_config_echo(os.path.join(out, "config.txt"),
                      {**resolved, **{f"sweep.{n}": getattr(args, n) for n in names}})

    results = [_sweep_point(cfg, train_ds, valid_ds, test_ds) for cfg in configs]
    for i, (_, rocs) in enumerate(results):
        for cls, curve in rocs:
            _write_roc_csv(os.path.join(out, f"roc_point{i}_class{cls}.csv"), curve)
    header = ["alpha", "beta", "theta", "accuracy", "macro_sensitivity", "macro_specificity",
              "auc", "snapshot_iteration", "regenerated_before_snapshot"]
    write_csv_atomic(os.path.join(out, "sweep.csv"), header,
                     [row for row, _ in results])
    return EXIT_OK


def cmd_noise(args) -> int:
    out = _out_dir(args, "noise")
    loaded, ds = _load_scored(args, args.models)
    bits_list = _parse_list("--bits", args.bits, int)
    rates = _parse_list("--rates", args.rates)
    if not set(bits_list) <= set(robustness.SUPPORTED_BITS):
        raise ValueError(f"--bits must each be one of {robustness.SUPPORTED_BITS}")
    if not all(0 <= rate <= 100 for rate in rates):
        raise ValueError(f"--rates must each lie in [0, 100], got {args.rates!r}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    _check_describable("--trials", args.trials, args.trials)
    _echo_args(out, args)
    models_by_dim = {model.dim: (model, encoder.encode_batch(ds.features), ds.labels)
                     for encoder, model in loaded}
    grid = [(dim, bits, rate) for dim in sorted(models_by_dim)
            for bits in bits_list for rate in rates]
    cells = robustness.noise_sweep(models_by_dim, grid, args.trials, args.seed)
    _write_noise_csv(os.path.join(out, "noise.csv"), cells)
    write_json_atomic(os.path.join(out, "summary.json"), _ordering_summary(cells))
    return EXIT_OK


def _ordering_summary(cells) -> dict:
    by_key = {(c.dim, c.bits, c.rate): c.mean_loss for c in cells}
    dims = sorted({c.dim for c in cells})
    bits = sorted({c.bits for c in cells})
    rates = sorted({c.rate for c in cells if c.rate > 0})
    summary = {"precision_ordering": None, "dimensionality_ordering": None}
    if rates:
        rate = rates[0]
        if len(bits) >= 2:
            summary["precision_ordering"] = bool(
                by_key[(dims[-1], bits[0], rate)] < by_key[(dims[-1], bits[-1], rate)])
        if len(dims) >= 2:
            summary["dimensionality_ordering"] = bool(
                by_key[(dims[-1], bits[-1], rate)] < by_key[(dims[0], bits[-1], rate)])
    return summary


def cmd_roc(args) -> int:
    out = _out_dir(args, "roc")
    [(encoder, model)], ds = _load_scored(args, [args.model])
    if not 0 <= args.class_id < model.n_classes:
        raise ValueError(f"class id {args.class_id} outside [0, {model.n_classes})")
    truth = _truth(ds.labels, args.class_id)
    if truth is None:
        raise DataError(f"class {args.class_id} is absent or exhaustive in the data")
    _echo_args(out, args)
    scores = similarity_matrix(model, encoder.encode_batch(ds.features))
    class_scores = (metrics.margin_scores(scores, args.class_id)
                    if args.score == "margin" else scores[:, args.class_id])
    curve = metrics.roc_curve(class_scores, truth)
    _write_roc_csv(os.path.join(out, "roc.csv"), curve)
    write_json_atomic(os.path.join(out, "roc.json"),
                      {"auc": curve.auc, "score": args.score,
                       "class_id": args.class_id})
    return EXIT_OK


def _write_roc_csv(path: str, curve) -> None:
    write_csv_atomic(path, ["fpr", "tpr"], curve.points)


def _write_noise_csv(path: str, cells) -> None:
    write_csv_atomic(path, ["dim", "bits", "rate", "trials", "mean_loss", "std_loss"],
                     [[c.dim, c.bits, c.rate, c.trials, c.mean_loss, c.std_loss]
                      for c in cells])


def _write_dump_csv(path: str, records) -> None:
    """One row per dimension of each iteration record with a ``selection``."""
    rows = []
    for r in records:
        sel = r.selection
        if sel is None:
            continue
        rows.extend([r.iteration, j, float(sel.m_aggregate[j]),
                     float(sel.n_aggregate[j]), int(j in sel.dims)]
                    for j in range(sel.m_aggregate.shape[0]))
    write_csv_atomic(path, ["iteration", "dimension", "m_aggregate", "n_aggregate",
                            "selected"], rows)


# ---------------------------------------------------------------------------
# argument parsing

def _add_train_flags(p: argparse.ArgumentParser, skip=()) -> None:
    p.add_argument("--config", help="flat key=value config file")
    for key, default in [item for item in TRAIN_DEFAULTS.items() if item[0] not in skip]:
        dest = key.split(".", 1)[1]
        flag = "--" + dest.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, dest=dest, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=dest, type=type(default))


def _add_scoring_flags(p: argparse.ArgumentParser, **model_options) -> None:
    """The flags eval, roc and noise share: ``--model`` (with ``model_options``),
    ``--data``, ``--norm``, ``--label-column`` and ``--out``."""
    p.add_argument("--model", required=True, **model_options)
    p.add_argument("--data", required=True)
    p.add_argument("--norm")
    p.add_argument("--label-column", dest="label_column", default="-1")
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdclass")
    sub = parser.add_subparsers(dest="command", required=True)
    # No subcommand expands an abbreviated flag: a prefix would change its
    # meaning without an error once a later flag came to share it.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("synth", help="generate a synthetic blobs dataset")
    p.add_argument("--features", type=int, default=10)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", dest="per_class", type=int, default=200)
    p.add_argument("--separation", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--valid")
    p.add_argument("--dump-regen", dest="dump_regen", action="store_true")
    p.add_argument("--out")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = add_parser("eval", help="evaluate a trained model")
    _add_scoring_flags(p)
    p.add_argument("--topk", default="1,2")
    p.set_defaults(func=cmd_eval)

    p = add_parser("sweep-weights", help="alpha/beta/theta sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--thetas", required=True)
    p.add_argument("--out")
    _add_train_flags(p, skip=GRID_KEYS)
    p.set_defaults(func=cmd_sweep_weights)

    p = add_parser("noise", help="bit-flip robustness sweep")
    _add_scoring_flags(p, dest="models", action="append",
                       help="trained model container; repeat per dimensionality")
    p.add_argument("--bits", default="1,8")
    p.add_argument("--rates", default="0,5,10")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_noise)

    p = add_parser("roc", help="export a one-vs-rest ROC curve")
    _add_scoring_flags(p)
    p.add_argument("--class-id", dest="class_id", type=int, required=True)
    p.add_argument("--score", choices=["margin", "raw"], default="margin")
    p.set_defaults(func=cmd_roc)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (DataError, dio.ParseError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (ValueError, OverflowError, MemoryError) as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
