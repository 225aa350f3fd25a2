"""Command-line harness: train, eval, sweep-weights, noise, roc, synth.

Every command resolves its configuration from built-in defaults, then an
optional flat config file (``section.key = value`` lines), then explicit
flags (flag wins), echoes the resolved config into the output directory
before computing anything, and writes deterministic artifacts only (logs
go to stderr).  Exit codes: 0 success, 1 config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import data as dio
from . import metrics, robustness
from .core import similarity_matrix
from .learner import TrainConfig, train
from .regen import write_dump_csv
from .serialize import (load_model, save_model, write_csv_atomic, write_json_atomic,
                        write_text_atomic)

log = logging.getLogger("hdclass")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

OUT_ROOT_ENV = "HDCLASS_OUT_ROOT"


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class NumericalError(Exception):
    pass


# ---------------------------------------------------------------------------
# config resolution

# Every TrainConfig field is a ``train.<field>`` key and a ``--<field>`` flag;
# the ``data.*`` keys steer ingest and belong to the CLI.
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
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                resolved[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return resolved


def write_config_echo(path: str, resolved: dict) -> None:
    lines = [f"{k} = {resolved[k]}" for k in sorted(resolved)]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _coerce(key: str, value):
    like = TRAIN_DEFAULTS[key]
    if isinstance(like, bool) and isinstance(value, str):
        word = value.strip().lower()
        if word not in BOOL_WORDS:
            raise ConfigError(
                f"{key}: expected one of {'/'.join(BOOL_WORDS)}, got {value!r}")
        return BOOL_WORDS[word]
    try:
        return type(like)(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def resolve_train_config(args) -> dict:
    resolved = dict(TRAIN_DEFAULTS)
    if args.config:
        file_values = parse_config_file(args.config)
        unknown = set(file_values) - set(resolved)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_values)
    for key in TRAIN_DEFAULTS:
        value = getattr(args, key.split(".", 1)[1], None)
        if value is not None:
            resolved[key] = value
    return {key: _coerce(key, value) for key, value in resolved.items()}


def train_config_from_resolved(resolved: dict) -> TrainConfig:
    try:
        return TrainConfig(**{f.name: resolved[f"train.{f.name}"]
                              for f in dataclasses.fields(TrainConfig)})
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# shared helpers

def _out_dir(args, command: str) -> str:
    if args.out:
        out = args.out
    else:
        out = os.path.join(os.environ.get(OUT_ROOT_ENV, "."), command)
    os.makedirs(out, exist_ok=True)
    return out


def _load_dataset(path: str, label_column="-1") -> dio.Dataset:
    if not os.path.exists(path):
        raise DataError(f"dataset not found: {path}")
    try:
        col = int(label_column)
    except (TypeError, ValueError):
        col = label_column
    try:
        return dio.load_csv(path, label_column=col)
    except (dio.ParseError, OSError, UnicodeDecodeError) as exc:
        raise DataError(str(exc)) from exc


def _normalize(train_ds, other_sets, mode: str):
    if mode == "none":
        return None, train_ds, other_sets
    spec = dio.fit_normalizer(train_ds, mode)
    return (spec, dio.apply_normalizer(spec, train_ds),
            [dio.apply_normalizer(spec, ds) for ds in other_sets])


def _class_grouped(labels: np.ndarray) -> bool:
    """True when the rows of each class form one contiguous run."""
    return np.count_nonzero(np.diff(labels)) + 1 == np.unique(labels).size


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericalError("non-finite values detected in model state")


def _evaluate(encoder, model, ds: dio.Dataset, k_list) -> dict:
    encoded = encoder.encode_batch(ds.features)
    preds = np.argmax(similarity_matrix(model, encoded), axis=1)
    cm = metrics.confusion_matrix(preds, ds.labels, model.n_classes)
    per_class = {}
    for c in range(model.n_classes):
        rates = metrics.sensitivity_specificity(cm, c)
        per_class[str(c)] = {
            "sensitivity": rates.sensitivity if rates.sensitivity_defined else None,
            "specificity": rates.specificity if rates.specificity_defined else None,
        }
    return {
        "accuracy": metrics.accuracy(preds, ds.labels),
        "top_k_accuracy": {str(k): metrics.top_k_accuracy(model, encoded, ds.labels, k)
                           for k in k_list},
        "confusion_matrix": cm.tolist(),
        "per_class": per_class,
    }


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    out = _out_dir(args, "synth")
    ds = dio.synth_blobs(args.features, args.classes, args.per_class,
                         args.separation, args.seed)
    write_config_echo(os.path.join(out, "config.txt"), {
        "synth.features": args.features, "synth.classes": args.classes,
        "synth.per_class": args.per_class, "synth.separation": args.separation,
        "synth.seed": args.seed,
    })
    dio.save_csv(os.path.join(out, "blobs.csv"), ds)
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args, "train")
    resolved = resolve_train_config(args)
    cfg = train_config_from_resolved(resolved)
    write_config_echo(os.path.join(out, "config.txt"), resolved)

    ds = _load_dataset(args.data, resolved["data.label_column"])
    if args.valid:
        train_ds, valid_ds = ds, _load_dataset(args.valid, resolved["data.label_column"])
        if valid_ds.n_features != train_ds.n_features:
            raise DataError(
                f"feature count mismatch between splits: {train_ds.n_features} "
                f"vs {valid_ds.n_features}")
        if set(valid_ds.names or []) - set(train_ds.names or []):
            raise DataError("validation labels missing from the training split")
    else:
        fractions = [float(x) for x in str(resolved["data.fractions"]).split(",")]
        train_ds, valid_ds, _ = dio.split(ds, fractions, stratified=True, seed=cfg.seed)

    if not cfg.shuffle and _class_grouped(train_ds.labels):
        log.warning("the training rows are grouped by class and train.shuffle is "
                    "off; the sequential update learns poorly in this order, so "
                    "consider --shuffle")
    spec, train_ds, (valid_ds,) = _normalize(train_ds, [valid_ds],
                                             resolved["data.normalize"])
    encoder, model, report = train(cfg, train_ds, valid_ds)
    if args.dump_regen:
        write_dump_csv(os.path.join(out, "regen_dump.csv"), report.rows)
    _check_finite(model.classes, encoder.base, encoder.phase)

    save_model(os.path.join(out, "model.json"), encoder, model)
    write_text_atomic(os.path.join(out, "report.jsonl"), report.to_jsonl())
    write_json_atomic(os.path.join(out, "labels.json"),
                      {"names": train_ds.names})
    if spec is not None:
        write_json_atomic(os.path.join(out, "norm.json"), spec.to_dict())
    log.info("trained %s iterations (converged=%s); returned the snapshot of "
             "iteration %s", report.iterations, report.converged,
             report.snapshot_iteration)
    return EXIT_OK


def _read_checked(what: str, path: str, reader):
    """``reader(path)``; an unreadable or malformed file is a DataError."""
    try:
        return reader(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _load_model_checked(path: str):
    return _read_checked("model", path, load_model)


def _read_norm(path: str) -> dio.NormalizationSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return dio.NormalizationSpec.from_dict(json.load(fh))


def _load_eval_data(args, *encoders):
    ds = _load_dataset(args.data, getattr(args, "label_column", None) or "-1")
    if args.norm:
        ds = dio.apply_normalizer(_read_checked("norm file", args.norm, _read_norm), ds)
    for encoder in encoders:
        if ds.n_features != encoder.n_features:
            raise DataError(
                f"feature count mismatch: encoder expects {encoder.n_features}, "
                f"dataset has {ds.n_features}")
    return ds


def cmd_eval(args) -> int:
    out = _out_dir(args, "eval")
    encoder, model = _load_model_checked(args.model)
    ds = _load_eval_data(args, encoder)
    k_list = [int(k) for k in args.topk.split(",")]
    if any(not 1 <= k <= model.n_classes for k in k_list):
        raise ConfigError(f"top-k values must lie in [1, {model.n_classes}]")
    write_config_echo(os.path.join(out, "config.txt"), {
        "eval.model": args.model, "eval.data": args.data,
        "eval.topk": args.topk, "eval.norm": args.norm or "",
    })
    report = _evaluate(encoder, model, ds, k_list)
    write_json_atomic(os.path.join(out, "eval.json"), report)
    return EXIT_OK


def _sweep_point(cfg, train_ds, valid_ds, test_ds):
    encoder, model, _ = train(cfg, train_ds, valid_ds)
    encoded = encoder.encode_batch(test_ds.features)
    preds = np.argmax(similarity_matrix(model, encoded), axis=1)
    cm = metrics.confusion_matrix(preds, test_ds.labels, model.n_classes)
    sens, spec = [], []
    for c in range(model.n_classes):
        rates = metrics.sensitivity_specificity(cm, c)
        if rates.sensitivity_defined:
            sens.append(rates.sensitivity)
        if rates.specificity_defined:
            spec.append(rates.specificity)
    aucs = []
    rocs = []
    for c in range(model.n_classes):
        truth = (test_ds.labels == c).astype(int)
        if truth.min() == truth.max():
            continue
        curve = metrics.roc_curve(metrics.margin_scores(model, encoded, c), truth)
        aucs.append(curve.auc)
        rocs.append((c, curve))
    return {
        "alpha": cfg.alpha, "beta": cfg.beta, "theta": cfg.theta,
        "accuracy": metrics.accuracy(preds, test_ds.labels),
        "macro_sensitivity": float(np.mean(sens)) if sens else float("nan"),
        "macro_specificity": float(np.mean(spec)) if spec else float("nan"),
        "auc": float(np.mean(aucs)) if aucs else float("nan"),
        "rocs": rocs,
    }


def cmd_sweep_weights(args) -> int:
    out = _out_dir(args, "sweep")
    resolved = resolve_train_config(args)
    cfg_base = train_config_from_resolved(resolved)
    alphas = [float(x) for x in args.alphas.split(",")]
    betas = [float(x) for x in args.betas.split(",")]
    thetas = [float(x) for x in args.thetas.split(",")]
    grid = [(a, b, t) for a in alphas for b in betas for t in thetas]
    if not grid:
        raise ConfigError("empty weight grid")
    configs, bad = [], []
    for i, (a, b, t) in enumerate(grid):
        try:
            configs.append(dataclasses.replace(cfg_base, alpha=a, beta=b, theta=t))
        except ValueError as exc:
            bad.append((i, str(exc)))
    if bad:
        raise ConfigError(f"invalid grid points at indices {[i for i, _ in bad]}: "
                          f"{bad[0][1]}")
    resolved["sweep.alphas"] = args.alphas
    resolved["sweep.betas"] = args.betas
    resolved["sweep.thetas"] = args.thetas
    write_config_echo(os.path.join(out, "config.txt"), resolved)

    ds = _load_dataset(args.data, resolved["data.label_column"])
    fractions = [float(x) for x in str(resolved["data.fractions"]).split(",")]
    if fractions[2] <= 0:
        fractions = [0.6, 0.2, 0.2]
    train_ds, valid_ds, test_ds = dio.split(ds, fractions, stratified=True,
                                            seed=cfg_base.seed)
    _, train_ds, (valid_ds, test_ds) = _normalize(
        train_ds, [valid_ds, test_ds], resolved["data.normalize"])

    results = [_sweep_point(cfg, train_ds, valid_ds, test_ds) for cfg in configs]

    rows = []
    for i, res in enumerate(results):
        rows.append([repr(res["alpha"]), repr(res["beta"]), repr(res["theta"]),
                     repr(res["accuracy"]), repr(res["macro_sensitivity"]),
                     repr(res["macro_specificity"]), repr(res["auc"])])
        for cls, curve in res["rocs"]:
            _write_roc_csv(os.path.join(out, f"roc_point{i}_class{cls}.csv"), curve)
    header = ["alpha", "beta", "theta", "accuracy", "macro_sensitivity",
              "macro_specificity", "auc"]
    write_csv_atomic(os.path.join(out, "sweep.csv"), header, rows)
    return EXIT_OK


def cmd_noise(args) -> int:
    out = _out_dir(args, "noise")
    loaded = {}
    for path in args.model:
        encoder, model = _load_model_checked(path)
        if model.dim in loaded:
            raise ConfigError(f"{path}: another --model already has dim {model.dim}")
        loaded[model.dim] = (encoder, model)
    ds = _load_eval_data(args, *(encoder for encoder, _ in loaded.values()))
    models_by_dim = {dim: (model, encoder.encode_batch(ds.features), ds.labels)
                     for dim, (encoder, model) in loaded.items()}
    bits_list = [int(b) for b in args.bits.split(",")]
    rates = [float(r) for r in args.rates.split(",")]
    write_config_echo(os.path.join(out, "config.txt"), {
        "noise.models": ",".join(args.model), "noise.data": args.data,
        "noise.bits": args.bits, "noise.rates": args.rates,
        "noise.trials": args.trials, "noise.seed": args.seed,
        "noise.norm": args.norm or "",
    })
    grid = [(dim, bits, rate) for dim in sorted(models_by_dim)
            for bits in bits_list for rate in rates]
    cells = robustness.noise_sweep(models_by_dim, grid, args.trials, args.seed)
    robustness.write_sweep_csv(os.path.join(out, "noise.csv"), cells)
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
        if len(bits) >= 2 and (dims[-1], bits[0], rate) in by_key:
            summary["precision_ordering"] = bool(
                by_key[(dims[-1], bits[0], rate)] < by_key[(dims[-1], bits[-1], rate)])
        if len(dims) >= 2 and (dims[0], bits[-1], rate) in by_key:
            summary["dimensionality_ordering"] = bool(
                by_key[(dims[-1], bits[-1], rate)] < by_key[(dims[0], bits[-1], rate)])
    return summary


def cmd_roc(args) -> int:
    out = _out_dir(args, "roc")
    encoder, model = _load_model_checked(args.model)
    ds = _load_eval_data(args, encoder)
    if not 0 <= args.class_id < model.n_classes:
        raise ConfigError(f"class id {args.class_id} outside [0, {model.n_classes})")
    write_config_echo(os.path.join(out, "config.txt"), {
        "roc.model": args.model, "roc.data": args.data,
        "roc.class_id": args.class_id, "roc.score": args.score,
        "roc.norm": args.norm or "",
    })
    encoded = encoder.encode_batch(ds.features)
    truth = (ds.labels == args.class_id).astype(int)
    if truth.min() == truth.max():
        raise DataError(f"class {args.class_id} is absent or exhaustive in the data")
    scorer = metrics.margin_scores if args.score == "margin" else metrics.raw_scores
    curve = metrics.roc_curve(scorer(model, encoded, args.class_id), truth)
    _write_roc_csv(os.path.join(out, "roc.csv"), curve)
    write_json_atomic(os.path.join(out, "roc.json"),
                      {"auc": curve.auc, "score": args.score,
                       "class_id": args.class_id})
    return EXIT_OK


def _write_roc_csv(path: str, curve) -> None:
    rows = [[repr(fpr), repr(tpr)] for fpr, tpr in curve.points]
    write_csv_atomic(path, ["fpr", "tpr"], rows)


# ---------------------------------------------------------------------------
# argument parsing

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    for key, default in TRAIN_DEFAULTS.items():
        dest = key.split(".", 1)[1]
        flag = "--" + dest.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, dest=dest, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=dest, type=type(default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdclass")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic blobs dataset")
    p.add_argument("--features", type=int, default=10)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", dest="per_class", type=int, default=200)
    p.add_argument("--separation", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--valid")
    p.add_argument("--dump-regen", dest="dump_regen", action="store_true")
    p.add_argument("--out")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--norm")
    p.add_argument("--topk", default="1,2")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-weights", help="grid sweep over alpha/beta/theta")
    p.add_argument("--data", required=True)
    p.add_argument("--alphas", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--thetas", required=True)
    p.add_argument("--out")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_weights)

    p = sub.add_parser("noise", help="bit-flip robustness sweep")
    p.add_argument("--model", action="append", required=True,
                   help="trained model container; repeat per dimensionality")
    p.add_argument("--data", required=True)
    p.add_argument("--norm")
    p.add_argument("--bits", default="1,8")
    p.add_argument("--rates", default="0,5,10")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--out")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("roc", help="export a one-vs-rest ROC curve")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--norm")
    p.add_argument("--class-id", dest="class_id", type=int, required=True)
    p.add_argument("--score", choices=["margin", "raw"], default="margin")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--out")
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
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except (DataError, dio.ParseError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except ValueError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
