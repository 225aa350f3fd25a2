"""End-to-end tests for the command-line harness."""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import decode_array, encode_array, fed_fifo, format_1_document
from hdclass import cli, core, learner, metrics, robustness
from hdclass.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, TRAIN_DEFAULTS,
                         build_parser, main, resolve_train_config,
                         train_config_from_resolved)
from hdclass.core import ranking, similarity_matrix
from hdclass.data import (NormalizationSpec, apply_normalizer, fit_normalizer, load_csv,
                          save_csv, split, synth_blobs)
from hdclass.learner import TrainConfig, train
from hdclass.metrics import margin_scores, roc_curve, top_k_accuracy
from hdclass.serialize import load_model, save_model

TRAIN_FIELDS = dataclasses.fields(TrainConfig)


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def blobs_csv(tmp_path):
    out = tmp_path / "synth"
    code = run("synth", "--features", "6", "--classes", "3",
               "--per-class", "60", "--separation", "3.0", "--seed", "1",
               "--out", str(out))
    assert code == EXIT_OK
    return str(out / "blobs.csv")


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    """A 3-feature, 3-class blobs file of 8 rows per class."""
    out = tmp_path_factory.mktemp("tiny")
    assert run("synth", "--features", "3", "--classes", "3", "--per-class", "8",
               "--out", str(out)) == EXIT_OK
    return str(out / "blobs.csv")


@pytest.fixture()
def trained(tmp_path, blobs_csv):
    out = tmp_path / "train"
    code = run("train", "--data", blobs_csv, "--dim", "32",
               "--max-iters", "3", "--seed", "0",
               "--fractions", "0.7,0.3,0.0", "--out", str(out))
    assert code == EXIT_OK
    return str(out)


class TestSynth:
    def test_writes_csv_and_echo(self, tmp_path):
        out = tmp_path / "s"
        assert run("synth", "--per-class", "5", "--out", str(out)) == EXIT_OK
        assert (out / "blobs.csv").exists()
        assert (out / "config.txt").exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("synth", "--per-class", "10", "--seed", "3", "--out", str(out))
        assert (a / "blobs.csv").read_bytes() == (b / "blobs.csv").read_bytes()

    def test_without_out_writes_under_the_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path))
        assert run("synth", "--classes", "2", "--per-class", "3") == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "synth").iterdir()) == [
            "blobs.csv", "config.txt"]

    def test_one_class_is_centred_on_the_origin(self, tmp_path):
        # The class mean is drawn, then zeroed, so the features are the
        # stream's next draw exactly.
        assert run("synth", "--features", "4", "--classes", "1", "--per-class", "5",
                   "--seed", "3", "--out", str(tmp_path)) == EXIT_OK
        rng = np.random.default_rng(np.random.SeedSequence(3))
        rng.standard_normal((1, 4))
        assert np.array_equal(load_csv(str(tmp_path / "blobs.csv")).features,
                              rng.standard_normal((5, 4)))


class TestTrain:
    def test_artifacts(self, trained):
        for name in ("model.json", "report.jsonl", "norm.json", "config.txt"):
            assert os.path.exists(os.path.join(trained, name)), name
        assert not os.path.exists(os.path.join(trained, "labels.json"))

    def test_config_echo_contains_resolved_values(self, trained):
        text = open(os.path.join(trained, "config.txt")).read()
        assert "train.dim = 32" in text
        assert "train.alpha = 2.0" in text

    def test_config_file_overridden_by_flag(self, tmp_path, blobs_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.dim = 16\ntrain.max_iters = 2\n")
        out = tmp_path / "t2"
        assert run("train", "--data", blobs_csv, "--config", str(cfg),
                   "--dim", "24", "--fractions", "0.7,0.3,0.0",
                   "--out", str(out)) == EXIT_OK
        text = (out / "config.txt").read_text()
        assert "train.dim = 24" in text
        assert "train.max_iters = 2" in text

    def test_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes("\ufefftrain.dim = 16\n".encode("utf-8"))
        args = build_parser().parse_args(["train", "--data", "x", "--config", str(cfg)])
        assert resolve_train_config(args)["train.dim"] == 16

    def test_padded_header_cell_is_chosen_by_name(self, tmp_path, blobs_csv):
        """A ``", "`` file pads its header cells as it pads its labels."""
        padded = tmp_path / "padded.csv"
        padded.write_text("".join(", ".join(row) + "\n" for row in _read_rows(blobs_csv)))
        assert padded.read_text().splitlines()[0].endswith(", label")
        argv = ["--dim", "16", "--max-iters", "2", "--shuffle"]
        plain, spaced = tmp_path / "plain", tmp_path / "spaced"
        assert run("train", "--data", blobs_csv, *argv, "--out", str(plain)) == EXIT_OK
        assert run("train", "--data", str(padded), "--label-column", "label", *argv,
                   "--out", str(spaced)) == EXIT_OK
        for name in ("model.json", "report.jsonl", "norm.json"):
            assert (spaced / name).read_bytes() == (plain / name).read_bytes(), name

    def test_unknown_config_key_is_config_error(self, tmp_path, blobs_csv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train.bogus = 1\n")
        assert run("train", "--data", blobs_csv, "--config", str(cfg),
                   "--out", str(tmp_path / "t3")) == EXIT_CONFIG

    def test_unclosed_quote_is_data_error(self, tmp_path, caplog):
        data = tmp_path / "quote.csv"
        data.write_text('a,b,label\n1,"2,x\n' + "3,4,y\n" * 30000)
        assert run("train", "--data", str(data),
                   "--out", str(tmp_path / "t10")) == EXIT_DATA
        assert any(str(data) in r.getMessage() for r in caplog.records
                   if r.levelno == logging.ERROR)

    def test_missing_data_is_data_error(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "t4")) == EXIT_DATA

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_data_is_data_error(self, tmp_path, kind):
        data = tmp_path / "data.csv"
        if kind == "directory":
            data.mkdir()
        else:
            data.write_bytes(b"a,b,label\n1,2,\xff\n")
        assert run("train", "--data", str(data),
                   "--out", str(tmp_path / "t9")) == EXIT_DATA

    def test_invalid_theta_is_config_error(self, tmp_path, blobs_csv):
        assert run("train", "--data", blobs_csv, "--theta", "2.0",
                   "--out", str(tmp_path / "t5")) == EXIT_CONFIG

    def test_empty_validation_split_is_config_error(self, tmp_path, blobs_csv,
                                                     caplog):
        assert run("train", "--data", blobs_csv, "--dim", "16",
                   "--max-iters", "2", "--fractions", "1.0,0.0,0.0",
                   "--out", str(tmp_path / "t7")) == EXIT_CONFIG
        assert any("validation set is empty" in r.message for r in caplog.records)

    def test_unrecognised_boolean_is_config_error(self, tmp_path, blobs_csv):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("train.shuffle = ture\n")
        assert run("train", "--data", blobs_csv, "--config", str(cfg),
                   "--out", str(tmp_path / "t8")) == EXIT_CONFIG

    @pytest.mark.parametrize("word,value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False)])
    def test_boolean_spellings(self, tmp_path, word, value):
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"train.shuffle = {word}\n")
        args = build_parser().parse_args(["train", "--data", "x", "--config", str(cfg)])
        assert resolve_train_config(args)["train.shuffle"] is value

    def test_class_grouped_order_warns(self, tmp_path, blobs_csv, caplog):
        argv = ["train", "--data", blobs_csv, "--dim", "16", "--max-iters", "1",
                "--fractions", "0.7,0.3,0.0"]
        with caplog.at_level(logging.WARNING):
            assert run(*argv, "--out", str(tmp_path / "grouped")) == EXIT_OK
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "--shuffle" in warnings[0].getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert run(*argv, "--shuffle", "--out", str(tmp_path / "mixed")) == EXIT_OK
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

    def test_snapshot_older_than_every_regeneration_warns(self, tmp_path, caplog):
        # On these rows the dynamic run returns its iteration-1 snapshot,
        # taken before the first regeneration.
        assert run("synth", "--features", "8", "--classes", "4", "--per-class", "60",
                   "--separation", "2.0", "--seed", "3",
                   "--out", str(tmp_path / "synth")) == EXIT_OK
        argv = ["train", "--data", str(tmp_path / "synth" / "blobs.csv"), "--dim", "64",
                "--max-iters", "6", "--regen-rate", "40", "--shuffle"]
        with caplog.at_level(logging.WARNING):
            assert run(*argv, "--out", str(tmp_path / "dynamic")) == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "train returned the snapshot of iteration 1, which predates every regeneration "
            "(the first came at iteration 1), so alpha, beta and theta did not shape its "
            "model"]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert run(*argv, "--mode", "static", "--out", str(tmp_path / "static")) == EXIT_OK
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert run("sweep-weights", "--data", argv[2], "--dim", "32", "--max-iters", "6",
                       "--regen-rate", "40", "--shuffle", "--alphas", "1.0,2.0",
                       "--betas", "1.0", "--thetas", "0.25",
                       "--out", str(tmp_path / "sweep")) == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [w.split(" returned")[0] for w in warnings] == [
            "the grid point alpha=1.0, beta=1.0, theta=0.25",
            "the grid point alpha=2.0, beta=1.0, theta=0.25"]

    @pytest.mark.parametrize("command", [
        ["train"], ["sweep-weights", "--alphas", "1.0", "--betas", "1.0", "--thetas", "0.25"]],
        ids=["train", "sweep-weights"])
    def test_dynamic_run_on_two_classes_warns_once(self, tmp_path, caplog, command):
        def warnings(classes, mode):
            synth = tmp_path / f"synth{classes}"
            assert run("synth", "--features", "6", "--classes", str(classes),
                       "--per-class", "40", "--separation", "1.0",
                       "--out", str(synth)) == EXIT_OK
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                assert run(*command, "--data", str(synth / "blobs.csv"), "--dim", "32",
                           "--max-iters", "3", "--shuffle", "--mode", mode,
                           "--out", str(tmp_path / f"{classes}{mode}")) == EXIT_OK
            return [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING and "two classes" in r.getMessage()]

        assert len(warnings(2, "dynamic")) == 1
        assert warnings(2, "static") == [] and warnings(3, "dynamic") == []

    def test_dynamic_run_on_two_classes_trains_as_static(self, tmp_path):
        assert run("synth", "--features", "6", "--classes", "2", "--per-class", "100",
                   "--separation", "1.0", "--out", str(tmp_path / "synth")) == EXIT_OK
        outs = {}
        for mode in ("dynamic", "static"):
            outs[mode] = tmp_path / mode
            assert run("train", "--data", str(tmp_path / "synth" / "blobs.csv"),
                       "--dim", "32", "--max-iters", "8", "--regen-rate", "40",
                       "--shuffle", "--mode", mode, "--out", str(outs[mode])) == EXIT_OK
        for name in ("model.json", "report.jsonl"):
            assert (outs["dynamic"] / name).read_bytes() == (outs["static"] / name).read_bytes()

    def test_dump_regen(self, tmp_path, blobs_csv):
        out = tmp_path / "t6"
        assert run("train", "--data", blobs_csv, "--dim", "32",
                   "--max-iters", "3", "--regen-rate", "40",
                   "--fractions", "0.7,0.3,0.0", "--dump-regen",
                   "--out", str(out)) == EXIT_OK
        assert (out / "regen_dump.csv").exists()
        selected = {}
        for row in csv.DictReader(open(out / "regen_dump.csv")):
            it = int(row["iteration"])
            selected[it] = selected.get(it, 0) + int(row["selected"])
        report = [json.loads(line) for line in open(out / "report.jsonl")]
        assert selected == {r["iteration"]: r["regenerated"] for r in report[:-1]}

    def test_loader_holds_the_parts_and_one_normalized_part(self, tmp_path, monkeypatch):
        # From the normalizer's fit on, the loader holds the split parts (the
        # unsplit rows are gone) and, while a part is normalized, its copy and
        # the finite check's mask of that copy (a byte a cell).  Keeping the
        # unsplit rows or every raw part beside the normalized ones costs
        # half the features or more.
        ds = synth_blobs(64, 4, 500, 3.0, seed=0)
        path = str(tmp_path / "blobs.csv")
        save_csv(path, ds)
        features = ds.features.nbytes
        del ds
        args = build_parser().parse_args(["train", "--data", path, "--fractions", "0.5,0.5,0",
                                          "--out", str(tmp_path / "out")])
        cli._load_training(args, test_split=False)  # warm imports and numpy's caches
        fit = cli.dio.fit_normalizer

        def fit_from_here(*fit_args):
            tracemalloc.reset_peak()
            return fit(*fit_args)

        monkeypatch.setattr(cli.dio, "fit_normalizer", fit_from_here)
        tracemalloc.start()
        try:
            *_, sets = cli._load_training(args, test_split=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(part.features.nbytes for part in sets) == features
        largest = max(part.features.nbytes for part in sets)
        assert peak <= features + largest + largest // 8 + (1 << 16)


def _nudged(default):
    """A valid non-default value of a TrainConfig field (strings keep theirs)."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 0.9
    return default


class TestTrainOptionsSource:
    """Every TrainConfig field is a flag, a config key and an echoed line."""

    @pytest.mark.parametrize("field", TRAIN_FIELDS, ids=lambda f: f.name)
    def test_flag_parses(self, field):
        value = _nudged(field.default)
        argv = ["train", "--data", "x", "--" + field.name.replace("_", "-")]
        if not isinstance(value, bool):
            argv.append(str(value))
        args = build_parser().parse_args(argv)
        assert getattr(args, field.name) == value
        assert resolve_train_config(args)[f"train.{field.name}"] == value

    @pytest.mark.parametrize("field", TRAIN_FIELDS, ids=lambda f: f.name)
    def test_config_key_is_echoed(self, tmp_path, tiny_csv, field):
        value = _nudged(field.default)
        cfg = tmp_path / "one.cfg"
        # A small run, with the nudged value last so that it wins.
        keys = {"dim": 16, "max_iters": 2, field.name: value}
        cfg.write_text("".join(f"train.{key} = {v}\n" for key, v in keys.items()))
        out = tmp_path / "echo"
        assert run("train", "--data", tiny_csv, "--config", str(cfg),
                   "--out", str(out)) == EXIT_OK
        lines = (out / "config.txt").read_text().splitlines()
        assert f"train.{field.name} = {value}" in lines

    def test_default_config_echo_is_golden(self, tmp_path, blobs_csv):
        out = tmp_path / "defaults"
        assert run("train", "--data", blobs_csv, "--out", str(out)) == EXIT_OK
        assert (out / "config.txt").read_text().splitlines() == [
            "data.fractions = 0.8,0.2,0.0",
            "data.label_column = -1",
            "data.normalize = zscore",
            "train.alpha = 2.0",
            "train.beta = 1.0",
            "train.dim = 500",
            "train.max_iters = 30",
            "train.min_delta = 0.001",
            "train.mode = dynamic",
            "train.patience = 5",
            "train.regen_rate = 20.0",
            "train.seed = 0",
            "train.shuffle = False",
            "train.theta = 0.5",
        ]

    def test_valid_file_run_echoes_no_fractions(self, tmp_path, blobs_csv):
        out = tmp_path / "valid"
        assert run("train", "--data", blobs_csv, "--valid", blobs_csv, "--dim", "16",
                   "--max-iters", "1", "--out", str(out)) == EXIT_OK
        echo = (out / "config.txt").read_text().splitlines()
        keys = [line.split(" = ")[0] for line in echo]
        assert keys == sorted(set(TRAIN_DEFAULTS) - {"data.fractions"})


CONFIG_VALUES = ["", "0", "-1", "7", "2.5", "0.5", "1e3", "1e400", "nan", "inf",
                 "-inf", "9" * 40, "0x10", "1_0", "١", "true", "ture", "Off", "dynamic",
                 "static", "listing", "minmax", "0.5,0.5,0.0", "a b", "=", "#"]


@st.composite
def config_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["pair", "pair", "pair", "comment", "blank", "text"]))
        if kind == "pair":
            key = draw(st.one_of(st.sampled_from(sorted(TRAIN_DEFAULTS)), st.text(max_size=8)))
            value = draw(st.one_of(st.sampled_from(CONFIG_VALUES), st.text(max_size=8)))
            lines.append(f"{key}{draw(st.sampled_from(['=', ' = ', '==']))}{value}")
        elif kind == "comment":
            lines.append("# " + draw(st.text(max_size=8)))
        elif kind == "text":
            lines.append(draw(st.text(max_size=12)))
        else:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=config_texts())
def test_fuzzed_config_file_raises_only_config_errors(tmp_path_factory, text):
    """Any config file yields a TrainConfig or an error that exits 1."""
    path = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
    # Lone surrogates become bytes that are not UTF-8.
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    args = build_parser().parse_args(["train", "--data", "x", "--config", str(path)])
    try:
        train_config_from_resolved(resolve_train_config(args))
    except ValueError:
        pass


BAD_FILE_CASES = ["missing_norm", "norm_without_shift", "norm_not_json",
                  "model_is_directory", "rng_state_not_dict",
                  "classes_narrower_than_dim", "nan_prototype", "inf_base_row",
                  "base64_not_decodable", "array_bytes_short", "model_not_an_object"]


def _bad_files(tmp_path, trained):
    """(model path, norm path) pairs, each with one unreadable or malformed file."""
    model = os.path.join(trained, "model.json")
    norm = os.path.join(trained, "norm.json")
    doc = json.load(open(model))
    doc["rng_state"] = 5
    bad_rng = tmp_path / "bad_rng.json"
    bad_rng.write_text(json.dumps(doc))
    no_shift = tmp_path / "no_shift.json"
    no_shift.write_text(json.dumps({"mode": "zscore", "scale": [1.0] * 6}))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json\n")
    good = json.load(open(model))
    k, dim, n = good["n_classes"], good["dim"], good["n_features"]
    classes = decode_array(good, "classes", (k, dim))
    base = decode_array(good, "base", (dim, n))
    bad_models = {
        "classes_narrower_than_dim": dict(good, classes=encode_array(classes[:, :-1])),
        "nan_prototype": dict(good, classes=encode_array(
            np.where(np.arange(dim) == 0, math.nan, classes))),
        "inf_base_row": dict(good, base=encode_array(
            np.vstack([np.full(n, math.inf), base[1:]]))),
        "base64_not_decodable": dict(good, classes="not base64!"),
        "array_bytes_short": dict(good, base=good["base"][:-4]),
        "model_not_an_object": [],
    }
    for case, bad in bad_models.items():
        (tmp_path / f"{case}.json").write_text(json.dumps(bad))
    return {
        "missing_norm": (model, str(tmp_path / "missing.json")),
        "norm_without_shift": (model, str(no_shift)),
        "norm_not_json": (model, str(not_json)),
        "model_is_directory": (str(tmp_path), norm),
        "rng_state_not_dict": (str(bad_rng), norm),
        **{case: (str(tmp_path / f"{case}.json"), norm) for case in bad_models},
    }


@pytest.mark.parametrize("case", BAD_FILE_CASES)
@pytest.mark.parametrize("command", ["eval", "roc", "noise"])
def test_bad_model_or_norm_file_is_data_error(tmp_path, trained, blobs_csv, caplog,
                                              command, case):
    model, norm = _bad_files(tmp_path, trained)[case]
    extra = ["--class-id", "0"] if command == "roc" else []
    assert run(command, "--model", model, "--data", blobs_csv, "--norm", norm,
               *extra, "--out", str(tmp_path / "out")) == EXIT_DATA
    bad_path = norm if case.startswith(("missing", "norm")) else model
    assert any(bad_path in r.getMessage() for r in caplog.records
               if r.levelno == logging.ERROR)


@pytest.mark.parametrize("which", ["model", "norm"])
def test_model_or_norm_file_may_start_with_a_byte_order_mark(tmp_path, trained, blobs_csv,
                                                             which):
    files = {name: os.path.join(trained, f"{name}.json") for name in ("model", "norm")}
    bom = tmp_path / f"{which}.json"
    with open(files[which], "rb") as fh:
        bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
    for out, chosen in (("plain", files), ("bom", {**files, which: str(bom)})):
        assert run("eval", "--model", chosen["model"], "--data", blobs_csv,
                   "--norm", chosen["norm"], "--out", str(tmp_path / out)) == EXIT_OK
    assert ((tmp_path / "bom" / "eval.json").read_bytes()
            == (tmp_path / "plain" / "eval.json").read_bytes())


def _run_with_norm(tmp_path, trained, blobs_csv, command, **changes):
    """Run ``command`` with the trained norm.json edited by ``changes``."""
    doc = json.load(open(os.path.join(trained, "norm.json")))
    norm = tmp_path / "edited_norm.json"
    norm.write_text(json.dumps(dict(doc, **{k: f(doc) for k, f in changes.items()})))
    extra = ["--class-id", "0"] if command == "roc" else []
    code = run(command, "--model", os.path.join(trained, "model.json"),
               "--data", blobs_csv, "--norm", str(norm), *extra,
               "--out", str(tmp_path / "out"))
    return code, str(norm)


def _logged_error(caplog, text):
    return any(text in r.getMessage() for r in caplog.records
               if r.levelno == logging.ERROR)


@pytest.mark.parametrize("command", ["eval", "roc", "noise"])
def test_norm_narrower_than_data_is_data_error(tmp_path, trained, blobs_csv, caplog,
                                               command):
    code, norm = _run_with_norm(tmp_path, trained, blobs_csv, command,
                                shift=lambda d: d["shift"][:2],
                                scale=lambda d: d["scale"][:2])
    assert code == EXIT_DATA
    assert _logged_error(caplog, norm)


@pytest.mark.parametrize("command", ["eval", "roc", "noise"])
def test_unknown_norm_mode_is_data_error(tmp_path, trained, blobs_csv, caplog, command):
    code, norm = _run_with_norm(tmp_path, trained, blobs_csv, command,
                                mode=lambda d: "bogus")
    assert code == EXIT_DATA
    assert _logged_error(caplog, norm)


@pytest.mark.parametrize("command", ["eval", "roc", "noise"])
def test_nan_norm_scale_is_data_error(tmp_path, trained, blobs_csv, caplog, command):
    code, norm = _run_with_norm(tmp_path, trained, blobs_csv, command,
                                scale=lambda d: [math.nan] * len(d["scale"]))
    assert code == EXIT_DATA
    assert _logged_error(caplog, norm)


class TestEval:
    def test_eval_json(self, tmp_path, trained, blobs_csv):
        out = tmp_path / "eval"
        assert run("eval", "--model", os.path.join(trained, "model.json"),
                   "--data", blobs_csv,
                   "--norm", os.path.join(trained, "norm.json"),
                   "--out", str(out)) == EXIT_OK
        doc = json.load(open(out / "eval.json"))
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert doc["top_k_accuracy"]["2"] >= doc["top_k_accuracy"]["1"]
        assert len(doc["confusion_matrix"]) == 3

    def test_data_from_a_fifo(self, tmp_path, trained, blobs_csv):
        args = ["eval", "--model", os.path.join(trained, "model.json"),
                "--norm", os.path.join(trained, "norm.json")]
        assert run(*args, "--data", blobs_csv, "--out", str(tmp_path / "file")) == EXIT_OK
        with open(blobs_csv, "rb") as fh, fed_fifo(str(tmp_path / "fifo"), fh.read()) as fifo:
            assert run(*args, "--data", fifo, "--out", str(tmp_path / "fifo_eval")) == EXIT_OK
        assert ((tmp_path / "fifo_eval" / "eval.json").read_bytes()
                == (tmp_path / "file" / "eval.json").read_bytes())

    def test_missing_model(self, tmp_path, blobs_csv):
        assert run("eval", "--model", str(tmp_path / "no.json"),
                   "--data", blobs_csv, "--out", str(tmp_path / "e2")) \
            == EXIT_DATA

    def test_bad_topk(self, tmp_path, trained, blobs_csv):
        assert run("eval", "--model", os.path.join(trained, "model.json"),
                   "--data", blobs_csv, "--topk", "9",
                   "--out", str(tmp_path / "e3")) == EXIT_CONFIG


class TestRoc:
    def test_curve_outputs(self, tmp_path, trained, blobs_csv):
        out = tmp_path / "roc"
        assert run("roc", "--model", os.path.join(trained, "model.json"),
                   "--data", blobs_csv,
                   "--norm", os.path.join(trained, "norm.json"),
                   "--class-id", "0", "--out", str(out)) == EXIT_OK
        doc = json.load(open(out / "roc.json"))
        assert 0.0 <= doc["auc"] <= 1.0
        rows = list(csv.reader(open(out / "roc.csv")))
        assert rows[0] == ["fpr", "tpr"]
        assert rows[1] == ["0.0", "0.0"]
        assert rows[-1] == ["1.0", "1.0"]

    def test_bad_class_id(self, tmp_path, trained, blobs_csv):
        assert run("roc", "--model", os.path.join(trained, "model.json"),
                   "--data", blobs_csv, "--class-id", "7",
                   "--out", str(tmp_path / "r2")) == EXIT_CONFIG


class TestNoise:
    def test_sweep_outputs(self, tmp_path, trained, blobs_csv):
        out = tmp_path / "noise"
        assert run("noise", "--model", os.path.join(trained, "model.json"),
                   "--data", blobs_csv,
                   "--norm", os.path.join(trained, "norm.json"),
                   "--bits", "1,8", "--rates", "0,10", "--trials", "3",
                   "--out", str(out)) == EXIT_OK
        rows = list(csv.reader(open(out / "noise.csv")))
        assert rows[0][:3] == ["dim", "bits", "rate"]
        assert len(rows) == 1 + 4  # 2 bits x 2 rates
        summary = json.load(open(out / "summary.json"))
        assert set(summary) == {"precision_ordering", "dimensionality_ordering"}

    def test_two_dims_write_a_dimensionality_ordering(self, tmp_path, trained, blobs_csv):
        wider = tmp_path / "train48"
        assert run("train", "--data", blobs_csv, "--dim", "48", "--max-iters", "3",
                   "--seed", "0", "--fractions", "0.7,0.3,0.0",
                   "--out", str(wider)) == EXIT_OK
        out = tmp_path / "noise"
        assert run("noise", "--model", os.path.join(trained, "model.json"),
                   "--model", str(wider / "model.json"), "--data", blobs_csv,
                   "--norm", os.path.join(trained, "norm.json"), "--trials", "2",
                   "--out", str(out)) == EXIT_OK
        summary = json.load(open(out / "summary.json"))
        assert isinstance(summary["dimensionality_ordering"], bool)

    def test_two_models_of_one_dim_are_config_error(self, tmp_path, trained,
                                                    blobs_csv, caplog):
        first = os.path.join(trained, "model.json")
        second = str(tmp_path / "copy.json")
        shutil.copy(first, second)
        assert run("noise", "--model", first, "--model", second,
                   "--data", blobs_csv, "--out", str(tmp_path / "n3")) == EXIT_CONFIG
        assert any(second in r.getMessage() for r in caplog.records
                   if r.levelno == logging.ERROR)
        assert not (tmp_path / "n3" / "noise.csv").exists()

    @pytest.mark.parametrize("order", ["matching_first", "matching_second"])
    def test_every_model_is_checked_against_the_data(self, tmp_path, trained,
                                                     blobs_csv, order, caplog):
        wide = tmp_path / "wide"
        assert run("synth", "--features", "10", "--classes", "3",
                   "--per-class", "20", "--out", str(wide / "synth")) == EXIT_OK
        assert run("train", "--data", str(wide / "synth" / "blobs.csv"),
                   "--dim", "48", "--max-iters", "1",
                   "--out", str(wide / "train")) == EXIT_OK
        models = [os.path.join(trained, "model.json"), str(wide / "train" / "model.json")]
        if order == "matching_second":
            models.reverse()
        assert run("noise", "--model", models[0], "--model", models[1],
                   "--data", blobs_csv, "--out", str(tmp_path / "n4")) == EXIT_DATA
        assert any("feature count mismatch" in r.getMessage()
                   for r in caplog.records if r.levelno == logging.ERROR)
        assert not (tmp_path / "n4" / "noise.csv").exists()

    def test_toy_run_is_golden(self, tmp_path):
        """``noise.csv`` and ``summary.json`` of a fixed sweep, by digest.

        The models are drawn, not trained: class-mean prototypes of two
        seeded encoders, so that only the sweep decides the bytes.  A change
        to the trial seeds' entropy order, the flips or the summary rule
        changes them.  BLAS reaches the bytes only through quantization
        codes and argmax decisions, which a last-bit difference moves only
        at a tie."""
        ds = synth_blobs(6, 3, 20, 3.0, seed=1)
        data = str(tmp_path / "data.csv")
        save_csv(data, ds)
        models = []
        for dim in (32, 64):
            encoder = core.Encoder.create(6, dim, seed=dim)
            encoder.input_scale = 6 ** -0.5
            encoded = encoder.encode_batch(ds.features)
            means = np.stack([encoded[ds.labels == c].mean(axis=0) for c in range(3)])
            models += ["--model", str(tmp_path / f"model{dim}.json")]
            save_model(models[-1], encoder, core.ClassModel(means, ds.names))
        out = tmp_path / "noise"
        assert run("noise", *models, "--data", data, "--bits", "1,8",
                   "--rates", "0,10,30", "--trials", "3", "--seed", "5",
                   "--out", str(out)) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("noise.csv", "summary.json")}
        assert digests == {
            "noise.csv": "e26a65be659ab3513783a7b1bcf7fbf84ac5497e6b359e35b00b28c80668a081",
            "summary.json": "92fe28d379a880ccee4389638c913c64b09d7ae3514eb0f4c9316413254dcb30"}

    def test_ordering_summary_of_a_hand_built_grid(self):
        # Losses by (dim, bits, rate); rate 0 flips nothing.  The summary
        # reads the smallest positive rate, 5: at the widest dim, 200,
        # 1 bit loses 1.0 < 4.0 at 8 bits, so precision_ordering is true;
        # at 8 bits, dim 200 loses 4.0 < 6.0 at dim 100, so
        # dimensionality_ordering is true.  Rate 10 would give false for
        # both (9 > 2, 2 > 1), and so would a flipped comparison.
        losses = {(100, 1, 5.0): 7.0, (100, 8, 5.0): 6.0, (200, 1, 5.0): 1.0,
                  (200, 8, 5.0): 4.0, (100, 1, 10.0): 3.0, (100, 8, 10.0): 1.0,
                  (200, 1, 10.0): 9.0, (200, 8, 10.0): 2.0}
        losses.update({(dim, bits, 0.0): 0.0 for dim in (100, 200) for bits in (1, 8)})
        cells = [robustness.SweepCell(dim, bits, rate, 3, loss, 0.0)
                 for (dim, bits, rate), loss in sorted(losses.items(), reverse=True)]
        assert cli._ordering_summary(cells) == {"precision_ordering": True,
                                                "dimensionality_ordering": True}

    def test_missing_model(self, tmp_path, blobs_csv):
        assert run("noise", "--model", str(tmp_path / "no.json"),
                   "--data", blobs_csv, "--out", str(tmp_path / "n2")) \
            == EXIT_DATA


@pytest.mark.parametrize("argv", [
    ["train", "--alpha", "nan"], ["train", "--beta", "nan"], ["train", "--theta", "nan"],
    ["train", "--min-delta", "nan"], ["synth", "--separation", "nan"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_non_finite_number_is_config_error(tmp_path, blobs_csv, caplog, argv):
    out = tmp_path / "out"
    data = ["--data", blobs_csv, "--dim", "16", "--max-iters", "2"]
    assert run(*argv, *(data if argv[0] == "train" else []),
               "--out", str(out)) == EXIT_CONFIG
    assert _logged_error(caplog, "finite")
    assert not (out / "model.json").exists() and not (out / "blobs.csv").exists()


@pytest.mark.parametrize("command, flag", [
    ("train", "--fractions=0.5,0.5,nan"), ("train", "--fractions=nan,nan,nan"),
    ("train", "--fractions=0.5,,0.5"), ("sweep-weights", "--fractions=nan,0.5,0.5"),
    ("sweep-weights", "--alphas=1,,2"), ("sweep-weights", "--betas=inf"),
    ("sweep-weights", "--thetas=0.5,nan"), ("eval", "--topk=1,,2"),
    ("noise", "--bits=1,x"), ("noise", "--rates=5,nan"),
], ids=lambda value: value.lstrip("-"))
def test_bad_comma_list_is_config_error(tmp_path, trained, blobs_csv, caplog, command,
                                        flag):
    base = {
        "train": ["--data", blobs_csv, "--dim", "16", "--max-iters", "2"],
        "sweep-weights": ["--data", blobs_csv, "--dim", "16", "--max-iters", "2",
                          "--alphas", "2", "--betas", "1", "--thetas", "0.5"],
    }.get(command, ["--model", os.path.join(trained, "model.json"), "--data", blobs_csv])
    out = tmp_path / "out"
    assert run(command, *base, flag, "--out", str(out)) == EXIT_CONFIG
    assert _logged_error(caplog, flag.split("=")[0] + ": expected a comma list of finite")
    assert not (out / "config.txt").exists()


@pytest.mark.parametrize("command, flags", [
    ("eval", ["--topk", "9"]), ("roc", ["--class-id", "9"]), ("noise", ["--bits", "3"]),
    ("noise", ["--rates", "101"]), ("noise", ["--trials", "0"]),
    ("train", ["--fractions", "1.0,0.0,0.0"]), ("train", ["--data", "one-class.csv"]),
], ids=lambda value: value if isinstance(value, str) else "=".join(value).lstrip("-"))
def test_rejected_flag_leaves_no_config_echo(tmp_path, trained, blobs_csv, command,
                                             flags):
    if command == "train":
        base = ["--data", blobs_csv, "--dim", "16", "--max-iters", "2"]
        if flags[0] == "--data":  # the rows of class "0" only
            one_class = [row for row in _read_rows(blobs_csv) if row[-1] in ("label", "0")]
            flags = ["--data", _write_rows(tmp_path / flags[1], one_class)]
    else:
        base = ["--model", os.path.join(trained, "model.json"), "--data", blobs_csv]
    out = tmp_path / "out"
    assert run(command, *base, *flags, "--out", str(out)) == EXIT_CONFIG
    assert not (out / "config.txt").exists()


TRAINING_REJECTS = [["--normalize", "bogus"], ["--fractions", "0,0,1"],
                    ["--fractions", "0.5,0.6,0"], ["--fractions", "0.5,0.5,-1"],
                    ["--fractions", "0,0,0"], ["--seed", "-1"]]


@pytest.mark.parametrize("command, flags", [
    *[(command, flags) for command in ("train", "sweep-weights")
      for flags in TRAINING_REJECTS],
    ("train", ["--valid", "narrow.csv"]),
    ("synth", ["--features", "0"]), ("synth", ["--classes", "0"]),
    ("synth", ["--per-class", "0"]),
    ("synth", ["--seed", "-1"]), ("noise", ["--seed", "-1"]),
], ids=lambda value: value if isinstance(value, str) else "=".join(value).lstrip("-"))
def test_rejected_training_value_leaves_no_output(tmp_path, tiny_csv, fuzz_base, caplog,
                                                  command, flags):
    """Each value is checked before the config echo, so nothing is written."""
    if flags[0] == "--valid":
        narrow = [row[1:] for row in _read_rows(tiny_csv)]
        flags = ["--valid", _write_rows(tmp_path / flags[1], narrow)]
    out = tmp_path / "out"
    assert run(command, *fuzz_base[command], *flags,
               "--out", str(out)) in (EXIT_CONFIG, EXIT_DATA)
    assert os.listdir(out) == []
    if command in ("synth", "noise"):
        floor = 0 if flags[0] == "--seed" else 1
        assert _logged_error(caplog, f"{flags[0]} must be >= {floor}, got {flags[1]}")


def _option_argv(tmp_path, option):
    """``option``, ``--flag=value`` or ``key=value``, as argv: the flag, or a
    ``--config`` file of that one key."""
    if option.startswith("--"):
        return [option]
    (tmp_path / "one.cfg").write_text(option.replace("=", " = ", 1) + "\n")
    return ["--config", str(tmp_path / "one.cfg")]


DROPPED_OPTIONS = [("train", "--eta=0.1"), ("train", "train.eta=0.1"),
                   ("train", "--n-formula=prose"), ("train", "train.n_formula=prose"),
                   *[("sweep-weights", option) for option in (
                       "--eta=0.1", "--n-formula=prose", "--alpha=7", "--beta=1",
                       "--theta=5", "train.eta=0.1", "train.alpha=7", "train.beta=1",
                       "train.theta=0.5")],
                   ("train --valid", "--fractions=0.5,0.5,0.0"),
                   ("train --valid", "data.fractions=0.5,0.5,0.0")]


@pytest.mark.parametrize("command, option", DROPPED_OPTIONS,
                         ids=lambda value: value.replace(" ", "").lstrip("-"))
def test_option_the_run_does_not_read_leaves_no_output(tmp_path, tiny_csv, fuzz_base,
                                                        caplog, command, option):
    """``train`` has no learning rate or incorrect-row formula to set,
    ``sweep-weights`` takes alpha, beta and theta only from its grid, and
    ``train --valid`` splits nothing: each such flag or ``--config`` key
    exits 1 and writes nothing.  The parser knows none of those flags but
    ``--fractions``."""
    name, _, valid = command.partition(" ")
    base = [*fuzz_base[name], *(["--valid", tiny_csv] if valid else [])]
    out = tmp_path / "out"
    out.mkdir()
    extra = _option_argv(tmp_path, option)
    assert run(name, *base, *extra, "--out", str(out)) == EXIT_CONFIG
    assert os.listdir(out) == []
    if valid or not option.startswith("--"):
        key = "data.fractions" if valid else option.split("=")[0]
        assert _logged_error(caplog, f"{command} reads no ['{key}']")


@pytest.mark.parametrize("command, flag, value", [
    *[(command, "--ou", "x")
      for command in ("synth", "train", "eval", "sweep-weights", "noise", "roc")],
    ("train", "--norm", "none"), ("train", "--frac", "1,0,0"),
], ids=lambda value: value.lstrip("-"))
def test_abbreviated_flag_is_config_error(tmp_path, fuzz_base, capsys, command, flag,
                                          value):
    """No subcommand expands a prefix of a flag: ``--ou`` is not ``--out``, nor
    ``train --norm`` ``--normalize``.  Each exits 1 and writes nothing."""
    out = tmp_path / "out"
    out.mkdir()
    assert run(command, *fuzz_base[command], flag, value, "--out", str(out)) == EXIT_CONFIG
    assert os.listdir(out) == []
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep-weights"])
def test_unallocatable_dim_is_config_error(tmp_path, fuzz_base, caplog, command):
    """2**50 encoder rows fail to allocate at once; the echo is already written."""
    out = tmp_path / "out"
    assert run(command, *fuzz_base[command], "--dim", str(2**50),
               "--out", str(out)) == EXIT_CONFIG
    assert _logged_error(caplog, "allocate")
    assert os.listdir(out) == ["config.txt"]


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--dim", 10**30), ("train", "--dim", 2**62), ("sweep-weights", "--dim", 2**62),
    ("noise", "--trials", 10**30), ("noise", "--trials", 2**62),
])
def test_size_numpy_cannot_describe_is_rejected_before_the_echo(tmp_path, fuzz_base, caplog,
                                                                command, flag, value):
    """A --dim whose D x n encoder base, or a --trials whose loss vector, is
    beyond numpy's byte count exits 1 and writes nothing."""
    out = tmp_path / "out"
    assert run(command, *fuzz_base[command], flag, str(value),
               "--out", str(out)) == EXIT_CONFIG
    assert _logged_error(caplog, f"{flag} {value}: ")
    assert os.listdir(out) == []


FUZZ_ITEMS = ["0", "-1", "nan", "inf", "", "1,,2", str(10**30), str(2**64), "ünï",
              "３"]


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory, tiny_csv):
    """A valid tiny argv per command, without ``--out``."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    data = tiny_csv
    assert run("train", "--data", data, "--dim", "8", "--max-iters", "2",
               "--out", str(root / "train")) == EXIT_OK
    scored = ["--model", str(root / "train" / "model.json"), "--data", data]
    train = ["--data", data, "--dim", "8", "--max-iters", "2"]
    return {
        "synth": ["--features", "3", "--classes", "2", "--per-class", "5"],
        "train": train,
        "sweep-weights": [*train, "--alphas", "2", "--betas", "1", "--thetas", "0.5"],
        "eval": scored,
        "roc": [*scored, "--class-id", "0"],
        "noise": [*scored, "--trials", "2"],
    }


def _actions(command):
    """The argparse actions of ``command``."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return commands.choices[command]._actions


def _value_flags(command):
    """Every option of ``command`` that takes a value, but ``--out``."""
    return sorted(action.option_strings[0] for action in _actions(command)
                  if action.option_strings and action.nargs != 0 and action.dest != "out")


FUZZ_VALUES = st.one_of(
    st.sampled_from(FUZZ_ITEMS),
    st.lists(st.sampled_from([*FUZZ_ITEMS, "0.5", "1", "2"]), min_size=2,
             max_size=3).map(",".join))


def _fuzz_flags(command, *examples):
    """A hypothesis test that sets one flag of a valid ``command`` run to a
    hostile value: main returns a documented exit code with no traceback,
    and exits 0 only with a config echo that holds no non-finite number."""
    @settings(max_examples=25, deadline=None)
    @given(flag=st.sampled_from(_value_flags(command)), value=FUZZ_VALUES)
    def test(tmp_path_factory, fuzz_base, flag, value):
        out = tmp_path_factory.mktemp("fuzz")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run(command, *fuzz_base[command], f"{flag}={value}", "--out", str(out))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code == EXIT_OK:
            for line in (out / "config.txt").read_text().splitlines():
                for item in line.split(" = ", 1)[1].split(","):
                    try:
                        number = float(item)
                    except ValueError:
                        continue
                    assert math.isfinite(number), line

    for flag, value in examples:
        test = example(flag=flag, value=value)(test)
    return test


test_fuzzed_synth_flag = _fuzz_flags("synth", ("--per-class", str(10**30)))
# 2**50 encoder rows (tens of PiB) fail to allocate at once on any host.
test_fuzzed_train_flag = _fuzz_flags("train", ("--fractions", "0.5,0.5,nan"),
                                     ("--dim", str(2**50)))
test_fuzzed_sweep_weights_flag = _fuzz_flags("sweep-weights", ("--dim", str(2**50)))
test_fuzzed_eval_flag = _fuzz_flags("eval")
test_fuzzed_roc_flag = _fuzz_flags("roc")
test_fuzzed_noise_flag = _fuzz_flags("noise")


class TestScoreOnce:
    """Each (model, row set) pair is scored by one ``similarity_matrix`` call."""

    @pytest.fixture()
    def scored(self, monkeypatch):
        rows, score = [], core.similarity_matrix

        def counting(model, encoded):
            rows.append(len(encoded))
            return score(model, encoded)

        for module in (cli, core, learner, metrics, robustness):
            monkeypatch.setattr(module, "similarity_matrix", counting)
        monkeypatch.setattr(learner, "_score_matrix", counting)
        return rows

    @pytest.fixture()
    def splits(self):
        # Distinct sizes, so each call names the row set it scored.
        ds = synth_blobs(6, 4, 30, 2.0, 0)
        return split(ds, (0.6, 0.15, 0.25), stratified=True, seed=0)

    CONFIG = TrainConfig(dim=32, mode="dynamic", regen_rate=40.0, max_iters=4,
                         patience=4, min_delta=0.0)

    def test_dynamic_train_scores_each_set_once_per_iteration(self, scored, splits):
        tr, va, _ = splits
        _, _, report = train(self.CONFIG, tr, va)
        assert any(r.regenerated for r in report.rows)
        assert scored == [tr.n_samples, va.n_samples] * self.CONFIG.max_iters

    def test_sweep_point_scores_the_test_rows_once(self, scored, splits):
        tr, va, te = splits
        cli._sweep_point(self.CONFIG, tr, va, te)
        assert scored == ([tr.n_samples, va.n_samples] * self.CONFIG.max_iters
                          + [te.n_samples])

    @pytest.mark.parametrize("score", ["margin", "raw"])
    def test_roc_scores_once(self, tmp_path, trained, blobs_csv, scored, score):
        assert run("roc", "--model", os.path.join(trained, "model.json"),
                   "--data", blobs_csv, "--class-id", "1", "--score", score,
                   "--out", str(tmp_path / "roc")) == EXIT_OK
        assert scored == [len(load_csv(blobs_csv).labels)]


class TestSweepWeights:
    def test_grid_outputs(self, tmp_path, blobs_csv):
        out = tmp_path / "sweep"
        assert run("sweep-weights", "--data", blobs_csv,
                   "--alphas", "1.0,2.0", "--betas", "1.0", "--thetas", "0.5",
                   "--dim", "32", "--max-iters", "2", "--seed", "0",
                   "--out", str(out)) == EXIT_OK
        rows = list(csv.reader(open(out / "sweep.csv")))
        assert len(rows) == 3  # header + 2 grid points
        assert rows[0][0] == "alpha"

    def test_class_without_a_test_row_gets_no_roc_file(self, tmp_path, blobs_csv):
        # The stratified 0.6/0.2/0.2 split of 3 rows gives 2 to training, 1 to
        # validation and none to the test split, whose ROC needs the class.
        rows = _read_rows(blobs_csv)
        data = _write_rows(tmp_path / "few_2.csv", [r for r in rows if r[-1] != "2"]
                           + [r for r in rows if r[-1] == "2"][:3])
        out = tmp_path / "sweep"
        assert run("sweep-weights", "--data", data, "--alphas", "1.0", "--betas", "1.0",
                   "--thetas", "0.5", "--dim", "32", "--max-iters", "2",
                   "--out", str(out)) == EXIT_OK
        assert sorted(p.name for p in out.glob("roc_*.csv")) == [
            "roc_point0_class0.csv", "roc_point0_class1.csv"]

    @pytest.mark.parametrize("given,used", [(None, "0.6,0.2,0.2"),
                                            ("1.0,0.0,0.0", "0.6,0.2,0.2"),
                                            ("0.5,0.25,0.25", "0.5,0.25,0.25")])
    def test_config_echo_records_the_split_fractions(self, tmp_path, blobs_csv,
                                                     given, used):
        out = tmp_path / "sweep"
        extra = ["--fractions", given] if given else []
        assert run("sweep-weights", "--data", blobs_csv, "--alphas", "2.0",
                   "--betas", "1.0", "--thetas", "0.5", "--dim", "16",
                   "--max-iters", "1", *extra, "--out", str(out)) == EXIT_OK
        echo = (out / "config.txt").read_text().splitlines()
        assert f"data.fractions = {used}" in echo

    def test_default_config_echo_is_golden(self, tmp_path, blobs_csv):
        # The grid sets alpha, beta and theta, so the echo holds only its lists.
        out = tmp_path / "sweep"
        assert run("sweep-weights", "--data", blobs_csv, "--alphas", "1", "--betas", "1",
                   "--thetas", "0.5", "--dim", "16", "--max-iters", "1",
                   "--out", str(out)) == EXIT_OK
        assert (out / "config.txt").read_text().splitlines() == [
            "data.fractions = 0.6,0.2,0.2",
            "data.label_column = -1",
            "data.normalize = zscore",
            "sweep.alphas = 1",
            "sweep.betas = 1",
            "sweep.thetas = 0.5",
            "train.dim = 16",
            "train.max_iters = 1",
            "train.min_delta = 0.001",
            "train.mode = dynamic",
            "train.patience = 5",
            "train.regen_rate = 20.0",
            "train.seed = 0",
            "train.shuffle = False",
        ]

    def test_two_fractions_is_config_error(self, tmp_path, blobs_csv, caplog):
        assert run("sweep-weights", "--data", blobs_csv, "--alphas", "2.0",
                   "--betas", "1.0", "--thetas", "0.5", "--fractions", "0.8,0.2",
                   "--out", str(tmp_path / "sweep")) == EXIT_CONFIG
        assert _logged_error(caplog, "need 3 nonnegative fractions")

    def test_values_match_a_library_recomputation(self, tmp_path, blobs_csv):
        out = tmp_path / "sweep"
        assert run("sweep-weights", "--data", blobs_csv,
                   "--alphas", "1.0,2.0", "--betas", "1.0", "--thetas", "0.5",
                   "--dim", "32", "--max-iters", "2", "--seed", "0",
                   "--out", str(out)) == EXIT_OK
        rows = _read_rows(out / "sweep.csv")[1:]
        # The sweep's default split (no test share given) and z-scoring.
        parts = split(load_csv(blobs_csv), (0.6, 0.2, 0.2), stratified=True, seed=0)
        norm = fit_normalizer(parts[0])
        tr, va, te = (apply_normalizer(norm, part) for part in parts)
        for i, alpha in enumerate([1.0, 2.0]):
            cfg = TrainConfig(dim=32, max_iters=2, seed=0, alpha=alpha)
            encoder, model, report = train(cfg, tr, va)
            encoded = encoder.encode_batch(te.features)
            preds = ranking(similarity_matrix(model, encoded), 1)[:, 0]
            sens = [np.mean(preds[te.labels == c] == c) for c in range(3)]
            spec = [np.mean(preds[te.labels != c] != c) for c in range(3)]
            curves = [roc_curve(margin_scores(similarity_matrix(model, encoded), c),
                                (te.labels == c).astype(int)) for c in range(3)]
            snap = report.snapshot_iteration
            expected = [alpha, 1.0, 0.5, top_k_accuracy(model, encoded, te.labels, 1),
                        np.mean(sens), np.mean(spec), np.mean([c.auc for c in curves]),
                        snap, sum(r.regenerated for r in report.rows[:snap - 1])]
            assert [float(v) for v in rows[i]] == [float(v) for v in expected]
            for c, curve in enumerate(curves):
                points = _read_rows(out / f"roc_point{i}_class{c}.csv")[1:]
                assert [(float(f), float(t)) for f, t in points] == curve.points

    def test_invalid_grid_lists_offenders(self, tmp_path, blobs_csv, caplog):
        assert run("sweep-weights", "--data", blobs_csv,
                   "--alphas", "1.0", "--betas", "1.0", "--thetas", "0.5,1.5",
                   "--out", str(tmp_path / "sw2")) == EXIT_CONFIG
        assert any("indices [1]" in r.message for r in caplog.records)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def _library_accuracy(train_dir, data, keep):
    """Top-1 accuracy of the saved model on the rows of ``data`` whose label
    name is in ``keep``; ``data`` is the training file, so its sorted
    label order is the model's class order."""
    encoder, model = load_model(os.path.join(train_dir, "model.json"))
    spec = NormalizationSpec.from_dict(json.load(open(os.path.join(train_dir,
                                                                   "norm.json"))))
    ds = apply_normalizer(spec, load_csv(data))
    rows = np.isin(np.array(ds.names)[ds.labels], keep)
    return top_k_accuracy(model, encoder.encode_batch(ds.features[rows]),
                          ds.labels[rows], 1)


class TestClassNames:
    """Data labels map to model classes by name, whatever subset a file holds."""

    @pytest.fixture()
    def names_case(self, tmp_path):
        synth = tmp_path / "synth"
        assert run("synth", "--classes", "3", "--per-class", "40", "--seed", "1",
                   "--out", str(synth)) == EXIT_OK
        full = str(synth / "blobs.csv")
        train_dir = tmp_path / "train"
        assert run("train", "--data", full, "--dim", "32", "--max-iters", "3",
                   "--out", str(train_dir)) == EXIT_OK
        rows = _read_rows(full)
        without_1 = _write_rows(tmp_path / "without_1.csv",
                                [rows[0]] + [r for r in rows[1:] if r[-1] != "1"])
        return full, without_1, str(train_dir), rows

    def test_model_stores_the_training_names(self, names_case):
        _, _, train_dir, _ = names_case
        doc = json.load(open(os.path.join(train_dir, "model.json")))
        assert doc["labels"] == ["0", "1", "2"]

    def test_library_train_names_its_classes(self, tmp_path, caplog):
        ds = synth_blobs(6, 3, 40, 3.0, 1)
        tr, va, _ = split(ds, (0.7, 0.3, 0.0), stratified=True)
        encoder, model, _ = train(TrainConfig(dim=32, max_iters=2, mode="static"),
                                  tr, va)
        assert model.labels == ["0", "1", "2"]
        path, data = str(tmp_path / "model.json"), str(tmp_path / "blobs.csv")
        save_model(path, encoder, model)
        save_csv(data, ds)
        with caplog.at_level(logging.WARNING):
            assert run("eval", "--model", path, "--data", data,
                       "--out", str(tmp_path / "eval")) == EXIT_OK
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]

    def test_eval_on_a_class_subset(self, tmp_path, names_case):
        full, without_1, train_dir, _ = names_case
        out = tmp_path / "eval"
        assert run("eval", "--model", os.path.join(train_dir, "model.json"),
                   "--data", without_1, "--norm", os.path.join(train_dir, "norm.json"),
                   "--out", str(out)) == EXIT_OK
        reported = json.load(open(out / "eval.json"))["accuracy"]
        assert reported == _library_accuracy(train_dir, full, ["0", "2"])

    @pytest.mark.parametrize("command", ["eval", "roc", "noise"])
    def test_unknown_label_name_is_data_error(self, tmp_path, names_case, caplog,
                                              command):
        _, _, train_dir, rows = names_case
        data = _write_rows(tmp_path / "unknown.csv",
                           rows[:3] + [rows[3][:-1] + ["7"]] + rows[4:])
        extra = ["--class-id", "0"] if command == "roc" else []
        assert run(command, "--model", os.path.join(train_dir, "model.json"),
                   "--data", data, *extra, "--out", str(tmp_path / "out")) == EXIT_DATA
        assert _logged_error(caplog, f"{data}: line 4: label '7'")

    @pytest.mark.parametrize("keep", [("0", "1"), ("2",)], ids=["absent", "every_row"])
    def test_roc_class_absent_or_on_every_row_is_data_error(self, tmp_path, names_case,
                                                             caplog, keep):
        _, _, train_dir, rows = names_case
        data = _write_rows(tmp_path / "subset.csv",
                           [rows[0]] + [r for r in rows[1:] if r[-1] in keep])
        out = tmp_path / "roc"
        assert run("roc", "--model", os.path.join(train_dir, "model.json"),
                   "--data", data, "--class-id", "2", "--out", str(out)) == EXIT_DATA
        assert _logged_error(caplog, "class 2")
        assert not (out / "config.txt").exists()

    def test_valid_file_missing_a_class_maps_by_name(self, tmp_path, names_case):
        full, without_1, _, _ = names_case
        out = tmp_path / "train_valid"
        assert run("train", "--data", full, "--valid", without_1, "--dim", "32",
                   "--max-iters", "3", "--mode", "static",
                   "--out", str(out)) == EXIT_OK
        report = [json.loads(line) for line in open(out / "report.jsonl")]
        # Static mode encodes once, so the snapshot's recorded validation
        # accuracy is bitwise what the saved model scores on those rows.
        best = max(r["valid_accuracy"] for r in report)
        assert best == _library_accuracy(str(out), full, ["0", "2"])

    def test_noise_models_with_different_names_is_data_error(self, tmp_path,
                                                             names_case, caplog):
        full, _, train_dir, rows = names_case
        letters = {"0": "a", "1": "b", "2": "c"}
        renamed = _write_rows(tmp_path / "letters.csv",
                              [rows[0]] + [r[:-1] + [letters[r[-1]]] for r in rows[1:]])
        other = tmp_path / "letters_train"
        assert run("train", "--data", renamed, "--dim", "48", "--max-iters", "1",
                   "--out", str(other)) == EXIT_OK
        second = str(other / "model.json")
        assert run("noise", "--model", os.path.join(train_dir, "model.json"),
                   "--model", second, "--data", full, "--trials", "1",
                   "--out", str(tmp_path / "noise")) == EXIT_DATA
        assert _logged_error(caplog, second)
        assert not (tmp_path / "noise" / "noise.csv").exists()

    @pytest.mark.parametrize("command,output", [("eval", "eval.json"),
                                                ("roc", "roc.csv"),
                                                ("noise", "noise.csv")])
    def test_format_1_model_maps_by_sorted_order_and_warns_once(
            self, tmp_path, names_case, caplog, command, output):
        full, _, train_dir, _ = names_case
        v2 = os.path.join(train_dir, "model.json")
        v1 = tmp_path / "model_v1.json"
        v1.write_text(json.dumps(format_1_document(json.load(open(v2)))))
        extra = ["--class-id", "1"] if command == "roc" else ["--trials", "2"] \
            if command == "noise" else []
        outputs = []
        for model in (v2, str(v1)):
            caplog.clear()
            out = tmp_path / f"{command}_{len(outputs)}"
            with caplog.at_level(logging.WARNING):
                assert run(command, "--model", model, "--data", full, *extra,
                           "--norm", os.path.join(train_dir, "norm.json"),
                           "--out", str(out)) == EXIT_OK
            warnings = [r.getMessage() for r in caplog.records
                        if r.levelno == logging.WARNING]
            outputs.append((out / output).read_bytes())
        assert len(warnings) == 1 and str(v1) in warnings[0]
        assert outputs[0] == outputs[1]


SCORING_EXTRA = {"roc": ["--class-id", "1"], "noise": ["--trials", "2"]}


@pytest.mark.parametrize("where", ["input_scale", "format_1_array"])
def test_model_integer_beyond_float64_is_data_error(tmp_path, trained, blobs_csv, caplog,
                                                    where):
    doc = json.load(open(os.path.join(trained, "model.json")))
    if where == "input_scale":
        doc["input_scale"] = 10**400
    else:
        doc = format_1_document(doc)
        doc["base"][0][0] = 10**400
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("eval", "--model", str(model), "--data", blobs_csv,
               "--out", str(out)) == EXIT_DATA
    assert _logged_error(caplog, "beyond the float64 range")
    assert os.listdir(out) == []


@pytest.mark.parametrize("seed", ["x", -5, 2.5, 10**400],
                         ids=["text", "negative", "fraction", "beyond_float64"])
def test_model_seed_that_is_not_a_nonnegative_integer_is_data_error(
        tmp_path, trained, blobs_csv, caplog, seed):
    doc = json.load(open(os.path.join(trained, "model.json")))
    doc["seed"] = seed
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("eval", "--model", str(model), "--data", blobs_csv,
               "--out", str(out)) == EXIT_DATA
    assert _logged_error(caplog, "seed must be null or an integer")
    assert os.listdir(out) == []


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["train", "sweep-weights", "eval", "roc", "noise"])
def test_non_finite_feature_is_data_error(tmp_path, trained, blobs_csv, caplog,
                                          command, value):
    rows = _read_rows(blobs_csv)
    rows[5][2] = value
    data = _write_rows(tmp_path / "non_finite.csv", rows)
    if command in ("train", "sweep-weights"):
        extra = ["--dim", "16", "--max-iters", "2"]
        if command == "sweep-weights":
            extra += ["--alphas", "2.0", "--betas", "1.0", "--thetas", "0.5"]
    else:
        extra = ["--model", os.path.join(trained, "model.json"),
                 *SCORING_EXTRA.get(command, [])]
    out = tmp_path / "out"
    assert run(command, "--data", data, *extra, "--out", str(out)) == EXIT_DATA
    assert _logged_error(caplog, f"{data}: data row 5: non-finite feature value {value}")
    assert os.listdir(out) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "roc", "noise"])
def test_norm_scale_that_overflows_the_rows_is_data_error(tmp_path, trained, blobs_csv,
                                                         caplog, command):
    # A subnormal scale is finite, so the norm file loads, but dividing by it
    # turns the data into infinities.
    code, _ = _run_with_norm(tmp_path, trained, blobs_csv, command,
                             scale=lambda d: [1e-320] * len(d["scale"]))
    assert code == EXIT_DATA
    assert _logged_error(caplog, f"{blobs_csv}, zscore-normalized: data row 1: "
                                 "non-finite feature value")
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, valid", [("train", False), ("train", True),
                                            ("sweep-weights", False)],
                         ids=["train-split", "train-valid_file", "sweep-weights"])
def test_features_that_overflow_the_normalizer_are_data_error(tmp_path, caplog, command,
                                                              valid):
    # Finite features near the float64 limit overflow the fitted mean, so
    # every normalized row is NaN.
    assert run("synth", "--features", "4", "--classes", "3", "--per-class", "10",
               "--separation", "1e308", "--out", str(tmp_path / "s")) == EXIT_OK
    data = str(tmp_path / "s" / "blobs.csv")
    extra = ["--valid", data] if valid else []
    if command == "sweep-weights":
        extra += ["--alphas", "2.0", "--betas", "1.0", "--thetas", "0.5"]
    out = tmp_path / "out"
    assert run(command, "--data", data, *extra, "--dim", "16", "--max-iters", "2",
               "--out", str(out)) == EXIT_DATA
    where = data if valid else f"{data} (train split)"
    assert _logged_error(caplog, f"{where}, zscore-normalized: data row 1: "
                                 "non-finite feature value nan")
    assert os.listdir(out) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_synth_separation_that_overflows_is_config_error(tmp_path, caplog):
    out = tmp_path / "s"
    assert run("synth", "--features", "3", "--classes", "3", "--per-class", "10",
               "--separation", "1e308", "--out", str(out)) == EXIT_CONFIG
    assert _logged_error(caplog, "separation 1e+308 overflows")
    assert not os.path.exists(out / "blobs.csv")
    assert not os.path.exists(out / "config.txt")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, extra", [
    ("train", []),
    ("train", ["--dump-regen"]),
    ("sweep-weights", ["--alphas", "1,2", "--betas", "1", "--thetas", "0.5"]),
], ids=["train-projection_overflow", "train-dump_regen", "sweep-weights"])
def test_overflowed_model_is_numerical_failure(tmp_path, caplog, command, extra):
    # Unnormalized features near +-1.5e308 overflow the encoder's projection,
    # so the encodings and then the prototypes go NaN; a run that returns
    # such a model must not write chance-level results (or a regeneration
    # dump) as if it had trained, and reports the failure without numpy's
    # overflow warnings.
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(60, 3)).tolist()
    data = _write_rows(tmp_path / "huge.csv", [["f0", "f1", "f2", "label"]] + [
        [repr(1.5e308 * v) for v in row] + [str(i % 3)] for i, row in enumerate(signs)])
    out = tmp_path / "out"
    assert run(command, "--data", data, *extra, "--normalize", "none", "--dim", "16",
               "--max-iters", "3", "--shuffle", "--out", str(out)) == EXIT_NUMERICAL
    assert _logged_error(caplog, "non-finite values detected in model state")
    assert os.listdir(out) == ["config.txt"]


def test_data_error_is_not_preceded_by_training_advice(tmp_path):
    # The class-grouped order WARNING is advice for a run that trains; a
    # run that its normalized rows stop logs only the ERROR, on stderr.
    assert run("synth", "--features", "3", "--classes", "3", "--per-class", "10",
               "--separation", "1e307", "--out", str(tmp_path / "s")) == EXIT_OK
    data = str(tmp_path / "s" / "blobs.csv")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "hdclass.cli", "train", "--data", data,
                           "--out", str(tmp_path / "t")],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == EXIT_DATA
    assert proc.stderr.splitlines() == [f"ERROR data error: {data} (train split), zscore-normalized: "
                     "data row 1: non-finite feature value nan"]


@pytest.mark.parametrize("where", ["file", "under_file"])
@pytest.mark.parametrize("argv", [
    ["synth"], ["train", "--data", "x.csv"],
    ["sweep-weights", "--data", "x.csv", "--alphas", "2", "--betas", "1",
     "--thetas", "0.5"],
    ["eval", "--model", "m.json", "--data", "x.csv"],
    ["roc", "--model", "m.json", "--data", "x.csv", "--class-id", "0"],
    ["noise", "--model", "m.json", "--data", "x.csv"],
], ids=lambda argv: argv[0])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, caplog, argv, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker if where == "file" else blocker / "sub"
    assert run(*argv, "--out", str(out)) == EXIT_CONFIG
    assert _logged_error(caplog, str(out))
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("column", ["0", "label"])
@pytest.mark.parametrize("command", ["eval", "roc", "noise"])
def test_label_column_scores_a_label_first_file(tmp_path, trained, blobs_csv, command,
                                                column):
    label_first = _write_rows(tmp_path / "label_first.csv",
                              [row[-1:] + row[:-1] for row in _read_rows(blobs_csv)])
    scored = ["--model", os.path.join(trained, "model.json"),
              "--norm", os.path.join(trained, "norm.json"),
              *SCORING_EXTRA.get(command, [])]
    last, first = tmp_path / "last", tmp_path / "first"
    assert run(command, *scored, "--data", blobs_csv, "--out", str(last)) == EXIT_OK
    assert run(command, *scored, "--data", label_first, "--label-column", column,
               "--out", str(first)) == EXIT_OK
    for name in {"eval": ["eval.json"], "roc": ["roc.csv", "roc.json"],
                 "noise": ["noise.csv", "summary.json"]}[command]:
        assert (first / name).read_bytes() == (last / name).read_bytes(), name
    assert f"{command}.label_column = {column}" in (
        first / "config.txt").read_text().splitlines()


def _option_dests(command):
    """The ``dest`` of every option of ``command`` but ``--help`` and ``--out``."""
    return {action.dest for action in _actions(command)} - {"help", "out"}


@pytest.mark.parametrize("command", ["synth", "eval", "roc", "noise"])
def test_echo_holds_every_option(tmp_path, trained, blobs_csv, command):
    out = tmp_path / "out"
    argv = [] if command == "synth" else [
        "--model", os.path.join(trained, "model.json"), "--data", blobs_csv,
        *SCORING_EXTRA.get(command, [])]
    assert run(command, *argv, "--out", str(out)) == EXIT_OK
    lines = (out / "config.txt").read_text().splitlines()
    assert sorted(line.split(" = ", 1)[0] for line in lines) == sorted(
        f"{command}.{dest}" for dest in _option_dests(command))
    if command != "synth":
        assert f"{command}.norm = " in lines
