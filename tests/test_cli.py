"""End-to-end tests for the command-line harness."""

import csv
import dataclasses
import json
import logging
import math
import os
import shutil

import pytest

from hdclass.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK, build_parser, main,
                         resolve_train_config)
from hdclass.learner import TrainConfig

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


class TestTrain:
    def test_artifacts(self, trained):
        for name in ("model.json", "report.jsonl", "labels.json",
                     "norm.json", "config.txt"):
            assert os.path.exists(os.path.join(trained, name)), name

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
    def test_config_key_is_echoed(self, tmp_path, field):
        value = _nudged(field.default)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"train.{field.name} = {value}\n")
        out = tmp_path / "echo"
        # The config echo is written before the dataset is read.
        assert run("train", "--data", str(tmp_path / "absent.csv"),
                   "--config", str(cfg), "--out", str(out)) == EXIT_DATA
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
            "train.eta = 0.05",
            "train.max_iters = 30",
            "train.min_delta = 0.001",
            "train.mode = dynamic",
            "train.n_formula = prose",
            "train.patience = 5",
            "train.regen_rate = 20.0",
            "train.seed = 0",
            "train.shuffle = False",
            "train.theta = 0.5",
        ]


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
    classes, base = good["classes"], good["base"]
    bad_models = {
        "classes_narrower_than_dim": dict(good, classes=[c[:-1] for c in classes]),
        "nan_prototype": dict(good, classes=[[math.nan] + c[1:] for c in classes]),
        "inf_base_row": dict(good, base=[[math.inf] * len(base[0])] + base[1:]),
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


@pytest.mark.parametrize("case", ["missing_norm", "norm_without_shift",
                                  "norm_not_json", "model_is_directory",
                                  "rng_state_not_dict", "classes_narrower_than_dim",
                                  "nan_prototype", "inf_base_row"])
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

    def test_missing_model(self, tmp_path, blobs_csv):
        assert run("noise", "--model", str(tmp_path / "no.json"),
                   "--data", blobs_csv, "--out", str(tmp_path / "n2")) \
            == EXIT_DATA


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

    def test_invalid_grid_lists_offenders(self, tmp_path, blobs_csv, caplog):
        assert run("sweep-weights", "--data", blobs_csv,
                   "--alphas", "1.0", "--betas", "1.0", "--thetas", "0.5,1.5",
                   "--out", str(tmp_path / "sw2")) == EXIT_CONFIG
        assert any("indices [1]" in r.message for r in caplog.records)
