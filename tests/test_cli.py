"""End-to-end tests for the command-line harness."""

import csv
import json
import os

import pytest

from hdclass.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main


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

    def test_missing_data_is_data_error(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "t4")) == EXIT_DATA

    def test_invalid_theta_is_config_error(self, tmp_path, blobs_csv):
        assert run("train", "--data", blobs_csv, "--theta", "2.0",
                   "--out", str(tmp_path / "t5")) == EXIT_CONFIG

    def test_empty_validation_split_is_config_error(self, tmp_path, blobs_csv,
                                                     caplog):
        assert run("train", "--data", blobs_csv, "--dim", "16",
                   "--max-iters", "2", "--fractions", "1.0,0.0,0.0",
                   "--out", str(tmp_path / "t7")) == EXIT_CONFIG
        assert any("validation set is empty" in r.message for r in caplog.records)

    def test_dump_regen(self, tmp_path, blobs_csv):
        out = tmp_path / "t6"
        assert run("train", "--data", blobs_csv, "--dim", "32",
                   "--max-iters", "3", "--regen-rate", "40",
                   "--fractions", "0.7,0.3,0.0", "--dump-regen",
                   "--out", str(out)) == EXIT_OK
        assert (out / "regen_dump.csv").exists()


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
