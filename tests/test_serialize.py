"""Round-trip, validation and atomicity tests for the JSON model container."""

import base64
import json
import os
import sys
import tomllib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdclass
from conftest import decode_array, encode_array, format_1_document, make_benchmark
from hdclass.core import ClassModel, Encoder, similarity_matrix
from hdclass.learner import TrainConfig, train
from hdclass.serialize import (
    FORMAT_VERSION,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    write_json_atomic,
)


def make_pair(seed=0, n=5, dim=32, k=3):
    enc = Encoder.create(n, dim, seed)
    enc.input_scale = 1.0 / np.sqrt(n)
    model = ClassModel(np.random.default_rng(seed + 1).normal(size=(k, dim)))
    return enc, model


class TestRoundTrip:
    def test_bitwise_roundtrip(self, tmp_path):
        enc, model = make_pair()
        path = str(tmp_path / "model.json")
        save_model(path, enc, model)
        enc2, model2 = load_model(path)
        assert np.array_equal(enc.base, enc2.base)
        assert np.array_equal(enc.phase, enc2.phase)
        assert np.array_equal(model.classes, model2.classes)
        assert enc2.input_scale == enc.input_scale
        assert enc2.rng_state() == enc.rng_state()
        assert model2.labels == model.labels

    @pytest.mark.parametrize("mode, seed", [("dynamic", 2), ("static", 0)])
    def test_trained_model_scores_as_its_reloaded_copy(self, tmp_path, mode, seed):
        # A model keeps no derived state, so the model train() returns and
        # the same model saved and loaded again score bitwise the same.  A
        # cache of prototype norms filled by two formulas broke this for
        # both of these runs.
        train_ds, valid_ds, test_ds = make_benchmark(seed)
        cfg = TrainConfig(dim=128, mode=mode, max_iters=15, seed=seed)
        enc, model, _ = train(cfg, train_ds, valid_ds)
        path = str(tmp_path / "model.json")
        save_model(path, enc, model)
        enc2, model2 = load_model(path)
        H = enc.encode_batch(test_ds.features)
        assert np.array_equal(enc2.encode_batch(test_ds.features), H)
        assert np.array_equal(similarity_matrix(model2, H), similarity_matrix(model, H))

    def test_two_saves_are_byte_identical(self, tmp_path):
        enc, model = make_pair(seed=3)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_model(a, enc, model)
        save_model(b, *load_model(a))
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_format_2_layout(self):
        enc, model = make_pair(n=5, dim=32, k=3)
        model.labels = ["cat", "dog", "owl"]
        doc = model_to_dict(enc, model)
        assert doc["format_version"] == 2
        assert doc["labels"] == ["cat", "dog", "owl"]
        assert doc["provenance"] == {"hdclass": hdclass.__version__,
                                     "numpy": np.__version__}
        assert len(base64.b64decode(doc["classes"])) == 8 * 3 * 32
        assert np.array_equal(decode_array(doc, "classes", (3, 32)), model.classes)

    def test_rng_stream_survives_roundtrip(self, tmp_path):
        # Regeneration after a save/load cycle must match an uninterrupted run.
        enc_a, model = make_pair(seed=4)
        path = str(tmp_path / "model.json")
        save_model(path, enc_a, model)
        enc_b, _ = load_model(path)
        enc_a.regenerate([0, 5, 9])
        enc_b.regenerate([0, 5, 9])
        assert np.array_equal(enc_a.base, enc_b.base)
        assert np.array_equal(enc_a.phase, enc_b.phase)

    def test_dict_roundtrip_through_json_text(self):
        enc, model = make_pair(seed=7)
        doc = json.loads(json.dumps(model_to_dict(enc, model)))
        enc2, model2 = model_from_dict(doc)
        assert np.array_equal(enc.base, enc2.base)
        assert np.array_equal(model.classes, model2.classes)


class TestValidation:
    def test_version_check(self):
        enc, model = make_pair()
        doc = model_to_dict(enc, model)
        doc["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            model_from_dict(doc)

    def test_shape_check(self):
        enc, model = make_pair()
        doc = model_to_dict(enc, model)
        doc["dim"] = doc["dim"] + 1
        with pytest.raises(ValueError):
            model_from_dict(doc)

    def test_mismatched_model_rejected(self):
        enc, _ = make_pair()
        wrong = ClassModel(np.zeros((2, enc.dim + 1)))
        with pytest.raises(ValueError):
            model_to_dict(enc, wrong)


GOLDEN_V1 = os.path.join(os.path.dirname(__file__), "data", "model_v1.json")


def golden_v1_pair():
    """The encoder and model that ``data/model_v1.json`` was written from."""
    enc = Encoder.create(3, 8, 11)
    enc.input_scale = 1.0 / np.sqrt(3)
    enc.regenerate([1, 6])
    return enc, ClassModel(np.random.default_rng(12).normal(size=(3, 8)))


class TestFormat1:
    def test_golden_file_loads_bitwise(self):
        enc, model = golden_v1_pair()
        enc2, model2 = load_model(GOLDEN_V1)
        assert np.array_equal(enc2.base, enc.base)
        assert np.array_equal(enc2.phase, enc.phase)
        assert np.array_equal(model2.classes, model.classes)
        assert enc2.input_scale == enc.input_scale
        assert enc2.seed == 11
        assert model2.labels == [0, 1, 2]
        enc.regenerate([0, 3])
        enc2.regenerate([0, 3])
        assert np.array_equal(enc2.base, enc.base)

    def test_resave_writes_format_2(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(path, *load_model(GOLDEN_V1))
        assert json.load(open(path))["format_version"] == 2
        enc, model = load_model(path)
        assert np.array_equal(model.classes, golden_v1_pair()[1].classes)


class TestFormat2Validation:
    @pytest.mark.parametrize("doc", [[], "model", 3, None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            model_from_dict(doc)

    def test_base64_must_decode(self):
        doc = model_to_dict(*make_pair())
        doc["phase"] = "not base64!"
        with pytest.raises(ValueError, match="phase is not valid base64"):
            model_from_dict(doc)

    def test_byte_length_must_match_shape(self):
        doc = model_to_dict(*make_pair())
        doc["base"] = encode_array(np.zeros((doc["dim"], doc["n_features"] - 1)))
        with pytest.raises(ValueError, match="base holds"):
            model_from_dict(doc)

    def test_values_must_be_finite(self):
        enc, model = make_pair()
        model.classes[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite values in classes"):
            model_from_dict(model_to_dict(enc, model))

    @pytest.mark.parametrize("where", ["input_scale", "format_1_array"])
    def test_integer_beyond_float64_is_value_error(self, where):
        # JSON integers are unbounded; converting 10**400 to float overflows.
        doc = model_to_dict(*make_pair())
        if where == "input_scale":
            doc["input_scale"] = 10**400
        else:
            doc = format_1_document(doc)
            doc["classes"][1][2] = 10**400
        with pytest.raises(ValueError, match="beyond the float64 range"):
            model_from_dict(doc)

    @pytest.mark.parametrize("seed", ["x", -5, 2.5, 10**400, True],
                             ids=["text", "negative", "fraction", "beyond_float64", "bool"])
    def test_seed_must_be_null_or_an_integer_from_0(self, seed):
        doc = model_to_dict(*make_pair())
        doc["seed"] = seed
        with pytest.raises(ValueError, match="seed must be null or an integer"):
            model_from_dict(doc)

    @pytest.mark.parametrize("seed", [None, 0, 2**32 - 1, 10**300],
                             ids=["null", "zero", "uint32_max", "1e300"])
    def test_valid_seed_is_kept(self, seed):
        doc = model_to_dict(*make_pair())
        doc["seed"] = seed
        assert model_from_dict(doc)[0].seed == seed


FUZZ_DOC = model_to_dict(*make_pair(n=3, dim=8, k=3))
ODD_VALUES = [None, True, 0, -1, -5, 7, 2.5, float("nan"), 10**400, "", "x", [], [1.0], {},
              {"a": 1}]


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(FUZZ_DOC))
    if draw(st.booleans()):
        doc = format_1_document(doc)
    keys = sorted(doc)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys))
        kind = draw(st.sampled_from(["drop", "retype", "truncate", "reshape"]))
        if kind == "drop":
            doc.pop(key, None)
        elif kind == "retype":
            doc[key] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "truncate" and isinstance(doc.get(key), (str, list)):
            doc[key] = doc[key][:draw(st.integers(0, max(len(doc[key]) - 1, 0)))]
        elif kind == "reshape":
            name = draw(st.sampled_from(["n_features", "dim", "n_classes"]))
            doc[name] = draw(st.integers(-2, 12))
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_fuzzed_container_raises_only_mapped_errors(doc):
    """A malformed container fails only with errors the CLI maps to exit 2."""
    try:
        encoder, _ = model_from_dict(doc)
    except (ValueError, KeyError, TypeError):
        return
    # A container that loads holds a seed ``Encoder.create`` could take,
    # and one within the float64 range, as every number in it is.
    assert encoder.seed is None or (type(encoder.seed) is int
                                    and 0 <= encoder.seed <= sys.float_info.max)


def test_package_version_matches_pyproject():
    root = os.path.dirname(os.path.dirname(__file__))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == hdclass.__version__


class TestAtomicWrite:
    def test_no_temp_files_left(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"a": 1})
        assert os.path.exists(path)
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_overwrite_replaces_content(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"a": 1})
        write_json_atomic(path, {"a": 2})
        with open(path) as fh:
            assert json.load(fh) == {"a": 2}
