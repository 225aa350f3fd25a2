"""Unit tests for CSV IO, normalization, splitting, and synthetic blobs."""

import json
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hdclass.data import (
    Dataset,
    NormalizationSpec,
    ParseError,
    apply_normalizer,
    check_fractions,
    fit_normalizer,
    load_csv,
    save_csv,
    split,
    synth_blobs,
)


class TestLoadCsv:
    def write(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_basic_parse(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1.0,2.0,x\n3.0,4.0,y\n")
        ds = load_csv(path)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]
        assert ds.names == ["x", "y"]

    def test_label_column_by_name(self, tmp_path):
        path = self.write(tmp_path, "label,a\nx,1.0\ny,2.0\n")
        ds = load_csv(path, label_column="label")
        assert ds.features.tolist() == [[1.0], [2.0]]

    def test_label_column_by_positive_index(self, tmp_path):
        path = self.write(tmp_path, "label,a\nx,1.0\ny,2.0\n")
        ds = load_csv(path, label_column=0)
        assert ds.features.tolist() == [[1.0], [2.0]]

    def test_label_mapping_is_sorted_and_stable(self, tmp_path):
        # Numeric labels sort numerically, so "10" follows "2".
        path = self.write(tmp_path, "a,label\n1,10\n2,2\n3,10\n")
        ds = load_csv(path)
        assert ds.names == ["2", "10"]
        assert ds.labels.tolist() == [1, 0, 1]

    def test_vocabulary_maps_labels_by_name(self, tmp_path):
        # A file holding a subset of the classes keeps the vocabulary's ids.
        path = self.write(tmp_path, "a,label\n1,z\n2,x\n3,z\n")
        ds = load_csv(path, names=["z", "y", "x"])
        assert ds.labels.tolist() == [0, 2, 0]
        assert ds.names == ["z", "y", "x"]

    def test_vocabulary_rejects_unknown_name(self, tmp_path):
        path = self.write(tmp_path, 'a,label\n1,x\n"2\n5",w\n')
        with pytest.raises(ParseError, match="line 4: label 'w'"):
            load_csv(path, names=["x", "y"])

    def test_ragged_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1,2,x\n1,x\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize("row", ["1,x", "1,2,3,x"])
    def test_rows_must_match_the_header_width(self, tmp_path, row):
        path = self.write(tmp_path, f"a,b,label\n{row}\n")
        with pytest.raises(ParseError, match="line 2: expected 3 columns"):
            load_csv(path, label_column="label")

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1,oops,x\n")
        with pytest.raises(ParseError, match="line 2.*oops"):
            load_csv(path)

    def test_line_numbers_count_quoted_newlines(self, tmp_path):
        path = self.write(tmp_path, 'a,b,label\n1,2,"x\ny"\n3,4,z\n5,oops,z\n')
        with pytest.raises(ParseError, match="line 5.*oops"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path)

    def test_unknown_label_column(self, tmp_path):
        path = self.write(tmp_path, "a,b,label\n1,2,x\n")
        with pytest.raises(ParseError):
            load_csv(path, label_column="missing")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(
        st.floats().map(repr), st.floats(width=32).map("{:.6e}".format),
        st.integers(-10**20, 10**20).map(str),
        st.from_regex(r" ?[+-]?[0-9_]{0,4}\.?[0-9]{0,3}(e[+-]?[0-9]{1,3})? ?",
                      fullmatch=True)), min_size=1, max_size=6))
    @example([" 1.5", "1_000", "nan", "1e400", "-inf", "1e-400", "+2 "])
    def test_row_parse_matches_float_per_cell(self, tmp_path, cells):
        path = self.write(tmp_path, ",".join(f"f{i}" for i in range(len(cells)))
                          + ",label\n" + ",".join(cells) + ",x\n")
        try:
            expected = np.array([float(c) for c in cells])
        except ValueError:
            with pytest.raises(ParseError, match="line 2: non-numeric"):
                load_csv(path)
            return
        assert load_csv(path).features[0].tobytes() == expected.tobytes()

    def test_unclosed_quote_is_parse_error(self, tmp_path):
        # The quoted field runs on past the csv module's field size limit.
        path = self.write(tmp_path, 'a,b,label\n1,"2,x\n' + "3,4,y\n" * 30000)
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert path in str(exc.value)

    def test_peak_memory_is_bounded_by_the_features(self, tmp_path):
        ds = synth_blobs(200, 2, 1000, 2.0, seed=0)
        path = str(tmp_path / "wide.csv")
        save_csv(path, ds)
        tracemalloc.start()
        try:
            back = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.features, ds.features)
        assert peak <= 3 * ds.features.nbytes

    def test_roundtrip_via_save(self, tmp_path):
        ds = synth_blobs(3, 2, 5, 2.0, seed=1)
        path = str(tmp_path / "rt.csv")
        save_csv(path, ds)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


class TestNormalization:
    def test_zscore_statistics(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(3.0, 2.0, size=(200, 4)),
                     np.zeros(200, dtype=int))
        spec = fit_normalizer(ds)
        out = apply_normalizer(spec, ds)
        assert np.all(np.abs(out.features.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(out.features.std(axis=0) - 1.0) < 1e-6)

    def test_minmax_range(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(size=(50, 3)), np.zeros(50, dtype=int))
        out = apply_normalizer(fit_normalizer(ds, "minmax"), ds)
        assert out.features.min() == pytest.approx(0.0)
        assert out.features.max() == pytest.approx(1.0)

    def test_constant_column_maps_without_nan(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        ds = Dataset(X, np.zeros(10, dtype=int))
        z = apply_normalizer(fit_normalizer(ds, "zscore"), ds)
        assert np.all(z.features[:, 0] == 0.0)
        mm = apply_normalizer(fit_normalizer(ds, "minmax"), ds)
        assert np.all(mm.features[:, 0] == 0.5)
        assert np.all(np.isfinite(z.features))

    def test_already_standardized_is_identity(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        ds = Dataset(X, np.zeros(500, dtype=int))
        out = apply_normalizer(fit_normalizer(ds), ds)
        assert np.allclose(out.features, X, atol=1e-9)

    def test_spec_dict_roundtrip(self):
        spec = NormalizationSpec("zscore", np.array([1.0]), np.array([2.0]))
        back = NormalizationSpec.from_dict(spec.to_dict())
        assert back.mode == "zscore"
        assert np.array_equal(back.shift, spec.shift)

    @pytest.mark.parametrize("doc", [
        {"mode": "bogus", "shift": [0.0], "scale": [1.0]},
        {"mode": "zscore", "shift": [0.0, 1.0], "scale": [1.0]},
        {"mode": "minmax", "shift": [[0.0]], "scale": [[1.0]]},
        {"mode": "zscore", "shift": [0.0], "scale": [float("nan")]},
        {"mode": "zscore", "shift": [float("inf")], "scale": [1.0]},
        {"mode": "minmax", "shift": [0.0], "scale": [-1.0]},
        {"mode": "zscore", "shift": [10**400], "scale": [1.0]},
    ], ids=["mode", "lengths", "not_1d", "nan_scale", "inf_shift", "negative_scale",
            "int_beyond_float"])
    def test_spec_from_dict_rejects_unusable_specs(self, doc):
        with pytest.raises(ValueError):
            NormalizationSpec.from_dict(doc)

    def test_unknown_mode(self):
        ds = Dataset(np.ones((2, 1)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            fit_normalizer(ds, "robust")

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            fit_normalizer(ds)


class TestSplit:
    def test_disjoint_and_exhaustive(self):
        ds = synth_blobs(4, 3, 40, 2.0, seed=0)
        tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=1)
        assert tr.n_samples + va.n_samples + te.n_samples == ds.n_samples
        total = np.vstack([tr.features, va.features, te.features])
        assert np.array_equal(np.sort(total, axis=0),
                              np.sort(ds.features, axis=0))

    def test_stratified_keeps_class_balance(self):
        ds = synth_blobs(4, 4, 100, 2.0, seed=0)
        tr, va, te = split(ds, (0.5, 0.25, 0.25), stratified=True, seed=2)
        for part in (tr, va, te):
            counts = np.bincount(part.labels, minlength=4)
            assert counts.min() == counts.max()

    def test_deterministic(self):
        ds = synth_blobs(4, 2, 30, 2.0, seed=0)
        a = split(ds, (0.8, 0.1, 0.1), seed=5)
        b = split(ds, (0.8, 0.1, 0.1), seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_fraction_validation(self):
        ds = synth_blobs(4, 2, 10, 2.0, seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.5))
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.3, 0.3))
        with pytest.raises(ValueError):
            split(ds, (0.0, 0.5, 0.5))

    def test_check_fractions_returns_three_floats(self):
        assert check_fractions([1, "0", 0.0]) == (1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            check_fractions((0.5, 0.6, 0.0))

    @pytest.mark.parametrize("fractions", [
        (0.5, 0.5, math.nan), (math.nan,) * 3, (1.0, 0.0, math.inf),
        (math.inf, 0.0, 0.0), (1.0, -math.inf, 0.0)])
    def test_non_finite_fractions_are_rejected(self, fractions):
        ds = synth_blobs(4, 2, 10, 2.0, seed=0)
        with pytest.raises(ValueError):
            split(ds, fractions, stratified=True)

    def test_stratified_needs_enough_samples(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            split(ds, (0.4, 0.3, 0.3), stratified=True)


class TestSynthBlobs:
    def test_shapes_and_labels(self):
        ds = synth_blobs(5, 3, 20, 2.0, seed=0)
        assert ds.features.shape == (60, 5)
        assert np.bincount(ds.labels).tolist() == [20, 20, 20]

    def test_minimum_pairwise_separation(self):
        ds = synth_blobs(6, 4, 200, 3.5, seed=1)
        means = np.array([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(4)])
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        off_diag = dists[np.triu_indices(4, 1)]
        # Empirical means wobble by ~ 1/sqrt(200) per coordinate.
        assert off_diag.min() > 3.5 - 0.5

    def test_unit_within_class_sd(self):
        ds = synth_blobs(4, 2, 2000, 5.0, seed=2)
        for c in range(2):
            sd = ds.features[ds.labels == c].std(axis=0)
            assert np.all(np.abs(sd - 1.0) < 0.1)

    def test_zero_separation_is_chance(self):
        # Nearest-centroid oracle on separation-0 blobs sits at chance.
        ds = synth_blobs(5, 2, 2000, 0.0, seed=3)
        means = np.array([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(2)])
        d = np.linalg.norm(ds.features[:, None] - means[None], axis=2)
        acc = np.mean(np.argmin(d, axis=1) == ds.labels)
        assert abs(acc - 0.5) < 0.05

    def test_oracle_separates_at_4_sigma(self):
        # Separation-4 blobs are nearly separable for a centroid oracle.
        ds = synth_blobs(10, 2, 500, 4.0, seed=4)
        means = np.array([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(2)])
        d = np.linalg.norm(ds.features[:, None] - means[None], axis=2)
        acc = np.mean(np.argmin(d, axis=1) == ds.labels)
        assert acc >= 0.95

    def test_deterministic(self):
        a = synth_blobs(4, 3, 10, 2.0, seed=9)
        b = synth_blobs(4, 3, 10, 2.0, seed=9)
        assert np.array_equal(a.features, b.features)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(0, 2, 5, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(2, 2, 5, -1.0, seed=0)


# ---------------------------------------------------------------------------
# loader fuzzing: a malformed file fails only with the errors the CLI maps
# to an exit code, never with a traceback.

SPEC_DOC = {"mode": "zscore", "shift": [0.5, -1.0, 2.0], "scale": [1.0, 0.0, 3.5]}
# JSON gives Python ints of any size, NaN and Infinity.
ODD_VALUES = [None, True, 0, -1, 2.5, math.nan, math.inf, 10**400, "", "x", "1",
              "minmax", [], [1.0], [[1.0]], ["x"], [None], [10**400], {}, {"a": 1}]


@st.composite
def mutated_specs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_VALUES))
    doc = json.loads(json.dumps(SPEC_DOC))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(SPEC_DOC)))
        kind = draw(st.sampled_from(["drop", "retype", "truncate", "element"]))
        if kind == "drop":
            doc.pop(key, None)
        elif kind == "retype":
            doc[key] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "truncate" and isinstance(doc.get(key), (str, list)):
            doc[key] = doc[key][:draw(st.integers(0, max(len(doc[key]) - 1, 0)))]
        elif kind == "element" and isinstance(doc.get(key), list) and doc[key]:
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(
                st.sampled_from(ODD_VALUES))
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_specs())
def test_fuzzed_spec_raises_only_mapped_errors(doc):
    """A malformed norm document fails only with errors the CLI maps to exit 2."""
    try:
        NormalizationSpec.from_dict(doc)
    except (ValueError, KeyError, TypeError):
        pass


CSV_ALPHABET = list("0123456789.,,,-+eE \"\n\r\tabxnf_\x00") + ["nan", "inf", "١", "é"]


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from([b"", b"label\n", b"f0,f1,label\n"]),
       body=st.one_of(st.lists(st.sampled_from(CSV_ALPHABET), max_size=60).map("".join)
                      .map(str.encode), st.binary(max_size=40)),
       label_column=st.sampled_from([-1, 0, 2, -5, "label", "absent"]),
       names=st.sampled_from([None, ["a", "b"], ["1", "2", "x"]]))
@example(header=b"a,label\n", body=b"1,x\n\xff,y\n", label_column=-1, names=None)
def test_fuzzed_csv_raises_only_parse_errors(header, body, label_column, names):
    """``load_csv`` on any bytes returns a Dataset or raises ParseError or
    UnicodeDecodeError, both of which the CLI maps to exit 2."""
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/fuzz.csv"
        with open(path, "wb") as fh:
            fh.write(header + body)
        try:
            ds = load_csv(path, label_column=label_column, names=names)
        except (ParseError, UnicodeDecodeError):
            return
    assert ds.features.shape[0] == ds.labels.shape[0] > 0
