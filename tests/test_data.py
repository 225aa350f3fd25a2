"""Unit tests for CSV IO, normalization, splitting, and synthetic blobs."""

import csv
import itertools
import json
import logging
import math
import multiprocessing
import os
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hdclass.data
from conftest import fed_fifo
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
from hdclass.data import _load_plain, _load_rows
from reference_kernels import reference_synth_features


@pytest.fixture
def pools(monkeypatch):
    """The worker pools ``save_csv`` and ``load_csv`` start, with two usable CPUs."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the parallel path needs the fork start method")
    started = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(hdclass.data, "ProcessPoolExecutor", CountedPool)
    return started


@pytest.fixture
def small_ranges(monkeypatch, pools):
    """Every file parsed in parallel, in ranges that end at every ``\\n``:
    the (start, stop) byte ranges of each ``_load_plain`` call."""
    monkeypatch.setattr(hdclass.data, "_RANGE_BYTES", 1)
    monkeypatch.setattr(hdclass.data, "_PARALLEL_BYTES", 0)
    loads, mapped = [], hdclass.data._mapped

    def recording(fn, blocks, parallel):
        if fn is hdclass.data._parse_range:
            blocks = list(blocks)
            loads.append([block[1:3] for block in blocks])
        return mapped(fn, blocks, parallel)

    monkeypatch.setattr(hdclass.data, "_mapped", recording)
    return loads


# Each hazard: (file text, load_csv arguments, whether the one-pass load
# may read it).  A hazard it may not read must reach the row parser, which
# reads it or words the error.
LOAD_HAZARDS = {
    "x1c_is_not_whitespace_to_float": ("a,label\n\x1c4,x\n", (), False),
    "x1f_after_a_number": ("a,label\n4\x1f,x\n", (), False),
    "underscore_digits": ("a,label\n1_000,x\n2,y\n", (), False),
    "arabic_indic_digits": ("a,label\n\u0661\u0662,x\n2,y\n", (), False),
    "fullwidth_digits": ("a,label\n\uff11\uff12,x\n2,y\n", (), False),
    "hash_in_a_number": ("a,b,label\n1,2#3,x\n", (), False),
    "hash_in_a_label": ("a,b,label\n1,2,x#y\n3,4,#\n", (), True),
    "header_wider_than_rows": ("a,b,c,label\n1,2,x\n3,4,y\n", (), False),
    "header_narrower_than_rows": ("a,label\n1,2,x\n", (), False),
    "header_only": ("a,b,label\n", (), False),
    "header_only_then_blank_lines": ("a,b,label\n\n\r\n", (), False),
    "lone_cr_line_ends": ("a,b,label\r1,2,x\r3,4,y\r", (), True),
    "crlf_line_ends": ("a,b,label\r\n1,2,x\r\n3,4,y\r\n", (), True),
    "mixed_line_ends": ("a,b,label\r\n1,2,x\r3,4,y\n5,6,x", (), True),
    "blank_lines": ("a,b,label\n\n1,2,x\n\r\n\n3,4,y\n\n", (), True),
    "blank_first_line": ("\na,b,label\n1,2,x\n", (), False),
    "numeric_header_after_a_blank_line": ("\n1,2,3\n4,5,6\n", (), False),
    "one_column_header_after_a_blank_line": ("\n1\n2\n", (), False),
    "headerless_after_a_blank_line": ("\n1,x\n2,y\n", (-1, False), False),
    "unicode_line_separators_in_cells": ("a,label\n1\u2028,x\u2028y\n2,z\x85\x0c\n",
                                         (), True),
    "whitespace_only_line": ("a,b,label\n1,2,x\n  \n3,4,y\n", (), False),
    "whitespace_only_line_of_a_label_file": ("label\nx\n \t\ny\n", (), True),
    "quoted_newline": ('a,b,label\n1,2,"x\ny"\n3,4,y\n', (), False),
    "quoted_number": ('a,b,label\n"1",2,x\n', (), False),
    "unknown_label_under_names": ("a,label\n1,x\n2,w\n", (-1, True, ["x", "y"]), False),
    "known_labels_under_names": ("a,label\n1, y \n2,x\n", (-1, True, ["x", "y", "z"]),
                                 True),
    "label_column_by_name": ("label,a,b\nx,1,2\ny,3,4\n", ("label",), True),
    "label_column_at_index_0": ("label,a,b\nx,1,2\ny,3,4\n", (0,), True),
    "label_column_name_without_header": ("x,1\ny,2\n", ("label", False), False),
    "label_column_out_of_range": ("a,label\n1,x\n", (5,), False),
    "padded_numbers": ("a,b,label\n 1.5 ,\t2\x0b,x\n\xa03\u2000,-0.0, y\n", (), True),
    "number_spellings": ("a,b,c,label\nnan,-inf,1e400,x\n-nan,Infinity,5e-324,y\n",
                         (), True),
    "empty_cell": ("a,b,label\n1,,x\n", (), False),
    "nul_in_a_label": ("a,label\n1,x\x00\n", (), True),
    "field_over_the_csv_limit": ("a,label\n1," + "x" * (csv.field_size_limit() + 1) + "\n",
                                 (), False),
    "number_over_the_csv_limit": ("a,label\n" + " " * csv.field_size_limit() + "1,x\n",
                                  (), False),
}


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

    @pytest.mark.parametrize("cell", ["x", '"x"'])  # a quoted cell takes the row parser
    def test_byte_order_mark_is_skipped(self, tmp_path, cell):
        """Excel and other Windows tools start a UTF-8 file with a byte order mark."""
        for text, args in ((f"\ufefflabel,f1\n{cell},1.0\ny,2.0\n", ("label",)),
                           (f"\ufeff1.0,{cell}\n2.0,y\n", (-1, False))):
            path = tmp_path / "bom.csv"
            path.write_bytes(text.encode("utf-8"))
            plain = assert_load_matches_row_parser(str(path), *args)
            assert (plain is not None) == (cell == "x")
            ds = load_csv(str(path), *args)
            assert ds.features.tolist() == [[1.0], [2.0]] and ds.names == ["x", "y"]

    @pytest.mark.parametrize("row", ["1.0, 2.0, x", '1.0, 2.0,"x"'])
    @pytest.mark.parametrize("name", ["label", " label", "label "])
    def test_padded_header_cell_is_chosen_by_name(self, tmp_path, row, name):
        """The ``", "`` layout pads every header cell, as it pads every label."""
        path = self.write(tmp_path, f"f1, f2, label\n{row}\n3.0, 4.0, y\n")
        plain = assert_load_matches_row_parser(path, name)
        assert (plain is not None) == ('"' not in row)
        ds = load_csv(path, label_column=name)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]] and ds.names == ["x", "y"]

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

    def test_fifo_loads_the_rows_of_a_regular_file(self, tmp_path):
        text = b"a,b,label\n1,2,x\n3,4,y\n"
        regular = self.write(tmp_path, text.decode())
        with fed_fifo(str(tmp_path / "fifo"), text) as fifo:
            ds = load_csv(fifo)
        assert_same_dataset(ds, load_csv(regular), same_meta=False)

    def test_pipe_loads_the_rows_of_a_regular_file(self, tmp_path):
        text = b"a,b,label\n1,2,x\n3,4,y\n"
        regular = self.write(tmp_path, text.decode())
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text)
            os.close(write_end)
            ds = load_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert_same_dataset(ds, load_csv(regular), same_meta=False)

    def test_parallel_load_cuts_before_every_line(self, tmp_path, small_ranges, pools):
        path = tmp_path / "blobs.csv"
        save_csv(str(path), synth_blobs(5, 3, 7, 2.0, seed=4))
        assert assert_load_matches_row_parser(str(path)) is not None
        assert len(pools) == 2  # _load_plain's and load_csv's
        data = path.read_bytes()
        line_starts = [0] + [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]
        assert [start for start, _ in small_ranges[0]] == line_starts
        assert small_ranges[0][-1][1] == len(data)

    @pytest.mark.parametrize("names", [None, ["c", "b", "a"]], ids=["sorted", "vocabulary"])
    def test_label_first_seen_in_a_late_range(self, tmp_path, small_ranges, names):
        path = self.write(tmp_path, "f,label\n1,b\n2,b\n3,a\n4,c\n5,a\n")
        ds = assert_load_matches_row_parser(path, -1, True, names)
        assert ds is not None
        assert [ds.names[i] for i in ds.labels] == ["b", "b", "a", "c", "a"]

    @pytest.mark.parametrize("end", ["\r\n", "\r", "mixed"])
    def test_line_ends(self, tmp_path, small_ranges, end):
        lines = ["a,b,label", "1,2,x", "3,4,y", "5,6,x"]
        text = ("a,b,label\r\n1,2,x\r3,4,y\n5,6,x\r" if end == "mixed"
                else end.join(lines) + end)
        path = tmp_path / "ends.csv"
        path.write_bytes(text.encode())
        assert assert_load_matches_row_parser(str(path)) is not None
        assert len(small_ranges[0]) == text.count("\n") + text.endswith("\r")
        if end == "\r":
            assert small_ranges[0] == [(0, len(text))]

    def test_range_of_blank_lines(self, tmp_path, small_ranges):
        text = "a,b,label\n1,2,x\n\n\r\n\n3,4,y\n"
        path = self.write(tmp_path, text)
        assert assert_load_matches_row_parser(path) is not None
        blank = text.index("\n\n") + 1
        assert (blank, blank + 1) in small_ranges[0]

    def test_byte_order_mark_at_a_range_start_is_row_data(self, tmp_path, small_ranges):
        path = tmp_path / "bom.csv"
        path.write_bytes("a,label\n1,x\n\ufeff2,y\n".encode())
        assert assert_load_matches_row_parser(str(path)) is None
        with pytest.raises(ParseError, match=r"line 3: non-numeric feature value '\\ufeff2'"):
            load_csv(str(path))

    @pytest.mark.parametrize("row", ['3,4,"y"', '3,"4', "3,\x1c4,y"],
                             ids=["quoted", "unclosed_quote", "x1c"])
    def test_hazard_in_the_last_range_reaches_the_row_parser(self, tmp_path, small_ranges,
                                                            row):
        path = self.write(tmp_path, f"a,b,label\n1,2,x\n5,6,z\n{row}\n")
        rows = [(0, 10), (10, 16), (16, 22), (22, 23 + len(row))]
        try:
            want = _load_rows(path, -1, True, None)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                load_csv(path)
            assert str(got.value) == str(exc)
        else:
            assert_same_dataset(load_csv(path), want)
        assert _load_plain(path, -1, True, None) is None
        assert small_ranges[0] == rows

    @pytest.mark.parametrize("name", sorted(LOAD_HAZARDS))
    def test_load_hazard_through_the_parallel_path(self, tmp_path, monkeypatch,
                                                   small_ranges, pools, name):
        text, args, one_pass = LOAD_HAZARDS[name]
        # A range still ends at every "\n" of a short file; a file of one
        # long line is scanned in a few hundred blocks, not byte by byte.
        monkeypatch.setattr(hdclass.data, "_RANGE_BYTES", max(1, len(text) // 256))
        path = tmp_path / "hazard.csv"
        path.write_bytes(text.encode("utf-8"))
        plain = assert_load_matches_row_parser(str(path), *args)
        assert (plain is not None) == one_pass
        if one_pass:
            assert len(pools) == 2

    @pytest.mark.parametrize("text", ["a,label\n1,x\n2,y\n", 'a,label\n1,x\n2,"y"\n',
                                      "a,label\n1,x\n2\n"],
                             ids=["loaded", "declined", "raised"])
    def test_no_worker_is_left_running(self, tmp_path, small_ranges, pools, text):
        path = self.write(tmp_path, text)
        try:
            load_csv(path)
        except ParseError:
            pass
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_daemon_caller_stays_serial(self, tmp_path, small_ranges):
        # A multiprocessing.Pool worker is a daemon, which may not start
        # children: a pool there would send every file to the row parser.
        path = self.write(tmp_path, "a,label\n1,x\n2,y\n")
        with multiprocessing.get_context("fork").Pool(1) as pool:
            plain = pool.apply(_load_plain, (path, -1, True, None))
        assert plain is not None
        assert_same_dataset(plain, _load_rows(path, -1, True, None))


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

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 30), n=st.integers(1, 12), constant=st.integers(0, 12),
           mode=st.sampled_from(["zscore", "minmax"]), seed=st.integers(0, 2**32 - 1))
    def test_apply_is_bitwise_the_masked_column_formula(self, m, n, constant, mode, seed):
        # The masked-copy formula apply_normalizer replaced, kept as the oracle.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, n)) * rng.uniform(0.1, 100.0, size=n)
        X[:, rng.choice(n, size=min(constant, n), replace=False)] = 3.0
        spec = fit_normalizer(Dataset(X, np.zeros(m, dtype=int)), mode)
        expected = np.empty_like(X)
        live = spec.scale != 0.0
        expected[:, live] = (X[:, live] - spec.shift[live]) / spec.scale[live]
        expected[:, ~live] = 0.0 if mode == "zscore" else 0.5
        out = apply_normalizer(spec, Dataset(X, np.zeros(m, dtype=int)))
        assert np.array_equal(out.features, expected)

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


def reference_split(ds, fractions, stratified=False, seed=0):
    """Oracle: the split as three index lists, each sorted into row order."""
    fractions = check_fractions(fractions)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = [[], [], []]

    def assign(idx):
        m = idx.size
        n_train = min(int(round(fractions[0] * m)), m)
        n_valid = min(int(round(fractions[1] * m)), m - n_train)
        parts[0].extend(idx[:n_train].tolist())
        parts[1].extend(idx[n_train:n_train + n_valid].tolist())
        parts[2].extend(idx[n_train + n_valid:].tolist())

    if stratified:
        n_active = sum(1 for f in fractions if f > 0)
        for cls in range(ds.n_classes):
            idx = np.flatnonzero(ds.labels == cls)
            if idx.size < n_active:
                raise ValueError(f"class {cls} has {idx.size} samples, fewer than the "
                                 f"{n_active} requested splits")
            rng.shuffle(idx)
            assign(idx)
    else:
        assign(rng.permutation(ds.n_samples))
    out = []
    for p in parts:
        sel = np.array(sorted(p), dtype=np.intp)
        out.append(Dataset(ds.features[sel], ds.labels[sel], ds.names, dict(ds.meta)))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
       shares=st.tuples(*[st.integers(0, 4)] * 3).filter(any),
       stratified=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
@example(sizes=[1, 5], shares=(1, 1, 1), stratified=True, seed=0, data=None)
@example(sizes=[3], shares=(0, 1, 1), stratified=False, seed=0, data=None)
def test_split_matches_the_index_list_oracle(sizes, shares, stratified, seed, data):
    """Both modes, zero shares and tiny classes: the same three parts bit for
    bit, or the same ValueError."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    if data is not None:  # rows in any order, not grouped by class
        labels = labels[data.draw(st.permutations(range(labels.size)))]
    ds = Dataset(np.arange(labels.size * 2, dtype=np.float64).reshape(-1, 2), labels,
                 [f"c{i}" for i in range(len(sizes))], {"source": "oracle"})
    fractions = tuple(share / sum(shares) for share in shares)
    try:
        want = reference_split(ds, fractions, stratified, seed)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            split(ds, fractions, stratified=stratified, seed=seed)
        assert str(got.value) == str(exc)
        return
    for got, part in zip(split(ds, fractions, stratified=stratified, seed=seed), want):
        assert_same_dataset(got, part)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_features, separation", [(3, 1e308), (1, 1.7e308)])
    def test_separation_that_overflows_is_rejected(self, n_features, separation):
        with pytest.raises(ValueError, match="non-finite"):
            synth_blobs(n_features, 3, 10, separation, seed=0)

    @pytest.mark.parametrize("n_features, k_classes, per_class, separation, seed", [
        (617, 26, 240, 25.0, 0),  # the ISOLET shape
        (6, 4, 1000, 2.0731, 3),
        (5, 1, 7, 2.0, 1),        # one class: its mean is the origin
        (3, 4, 1, 0.0, 2),
        (1, 2, 9, 3.0, 4),
        (8, 3, 11, 1e300, 5),     # means near the float64 limit
    ])
    def test_features_are_bitwise_the_mean_gather(self, n_features, k_classes, per_class,
                                                  separation, seed):
        ds = synth_blobs(n_features, k_classes, per_class, separation, seed)
        want = reference_synth_features(n_features, k_classes, per_class, separation, seed)
        assert ds.features.tobytes() == want.tobytes()

    def test_peak_memory_is_one_feature_matrix(self):
        synth_blobs(40, 5, 500, 3.0, seed=0)  # warm numpy's caches
        tracemalloc.start()
        try:
            ds = synth_blobs(40, 5, 500, 3.0, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The labels (8 bytes a row), the finite check's mask (a byte a cell)
        # and the k x n means come on top; a gathered copy of the means would
        # add a whole feature matrix.
        features = ds.features.nbytes
        assert peak <= features + ds.labels.nbytes + features // 8 + (1 << 16)

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


def reference_save_csv(path, ds):
    """The ``csv.writer`` loop ``save_csv`` replaced, kept as its byte oracle."""
    names = ds.names or [str(i) for i in range(ds.n_classes)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feat_{i}" for i in range(ds.n_features)] + ["label"])
        for j in range(ds.n_samples):
            writer.writerow([repr(float(v)) for v in ds.features[j]]
                            + [names[int(ds.labels[j])]])


def assert_same_dataset(got, want, same_meta=True):
    assert got.features.tobytes() == want.features.tobytes()
    assert got.features.shape == want.features.shape
    assert got.features.flags.c_contiguous
    assert got.labels.tolist() == want.labels.tolist()
    assert got.names == want.names
    assert got.meta == want.meta or not same_meta


def assert_load_matches_row_parser(path, label_column=-1, has_header=True, names=None):
    """``load_csv`` returns the row parser's Dataset bit for bit, or raises its
    ParseError text; ``_load_plain`` returns either that Dataset or None."""
    args = (label_column, has_header, names)
    try:
        want = _load_rows(path, *args)
    except ParseError as exc:
        assert _load_plain(path, *args) is None
        with pytest.raises(ParseError) as got:
            load_csv(path, *args)
        assert str(got.value) == str(exc)
        return None
    plain = _load_plain(path, *args)
    if plain is not None:
        assert_same_dataset(plain, want)
    assert_same_dataset(load_csv(path, *args), want)
    return plain


class TestSaveCsv:
    @pytest.mark.parametrize("n_features", [3, 0])
    def test_bytes_equal_the_csv_writer_loop(self, tmp_path, n_features):
        values = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0.1, 1e300,
                  -2.5e-10, 3.0]
        features = np.array(values * n_features, dtype=np.float64).reshape(
            len(values), n_features)
        names = ["a,b", 'say "hi"', "line\nbreak", " lead", ""]
        ds = Dataset(features, [i % len(names) for i in range(len(values))], names)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_csv(str(got), ds)
        reference_save_csv(str(want), ds)
        assert got.read_bytes() == want.read_bytes()

    def test_quoted_names_round_trip_through_the_row_parser(self, tmp_path):
        features = np.array([[float("nan"), -0.0], [float("inf"), 5e-324],
                             [1.5, -float("inf")], [0.1, 2.0]])
        names = ["a,b", 'say "hi"', "line\nbreak", " lead"]
        ds = Dataset(features, [0, 1, 2, 3], names)
        path = str(tmp_path / "quoted.csv")
        save_csv(path, ds)
        assert _load_plain(path, -1, True, None) is None  # the quotes
        back = load_csv(path)
        assert back.features.tobytes() == features.tobytes()
        assert back.names == sorted(name.strip() for name in names)
        assert [back.names[i] for i in back.labels] == [name.strip() for name in names]

    @pytest.mark.parametrize("existing", [None, b"old,label\r\n"])
    def test_failed_write_leaves_no_target_and_no_temp_file(self, tmp_path, existing):
        # The second row's label has no name, so the write fails after the
        # header and the first row have gone out.
        ds = Dataset(np.ones((3, 2)), [0, 1, 0], names=["a"])
        path = tmp_path / "blobs.csv"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(IndexError):
            save_csv(str(path), ds)
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None
                                                        else ["blobs.csv"])
        if existing is not None:
            assert path.read_bytes() == existing

    def test_written_file_takes_the_one_pass_load(self, tmp_path):
        ds = synth_blobs(5, 3, 7, 2.0, seed=4)
        path = str(tmp_path / "plain.csv")
        save_csv(path, ds)
        plain = _load_plain(path, -1, True, None)
        assert plain is not None
        assert_same_dataset(plain, _load_rows(path, -1, True, None))
        assert plain.features.tobytes() == ds.features.tobytes()

    # A 4096 x 64 table: exactly the parallel threshold of 2**18 cells.
    PARALLEL_SHAPE = (4096, 64)
    ODD_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0.1, 1e300,
                  -2.5e-10, 3.0]
    QUOTED_NAMES = ["a,b", 'say "hi"', "line\nbreak", ""]

    def parallel_table(self, labels=None) -> Dataset:
        rows, width = self.PARALLEL_SHAPE
        if labels is None:
            labels = [i % len(self.QUOTED_NAMES) for i in range(rows)]
        return Dataset(np.resize(self.ODD_FLOATS, (rows, width)), labels,
                       self.QUOTED_NAMES)

    def test_parallel_bytes_equal_the_csv_writer_loop(self, tmp_path, pools):
        ds = self.parallel_table()
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_csv(str(got), ds)
        assert len(pools) == 1
        reference_save_csv(str(want), ds)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("extra_cells, n_pools", [(0, 1), (-1, 0)],
                             ids=["at_the_threshold", "one_cell_below"])
    def test_parallel_path_starts_at_the_threshold(self, tmp_path, pools,
                                                   extra_cells, n_pools):
        cells = hdclass.data._PARALLEL_CELLS + extra_cells
        save_csv(str(tmp_path / "t.csv"), Dataset(np.ones((cells, 1)), np.zeros(cells)))
        assert len(pools) == n_pools

    def test_pool_worker_keeps_the_serial_path(self, tmp_path, pools):
        # A multiprocessing.Pool worker is a daemon, which may not start children.
        with multiprocessing.Pool(1) as pool:
            pool.apply(save_csv, (str(tmp_path / "t.csv"), self.parallel_table()))
        assert (tmp_path / "t.csv").read_bytes().count(b"\r\n") == 1 + self.PARALLEL_SHAPE[0]

    def test_worker_failure_leaves_no_target_and_no_temp_file(self, tmp_path, pools):
        # A label past the names, half way down: the workers raise after
        # earlier blocks have been written.
        labels = np.zeros(self.PARALLEL_SHAPE[0], dtype=np.intp)
        labels[len(labels) // 2] = len(self.QUOTED_NAMES)
        with pytest.raises(IndexError):
            save_csv(str(tmp_path / "t.csv"), self.parallel_table(labels))
        assert len(pools) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fails", [False, True], ids=["written", "failed"])
    def test_no_worker_is_left_running(self, tmp_path, pools, fails):
        labels = np.full(self.PARALLEL_SHAPE[0], len(self.QUOTED_NAMES) if fails else 0)
        try:
            save_csv(str(tmp_path / "t.csv"), self.parallel_table(labels))
        except IndexError:
            pass
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_written_file_is_opened_once(self, tmp_path, monkeypatch):
        ds = synth_blobs(5, 3, 7, 2.0, seed=4)
        path = str(tmp_path / "plain.csv")
        save_csv(path, ds)
        modes = []

        def counting_open(file, *args, **kwargs):
            if file == path:
                modes.append(args)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(hdclass.data, "open", counting_open, raising=False)
        back = load_csv(path)
        assert modes == [("r",)]
        assert back.features.tobytes() == ds.features.tobytes()


@pytest.mark.parametrize("name", sorted(LOAD_HAZARDS))
def test_load_hazard(tmp_path, name):
    text, args, one_pass = LOAD_HAZARDS[name]
    path = tmp_path / "hazard.csv"
    path.write_bytes(text.encode("utf-8"))
    plain = assert_load_matches_row_parser(str(path), *args)
    assert (plain is not None) == one_pass


def test_nan_label_names_do_not_depend_on_the_row_order(tmp_path):
    """A label whose float is NaN sorts as text, after the numbers, so both
    parsers give one ``names`` list for every row order of a file."""
    path = tmp_path / "nan.csv"
    got = set()
    for rows in itertools.permutations(["0.5,2", "1.5,nan", "2.5,1", "3.5,0"]):
        path.write_text("a,label\n" + "\n".join(rows) + "\n")
        got.update(tuple(parse(str(path), -1, True, None).names)
                   for parse in (_load_plain, _load_rows))
    assert got == {("0", "1", "2", "nan")}


@pytest.mark.parametrize("label", ["b", '"b"'])  # a quoted cell takes the row parser
def test_numeric_header_warns_once_that_it_may_be_data(tmp_path, caplog, label):
    """A file without a header loses its first row to the header; when every
    header cell outside the label column is a number, a WARNING names the file."""
    path = tmp_path / "headerless.csv"
    path.write_text(f"0.5,1.5,a\n2.5,3.5,{label}\n4.5,5.5,a\n6.5,7.5,b\n")
    with caplog.at_level(logging.WARNING, logger="hdclass.data"):
        assert load_csv(str(path)).n_samples == 3
        assert load_csv(str(path), has_header=False).n_samples == 4
    [record] = [r for r in caplog.records if r.name == "hdclass.data"]
    assert record.levelno == logging.WARNING and str(path) in record.getMessage()


def test_written_header_does_not_warn(tmp_path, caplog):
    path = str(tmp_path / "blobs.csv")
    save_csv(path, synth_blobs(3, 2, 4, 1.0, 0))
    with caplog.at_level(logging.WARNING, logger="hdclass.data"):
        assert load_csv(path).n_samples == 8
    assert not [r for r in caplog.records if r.name == "hdclass.data"]


def test_headerless_file_loads_in_one_pass(tmp_path):
    """ISOLET's ``.data`` layout: no header, ``", "`` between cells and the
    class as the last cell."""
    path = tmp_path / "isolet.data"
    path.write_text("0.25, -0.5, 1.\n-1, 0.75, 2.\n0.0, 1e-3, 1.\n")
    plain = assert_load_matches_row_parser(str(path), -1, False, None)
    assert plain is not None
    assert plain.names == ["1.", "2."] and plain.labels.tolist() == [0, 1, 0]
    quoted = tmp_path / "quoted.data"
    quoted.write_text('0.25, -0.5, "1."\n-1, 0.75, 2.\n')
    assert assert_load_matches_row_parser(str(quoted), -1, False, None) is None


PLAIN_CELLS = st.one_of(
    st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
    st.sampled_from([" 1.5", "+2 ", "-0.0", "nan", "-inf", "1e400", "5e-324", "\t7\x0b",
                     "\xa01\u2000"]))
HAZARD_CELLS = st.sampled_from(["1_000", "\u0661\u0662", "\uff11\uff12", "\x1c4", "4\x1f",
                                "", "x", "#3", "1#", '"1"'])
PLAIN_LABELS = st.sampled_from(["a", "b", " a", "10", "2", "", "x#y", "\u00e9", "nan"])
HAZARD_LABELS = st.sampled_from(['"q"', '"p\nq"', '"a,b"', "w"])
ORACLE_NAMES = ["a", "b", "10", "2", "", "x#y", "\u00e9", "q"]


def mostly(plain, hazard, one_in=15):
    """``plain``, or ``hazard`` about once in ``one_in`` draws (once the
    examples stop shrinking towards 0)."""
    return st.integers(0, one_in - 1).flatmap(lambda i: hazard if i == 1 else plain)


@st.composite
def oracle_files(draw):
    """``load_csv`` arguments and a CSV text near the one-pass load's gate:
    mostly plain files, sometimes with ragged rows, a header of another
    width, blank or whitespace-only lines, quotes or hazard cells, under
    every line end."""
    width = draw(st.integers(1, 4))
    label_at_end = draw(st.booleans())
    has_header = draw(mostly(st.just(True), st.just(False), 4))

    def line(cells, label):
        return ",".join(cells + [label] if label_at_end else [label] + cells)

    widths = draw(st.lists(mostly(st.just(width), st.sampled_from([width - 1, width + 1])),
                           min_size=draw(mostly(st.just(1), st.just(0), 10)), max_size=5))
    lines = [line(draw(st.lists(mostly(PLAIN_CELLS, HAZARD_CELLS), min_size=w - 1,
                                max_size=w - 1)), draw(mostly(PLAIN_LABELS, HAZARD_LABELS)))
             for w in widths if w >= 1]
    lines = [draw(mostly(st.just(row), st.sampled_from(["", " "]), 10)) for row in lines]
    if has_header:
        n = draw(mostly(st.just(width), st.sampled_from([width - 1, width + 1]), 8))
        lines.insert(0, line([f"f{i}" for i in range(n - 1)], "label"))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return {"text": end.join(lines) + draw(st.sampled_from([end, ""])),
            "has_header": has_header,
            "label_column": draw(mostly(
                st.sampled_from([-1 if label_at_end else 0] + ["label"] * has_header),
                st.sampled_from([-1, 0, 1, "label", "f0"]), 8)),
            "names": draw(mostly(st.none(), st.sampled_from([ORACLE_NAMES, ["a", "b"]]), 4))}


def with_hazard_examples(test):
    """Every ``LOAD_HAZARDS`` file as an explicit example of an oracle test."""
    for text, args, _ in LOAD_HAZARDS.values():
        label_column, has_header, names = args + (-1, True, None)[len(args):]
        test = example({"text": text, "label_column": label_column,
                        "has_header": has_header, "names": names})(test)
    return test


def assert_oracle_case(case):
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/oracle.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(case["text"])
        assert_load_matches_row_parser(path, case["label_column"], case["has_header"],
                                       case["names"])


@settings(max_examples=300, deadline=None)
@with_hazard_examples
@given(oracle_files())
def test_one_pass_load_agrees_with_the_row_parser(case):
    """Whenever the one-pass load returns, its Dataset is the row parser's
    bit for bit; whenever the row parser raises, ``load_csv`` raises the
    same ParseError text."""
    assert_oracle_case(case)


@settings(max_examples=300, deadline=None)
@given(oracle_files(), st.integers(1, 8))
def test_one_pass_load_in_small_ranges_agrees_with_the_row_parser(case, range_bytes):
    """The oracle above, with the file cut into ranges at most every
    ``range_bytes`` bytes (parsed in this process); the ``LOAD_HAZARDS``
    files take the parallel path in ``TestLoadCsv``."""
    with mock.patch.object(hdclass.data, "_RANGE_BYTES", range_bytes):
        assert_oracle_case(case)


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
