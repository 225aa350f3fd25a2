"""Dataset ingestion, normalization, splitting, and synthetic benchmarks."""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import itertools
import logging
import math
import multiprocessing
import os
import stat
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .serialize import open_atomic

log = logging.getLogger(__name__)

ZSCORE = "zscore"
MINMAX = "minmax"

# ``save_csv`` formats a table of at least this many cells on every usable
# CPU; below it, starting the workers costs more than they save.
_PARALLEL_CELLS = 1 << 18
# Cells per block of rows that ``save_csv`` formats at once: small, so
# that the blocks in flight hold little memory.
_BLOCK_CELLS = 1 << 13
# ``load_csv`` parses a file of at least this many bytes on every usable
# CPU, and a smaller one in this process.
_PARALLEL_BYTES = 1 << 22
# Bytes per block that ``load_csv`` cuts into ranges of whole lines, which
# it parses one at a time: each range ends at the last line end of a block.
_RANGE_BYTES = 1 << 20


class ParseError(ValueError):
    """CSV parsing failure; the message names the offending line."""


@dataclass
class Dataset:
    """Immutable-by-convention feature matrix plus dense 0-based labels."""

    features: np.ndarray
    labels: np.ndarray
    names: list[str] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("label count does not match sample count")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def load_csv(path: str, label_column=-1, has_header: bool = True,
             names=None) -> Dataset:
    """Parse a comma-separated file into features plus integer-mapped labels.

    ``label_column`` may be a column name (requires a header; names and
    cells match stripped) or an index; negative indices count from the
    right.  Given a vocabulary ``names``, label ``names[i]`` maps to id
    ``i`` and any other label is an error; without one, the file's own
    labels map to dense ids by sorted order, so the mapping is stable
    across runs and row orders.  Errors name the physical line, counting
    newlines inside quoted fields.  A leading UTF-8 byte order mark is
    skipped.  A header whose cells outside the label column are all numbers
    logs a WARNING: it is most likely the first row of a file without a
    header.

    A regular file is opened once and read by ``np.loadtxt`` in byte ranges
    of whole lines (``_load_plain``), which checks each line as it goes;
    a file of at least ``_PARALLEL_BYTES`` has its ranges parsed on every
    usable CPU, by worker processes of the ``fork`` start method.  A file
    that pass cannot vouch for, such as one with a ``"``, and a path that
    is not a regular file, such as a pipe, go to the row parser.  Both
    give the same Dataset bit for bit, and only the row parser raises.
    """
    ds = _load_plain(path, label_column, has_header, names)
    if ds is None:
        ds = _load_rows(path, label_column, has_header, names)
    return ds


def _load_plain(path: str, label_column, has_header: bool, names) -> Dataset | None:
    """``load_csv`` by ``np.loadtxt`` reads of byte ranges, or None.

    A path that is not a regular file, such as a pipe or a FIFO, gives None
    before it is opened, so that the row parser opens and reads it once.
    Otherwise the file is opened once, and its first line gives the header
    and the width.  ``_line_ranges`` cuts the file into ranges of whole
    lines and counts its lines; the result is allocated once from that
    count, and each range's rows (``_parse_range``) are copied into place
    in range order, their label ids remapped to the file's order of first
    sight.  A file of at least ``_PARALLEL_BYTES`` has its ranges parsed on
    every usable CPU by forked workers, which read the inherited descriptor
    with ``os.pread`` (see ``_mapped``).  None when a range raises, on no
    data rows and on any other exception, such as the KeyError of a label
    outside ``names`` in ``_dataset``.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, "r", encoding="utf-8-sig") as fh:
            first = fh.readline().rstrip("\n")
            header = first.split(",") if has_header else None
            width = first.count(",") + 1
            label_idx = _label_index(path, label_column, header, width)
            fd = fh.fileno()
            size = os.fstat(fd).st_size
            ranges, n_lines = _line_ranges(fd, size)
            n_rows = n_lines - has_header  # no fewer than the rows, which skip blank lines
            if n_rows < 1:
                return None
            features, ids = np.empty((n_rows, width - 1)), np.empty(n_rows, dtype=np.intp)
            seen, lo = {}, 0
            blocks = ((fd, start, stop, int(has_header and start == 0), label_idx, width)
                      for start, stop in ranges)
            with contextlib.closing(
                    _mapped(_parse_range, blocks, size >= _PARALLEL_BYTES)) as parts:
                for table, labels in parts:
                    hi = lo + table.shape[0]
                    features[lo:hi, :label_idx] = table[:, :label_idx]
                    features[lo:hi, label_idx:] = table[:, label_idx + 1:]
                    remap = np.array([seen.setdefault(label, len(seen)) for label in labels],
                                     dtype=np.intp)
                    ids[lo:hi] = remap[table[:, label_idx].astype(np.intp)]
                    lo = hi
        if lo < 1:
            return None
        if lo < n_rows:  # blank lines
            features, ids = features[:lo].copy(), ids[:lo]
        return _dataset(path, header, label_idx, features, ids, seen, names)
    except Exception:  # the row parser raises, or reads what this pass could not
        return None


def _line_ranges(fd: int, size: int) -> tuple[list, int]:
    """The byte ranges of the first ``size`` bytes of the file open as
    ``fd`` that ``_load_plain`` parses, and the file's count of lines.

    The file is read in blocks of ``_RANGE_BYTES``; a range ends just after
    the last ``\\n`` of a block, so no ``\\r\\n`` and no UTF-8 character
    straddles two ranges, and a file whose lines end in a lone ``\\r`` is
    one range.  The lines are counted as text mode ends them: at each
    ``\\n``, each lone ``\\r`` and each ``\\r\\n``, plus a last line with
    no end.
    """
    ranges, n_lines, start, pos = [], 0, 0, 0
    after_cr = ends_line = False
    while pos < size:
        block = np.frombuffer(os.pread(fd, min(_RANGE_BYTES, size - pos), pos), np.uint8)
        if not block.size:
            break
        lf, cr = np.flatnonzero(block == 10), block == 13
        # A "\r\n" is one line end, counted at its "\r".  Index -1 is the
        # byte before a block that starts with "\n": the last block's.
        crlf = cr[lf - 1]
        if lf.size and lf[0] == 0:
            crlf[0] = after_cr
        n_lines += lf.size + int(np.count_nonzero(cr)) - int(np.count_nonzero(crlf))
        if lf.size:
            ranges.append((start, pos + int(lf[-1]) + 1))
            start = ranges[-1][1]
        after_cr, ends_line = bool(cr[-1]), block[-1] in (10, 13)
        pos += block.size
    if start < pos:
        ranges.append((start, pos))
    return ranges, n_lines + (pos > 0 and not ends_line)


def _parse_range(fd: int, start: int, stop: int, skip: int, label_idx: int, width: int):
    """The rows of bytes ``[start, stop)`` of the file open as ``fd``, after
    ``skip`` lines, in one ``np.loadtxt`` read of every column: a table
    whose label column holds ids in order of first sight, and those labels
    in that order.  Any exception sends the file to the row parser.

    loadtxt takes the lines from a generator that checks each one and
    raises, so that the row parser decides, on a quote (which lets a cell
    hold commas and line ends), a \\x1c-\\x1f character (which loadtxt
    strips around a number as whitespace while float() rejects it) or a
    line longer than the csv module's field size limit.  Rows that are not
    ``width`` wide raise a ValueError too, and every warning but loadtxt's
    for a range of blank lines is raised as an error.  The generator's
    count of non-empty lines checks that loadtxt read the rows the row
    parser would, so that, say, a blank first line cannot pass for the
    header; text mode ends a line at ``\\r``, ``\\n`` or ``\\r\\n``, as the
    csv module does.  Only the range at the start of the file skips a byte
    order mark: a U+FEFF after a line end is row data.
    """
    seen = {}
    n_lines = 0

    def checked(lines):
        nonlocal n_lines
        for line in lines:
            if (len(line) > csv.field_size_limit()
                    or any(c in line for c in '"\x1c\x1d\x1e\x1f')):
                raise ValueError("a line for the row parser")
            n_lines += line != "\n"
            yield line

    with io.TextIOWrapper(io.BytesIO(os.pread(fd, stop - start, start)),
                          encoding="utf-8-sig" if start == 0 else "utf-8") as text, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # Given lines, not a path, loadtxt cannot read a ".gz" or ".xz"
        # name as a compressed file or a path as a URL.
        table = np.loadtxt(
            checked(text), delimiter=",", comments=None, quotechar=None,
            skiprows=skip, ndmin=2,
            converters={label_idx: lambda cell: seen.setdefault(cell.strip(), len(seen))})
    if not table.size:  # a range of blank lines
        table = table.reshape(0, width)
    if table.shape != (n_lines - skip, width):
        raise ValueError("rows for the row parser")
    return table, list(seen)


def _load_rows(path: str, label_column, has_header: bool, names) -> Dataset:
    """``load_csv`` one ``csv.reader`` row at a time: the reference parser,
    which reads every file and words every error."""
    header = None
    width = label_idx = None
    feature_rows, ids, seen = [], [], {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row:
                    continue
                if has_header and header is None:
                    header = row
                    continue
                if width is None:  # a header sets the width of every row
                    width = len(row if header is None else header)
                    label_idx = _label_index(path, label_column, header, width)
                if len(row) != width:
                    raise ParseError(f"{path}: line {reader.line_num}: expected "
                                     f"{width} columns, found {len(row)}")
                label = row.pop(label_idx).strip()
                if names is not None and label not in names:
                    raise ParseError(f"{path}: line {reader.line_num}: label {label!r} "
                                     f"is not one of the {len(names)} known class names")
                ids.append(seen.setdefault(label, len(seen)))
                try:  # numpy parses a cell exactly as float() does
                    feature_rows.append(np.array(row, dtype=np.float64))
                except ValueError:
                    bad = next(cell for cell in row if _as_float(cell) is None)
                    raise ParseError(f"{path}: line {reader.line_num}: non-numeric "
                                     f"feature value {bad!r}") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if width is None:
        raise ParseError(f"{path}: no data rows")
    return _dataset(path, header, label_idx, np.stack(feature_rows), ids, seen, names)


def _dataset(path: str, header, label_idx: int, features, ids, seen: dict,
             names) -> Dataset:
    """The tail of both parsers: the Dataset of ``features`` and of label
    ids in order of first sight (``seen`` maps each label to its id), mapped
    as ``load_csv`` says; a label outside ``names`` is a KeyError."""
    if names is None:
        names = sorted(seen, key=_label_sort_key)
    rank = {name: i for i, name in enumerate(names)}
    labels = np.array([rank[label] for label in seen], dtype=np.intp)[ids]
    meta = {"source": path, "n_features": features.shape[1], "n_classes": len(names)}
    ds = Dataset(features, labels, list(names), meta)
    cells = [] if header is None else header[:label_idx] + header[label_idx + 1:]
    if cells and all(_as_float(cell) is not None for cell in cells):
        log.warning("%s: every header cell outside the label column is a number, so "
                    "the first line may be a data row read as column names", path)
    return ds


def _label_index(path: str, label_column, header, width: int) -> int:
    if isinstance(label_column, str):
        if header is None:
            raise ParseError(f"{path}: label column {label_column!r} needs a header")
        try:
            return [cell.strip() for cell in header].index(label_column.strip())
        except ValueError:
            raise ParseError(f"{path}: unknown label column {label_column!r}") from None
    label_idx = int(label_column)
    if label_idx < 0:
        label_idx += width
    if not 0 <= label_idx < width:
        raise ParseError(f"{path}: label column index {label_column} out of range")
    return label_idx


def _as_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _label_sort_key(label: str):
    """Numbers by value, then text.  A label whose float is NaN sorts as text:
    NaN compares false with every value, which would let the rows' order
    decide the sort."""
    value = _as_float(label)
    return (1, 0.0, label) if value is None or math.isnan(value) else (0, value, label)


def save_csv(path: str, ds: Dataset) -> None:
    """Write a Dataset back out with a header; inverse of ``load_csv``.

    The bytes are those of ``csv.writer``: each feature is its ``repr``,
    each class name is quoted as ``csv.writer`` quotes it, lines end in
    ``\\r\\n``.  A row is one string join; only the names go through
    ``csv.writer``, once per class.  The rows are formatted in blocks of
    about ``_BLOCK_CELLS`` cells, which stream in order through
    ``open_atomic``.  A table of at least ``_PARALLEL_CELLS`` cells has its
    blocks formatted on every CPU the process may use, by worker processes
    of the ``fork`` start method (see ``_mapped``); the bytes are the
    same either way."""
    names = ds.names or [str(i) for i in range(ds.n_classes)]
    # A name as the last cell of a row, with the comma before it when the
    # row has features (csv.writer quotes a lone empty cell, not a last one).
    lead = [""] if ds.n_features else []
    tails = []
    for name in names:
        cell = io.StringIO()
        csv.writer(cell).writerow(lead + [name])
        tails.append(cell.getvalue()[:-2])
    step = max(1, _BLOCK_CELLS // max(1, ds.n_features))
    blocks = ((ds.features[i:i + step], ds.labels[i:i + step], tails)
              for i in range(0, ds.n_samples, step))
    with open_atomic(path) as fh, \
            contextlib.closing(_mapped(_format_rows, blocks,
                                       ds.features.size >= _PARALLEL_CELLS)) as texts:
        fh.write(",".join([f"feat_{i}" for i in range(ds.n_features)] + ["label"])
                 + "\r\n")
        fh.writelines(texts)


def _format_rows(features: np.ndarray, labels: np.ndarray, tails: list) -> str:
    """The lines of a block of rows: its features' ``repr`` joined by commas,
    then the tail of its label's name, then ``\\r\\n``."""
    return "".join(",".join(map(repr, row)) + tails[label] + "\r\n"
                   for row, label in zip(features.tolist(), labels.tolist()))


def _mapped(fn, blocks, parallel: bool):
    """``fn(*block)`` of each block, in block order: on one worker per usable
    CPU when ``parallel`` holds, there are two or more, ``fork`` exists and
    this process is not a daemon (such as a ``multiprocessing.Pool`` worker,
    which may not start children), else in this process.

    A forked worker neither imports numpy again nor needs the calling
    script to guard its entry point with ``if __name__ == "__main__"``, as
    a spawned one does, and it inherits the caller's open descriptors; the
    pool forks before it starts its manager thread, and a worker only
    formats or parses text, so it needs none of the BLAS threads a fork
    leaves behind.  At most ``2 * workers + 1`` blocks are in flight.  A
    worker's exception is raised here; closing the generator cancels what
    is queued and joins every worker.
    """
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if (not parallel or workers < 2 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        yield from itertools.starmap(fn, blocks)
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        pending = collections.deque()
        for block in blocks:
            pending.append(pool.submit(fn, *block))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class NormalizationSpec:
    """Per-feature affine transform fitted on the training split only."""

    mode: str
    shift: np.ndarray   # mean (zscore) or min (minmax)
    scale: np.ndarray   # std (zscore) or max-min (minmax); 0 marks constants

    def to_dict(self) -> dict:
        return {"mode": self.mode, "shift": self.shift.tolist(),
                "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "NormalizationSpec":
        """Read a spec back; one ``apply_normalizer`` could not use is a ValueError."""
        mode = doc["mode"]
        if mode not in (ZSCORE, MINMAX):
            raise ValueError(f"unknown normalization mode {mode!r}")
        try:
            shift = np.asarray(doc["shift"], dtype=np.float64)
            scale = np.asarray(doc["scale"], dtype=np.float64)
        except OverflowError:  # a JSON integer beyond the float64 range
            raise ValueError("shift and scale must be finite") from None
        if shift.ndim != 1 or shift.shape != scale.shape:
            raise ValueError("shift and scale must be 1-D and of equal length, "
                             f"got shapes {shift.shape} and {scale.shape}")
        if not (np.isfinite(shift).all() and np.isfinite(scale).all()):
            raise ValueError("shift and scale must be finite")
        if (scale < 0.0).any():
            raise ValueError("scale must be >= 0")
        return cls(mode, shift, scale)


def fit_normalizer(train: Dataset, mode: str = ZSCORE) -> NormalizationSpec:
    if train.n_samples == 0:
        raise ValueError("cannot fit a normalizer on an empty dataset")
    X = train.features
    # Features near the float64 limit overflow the moments; the caller
    # rejects the non-finite rows that follow, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == ZSCORE:
            shift = X.mean(axis=0)
            scale = X.std(axis=0)
        elif mode == MINMAX:
            shift = X.min(axis=0)
            scale = X.max(axis=0) - shift
        else:
            raise ValueError(f"unknown normalization mode {mode!r}")
    if np.any(scale == 0.0):
        log.warning("constant feature columns detected: %s",
                    np.flatnonzero(scale == 0.0).tolist())
    return NormalizationSpec(mode, shift, scale)


def apply_normalizer(spec: NormalizationSpec, ds: Dataset) -> Dataset:
    """Apply a fitted spec; constant columns map to 0 (zscore) or 0.5 (minmax)."""
    X = ds.features
    if X.shape[1] != spec.shift.shape[0]:
        raise ValueError(
            f"dataset has {X.shape[1]} features, spec expects {spec.shift.shape[0]}")
    const = spec.scale == 0.0
    # One output array and no masked copy of X: constant columns divide by
    # 1 and are then overwritten.  An overflow is left to the caller's
    # check of the normalized rows.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.subtract(X, spec.shift)
        out /= np.where(const, 1.0, spec.scale)
    out[:, const] = 0.0 if spec.mode == ZSCORE else 0.5
    return Dataset(out, ds.labels.copy(), ds.names, dict(ds.meta))


def check_fractions(fractions) -> tuple[float, float, float]:
    """The (train, valid, test) fractions as floats: three nonnegative values,
    train > 0, that sum to 1; anything else is a ValueError."""
    fractions = tuple(float(f) for f in fractions)
    # ``not f >= 0`` rejects NaN too; an infinite fraction fails the sum.
    if len(fractions) != 3 or any(not f >= 0 for f in fractions) or fractions[0] <= 0:
        raise ValueError(f"need 3 nonnegative fractions with train > 0, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    return fractions


def split(ds: Dataset, fractions, stratified: bool = False,
          seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint, exhaustive (train, valid, test) partition, each in row order."""
    fractions = check_fractions(fractions)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    part = np.full(ds.n_samples, -1, dtype=np.int8)  # a negative label joins no part
    if stratified:
        n_active = sum(1 for f in fractions if f > 0)
        for cls in range(ds.n_classes):
            idx = np.flatnonzero(ds.labels == cls)
            if idx.size < n_active:
                raise ValueError(
                    f"class {cls} has {idx.size} samples, fewer than the "
                    f"{n_active} requested splits")
            rng.shuffle(idx)
            _assign(idx, fractions, part)
    else:
        _assign(rng.permutation(ds.n_samples), fractions, part)
    return tuple(Dataset(ds.features[part == p], ds.labels[part == p], ds.names,
                         dict(ds.meta)) for p in range(3))


def _assign(idx: np.ndarray, fractions, part: np.ndarray) -> None:
    """Mark the rows ``idx``, in drawn order, as train (0), valid (1) or test (2)."""
    m = idx.size
    n_train = min(int(round(fractions[0] * m)), m)
    n_valid = min(int(round(fractions[1] * m)), m - n_train)
    part[idx[:n_train]] = 0
    part[idx[n_train:n_train + n_valid]] = 1
    part[idx[n_train + n_valid:]] = 2


def synth_blobs(n_features: int, k_classes: int, per_class: int,
                separation: float, seed: int) -> Dataset:
    """Gaussian clusters with unit within-class sd.

    Class means are random Gaussian points rescaled so the closest pair
    sits exactly ``separation`` apart (all pairs at least that far).  A
    separation of 0 collapses every mean onto the origin.  A ValueError
    when a separation that large overflows the means or the features.
    """
    if min(n_features, k_classes, per_class) < 1:
        raise ValueError("counts must all be >= 1")
    if not (math.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be finite and >= 0, got {separation}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    means = rng.standard_normal((k_classes, n_features))
    labels = np.repeat(np.arange(k_classes), per_class)
    with np.errstate(over="ignore", invalid="ignore"):
        if k_classes > 1:
            dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
            min_dist = dists[np.triu_indices(k_classes, 1)].min()
            means = means * (separation / min_dist) if min_dist > 0 else means * 0.0
        else:
            means *= 0.0
        features = means[labels] + rng.standard_normal((labels.size, n_features))
    # Every class has a row, so this also covers every mean.
    if not np.isfinite(features).all():
        raise ValueError(f"separation {separation!r} overflows the class means or "
                         f"features to non-finite values")
    return Dataset(features, labels,
                   [str(c) for c in range(k_classes)],
                   {"source": "synthetic", "separation": separation, "seed": seed})
