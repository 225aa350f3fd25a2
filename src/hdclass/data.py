"""Dataset ingestion, normalization, splitting, and synthetic benchmarks."""

from __future__ import annotations

import csv
import io
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .serialize import open_atomic

log = logging.getLogger(__name__)

ZSCORE = "zscore"
MINMAX = "minmax"


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

    ``label_column`` may be a column name (requires a header) or an index;
    negative indices count from the right.  Given a vocabulary ``names``,
    label ``names[i]`` maps to id ``i`` and any other label is an error;
    without one, the file's own labels map to dense ids by sorted order,
    so the mapping is stable across runs and row orders.  Errors name the
    physical line, counting newlines inside quoted fields.

    A file is opened once and read by ``np.loadtxt`` (``_load_plain``),
    which checks each line as it goes; a file it cannot vouch for, such as
    one with a ``"``, goes to the row parser.  Both give the same Dataset
    bit for bit, and only the row parser raises.
    """
    ds = _load_plain(path, label_column, has_header, names)
    if ds is None:
        ds = _load_rows(path, label_column, has_header, names)
    return ds


def _load_plain(path: str, label_column, has_header: bool, names) -> Dataset | None:
    """``load_csv`` in one ``np.loadtxt`` read of every column, or None.

    loadtxt takes the lines of the open file from a generator that checks
    each one and raises, so that the row parser decides, on a quote (which
    lets a cell hold commas and line ends), a \\x1c-\\x1f character (which
    loadtxt strips around a number as whitespace while float() rejects it)
    or a line longer than the csv module's field size limit.  None too on
    rows that are not the first line's width, no data rows, and any other
    exception or warning.  The generator's count of non-empty lines checks
    that loadtxt read the rows the row parser would, so that, say, a blank
    first line cannot pass for the header; text mode ends a line at ``\\r``,
    ``\\n`` or ``\\r\\n``, as the csv module does.  The label column's
    converter strips each label and gives it an id in order of first sight
    (or by ``names``); the ids are remapped to sorted order afterwards.
    """
    known = None if names is None else {name: i for i, name in enumerate(names)}
    seen = {}
    n_lines = 0

    def label_id(cell: str) -> int:
        label = cell.strip()
        return known[label] if known is not None else seen.setdefault(label, len(seen))

    def checked(lines):
        nonlocal n_lines
        for line in lines:
            if (len(line) > csv.field_size_limit()
                    or any(c in line for c in '"\x1c\x1d\x1e\x1f')):
                raise ValueError("a line for the row parser")
            n_lines += line != "\n"
            yield line

    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            first = fh.readline().rstrip("\n")
            header = first.split(",") if has_header else None
            fh.seek(0)
            width = first.count(",") + 1
            label_idx = _label_index(path, label_column, header, width)
            # Given lines, not a path, loadtxt cannot read a ".gz" or ".xz"
            # name as a compressed file or a path as a URL.
            table = np.loadtxt(checked(fh), delimiter=",", comments=None, quotechar=None,
                               skiprows=int(has_header), ndmin=2,
                               converters={label_idx: label_id})
    except Exception:  # the row parser raises, or reads what this pass could not
        return None
    n_rows = n_lines - has_header
    if n_rows < 1 or table.shape != (n_rows, width):
        return None
    labels = table[:, label_idx].astype(np.intp)
    features = np.delete(table, label_idx, axis=1)
    if known is None:
        names = sorted(seen, key=_label_sort_key)
        rank = {name: i for i, name in enumerate(names)}
        labels = np.array([rank[label] for label in seen], dtype=np.intp)[labels]
    meta = {"source": path, "n_features": width - 1, "n_classes": len(names)}
    return Dataset(features, labels, list(names), meta)


def _load_rows(path: str, label_column, has_header: bool, names) -> Dataset:
    """``load_csv`` one ``csv.reader`` row at a time: the reference parser,
    which reads every file and words every error."""
    known = None if names is None else {name: i for i, name in enumerate(names)}
    header = None
    width = label_idx = None
    feature_rows, raw_labels = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
                if known is not None and label not in known:
                    raise ParseError(f"{path}: line {reader.line_num}: label {label!r} "
                                     f"is not one of the {len(known)} known class names")
                raw_labels.append(label)
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
    features = np.stack(feature_rows)

    if known is None:
        names = sorted(set(raw_labels), key=_label_sort_key)
        known = {name: i for i, name in enumerate(names)}
    labels = np.array([known[l] for l in raw_labels], dtype=np.intp)
    meta = {"source": path, "n_features": width - 1, "n_classes": len(names)}
    return Dataset(features, labels, list(names), meta)


def _label_index(path: str, label_column, header, width: int) -> int:
    if isinstance(label_column, str):
        if header is None:
            raise ParseError(f"{path}: label column {label_column!r} needs a header")
        try:
            return header.index(label_column)
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
    value = _as_float(label)
    return (1, 0.0, label) if value is None else (0, value, label)


def save_csv(path: str, ds: Dataset) -> None:
    """Write a Dataset back out with a header; inverse of ``load_csv``.

    The bytes are those of ``csv.writer``: each feature is its ``repr``,
    each class name is quoted as ``csv.writer`` quotes it, lines end in
    ``\\r\\n``.  A row is one string join; only the names go through
    ``csv.writer``, once per class.  Rows stream through ``open_atomic``."""
    names = ds.names or [str(i) for i in range(ds.n_classes)]
    # A name as the last cell of a row, with the comma before it when the
    # row has features (csv.writer quotes a lone empty cell, not a last one).
    lead = [""] if ds.n_features else []
    tails = []
    for name in names:
        cell = io.StringIO()
        csv.writer(cell).writerow(lead + [name])
        tails.append(cell.getvalue()[:-2])
    with open_atomic(path) as fh:
        fh.write(",".join([f"feat_{i}" for i in range(ds.n_features)] + ["label"])
                 + "\r\n")
        for row, label in zip(ds.features, ds.labels.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + tails[label] + "\r\n")


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
    """Disjoint, exhaustive (train, valid, test) partition."""
    fractions = check_fractions(fractions)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = ds.n_samples
    parts: list[list[int]] = [[], [], []]
    if stratified:
        n_active = sum(1 for f in fractions if f > 0)
        for cls in range(ds.n_classes):
            idx = np.flatnonzero(ds.labels == cls)
            if idx.size < n_active:
                raise ValueError(
                    f"class {cls} has {idx.size} samples, fewer than the "
                    f"{n_active} requested splits")
            rng.shuffle(idx)
            _assign(idx, fractions, parts)
    else:
        idx = rng.permutation(m)
        _assign(idx, fractions, parts)
    out = []
    for p in parts:
        sel = np.array(sorted(p), dtype=np.intp)
        out.append(Dataset(ds.features[sel], ds.labels[sel], ds.names, dict(ds.meta)))
    return tuple(out)


def _assign(idx: np.ndarray, fractions, parts) -> None:
    m = idx.size
    n_train = int(round(fractions[0] * m))
    n_valid = int(round(fractions[1] * m))
    n_train = min(n_train, m)
    n_valid = min(n_valid, m - n_train)
    parts[0].extend(idx[:n_train].tolist())
    parts[1].extend(idx[n_train:n_train + n_valid].tolist())
    parts[2].extend(idx[n_train + n_valid:].tolist())


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
