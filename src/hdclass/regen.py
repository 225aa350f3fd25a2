"""Selection of encoding dimensions that mislead classification.

Misclassified samples contribute per-dimension distance rows: one matrix
for samples whose true class ranked second (partial), one for samples
whose true class missed the top two entirely (incorrect).  The incorrect
row is the partial row minus ``theta`` times the distance to the
second-ranked class, the weighting of the paper's prose.  Rows are
L2-normalized, summed column-wise, and the two top-R% index sets are
intersected; only dimensions that look bad from both viewpoints get
regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DimensionError, ranking, row_norms

@dataclass
class UndesiredSet:
    """Dimensions chosen for regeneration, the per-side candidate cap and
    the two column-wise aggregates the choice was made from."""

    dims: set[int]
    nominal_count: int
    m_aggregate: np.ndarray | None = None
    n_aggregate: np.ndarray | None = None

    def __post_init__(self):
        if len(self.dims) > self.nominal_count:
            raise ValueError("selected more dimensions than the nominal cap")


def _check_rows(*vectors) -> None:
    lengths = [np.shape(v)[-1] for v in vectors]
    if len(set(lengths)) > 1:
        raise DimensionError(f"length mismatch: {lengths}")


def _distance(h: np.ndarray, c, w: float) -> np.ndarray:
    """``w * |h - c|``, built in one new array."""
    out = np.subtract(h, c)
    return np.multiply(np.abs(out, out=out), w, out=out)


def partial_row(h, c_true, c_top1, alpha: float, beta: float) -> np.ndarray:
    """Distance row for a sample whose true class ranked second.

    Large entries mark dimensions where the sample sits far from its true
    class but close to the class that beat it.
    """
    _check_rows(h, c_true, c_top1)
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    h, c_true, c_top1 = np.broadcast_arrays(np.asarray(h, dtype=np.float64), c_true, c_top1)
    row = _distance(h, c_true, alpha)
    return np.subtract(row, _distance(h, c_top1, beta), out=row)


def incorrect_row(h, c_true, c_top1, c_top2, alpha: float, beta: float,
                  theta: float) -> np.ndarray:
    """Distance row for a sample whose true class missed the top two.

    ``alpha * |h - c_true| - beta * |h - c_top1| - theta * |h - c_top2|``:
    the partial row, less a term for the second wrong class.  Large entries
    mark dimensions far from the true class and close to both that beat it.
    """
    _check_rows(h, c_true, c_top1, c_top2)
    if alpha <= 0 or beta <= 0 or theta <= 0:
        raise ValueError("alpha, beta and theta must be positive")
    if theta >= beta:
        raise ValueError(f"theta must be < beta, got theta={theta}, beta={beta}")
    h, c_true, c_top1, c_top2 = np.broadcast_arrays(
        np.asarray(h, dtype=np.float64), c_true, c_top1, c_top2)
    row = partial_row(h, c_true, c_top1, alpha, beta)
    return np.subtract(row, _distance(h, c_top2, theta), out=row)


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row L2 normalization; all-zero rows pass through unchanged."""
    norms = row_norms(rows)[:, None]
    safe = np.where(norms == 0.0, 1.0, norms)
    return rows / safe


def aggregate(rows: list[np.ndarray] | np.ndarray, dim: int) -> np.ndarray:
    """Column-wise sum of L2-normalized rows; zeros when no rows exist."""
    if len(rows) == 0:
        return np.zeros(dim)
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != dim:
        raise DimensionError(f"rows must be m x {dim}, got shape {mat.shape}")
    return normalize_rows(mat).sum(axis=0)


def nominal_count(dim: int, regen_rate: float) -> int:
    """The per-side candidate cap, floor(dim * rate / 100), computed exactly."""
    if not 0 < regen_rate <= 100:
        raise ValueError(f"regeneration rate must be in (0, 100], got {regen_rate}")
    return Fraction(regen_rate) * dim // 100


def select_undesired(partial_rows, incorrect_rows, regen_rate: float,
                     dim: int) -> UndesiredSet:
    """Intersect the per-side top-``nominal_count`` dimension sets.

    Either side being empty (no samples of that category this iteration)
    yields an empty selection, so that iteration regenerates nothing.  The
    aggregates are kept in the result either way; an empty side's is zeros.
    """
    nominal = nominal_count(dim, regen_rate)
    m_agg = aggregate(partial_rows, dim)
    n_agg = aggregate(incorrect_rows, dim)
    if len(partial_rows) == 0 or len(incorrect_rows) == 0 or nominal == 0:
        return UndesiredSet(set(), nominal, m_agg, n_agg)
    m_top = set(ranking(m_agg, nominal).tolist())
    n_top = set(ranking(n_agg, nominal).tolist())
    return UndesiredSet(m_top & n_top, nominal, m_agg, n_agg)

