"""Hypervector primitives: nonlinear encoding, class prototypes, cosine scoring.

The encoder projects an n-dimensional feature vector through a random
Gaussian matrix and applies a cos*sin nonlinearity, producing a
D-dimensional real hypervector with entries in [-1, 1].  Individual
projection rows ("base vectors") can be regenerated in place, which is the
mechanism the training loop uses to replace dimensions that hurt
classification.

All randomness flows through numpy Generators seeded from explicit integer
seeds, so every operation here is bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi


class DimensionError(ValueError):
    """Raised when vector or matrix shapes do not match expectations."""


def _as_float_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    return v


class Encoder:
    """Random nonlinear projection from feature space to hypervector space.

    Holds a D x n base matrix with standard-normal entries and a length-D
    phase vector uniform on [0, 2*pi).  Dimension i of the encoding is
    ``cos(base[i] . f + phase[i]) * sin(base[i] . f)``.

    The encoder owns a private RNG; creating it and every regeneration
    event consume from that stream in a documented order (base rows first,
    then phases), so a given seed plus a given sequence of regeneration
    calls always yields the same encoder.
    """

    def __init__(self, base: np.ndarray, phase: np.ndarray, rng: np.random.Generator,
                 seed: int | None = None, input_scale: float = 1.0):
        base = np.asarray(base, dtype=np.float64)
        phase = np.asarray(phase, dtype=np.float64)
        if base.ndim != 2:
            raise DimensionError(f"base must be 2-D, got shape {base.shape}")
        if phase.shape != (base.shape[0],):
            raise DimensionError(
                f"phase length {phase.shape} does not match base rows {base.shape[0]}")
        if input_scale <= 0:
            raise ValueError(f"input scale must be positive, got {input_scale}")
        self.base = base
        self.phase = phase
        self._rng = rng
        self.seed = seed
        # Bandwidth knob: features are multiplied by this before projection.
        # 1.0 keeps the raw cos/sin encoding; training pipelines set it to
        # 1/sqrt(n) so projections of unit-variance inputs stay within one
        # period of the nonlinearity.
        self.input_scale = float(input_scale)

    @classmethod
    def create(cls, n: int, dim: int, seed: int) -> "Encoder":
        """Draw a fresh encoder: base ~ N(0, 1), phase ~ U[0, 2*pi)."""
        if n < 1:
            raise ValueError(f"feature count must be >= 1, got {n}")
        if dim < 1:
            raise ValueError(f"dimensionality must be >= 1, got {dim}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        base = rng.standard_normal((dim, n))
        phase = rng.uniform(0.0, TWO_PI, size=dim)
        return cls(base, phase, rng, seed=seed)

    @property
    def n_features(self) -> int:
        return self.base.shape[1]

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def encode(self, features) -> np.ndarray:
        """Encode one feature vector into a length-D hypervector."""
        return self.encode_batch(_as_float_vector(features, "features")[None, :])[0]

    def encode_batch(self, batch) -> np.ndarray:
        """Encode m feature vectors into an m x D matrix.

        The projection runs one matrix-vector product per row, so row j
        does not depend on the batch it came in and ``encode`` (a batch of
        one) is bit-identical to it; the nonlinearity is then applied to
        the whole projection in place.
        """
        X = self._check_batch(batch)
        proj = np.empty((X.shape[0], self.dim))
        for j in range(X.shape[0]):
            proj[j] = self.base @ (self.input_scale * X[j])
        return _cos_sin(proj, self.phase)

    def encode_columns(self, batch, dims) -> np.ndarray:
        """Columns ``dims`` of the encoding of m feature vectors (m x len(dims)).

        The projection is one matrix product, so a column equals the same
        column of :meth:`encode_batch` within rounding, not bitwise: the two
        kernels sum the n products in different orders (measured up to
        2.7e-15 at n=6 and 2.7e-14 at n=617).  Training uses it to refresh
        only the columns a regeneration redrew; every other cached column
        stays bitwise the fresh ``encode_batch`` value.
        """
        X = self._check_batch(batch)
        idx = np.asarray(dims, dtype=np.intp)
        proj = (self.input_scale * X) @ self.base[idx].T
        return _cos_sin(proj, self.phase[idx])

    def _check_batch(self, batch) -> np.ndarray:
        X = np.asarray(batch, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionError(f"batch must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise DimensionError(
                f"expected {self.n_features} features, got {X.shape[1]}")
        return X

    def regenerate(self, dims) -> None:
        """Redraw the base rows and phases of the given dimensions.

        Rows outside ``dims`` are untouched.  Draw order: all selected base
        rows (ascending index) in one block, then all selected phases.
        """
        idx = np.asarray(sorted(set(int(d) for d in dims)), dtype=np.intp)
        if idx.size == 0:
            return
        if idx[0] < 0 or idx[-1] >= self.dim:
            raise ValueError(
                f"dimension indices must lie in [0, {self.dim}), got "
                f"[{idx[0]}, {idx[-1]}]")
        self.base[idx] = self._rng.standard_normal((idx.size, self.n_features))
        self.phase[idx] = self._rng.uniform(0.0, TWO_PI, size=idx.size)

    def rng_state(self) -> dict:
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state


def _cos_sin(proj: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """``cos(proj + phase) * sin(proj)``, computed in place in ``proj``."""
    sin = np.sin(proj)
    proj += phase
    np.cos(proj, out=proj)
    proj *= sin
    return proj


class ClassModel:
    """k class hypervectors with cached Euclidean norms.

    Norm caching keeps similarity scoring at one dot product per class;
    callers that mutate ``classes`` must refresh the affected rows via
    :meth:`refresh_norms`.
    """

    def __init__(self, classes: np.ndarray, labels=None):
        classes = np.asarray(classes, dtype=np.float64)
        if classes.ndim != 2:
            raise DimensionError(f"classes must be 2-D, got shape {classes.shape}")
        if classes.shape[0] < 2:
            raise ValueError("a class model needs at least 2 classes")
        self.classes = classes
        if labels is None:
            labels = list(range(classes.shape[0]))
        if len(labels) != classes.shape[0]:
            raise ValueError("label count does not match class count")
        if len(set(labels)) != len(labels):
            raise ValueError("class labels must be distinct")
        self.labels = list(labels)
        self.norms = np.linalg.norm(classes, axis=1)

    @classmethod
    def zeros(cls, k: int, dim: int, labels=None) -> "ClassModel":
        return cls(np.zeros((k, dim)), labels)

    @property
    def n_classes(self) -> int:
        return self.classes.shape[0]

    @property
    def dim(self) -> int:
        return self.classes.shape[1]

    def refresh_norms(self, indices=None) -> None:
        """Recompute every cached norm, or only those of ``indices``.

        A touched row gets ``sqrt(r . r)``: numpy's own formula for the
        norm of a real 1-D row, and ``math.sqrt`` is correctly rounded, so
        it is bitwise ``np.linalg.norm(r)`` without that call's overhead.
        """
        if indices is None:
            self.norms = np.linalg.norm(self.classes, axis=1)
        else:
            for i in indices:
                r = self.classes[i]
                self.norms[i] = math.sqrt(r.dot(r))

    def copy(self) -> "ClassModel":
        m = ClassModel(self.classes.copy(), list(self.labels))
        m.norms = self.norms.copy()
        return m


def similarity_scores(model: ClassModel, h) -> np.ndarray:
    """Cosine similarity of a hypervector against every class prototype."""
    return similarity_matrix(model, _as_float_vector(h, "h")[None, :])[0]


def similarity_matrix(model: ClassModel, encoded: np.ndarray) -> np.ndarray:
    """m x k cosine similarities: the one scoring kernel of the package.

    One matrix product scaled by the row norms and the cached prototype
    norms; zero rows and zero prototypes carry no evidence and score 0.
    A single row goes through the matrix-vector kernel, so 1-row calls are
    bit-identical to ``model.classes @ h / (model.norms * norm(h))``.
    """
    H = np.asarray(encoded, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != model.dim:
        raise DimensionError(
            f"encoded batch must be m x {model.dim}, got shape {H.shape}")
    denom = np.sqrt(np.vecdot(H, H))[:, None] * model.norms
    # Where the denominator is 0 the output keeps it, so those score 0.
    return np.divide(H @ model.classes.T, denom, out=denom, where=denom != 0.0)


def ranking(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best classes per row, ties to the lowest class index.

    ``ranking(S, 1)[..., 0]`` equals ``np.argmax(S, axis=-1)``.
    """
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]
