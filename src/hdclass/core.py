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

import numpy as np

TWO_PI = 2.0 * np.pi
# An encode projects its rows in blocks of at most this many input cells
# (2 MB of float64 scaled rows), so no m x n scaled copy of a batch exists.
ENCODE_CELLS = 1 << 18
# Rows of an encode take their cos·sin in blocks of at most this many cells
# (256 KB of float64, which stays in cache).
COS_SIN_CELLS = 1 << 15


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
        if not 0 < input_scale < np.inf:
            raise ValueError(f"input_scale must be finite and positive, got {input_scale!r}")
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

    def encode_batch(self, batch, dims=None) -> np.ndarray:
        """Encode m feature vectors into an m x D matrix, or into its columns
        ``dims`` (m x len(dims)).

        The projection ``(input_scale * X) @ base[dims].T`` is computed in
        blocks of whole rows, at most ``ENCODE_CELLS`` input cells each, into
        one m x D result, and the nonlinearity is applied to it in place.  A
        batch within one block is bitwise the single matrix product.  A row
        equals the per-row matrix-vector encoding, a ``dims`` column the same
        column of a full encode, and a batch of several blocks the single
        product, within rounding, not bitwise: BLAS sums the n products in an
        order that depends on its kernel, the product's shape and the thread
        count.  Encoding the same batch twice in one process gives the same
        bytes.  A batch of one goes to numpy's matrix-vector kernel.
        Training passes ``dims`` to refresh only the columns a regeneration
        redrew.
        """
        X = np.asarray(batch, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionError(f"batch must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise DimensionError(
                f"expected {self.n_features} features, got {X.shape[1]}")
        idx = slice(None) if dims is None else np.asarray(dims, dtype=np.intp)
        base_t = self.base[idx].T
        out = np.empty((X.shape[0], base_t.shape[1]))
        rows = max(1, ENCODE_CELLS // max(1, X.shape[1]))
        for lo in range(0, X.shape[0], rows):
            np.matmul(self.input_scale * X[lo:lo + rows], base_t, out=out[lo:lo + rows])
        return _cos_sin(out, self.phase[idx])

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
    """``cos(proj + phase) * sin(proj)``, computed in place in ``proj``.

    The sines go, a block of at most ``COS_SIN_CELLS`` cells of whole rows
    at a time, into one scratch buffer, so an encode allocates no second
    m x D array.  Each step is elementwise, so the result is bitwise that
    of the unblocked formula.
    """
    rows = max(1, COS_SIN_CELLS // max(1, proj.shape[1]))
    scratch = np.empty((min(rows, proj.shape[0]), proj.shape[1]))
    for lo in range(0, proj.shape[0], rows):
        block = proj[lo:lo + rows]
        sin = np.sin(block, out=scratch[:len(block)])
        block += phase
        np.cos(block, out=block)
        block *= sin
    return proj


class ClassModel:
    """k class hypervectors (``classes``, k x D) and their labels.

    The model holds no derived state: scoring takes the prototype norms
    from :func:`row_norms` on every call, so a caller may change
    ``classes`` in place without refreshing anything.
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

    @property
    def n_classes(self) -> int:
        return self.classes.shape[0]

    @property
    def dim(self) -> int:
        return self.classes.shape[1]

    def copy(self) -> "ClassModel":
        return ClassModel(self.classes.copy(), list(self.labels))


def similarity_scores(model: ClassModel, h) -> np.ndarray:
    """Cosine similarity of a hypervector against every class prototype."""
    return similarity_matrix(model, _as_float_vector(h, "h")[None, :])[0]


def row_norms(encoded: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, ``sqrt(r . r)``: the package's one norm
    formula, bitwise ``math.sqrt(r.dot(r))`` of a row on its own."""
    H = np.asarray(encoded, dtype=np.float64)
    return np.sqrt(np.vecdot(H, H))


def similarity_matrix(model: ClassModel, encoded: np.ndarray,
                      norms: np.ndarray | None = None) -> np.ndarray:
    """m x k cosine similarities: the one scoring kernel of the package.

    One matrix product put through :func:`cosine_divide` with the row norms
    and the prototype norms, both from :func:`row_norms`, so zero rows and
    zero prototypes score 0.  A single row goes through the matrix-vector
    kernel, so 1-row calls are bit-identical to
    ``model.classes @ h / (row_norms(model.classes) * norm(h))``.
    ``norms`` is ``row_norms(encoded)`` for a caller that scores the same
    rows against many models.
    """
    H = check_encoded(model, encoded)
    if norms is None:
        norms = row_norms(H)
    elif np.shape(norms) != H.shape[:1]:
        raise DimensionError(
            f"row norms must have length {H.shape[0]}, got shape {np.shape(norms)}")
    return cosine_divide(H @ model.classes.T, norms[:, None], row_norms(model.classes))


def check_encoded(model: ClassModel, encoded) -> np.ndarray:
    """``encoded`` as a float64 m x D batch for ``model``; a DimensionError
    for any other shape."""
    H = np.asarray(encoded, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != model.dim:
        raise DimensionError(
            f"encoded batch must be m x {model.dim}, got shape {H.shape}")
    return H


def cosine_divide(dots: np.ndarray, norms: np.ndarray, class_norms: np.ndarray) -> np.ndarray:
    """The cosine rule: ``dots`` (m x k) divided by each row norm (``norms``,
    m x 1) times each prototype norm (length k).  A zero denominator carries
    no evidence and scores 0."""
    denom = norms * class_norms
    # Where the denominator is 0 the output keeps it, so those score 0.
    return np.divide(dots, denom, out=denom, where=denom != 0.0)


def ranking(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best classes per row, ties to the lowest class index.

    ``ranking(S, 1)[..., 0]`` equals ``np.argmax(S, axis=-1)``.
    """
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k]
