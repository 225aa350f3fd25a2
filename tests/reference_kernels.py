"""Reference oracles for two kernels only tests call.

``encode_one`` encodes one feature vector as a batch of one, which numpy
sends to its matrix-vector kernel, so it is bitwise the per-row formula
``cos(base @ (s * f) + phase) * sin(base @ (s * f))``.  ``hamming_distance``
counts the bits two quantized memories of one layout differ in.
"""

from __future__ import annotations

import numpy as np

from hdclass.core import Encoder
from hdclass.robustness import QuantizedModel


def encode_one(encoder: Encoder, features) -> np.ndarray:
    """The length-D hypervector of one feature vector."""
    return encoder.encode_batch(np.asarray(features, dtype=np.float64)[None, :])[0]


def hamming_distance(a: QuantizedModel, b: QuantizedModel) -> int:
    if a.bits != b.bits or a.packed.shape != b.packed.shape:
        raise ValueError(f"memories differ in layout: {a.bits}-bit {a.packed.shape} "
                         f"vs {b.bits}-bit {b.packed.shape}")
    return int(np.unpackbits(a.packed ^ b.packed).sum())
