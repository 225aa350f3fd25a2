"""Versioned JSON container for encoder + class model.

Format 2 stores ``base``, ``phase`` and ``classes`` as base64 strings of
their little-endian float64 bytes, so the round trip is bitwise; the
``n_features``, ``dim`` and ``n_classes`` keys give their shapes.
``labels`` holds the class names in model index order, and ``provenance``
the versions that wrote the file.  The encoder's RNG state rides along so
regeneration continues identically after a save/load cycle.  Format 1,
which held the arrays as nested decimal lists and no names, is still
read.  The atomic writers behind the CLI's result files and ``save_csv``
live here too.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import csv
import json
import math
import os
import tempfile

import numpy as np

from . import __version__
from .core import ClassModel, Encoder

FORMAT_VERSION = 2
_FLOAT64_LE = np.dtype("<f8")


def model_to_dict(encoder: Encoder, model: ClassModel) -> dict:
    if model.dim != encoder.dim:
        raise ValueError(
            f"model dimensionality {model.dim} != encoder dimensionality {encoder.dim}")
    return {
        "format_version": FORMAT_VERSION,
        "n_features": encoder.n_features,
        "dim": encoder.dim,
        "n_classes": model.n_classes,
        "labels": list(model.labels),
        "base": _encode_array(encoder.base),
        "phase": _encode_array(encoder.phase),
        "classes": _encode_array(model.classes),
        "seed": encoder.seed,
        "input_scale": encoder.input_scale,
        "rng_state": encoder.rng_state(),
        "provenance": {"hdclass": __version__, "numpy": np.__version__},
    }


def model_from_dict(doc: dict) -> tuple[Encoder, ClassModel]:
    """Rebuild ``(encoder, model)`` from a format 1 or 2 document.

    A malformed document raises ``ValueError``, ``KeyError`` or
    ``TypeError``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a model container is a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported container version: {version!r}")
    n, dim, k = (_declared_size(doc, key) for key in ("n_features", "dim", "n_classes"))
    shapes = {"base": (dim, n), "phase": (dim,), "classes": (k, dim)}
    if version == 1:
        arrays = {key: np.asarray(doc[key], dtype=np.float64) for key in shapes}
    else:
        arrays = {key: _decode_array(doc[key], key, shape)
                  for key, shape in shapes.items()}
    for key, shape in shapes.items():
        if arrays[key].shape != shape:
            raise ValueError(f"{key} has shape {arrays[key].shape}, declared {shape}")
        if not np.isfinite(arrays[key]).all():
            raise ValueError(f"non-finite values in {key}")
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(type(l) in (str, int) for l in labels):
        raise ValueError("labels must be a list of class names or ids")
    input_scale = doc["input_scale"]
    if not math.isfinite(input_scale):
        raise ValueError(f"input_scale must be finite, got {input_scale!r}")
    encoder = Encoder(arrays["base"], arrays["phase"], np.random.default_rng(),
                      seed=doc.get("seed"), input_scale=input_scale)
    encoder.set_rng_state(doc["rng_state"])
    return encoder, ClassModel(arrays["classes"], labels)


def _declared_size(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return value


def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype=_FLOAT64_LE)).decode("ascii")


def _decode_array(text, key: str, shape: tuple) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"{key} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{key} is not valid base64: {exc}") from None
    size = _FLOAT64_LE.itemsize * math.prod(shape)
    if len(raw) != size:
        raise ValueError(f"{key} holds {len(raw)} bytes, its declared shape {shape} "
                         f"needs {size}")
    # astype copies, so the arrays are writable and in native byte order.
    return np.frombuffer(raw, dtype=_FLOAT64_LE).astype(np.float64).reshape(shape)


def save_model(path: str, encoder: Encoder, model: ClassModel) -> None:
    write_json_atomic(path, model_to_dict(encoder, model))


def load_model(path: str) -> tuple[Encoder, ClassModel]:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


@contextlib.contextmanager
def open_atomic(path: str):
    """A text handle on a temp file in the target directory, renamed onto
    ``path`` when the block completes.  If the block fails, the temp file
    is removed and ``path`` keeps what it held."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    with open_atomic(path) as fh:
        fh.write(text)


def write_json_atomic(path: str, doc) -> None:
    write_text_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def write_csv_atomic(path: str, header, rows) -> None:
    with open_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
