"""Shared fixtures: deterministic synthetic benchmarks and trained models.

The acceptance benchmark is Gaussian blobs whose nearest cluster pair has
a 30% overlap coefficient (2 * Phi(-sep/2) = 0.30 for unit within-class
variance gives sep ~= 2.0731).  Datasets are pre-shuffled with a fixed
permutation before splitting because the adaptive update is sequential
and the generator emits samples grouped by class.
"""

import base64

import numpy as np
import pytest

from hdclass.core import similarity_matrix
from hdclass.data import Dataset, apply_normalizer, fit_normalizer, split, synth_blobs
from hdclass.learner import TrainConfig, train

# Separation whose nearest-pair Gaussian overlap coefficient is 30%.
OVERLAP30_SEPARATION = 2.0731


def shuffle_dataset(ds: Dataset, seed: int) -> Dataset:
    rng = np.random.default_rng(seed + 1000)
    perm = rng.permutation(ds.n_samples)
    return Dataset(ds.features[perm], ds.labels[perm], ds.names, ds.meta)


def make_benchmark(seed: int, n_features=6, k_classes=4, per_class=1000,
                   separation=OVERLAP30_SEPARATION,
                   fractions=(0.5, 0.125, 0.375)):
    """Normalized (train, valid, test) splits of the overlap benchmark."""
    ds = shuffle_dataset(
        synth_blobs(n_features, k_classes, per_class, separation, seed), seed)
    tr, va, te = split(ds, fractions, stratified=True, seed=seed)
    spec = fit_normalizer(tr)
    return tuple(apply_normalizer(spec, d) for d in (tr, va, te))


def eval_accuracy(encoder, model, test_ds) -> float:
    encoded = encoder.encode_batch(test_ds.features)
    preds = np.argmax(similarity_matrix(model, encoded), axis=1)
    return float(np.mean(preds == test_ds.labels))


def encode_array(values) -> str:
    """Base64 of little-endian float64 bytes, as model containers store arrays."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_array(doc: dict, key: str, shape) -> np.ndarray:
    return np.frombuffer(base64.b64decode(doc[key]), dtype="<f8").reshape(shape)


def format_1_document(doc: dict) -> dict:
    """A format 2 container rewritten in format 1: nested decimal lists and
    class ids in place of names, as format 1 stored them."""
    k, dim, n = doc["n_classes"], doc["dim"], doc["n_features"]
    v1 = {key: value for key, value in doc.items() if key != "provenance"}
    v1.update(format_version=1, labels=list(range(k)),
              base=decode_array(doc, "base", (dim, n)).tolist(),
              phase=decode_array(doc, "phase", (dim,)).tolist(),
              classes=decode_array(doc, "classes", (k, dim)).tolist())
    return v1


@pytest.fixture(scope="session")
def benchmark_models():
    """Dynamic/static models for criteria 5-7 on the 30%-overlap benchmark.

    Per seed 0..4: dynamic D=128 (100 iterations, R=40), static D=128
    (60 iterations) and static D=1024 (30 iterations), all snapshot-selected
    on the validation split; early stopping disabled so every run explores
    its full budget.
    """
    runs = []
    for seed in range(5):
        tr, va, te = make_benchmark(seed)
        common = dict(regen_rate=40.0, seed=seed, min_delta=0.0)
        dyn = train(TrainConfig(dim=128, mode="dynamic", max_iters=100,
                                patience=100, **common), tr, va)
        st128 = train(TrainConfig(dim=128, mode="static", max_iters=60,
                                  patience=60, **common), tr, va)
        st1024 = train(TrainConfig(dim=1024, mode="static", max_iters=30,
                                   patience=30, **common), tr, va)
        runs.append({
            "seed": seed, "test": te,
            "dynamic": dyn, "static128": st128, "static1024": st1024,
        })
    return runs
