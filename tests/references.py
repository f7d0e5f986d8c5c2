"""Helpers that only the tests call, kept out of the package, and the one
home of every oracle that more than one test file checks against.

`record_pool_passes` spies on the models that selection runs over a pool.
`cosine_similarity` is the pairwise definition that
`clustering.similarity_matrix` computes for all pairs at once.

The row-wise model reference: `forward` is the row-wise softmax whose bits
`models.confidences` reproduces class-major, `ref_confidences` and
`ref_evaluate` read the prediction and accuracy off it, and
`test_models_stacked.py` builds its training reference on the same
helpers. They are a verbatim copy of the per-model code and call none of
the package's kernels, so that a change to those kernels cannot also
change the reference they are checked against.

`exhaustive_bipartition` is the original pure-Python search over every
bipartition, which `clustering.bipartition` must match.
"""

import itertools

import numpy as np

from cfsl import labeling
from cfsl.clustering import _cosine
from cfsl.models import ModelParams, param_count


def zero_params(dim_in: int, dim_out: int, hidden: int = 0) -> ModelParams:
    return ModelParams(np.zeros(param_count(dim_in, dim_out, hidden)), dim_in, dim_out, hidden)


def record_pool_passes(monkeypatch) -> list:
    """Wrap `cfsl.labeling.confidences`, the pass that selection runs over a
    device's pool, so that each call appends the `id` of each model it runs,
    in order, to the returned list."""
    passes = []
    real = labeling.confidences

    def spy(models, features):
        passes.append([id(m) for m in models])
        return real(models, features)

    monkeypatch.setattr(labeling, "confidences", spy)
    return passes


def cosine_similarity(g1, g2) -> float:
    """Cosine of the angle between two gradient vectors."""
    a, b = np.asarray(g1, dtype=np.float64), np.asarray(g2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine similarity undefined for zero-norm gradient")
    return _cosine(a, b, na, nb)


def _unpack(p: ModelParams):
    """Views into the flat vector: (W, b) or (W1, b1, W2, b2)."""
    d, c, h = p.dim_in, p.dim_out, p.hidden
    w = p.weights
    if h == 0:
        return w[: d * c].reshape(d, c), w[d * c :]
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * c
    return (
        w[:o1].reshape(d, h),
        w[o1:o2],
        w[o2:o3].reshape(h, c),
        w[o3:],
    )


def _logits(p: ModelParams, x: np.ndarray):
    """Raw class scores; for the tanh network also returns the hidden activations."""
    if p.hidden == 0:
        w, b = _unpack(p)
        return x @ w + b, None
    w1, b1, w2, b2 = _unpack(p)
    hidden = np.tanh(x @ w1 + b1)
    return hidden @ w2 + b2, hidden


def _check_features(p: ModelParams, features: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != p.dim_in:
        raise ValueError(
            f"feature matrix must be 2-D with {p.dim_in} columns, got shape {features.shape}"
        )
    return features


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix: row-wise softmax over the model's logits."""
    features = _check_features(params, features)
    if features.shape[0] == 0:
        return np.zeros((0, params.dim_out))
    z, _ = _logits(params, features)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_confidences(params: ModelParams, features: np.ndarray):
    """Per-sample (argmax class, max probability), ties to the lowest class id."""
    probs = forward(params, features)
    if probs.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    classes = probs.argmax(axis=1)
    return classes, probs.max(axis=1)


def ref_evaluate(params: ModelParams, batch) -> float:
    """Fraction of argmax predictions matching labels (ties -> lowest class id)."""
    if len(batch) == 0:
        raise ValueError("evaluate requires a nonempty batch")
    probs = forward(params, batch.features)
    preds = probs.argmax(axis=1)
    return float((preds == batch.labels).mean())


def max_cross(values: np.ndarray, c1, c2) -> float:
    """The largest similarity from a member of c1 (rows) to one of c2."""
    return float(values[np.ix_(c1, c2)].max())


def exhaustive_bipartition(values: np.ndarray, n: int):
    """(c1, c2) of indices: the bipartition with the smallest key (largest
    cross similarity from c1 to c2, size imbalance, c1 as a sorted tuple),
    found by trying every one."""
    best = None
    rest = range(1, n)
    # Index 0 stays in c1, so each unordered bipartition appears once.
    for r in range(0, n - 1):
        for extra in itertools.combinations(rest, r):
            c1 = (0,) + extra
            c2 = tuple(i for i in rest if i not in extra)
            key = (max_cross(values, c1, c2), abs(len(c1) - len(c2)), c1)
            if best is None or key < best[0]:
                best = (key, c1, c2)
    return best[1], best[2]
