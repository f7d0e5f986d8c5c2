"""Helpers that only the tests call, kept out of the package.

`record_pool_passes` spies on the models that selection runs over a pool.
`cosine_similarity` is the pairwise definition that
`clustering.similarity_matrix` computes for all pairs at once; `forward` is
the row-wise softmax whose bits `models.confidences` reproduces class-major.
`forward` and its helpers, which `test_models_stacked.py`'s reference also
uses, are a verbatim copy of the per-model code, so that a change to the
package's kernels cannot also change the reference they are checked
against.
"""

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
