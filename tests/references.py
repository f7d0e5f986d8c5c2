"""Helpers that only the tests call, kept out of the package.

`cosine_similarity` is the pairwise definition that
`clustering.similarity_matrix` computes for all pairs at once; `forward` is
the row-wise softmax whose bits `models.confidences` reproduces class-major.
"""

import numpy as np

from cfsl.clustering import _cosine
from cfsl.models import (
    ModelParams,
    _check_features,
    _logits,
    _softmax,
    _unpack,
    param_count,
)


def zero_params(dim_in: int, dim_out: int, hidden: int = 0) -> ModelParams:
    return ModelParams(np.zeros(param_count(dim_in, dim_out, hidden)), dim_in, dim_out, hidden)


def cosine_similarity(g1, g2) -> float:
    """Cosine of the angle between two gradient vectors."""
    a, b = np.asarray(g1, dtype=np.float64), np.asarray(g2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine similarity undefined for zero-norm gradient")
    return _cosine(a, b, na, nb)


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix: row-wise softmax over the model's logits."""
    features = _check_features(params, features)
    if features.shape[0] == 0:
        return np.zeros((0, params.dim_out))
    z, _ = _logits(params.hidden, _unpack(params), features)
    return _softmax(z)
