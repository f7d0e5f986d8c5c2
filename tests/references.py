"""Helpers that only the tests call, kept out of the package.

`cosine_similarity` is the pairwise definition that
`clustering.similarity_matrix` computes for all pairs at once.
"""

import numpy as np

from cfsl.clustering import _as_vector, _cosine
from cfsl.models import ModelParams, param_count


def zero_params(dim_in: int, dim_out: int, hidden: int = 0) -> ModelParams:
    return ModelParams(np.zeros(param_count(dim_in, dim_out, hidden)), dim_in, dim_out, hidden)


def cosine_similarity(g1, g2) -> float:
    """Cosine of the angle between two gradients (arrays or updates)."""
    a, b = _as_vector(g1), _as_vector(g2)
    if a.shape != b.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine similarity undefined for zero-norm gradient")
    return _cosine(a, b, na, nb)
