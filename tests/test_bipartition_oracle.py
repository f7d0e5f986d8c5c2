"""Both bipartition paths against reference implementations.

`references.exhaustive_bipartition` (a search over every bipartition) and
`_complete_linkage_bipartition` below are the original pure-Python
versions, kept verbatim as oracles. `references.kruskal_bipartition`
reaches the exact split by Kruskal's algorithm and a union-find, which
serves every size. The exact O(n^2) path and the vectorized linkage must
return the same partitions, not only the same objective: a different
partition at an exact tie would change a run's artifacts. The exact path
reads symmetric matrices only, as `bipartition` accepts them; the linkage
still orients c1 rows against c2 columns and keeps its asymmetric cases.
"""

import itertools

import numpy as np
import pytest

from cfsl import clustering
from cfsl.clustering import EXACT_LIMIT, SimilarityMatrix, bipartition, similarity_matrix
from references import exhaustive_bipartition, kruskal_bipartition, max_cross


# ------------------------------------------------- reference implementations


def _complete_linkage_bipartition(values: np.ndarray, n: int):
    """Agglomerative merge on distance 1 - similarity until two clusters
    remain. Ties merge the lexicographically smallest cluster pair, so the
    result is deterministic."""
    dist = 1.0 - values
    clusters = [(i,) for i in range(n)]
    while len(clusters) > 2:
        best = None
        for a, b in itertools.combinations(range(len(clusters)), 2):
            d = float(dist[np.ix_(clusters[a], clusters[b])].max())
            key = (d, clusters[a], clusters[b])
            if best is None or key < best[0]:
                best = (key, a, b)
        _, a, b = best
        merged = tuple(sorted(clusters[a] + clusters[b]))
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.append(merged)
        clusters.sort()
    c1, c2 = sorted(clusters)
    return c1, c2


# ------------------------------------------------------------------ inputs

SYMMETRIC = ("random", "rounded", "constant")
KINDS = SYMMETRIC + ("asymmetric",)


def make_values(kind: str, n: int) -> np.ndarray:
    """A seeded similarity matrix with unit diagonal. `rounded` keeps one
    decimal so many cross-pairs tie exactly; `constant` makes every
    bipartition tie; `asymmetric` checks the c1-rows orientation."""
    rng = np.random.default_rng([n, KINDS.index(kind)])
    raw = rng.uniform(-1.0, 1.0, size=(n, n))
    if kind == "constant":
        values = np.full((n, n), 0.3)
    elif kind == "asymmetric":
        values = np.round(raw, 1)
    else:
        values = (raw + raw.T) / 2.0
        if kind == "rounded":
            values = np.round(values, 1)
    np.fill_diagonal(values, 1.0)
    return values


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("kind", SYMMETRIC)
@pytest.mark.parametrize("n", range(2, EXACT_LIMIT + 1))
def test_exhaustive_path_matches_reference(n, kind):
    values = make_values(kind, n)
    expected = exhaustive_bipartition(values, n)
    assert clustering._exact_bipartition(values, n) == expected


def test_exact_path_matches_reference_on_tie_heavy_integers():
    """Small integer similarities tie at the minimum cross similarity, at
    the size imbalance and between the components of {v > t}."""
    rng = np.random.default_rng(20)
    for _ in range(600):
        n = int(rng.integers(2, 13))
        top = int(rng.integers(1, 4))
        values = np.triu(rng.integers(-top, top + 1, size=(n, n)).astype(float))
        values += np.triu(values, 1).T
        np.fill_diagonal(values, top)
        assert clustering._exact_bipartition(values, n) == exhaustive_bipartition(values, n)


def planted_values(n: int) -> np.ndarray:
    """Cosine similarities of n gradients drawn around 2 to 6 seeded
    centers, as `similarity_matrix` computes them."""
    rng = np.random.default_rng(n)
    centers = rng.normal(size=(int(rng.integers(2, 7)), 8))
    grads = centers[rng.integers(0, len(centers), n)] + 0.6 * rng.normal(size=(n, 8))
    return similarity_matrix(dict(enumerate(grads))).values


# n = 60..70 straddles 64 members, the width of a machine word.
@pytest.mark.parametrize("n", [16, 17, 23, 32, 41, 50, *range(60, 71), 96, 128, 160, 200])
def test_exact_path_matches_kruskal_reference(n):
    """Exact cosines have one weakest tree edge. Rounded to one decimal,
    up to 6 components of {v > t} tie at it, and up to 19 for the random
    `rounded` kind."""
    for values in (planted_values(n), np.round(planted_values(n), 1), make_values("rounded", n)):
        t, c1, c2 = kruskal_bipartition(values, n)
        assert clustering._exact_bipartition(values, n) == (c1, c2)
        assert max_cross(values, c1, c2) == t


def test_bipartition_rejects_asymmetric_similarity():
    values = make_values("asymmetric", 5)
    with pytest.raises(ValueError, match="symmetric"):
        bipartition(SimilarityMatrix(tuple(range(5)), values))
    values = make_values("rounded", EXACT_LIMIT + 1)
    values[0, 1] += 0.05
    with pytest.raises(ValueError, match="symmetric"):
        bipartition(SimilarityMatrix(tuple(range(EXACT_LIMIT + 1)), values))


# n runs 16..96 in uneven steps; the O(n^3) reference makes every size slow.
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [16, 17, 23, 32, 41, 64, 96])
def test_linkage_path_matches_reference(n, kind):
    values = make_values(kind, n)
    expected = _complete_linkage_bipartition(values, n)
    assert clustering._complete_linkage_bipartition(values, n) == expected


def test_linkage_path_matches_reference_at_128():
    values = make_values("rounded", 128)
    assert clustering._complete_linkage_bipartition(values, 128) == (
        _complete_linkage_bipartition(values, 128)
    )


def test_bipartition_dispatches_on_size_and_maps_ids():
    for n in (EXACT_LIMIT, EXACT_LIMIT + 1):
        values = make_values("rounded", n)
        ids = tuple(range(100, 100 + 3 * n, 3))
        ref = exhaustive_bipartition if n <= EXACT_LIMIT else _complete_linkage_bipartition
        i1, i2 = ref(values, n)
        assert bipartition(SimilarityMatrix(ids, values)) == (
            tuple(ids[i] for i in i1), tuple(ids[i] for i in i2)
        )
