"""Both bipartition paths against reference copies of the implementations
they replaced.

`references.exhaustive_bipartition` (a search over every bipartition) and
`_complete_linkage_bipartition` below are the original pure-Python
versions, kept verbatim as oracles. The exact O(n^2) path and the
vectorized linkage must return the same partitions, not only the same
objective: a different partition at an exact tie would change a run's
artifacts.
"""

import itertools

import numpy as np
import pytest

from cfsl import clustering
from cfsl.clustering import EXACT_LIMIT, SimilarityMatrix, bipartition
from references import exhaustive_bipartition


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

KINDS = ("random", "rounded", "constant", "asymmetric")


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, EXACT_LIMIT + 1))
def test_exhaustive_path_matches_reference(n, kind):
    values = make_values(kind, n)
    expected = exhaustive_bipartition(values, n)
    assert clustering._exact_bipartition(values, n) == expected


def test_exact_path_matches_reference_on_tie_heavy_integers():
    """Small integer similarities tie at the minimum cross similarity, at
    the size imbalance and between strongly connected groups; half the
    matrices are symmetric, half not (c1 rows against c2 columns)."""
    rng = np.random.default_rng(20)
    for trial in range(600):
        n = int(rng.integers(2, 13))
        top = int(rng.integers(1, 4))
        values = rng.integers(-top, top + 1, size=(n, n)).astype(float)
        if trial % 2:
            values = np.triu(values) + np.triu(values, 1).T
        np.fill_diagonal(values, top)
        assert clustering._exact_bipartition(values, n) == exhaustive_bipartition(values, n)


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
