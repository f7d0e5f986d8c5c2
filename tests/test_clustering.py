"""Cluster-engine checks: similarity math, split conditions, bipartition
against a brute-force oracle, and tree state transitions."""

import math

import numpy as np
import pytest

from cfsl.clustering import (
    ACTIVE,
    STOPPED,
    ClusterTree,
    SimilarityMatrix,
    bipartition,
    check_split_conditions,
    similarity_matrix,
)
from cfsl.errors import StateError
from references import cosine_similarity, exhaustive_bipartition, max_cross, zero_params


def grad(vec):
    return np.asarray(vec, dtype=float)


# ---------------------------------------------------------------- cosine


def test_cosine_identical_antipodal_orthogonal():
    g = grad([1.0, 2.0, -3.0])
    assert math.isclose(cosine_similarity(g, g), 1.0, rel_tol=1e-12)
    neg = grad([-1.0, -2.0, 3.0])
    assert math.isclose(cosine_similarity(g, neg), -1.0, rel_tol=1e-12)
    assert abs(cosine_similarity(grad([1.0, 0.0]), grad([0.0, 1.0]))) < 1e-15


def test_cosine_scale_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=6), rng.normal(size=6)
        s = cosine_similarity(a, b)
        assert math.isclose(cosine_similarity(3.7 * a, 0.01 * b), s, rel_tol=1e-12)


def test_cosine_rejects_zero_and_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity(grad([0.0, 0.0]), grad([1.0, 0.0]))
    with pytest.raises(ValueError):
        cosine_similarity(grad([1.0, 0.0]), grad([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------- matrix


def test_similarity_matrix_identical_gradients():
    g = {0: grad([1.0, 1.0]), 1: grad([2.0, 2.0])}
    sim = similarity_matrix(g)
    assert sim.ids == (0, 1)
    assert np.allclose(sim.values, 1.0)


def test_similarity_matrix_symmetric_unit_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = {d: grad(rng.normal(size=8)) for d in rng.permutation(12)[:6]}
        sim = similarity_matrix(g)
        assert sim.ids == tuple(sorted(g))
        assert np.array_equal(sim.values, sim.values.T)
        assert np.array_equal(np.diag(sim.values), np.ones(len(g)))
        assert np.all(sim.values <= 1 + 1e-12)
        assert np.all(sim.values >= -1 - 1e-12)


def test_similarity_matrix_entries_equal_pairwise_cosine():
    rng = np.random.default_rng(4)
    for n, dim in ((2, 3), (7, 40), (16, 200)):
        g = {int(d): grad(rng.normal(size=dim) * rng.uniform(0.01, 100))
             for d in rng.permutation(50)[:n]}
        sim = similarity_matrix(g)
        for i, a in enumerate(sim.ids):
            for j, b in enumerate(sim.ids):
                if i != j:
                    assert sim.values[i, j] == cosine_similarity(g[a], g[b])
    with pytest.raises(ValueError, match="device 5"):
        similarity_matrix({2: grad([1.0, 0.0]), 5: grad([0.0, 0.0]), 9: grad([0.0, 0.0])})
    with pytest.raises(ValueError, match="shapes differ"):
        similarity_matrix({0: grad([1.0, 0.0]), 1: grad([1.0, 0.0, 0.0])})


def test_similarity_matrix_names_zero_norm_device():
    g = {3: grad([1.0, 0.0]), 7: grad([0.0, 0.0])}
    with pytest.raises(ValueError, match="device 7"):
        similarity_matrix(g)
    with pytest.raises(ValueError):
        similarity_matrix({0: grad([1.0, 0.0])})


# ---------------------------------------------------------------- split test


def test_split_conditions_all_zero_gradients():
    g = {0: grad([0.0, 0.0]), 1: grad([0.0, 0.0])}
    res = check_split_conditions(g, {0: 1, 1: 1}, eps1=0.1, eps2=0.1)
    assert res.agg_norm == 0.0
    assert res.max_norm == 0.0
    assert not res.split


def test_split_conditions_exact_cancellation():
    g = {0: grad([2.0, 0.0]), 1: grad([-2.0, 0.0])}
    res = check_split_conditions(g, {0: 5, 1: 5}, eps1=0.1, eps2=1.0)
    assert res.agg_norm < 1e-15
    assert res.max_norm == 2.0
    assert res.split


def test_split_conditions_hand_weighted_case():
    # weights 2,1,1 normalize to 1/2,1/4,1/4; weighted mean of
    # [1,0],[0,1],[-1,0] is [1/4,1/4] with norm sqrt(2)/4.
    g = {0: grad([1.0, 0.0]), 1: grad([0.0, 1.0]), 2: grad([-1.0, 0.0])}
    res = check_split_conditions(g, {0: 2, 1: 1, 2: 1}, eps1=0.5, eps2=0.9)
    assert math.isclose(res.agg_norm, math.sqrt(2) / 4, rel_tol=1e-12)
    assert res.max_norm == 1.0
    assert res.split


def test_split_conditions_monotone_in_thresholds():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = rng.integers(2, 6)
        g = {d: grad(rng.normal(size=4)) for d in range(n)}
        w = {d: float(rng.uniform(0.5, 5)) for d in range(n)}
        e1, e2 = rng.uniform(0.05, 2), rng.uniform(0.05, 2)
        base = check_split_conditions(g, w, e1, e2)
        wider = check_split_conditions(g, w, e1 * 2, e2 / 2)
        if base.split:
            assert wider.split
        assert base.agg_norm == wider.agg_norm
        assert base.max_norm == wider.max_norm


def test_split_conditions_validate_inputs():
    g = {0: grad([1.0]), 1: grad([1.0])}
    with pytest.raises(ValueError):
        check_split_conditions(g, {0: 1, 1: 1}, eps1=0, eps2=1)
    with pytest.raises(ValueError):
        check_split_conditions(g, {0: 1, 1: -1}, eps1=1, eps2=1)
    with pytest.raises(ValueError):
        check_split_conditions({}, {}, eps1=1, eps2=1)


# ---------------------------------------------------------------- bipartition


def block_matrix(ids, block_a):
    n = len(ids)
    values = np.ones((n, n))
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if (a in block_a) != (b in block_a):
                values[i, j] = -1.0
    return SimilarityMatrix(tuple(ids), values)


def test_bipartition_perfect_blocks():
    sim = block_matrix([1, 2, 3, 4], {1, 2})
    assert bipartition(sim) == ((1, 2), (3, 4))
    sim2 = block_matrix([5, 6, 7, 8, 9], {6, 8})
    assert bipartition(sim2) == ((5, 7, 9), (6, 8))


def test_bipartition_matches_brute_force_objective():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(-1, 1, size=(n, n))
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 1.0)
        sim = SimilarityMatrix(tuple(range(n)), values)
        c1, c2 = bipartition(sim)
        achieved = max(values[i][j] for i in c1 for j in c2)
        best = max_cross(values, *exhaustive_bipartition(values, n))
        assert math.isclose(achieved, best, rel_tol=1e-12)


def test_bipartition_deterministic_and_lowest_id_first():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        raw = rng.uniform(-1, 1, size=(n, n))
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 1.0)
        ids = tuple(sorted(rng.choice(100, size=n, replace=False)))
        sim = SimilarityMatrix(ids, values)
        first = bipartition(sim)
        assert bipartition(sim) == first
        assert min(first[0]) == min(ids)
        assert set(first[0]) | set(first[1]) == set(ids)
        assert not set(first[0]) & set(first[1])


def test_bipartition_balance_tiebreak():
    # All-equal similarities: every bipartition has the same objective, so
    # the most balanced split containing device 0 first wins.
    n = 6
    values = np.full((n, n), 0.5)
    np.fill_diagonal(values, 1.0)
    c1, c2 = bipartition(SimilarityMatrix(tuple(range(n)), values))
    assert len(c1) == len(c2) == 3
    assert c1[0] == 0


def test_bipartition_scale_invariance_through_similarity():
    rng = np.random.default_rng(5)
    g = {d: rng.normal(size=10) for d in range(7)}
    scaled = {d: float(rng.uniform(0.1, 9)) * v for d, v in g.items()}
    assert bipartition(similarity_matrix(g)) == bipartition(similarity_matrix(scaled))


def test_bipartition_large_n_uses_linkage_and_recovers_blocks():
    ids = list(range(20))
    block_a = set(range(0, 20, 2))
    sim = block_matrix(ids, block_a)
    c1, c2 = bipartition(sim)
    assert set(c1) == block_a
    assert set(c2) == set(ids) - block_a


def test_bipartition_rejects_single_device():
    sim = SimilarityMatrix((3,), np.ones((1, 1)))
    with pytest.raises(ValueError):
        bipartition(sim)


def test_bipartition_rejects_non_finite_similarity():
    values = np.eye(3)
    values[0, 2] = np.nan
    with pytest.raises(ValueError):
        bipartition(SimilarityMatrix((0, 1, 2), values))


# ---------------------------------------------------------------- tree


def make_tree():
    tree = ClusterTree()
    model = zero_params(3, 2)
    root = tree.add_root(edge_id=0, members=[0, 1, 2, 3], model=model)
    return tree, root


def test_tree_split_conserves_members_and_copies_model():
    tree, root = make_tree()
    left, right = tree.split(root, ((0, 1), (2, 3)))
    assert tree.node(left).members | tree.node(right).members == frozenset([0, 1, 2, 3])
    assert not tree.node(left).members & tree.node(right).members
    assert tree.node(left).parent == root
    assert not tree.node(root).is_leaf
    # Children own their weights: mutating one must not leak to the other.
    tree.node(left).model.weights[0] = 99.0
    assert tree.node(right).model.weights[0] == 0.0
    assert tree.node(root).model.weights[0] == 0.0


def test_tree_leaves_and_specialized_sets():
    tree, root = make_tree()
    assert [n.cluster_id for n in tree.leaves()] == [root]
    assert tree.specialized() == []
    left, right = tree.split(root, ((0, 1), (2, 3)))
    assert [n.cluster_id for n in tree.leaves()] == [left, right]
    assert [n.cluster_id for n in tree.specialized()] == [left, right]


def test_tree_stop_freezes_node():
    tree, root = make_tree()
    left, right = tree.split(root, ((0, 1), (2, 3)))
    tree.stop(left)
    assert tree.node(left).status == "stopped"
    with pytest.raises(StateError):
        tree.split(left, ((0,), (1,)))
    assert [n.cluster_id for n in tree.active_leaves()] == [right]
    # Stopped leaves remain current specialized models.
    assert left in [n.cluster_id for n in tree.specialized()]


def test_tree_rejects_bad_splits():
    tree, root = make_tree()
    with pytest.raises(ValueError):
        tree.split(root, ((0, 1), (2,)))
    with pytest.raises(ValueError):
        tree.split(root, ((0, 1, 2, 3), ()))
    with pytest.raises(ValueError):
        tree.split(root, ((0, 1, 2), (2, 3)))
    tree.split(root, ((0, 1), (2, 3)))
    with pytest.raises(StateError):
        tree.split(root, ((0, 1), (2, 3)))


def test_tree_merge_across_edges():
    tree = ClusterTree()
    model = zero_params(3, 2)
    r0 = tree.add_root(0, [0, 1], model)
    r1 = tree.add_root(1, [2, 3], model)
    a, _ = tree.split(r0, ((0,), (1,)))
    b, _ = tree.split(r1, ((2,), (3,)))
    merged = tree.merge([a, b], model)
    node = tree.node(merged)
    assert node.members == frozenset([0, 2])
    assert node.edge_id is None
    assert tree.node(a).merged_into == merged
    current = [n.cluster_id for n in tree.leaves()]
    assert a not in current and b not in current and merged in current
    assert merged in [n.cluster_id for n in tree.specialized()]
    assert tree.cluster_of(0).cluster_id == merged
    with pytest.raises(StateError):
        tree.merge([a, merged], model)


def test_tree_records_birth_rounds_and_stopped_merges():
    tree = ClusterTree()
    model = zero_params(3, 2)
    root = tree.add_root(0, [0, 1, 2, 3], model)
    a, b = tree.split(root, ((0, 1), (2, 3)), born=5)
    a1, a2 = tree.split(a, ((0,), (1,)), born=10)
    assert [tree.node(c).born for c in (root, a, b, a1, a2)] == [0, 5, 5, 10, 10]
    # A merge of stopped leaves is stopped; one live leaf keeps it active.
    tree.stop(a1)
    tree.stop(a2)
    stopped = tree.merge([a1, a2], model, born=15)
    assert tree.node(stopped).status == STOPPED and tree.node(stopped).born == 15
    live = tree.merge([stopped, b], model, born=20)
    assert tree.node(live).status == ACTIVE and tree.node(live).born == 20


def test_tree_root_lookup_and_snapshot():
    tree, root = make_tree()
    assert tree.root_of_edge(0).cluster_id == root
    left, right = tree.split(root, ((0, 1), (2, 3)))
    assert tree.root_of_edge(0).cluster_id == root
    snap = tree.snapshot()
    assert [s["cluster_id"] for s in snap] == [root, left, right]
    assert snap[0]["children"] == [left, right]
    assert snap[1]["members"] == [0, 1]
    assert snap[1]["parent"] == root
    assert tree.cluster_of(2).cluster_id == right
    with pytest.raises(KeyError):
        tree.cluster_of(9)


def test_tree_indexes_match_brute_force_scan():
    """cluster_of, is_specialized, specialized() and root_of_edge answer
    from indexes; after every step of a random split/stop/merge sequence
    they must agree with a scan over tree.nodes."""

    def scan_leaves(tree):
        return sorted((n for n in tree.nodes.values() if n.is_current),
                      key=lambda n: n.cluster_id)

    def scan_merge_product(tree, node):
        return node.parent is None and any(
            o.merged_into == node.cluster_id for o in tree.nodes.values())

    def check(tree, devices):
        leaves = scan_leaves(tree)
        for d in devices:
            owner = [n for n in leaves if d in n.members]
            assert tree.cluster_of(d) is owner[0]
        def scan_specialized(node):
            return node.parent is not None or scan_merge_product(tree, node)

        for node in tree.nodes.values():
            assert tree.is_specialized(node) == scan_specialized(node)
        assert tree.specialized() == [n for n in leaves if scan_specialized(n)]
        with pytest.raises(KeyError):
            tree.cluster_of(max(devices) + 1)
        for edge in range(4):
            roots = [n for n in tree.nodes.values()
                     if n.edge_id == edge and n.parent is None and n.merged_into is None
                     and not scan_merge_product(tree, n)]
            if roots:
                assert len(roots) == 1 and tree.root_of_edge(edge) is roots[0]
            else:
                with pytest.raises(KeyError):
                    tree.root_of_edge(edge)

    model = zero_params(3, 2)
    devices = list(range(24))
    # Seed 7 merges all three roots in its first step; seed 0 splits roots
    # and merges only some of them away.
    for seed in (7, 0):
        rng = np.random.default_rng(seed)
        tree = ClusterTree()
        for edge in range(3):
            tree.add_root(edge, devices[8 * edge:8 * edge + 8], model)
        check(tree, devices)
        merges = cross_edge = 0
        for _ in range(60):
            leaves = scan_leaves(tree)
            live = [n for n in leaves if n.status == "active" and len(n.members) > 1]
            op = rng.choice(["split", "stop", "merge"], p=[0.6, 0.15, 0.25])
            if op == "merge" and len(leaves) >= 2:
                size = 2 if len(leaves) == 2 else int(rng.integers(2, 4))
                picked = rng.choice(len(leaves), size=size, replace=False)
                group = sorted(leaves[i].cluster_id for i in picked)
                new = tree.merge(group, model)
                merges += 1
                cross_edge += tree.node(new).edge_id is None
            elif op == "stop" and live:
                tree.stop(live[int(rng.integers(len(live)))].cluster_id)
            elif live:
                node = live[int(rng.integers(len(live)))]
                members = sorted(node.members)
                cut = int(rng.integers(1, len(members)))
                order = rng.permutation(members).tolist()
                tree.split(node.cluster_id, (order[:cut], order[cut:]))
            check(tree, devices)
        assert merges and cross_edge


def test_tree_add_root_rejects_owned_device():
    tree, _ = make_tree()
    with pytest.raises(ValueError):
        tree.add_root(1, [3, 4], zero_params(3, 2))
    with pytest.raises(ValueError, match="already has root"):
        tree.add_root(0, [8, 9], zero_params(3, 2))
