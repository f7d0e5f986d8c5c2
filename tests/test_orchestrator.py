"""Round-loop checks: aggregation arithmetic, split recovery, merging,
labeling triggers, termination, and bit-level determinism."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from cfsl.clustering import ACTIVE, STOPPED
from cfsl.config import (
    ClusteringConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    NetworkConfig,
    RunConfig,
    SSLConfig,
    TopologyConfig,
)
from cfsl.data import make_task_universe, partition_devices
from cfsl.errors import StateError
from cfsl.models import ModelParams, init_params, param_count, sgd_train
from references import (
    cosine_similarity,
    labeled_size,
    ref_edge_aggregate,
    unlabeled_remaining,
    zero_params,
)
from cfsl.network import sample_radios
from cfsl import orchestrator
from cfsl.orchestrator import MetricsRow, Simulation, edge_aggregate
from cfsl.seeding import TRAIN_STREAM, init_seed, stream_states


def flat(c, n=4):
    return ModelParams(np.full(n, float(c)), 1, 2)


# ---------------------------------------------------------------- averaging


def test_aggregate_identity_cases():
    m = flat(0.7)
    out = edge_aggregate([m, m, m], [1, 2, 3])
    assert np.allclose(out.weights, 0.7)
    single = edge_aggregate([flat(1.3)], [42])
    assert np.array_equal(single.weights, flat(1.3).weights)


def test_aggregate_hand_weighted_mean():
    out = edge_aggregate([flat(0.0), flat(1.0)], [1, 3])
    assert np.allclose(out.weights, 0.75)
    # Three contributors with weights 2:3:5 -> 0.2*0 + 0.3*1 + 0.5*2 = 1.3
    out3 = edge_aggregate([flat(0.0), flat(1.0), flat(2.0)], [2, 3, 5])
    assert np.allclose(out3.weights, 1.3)


def test_aggregate_symmetric_two_edges_midpoint():
    assert np.allclose(edge_aggregate([flat(0.0), flat(2.0)], [5, 5]).weights, 1.0)


def test_aggregate_has_the_bits_of_adding_each_model_in_turn():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 8, 9, 17, 40):
        for _ in range(20):
            models = [ModelParams(rng.normal(size=6) * 10.0 ** rng.integers(-3, 4), 1, 3)
                      for _ in range(k)]
            # Signed zeros: +0.0 from the start plus -0.0 terms stays +0.0.
            models[0].weights[0] = -0.0
            for m in models:
                m.weights[1] = -0.0
            weights = rng.integers(1, 1000, size=k)
            for ws in (weights, weights.tolist(), (weights / 7).tolist()):
                got = edge_aggregate(models, ws).weights
                assert got.tobytes() == ref_edge_aggregate(models, ws).tobytes()


def test_aggregate_validates():
    with pytest.raises(ValueError):
        edge_aggregate([], [])
    with pytest.raises(ValueError):
        edge_aggregate([flat(1.0)], [0])
    with pytest.raises(ValueError):
        edge_aggregate([flat(1.0), zero_params(2, 3)], [1, 1])
    with pytest.raises(ValueError):
        edge_aggregate([flat(1.0)], [1, 2])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            edge_aggregate([flat(1.0), flat(2.0)], [1.0, bad])


# ---------------------------------------------------------------- harness


def make_config(n_devices=8, n_edges=1, classes=4, dim=3, lr=0.1, clustering=None,
                ssl=None, network=None, **run_kw):
    return ExperimentConfig(
        topology=TopologyConfig(edges=n_edges, devices=n_devices),
        data=DataConfig(classes=classes, features=dim),
        model=ModelConfig(hidden=0, learning_rate=lr, epochs=5, batch_size=32),
        clustering=clustering or ClusteringConfig(enabled=False),
        ssl=ssl or SSLConfig(enabled=False),
        network=network or NetworkConfig(),
        run=RunConfig(**run_kw),
    )


def make_sim(
    n_devices=8,
    n_edges=1,
    dists=2,
    classes=4,
    dim=3,
    samples=40,
    labeled_fraction=0.3,
    seed=11,
    rounds=30,
    subchannels=None,
    clustering=None,
    ssl=None,
    network=None,
    lr=0.1,
    run_overrides=None,
):
    data = DataConfig(distributions=dists, classes=classes, features=dim,
                      samples_per_device=samples, labeled_fraction=labeled_fraction)
    devices = partition_devices(make_task_universe(data, seed), data, n_devices, seed)
    per_edge = n_devices // n_edges
    edge_ids = [min(k // per_edge, n_edges - 1) for k in range(n_devices)]
    # A deadline no device misses and, unless set, one sub-channel per device
    # of an even share.
    network = replace(network or NetworkConfig(), deadline_policy="fixed", deadline_s=1e9,
                      subchannels=subchannels or per_edge)
    config = make_config(
        n_devices, n_edges, classes, dim, lr, clustering, ssl, network,
        rounds=rounds, seed=seed, **(run_overrides or {}),
    )
    radios = sample_radios(edge_ids, seed, config.network)
    return Simulation(devices, radios, config)


def events_of(sim, kind):
    return [e for e in sim.events if e["type"] == kind]


# ---------------------------------------------------------------- recovery


def test_split_recovers_label_permutation_groups():
    # Absolute thresholds chosen so the first cadence check fires once the
    # shared model has stalled between the two permuted distributions.
    spec = ClusteringConfig(enabled=True, eps1=0.5, eps2=1.5, split_interval=5)
    sim = make_sim(clustering=spec, rounds=15, seed=11)
    sim.run()
    splits = events_of(sim, "split")
    assert len(splits) == 1
    parts = [set(p) for p in splits[0]["parts"]]
    by_dist = [
        {d.device_id for d in sim.devices if d.distribution_id == j} for j in (0, 1)
    ]
    assert parts in ([by_dist[0], by_dist[1]], [by_dist[1], by_dist[0]])
    # Specialized clusters converge and reach their stopping point.
    assert len(events_of(sim, "stop")) == 2


@pytest.mark.parametrize("eps2", [None, 1.8])
def test_vanished_gradients_stop_their_cluster(monkeypatch, eps2):
    # With eps1 unset, a leaf whose every member gradient is exactly zero gets
    # eps1 = 0 (and eps2 = 0 unless set), which `check_split_conditions`
    # rejects: the split check stops the leaf instead, with zero norms.
    spec = ClusteringConfig(enabled=True, eps2=eps2, split_interval=3)
    sim = make_sim(n_edges=2, clustering=spec, rounds=3, seed=11)
    monkeypatch.setattr(orchestrator, "gradient",
                        lambda models, batches: [np.zeros(m.weights.size) for m in models])
    sim.run()
    stops = events_of(sim, "stop")
    roots = [sim.tree.root_of_edge(e).cluster_id for e in (0, 1)]
    assert [(e["round"], e["cluster"]) for e in stops] == [(3, c) for c in roots]
    assert all(e["agg_norm"] == e["max_norm"] == 0.0 for e in stops)
    assert all(sim.tree.node(c).status == STOPPED for c in roots)
    assert events_of(sim, "split") == [] and sim.termination_reason == "convergence"


def test_zero_norm_member_gradient_skips_the_split(monkeypatch, caplog):
    # Members of equal weight with gradients 0, +v, -v, ..., +v, -v, 0: the
    # aggregate vanishes while the largest norm is 10, so the conditions
    # call for a split, but a zero-norm member has no cosine to split on.
    spec = ClusteringConfig(enabled=True, eps1=0.5, eps2=1.5, split_interval=5)
    sim = make_sim(clustering=spec, rounds=5, seed=11)
    signs = [0, 1, -1, 1, -1, 1, -1, 0]

    def signals(models, batches):
        v = np.zeros(models[0].weights.size)
        v[0] = 10.0
        return [s * v for s in signs]

    monkeypatch.setattr(orchestrator, "gradient", signals)
    root = sim.tree.root_of_edge(0)
    with caplog.at_level("WARNING", logger="cfsl.orchestrator"):
        sim.run()
    assert "cluster 0: zero-norm member gradient, skipping split in round 5" in caplog.text
    assert events_of(sim, "split") == [] and events_of(sim, "stop") == []
    assert sim.tree.root_of_edge(0) is root and root.is_current and root.status == ACTIVE
    assert root.members == frozenset(range(8))


def test_single_distribution_generous_eps2_never_splits():
    spec = ClusteringConfig(enabled=True, eps1=0.5, eps2=1e6, split_interval=5)
    sim = make_sim(dists=1, clustering=spec, rounds=12, seed=13)
    sim.run()
    assert events_of(sim, "split") == []
    assert all(row.clusters == 0 for row in sim.metrics)


def test_cluster_isolation_after_split():
    spec = ClusteringConfig(enabled=True, eps1=0.5, eps2=1.5, split_interval=5)
    sim = make_sim(clustering=spec, rounds=12, seed=11)
    sim.run()
    members = {n.cluster_id: n.members for n in sim.tree.nodes.values()}
    aggregates = events_of(sim, "aggregate")
    assert any(ev["scope"] == "cluster" for ev in aggregates)
    for ev in aggregates:
        assert all(w > 0 for w in ev["weights"])
        assert abs(sum(ev["weights"]) - 1.0) <= 1e-12
        if ev["scope"] == "cluster":
            assert set(ev["contributors"]) <= members[ev["cluster"]]


def test_stopped_cluster_is_never_scheduled_or_retrained():
    spec = ClusteringConfig(enabled=True, eps1=0.5, eps2=1.5, split_interval=5)
    sim = make_sim(clustering=spec, rounds=6, seed=11)
    for _ in range(6):
        sim.run_round()
    leaves = sim.tree.leaves()
    assert len(leaves) == 2
    victim = leaves[0]
    sim.tree.stop(victim.cluster_id)
    frozen = victim.model.weights.copy()
    before = len(sim.events)
    sim.run_round()
    for ev in sim.events[before:]:
        if ev["type"] == "schedule":
            assert not set(ev["selected"]) & set(victim.members)
        if ev["type"] == "aggregate":
            assert ev["cluster"] != victim.cluster_id
    assert np.array_equal(victim.model.weights, frozen)


# ---------------------------------------------------------------- determinism


def test_same_seed_same_trajectory():
    a = make_sim(rounds=6, seed=21)
    b = make_sim(rounds=6, seed=21)
    c = make_sim(rounds=6, seed=22)
    a.run(), b.run(), c.run()
    assert a.metrics == b.metrics
    assert a.events == b.events
    assert a.metrics != c.metrics


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 7])
def test_training_streams_equal_the_list_form(seed):
    # Rounds and ids of 2^32 and above run the entropy past the 4-word pool;
    # one call takes ids of one and of two words.
    for r, ks in ((1, [0]), (7, [2**32 - 1, 0]), (2**32, [5, 2**33 + 1, 6]), (2**40, [2**40]),
                  (3, [2**33 + 1, 2**32 - 1, 0])):
        assert stream_states([seed, TRAIN_STREAM, r], ks) == [
            np.random.PCG64(np.random.SeedSequence([seed, 4, r, k])).state for k in ks]


@pytest.mark.parametrize("seed", [31, 2**32 + 5])
def test_pre_split_trajectory_equals_flat_fedavg(seed):
    # With clustering off, replay the run as plain FedAvg over the logged
    # schedules and demand bit-identical global models every round. The
    # reference builds each device's stream from the list form of its seed.
    sim = make_sim(rounds=5, seed=seed, subchannels=3)
    sim.run()
    data, tr = sim.config.data, sim.config.model
    w = init_params(data.features, data.classes, tr.hidden, seed=init_seed(seed))
    hashes = [e["global_hash"] for e in events_of(sim, "round")]
    for r in range(1, sim.round_no + 1):
        participating = []
        for ev in events_of(sim, "schedule"):
            if ev["round"] == r:
                participating += [k for k in ev["selected"] if k not in ev["dropped"]]
        participating.sort()
        updates = [
            sgd_train([w], [sim.devices[k].train_batch()], tr.epochs, tr.batch_size,
                      tr.learning_rate, [np.random.SeedSequence([seed, 4, r, k])])[0]
            for k in participating
        ]
        weights = [labeled_size(sim.devices[k]) for k in participating]
        w = edge_aggregate(updates, weights)
        assert hashlib.sha256(w.weights.tobytes()).hexdigest() == hashes[r - 1]


# ---------------------------------------------------------------- labeling flow


def test_injections_start_only_after_split():
    spec = ClusteringConfig(enabled=True, eps1=0.5, eps2=1.5, split_interval=5)
    lab = SSLConfig(enabled=True, phi=0.0, label_interval=1)
    sim = make_sim(clustering=spec, ssl=lab, rounds=8, seed=11)
    sim.run()
    split_round = events_of(sim, "split")[0]["round"]
    injections = events_of(sim, "injection")
    assert injections
    # Children aggregate their own members for the first time one round
    # after the split, so they become usable labelers the round after that.
    assert min(e["round"] for e in injections) == split_round + 2
    # phi=0 accepts everything, so one pass labels each device's whole pool.
    assert all(unlabeled_remaining(d) == 0 for d in sim.devices)
    assert sim.metrics[-1].injected_fraction == 1.0


def test_label_cadence_respected():
    spec = ClusteringConfig(enabled=True, eps1=0.5, eps2=1.5, split_interval=5)
    lab = SSLConfig(enabled=True, phi=0.995, label_interval=4)
    sim = make_sim(clustering=spec, ssl=lab, rounds=20, seed=11)
    sim.run()
    by_device = {}
    for ev in events_of(sim, "selection"):
        by_device.setdefault(ev["device"], []).append(ev["round"])
    assert by_device
    for rounds in by_device.values():
        gaps = np.diff(rounds)
        assert np.all(gaps >= 4)


def test_global_model_labeling_mode():
    lab = SSLConfig(enabled=True, phi=0.0, label_interval=3)
    # Only the labeler changes: the config keeps clustering as make_sim sets it.
    sim = make_sim(ssl=lab, rounds=4, seed=17, run_overrides={"baseline": "hfl-ssl"})
    sim.run()
    selections = events_of(sim, "selection")
    assert selections
    assert min(e["round"] for e in selections) == 3
    assert all(e["chosen_model"] == -1 for e in selections)
    assert all(unlabeled_remaining(d) == 0 for d in sim.devices)


def test_stopped_cluster_still_labels_and_stays_a_candidate():
    # Pinned behaviour: a stop freezes a cluster's training, not its
    # labeling. Its devices still select and inject, and its model stays
    # a candidate labeler for every device.
    lab = SSLConfig(enabled=True, phi=0.0, label_interval=1)
    sim = make_sim(ssl=lab, rounds=3, seed=17)
    stopped, live = sim.tree.split(sim.tree.root_of_edge(0).cluster_id,
                                   ((0, 1, 2, 3), (4, 5, 6, 7)))
    sim.tree.stop(stopped)
    assert sim.tree.node(stopped).status == STOPPED
    assert set(sim._candidate_models(5)[0]) == {stopped, live}
    sim._labeling_phase(5)
    selections = events_of(sim, "selection")
    assert {ev["device"] for ev in selections} == set(range(8))
    assert {ev["device"] for ev in events_of(sim, "injection")} == set(range(8))
    assert all(set(ev["z"]) == {stopped, live} for ev in selections)
    assert all(unlabeled_remaining(d) == 0 for d in sim.devices)


def test_edge_scope_candidates_include_cross_edge_merge():
    # A merge across edges has edge_id None; its members must still see it.
    lab = SSLConfig(enabled=True, candidate_scope="edge")
    sim = make_sim(n_edges=2, ssl=lab, rounds=3, seed=17)
    a, b = sim.tree.split(sim.tree.root_of_edge(0).cluster_id, ((0, 1), (2, 3)))
    c, d = sim.tree.split(sim.tree.root_of_edge(1).cluster_id, ((4, 5), (6, 7)))
    merged = sim.tree.merge([a, c], sim.global_model)
    assert sim.tree.node(merged).edge_id is None
    candidates = sim._candidate_models(5)
    assert set(candidates[sim.radios[0].edge_id]) == {b, merged}
    assert set(candidates[sim.radios[2].edge_id]) == {b, merged}
    assert set(candidates[sim.radios[6].edge_id]) == {d, merged}


# ---------------------------------------------------------------- merging


def split_three_ways(sim):
    root = sim.tree.root_of_edge(0)
    a, rest = sim.tree.split(root.cluster_id, ((0, 1), (2, 3, 4, 5, 6, 7)))
    b, c = sim.tree.split(rest, ((2, 3), (4, 5, 6, 7)))
    return a, b, c


def test_merge_joins_near_identical_specialized_models():
    sim = make_sim(clustering=ClusteringConfig(enabled=True, gamma_merge=0.9), rounds=3, seed=19)
    a, b, c = split_three_ways(sim)
    base = sim.global_model.weights
    u = np.zeros_like(base)
    u[0] = 1.0
    w = np.zeros_like(base)
    w[1] = 1.0
    sim.tree.node(a).model = sim.global_model.with_weights(base + u)
    sim.tree.node(b).model = sim.global_model.with_weights(base + u)
    sim.tree.node(c).model = sim.global_model.with_weights(base + w)
    sim._merge_check(1)
    merges = events_of(sim, "merge")
    assert len(merges) == 1
    assert merges[0]["clusters"] == sorted([a, b])
    assert merges[0]["acted"]
    new_id = merges[0]["merged_into"]
    node = sim.tree.node(new_id)
    assert node.members == frozenset([0, 1, 2, 3])
    # Equal sample weights: the merged model is the midpoint, here base+u.
    assert np.allclose(node.model.weights, base + u)
    assert sim.tree.node(c).merged_into is None


@pytest.mark.parametrize("below", [False, True])
def test_merge_threshold_meets_the_pairwise_cosine_bits(below):
    # gamma_merge at exactly the pairwise cosine of two clusters' centered
    # models merges nothing (the test is strict); one ulp below, it merges
    # that pair. Both hold only if the merge check's similarity has the
    # bits of the pair's own `np.dot`, at offsets from 1e-3 to 1e2.
    rng = np.random.default_rng(29)
    sim = make_sim(dim=12, clustering=ClusteringConfig(enabled=True), rounds=3, seed=19)
    a, b, c = split_three_ways(sim)
    base = sim.global_model.weights
    u, w = rng.normal(size=base.size), rng.normal(size=base.size)
    for cid, offset in ((a, 1e-3 * u), (b, 1e2 * (u + 0.5 * w)), (c, 30.0 * (w - u))):
        sim.tree.node(cid).model = sim.global_model.with_weights(base + offset)
    centered = {cid: sim.tree.node(cid).model.weights - base for cid in (a, b, c)}
    s = cosine_similarity(centered[a], centered[b])
    assert s > max(cosine_similarity(centered[a], centered[c]),
                   cosine_similarity(centered[b], centered[c]))
    gamma = float(np.nextafter(s, -1.0)) if below else s
    sim.config = replace(sim.config, clustering=replace(sim.config.clustering, gamma_merge=gamma))
    sim._merge_check(1)
    merges = events_of(sim, "merge")
    if below:
        assert [(m["clusters"], m["similarities"]) for m in merges] == [([a, b], [[a, b, s]])]
    else:
        assert merges == []


def test_merge_log_only_leaves_tree_untouched():
    sim = make_sim(
        clustering=ClusteringConfig(enabled=True, gamma_merge=0.9, merge_log_only=True),
        rounds=3, seed=19,
    )
    a, b, c = split_three_ways(sim)
    base = sim.global_model.weights
    u = np.zeros_like(base)
    u[0] = 1.0
    for cid in (a, b):
        sim.tree.node(cid).model = sim.global_model.with_weights(base + u)
    w = np.zeros_like(base)
    w[1] = 1.0
    sim.tree.node(c).model = sim.global_model.with_weights(base + w)
    before = sim.tree.snapshot()
    sim._merge_check(1)
    assert sim.tree.snapshot() == before
    merges = events_of(sim, "merge")
    assert len(merges) == 1 and not merges[0]["acted"]


def test_merge_requires_more_than_two_specialized():
    sim = make_sim(clustering=ClusteringConfig(enabled=True), rounds=3, seed=19)
    root = sim.tree.root_of_edge(0)
    a, b = sim.tree.split(root.cluster_id, ((0, 1, 2, 3), (4, 5, 6, 7)))
    for cid in (a, b):
        sim.tree.node(cid).model = sim.global_model.with_weights(
            sim.global_model.weights + 1.0
        )
    sim._merge_check(1)
    assert events_of(sim, "merge") == []


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def components_above(vectors: dict, gamma: float) -> list:
    """Connected components, as sorted id lists, of the graph joining two
    ids whose centered vectors have cosine above gamma; plain BFS."""
    seen, groups = set(), []
    for start in sorted(vectors):
        if start in seen:
            continue
        seen.add(start)
        group, frontier = [start], [start]
        while frontier:
            a = frontier.pop()
            for b in sorted(vectors):
                if b not in seen and cosine(vectors[a], vectors[b]) > gamma:
                    seen.add(b)
                    group.append(b)
                    frontier.append(b)
        groups.append(sorted(group))
    return groups


@pytest.mark.parametrize("seed", range(6))
def test_merge_groups_are_similarity_components_across_edges(seed):
    gamma = 0.6
    rng = np.random.default_rng(seed)
    sim = make_sim(n_devices=16, n_edges=4, dim=8, rounds=3, seed=23,
                   clustering=ClusteringConfig(enabled=True, gamma_merge=gamma))
    for k in range(16):
        # Unequal sample weights: device k carries k injected labels.
        sim.devices[k].inject(np.arange(k), sim.devices[k].hidden_truth[:k])
    leaves = []
    for e in range(4):
        leaves += sim.tree.split(sim.tree.root_of_edge(e).cluster_id,
                                 ((4 * e, 4 * e + 1), (4 * e + 2, 4 * e + 3)))
    base = sim.global_model.weights
    size = base.size

    def unit():
        v = rng.normal(size=size)
        return v / np.linalg.norm(v)

    # A chain on three edges: each end is near the middle, the ends are not.
    # The middle has the highest id, so a union-find that links ids rather
    # than roots splits the chain.
    ends = [leaves[2 * e + int(rng.integers(2))] for e in (0, 1)]
    middle = leaves[4 + int(rng.integers(2))]
    u, w = unit(), unit()
    w -= np.dot(w, u) * u
    offsets = {ends[0]: u, ends[1]: w, middle: u + w}
    # Random models for the rest, with a near-copy of one of them.
    rest = [c for c in leaves if c not in offsets]
    for c in rest:
        offsets[c] = 2.0 * unit()
    offsets[rest[1]] = offsets[rest[0]] + 0.1 * unit()
    for c, v in offsets.items():
        sim.tree.node(c).model = sim.global_model.with_weights(base + v)
    # Left out: a cluster born this round with a copy of a chain end's model,
    # and one that coincides with the global model.
    r = 4
    newborn, flat_leaf = rest[-2], rest[-1]
    sim.tree.node(newborn).born = r
    sim.tree.node(newborn).model = sim.tree.node(ends[0]).model
    sim.tree.node(flat_leaf).model = sim.global_model.with_weights(base.copy())

    compared = {c: offsets[c] for c in leaves if c not in (newborn, flat_leaf)}
    want = [g for g in components_above(compared, gamma) if len(g) > 1]

    def cos(a, b):
        return cosine(offsets[a], offsets[b])

    assert cos(ends[0], ends[1]) <= gamma < min(cos(e, middle) for e in ends)
    assert any({*ends, middle} <= set(g) for g in want)
    nodes = {c: sim.tree.node(c) for c in leaves}

    sim._merge_check(r)
    merges = events_of(sim, "merge")
    assert sorted(m["clusters"] for m in merges) == want
    for m in merges:
        group = m["clusters"]
        assert m["acted"]
        merged = sim.tree.node(m["merged_into"])
        assert merged.members == frozenset().union(*(nodes[c].members for c in group))
        weights = [sum(labeled_size(sim.devices[k]) for k in nodes[c].members) for c in group]
        want_model = edge_aggregate([nodes[c].model for c in group], weights)
        assert np.array_equal(merged.model.weights, want_model.weights)
        pairs = [(a, b) for a, b, _ in m["similarities"]]
        assert sorted(pairs) == [(a, b) for i, a in enumerate(group) for b in group[i + 1:]]
        for a, b, s in m["similarities"]:
            assert s == pytest.approx(cos(a, b), rel=1e-12)
    for c in (newborn, flat_leaf):
        assert sim.tree.node(c).merged_into is None


# ---------------------------------------------------------------- termination


def test_zero_rounds_terminates_immediately():
    sim = make_sim(rounds=0)
    reason = sim.run()
    assert reason == "round budget"
    assert sim.round_no == 0
    assert sim.metrics == []
    assert events_of(sim, "termination")[0]["reason"] == "round budget"


def test_time_budget_stops_after_first_crossing():
    sim = make_sim(rounds=50, network=NetworkConfig(time_budget_s=1e-12))
    reason = sim.run()
    assert reason == "time budget"
    assert sim.round_no == 1
    # Every earlier round stayed under budget.
    assert sum(ev["duration_s"] for ev in events_of(sim, "round")[:-1]) < 1e-12


def test_convergence_plateau_terminates():
    sim = make_sim(rounds=500, seed=23,
                   run_overrides={"convergence_eps": 1e-3, "convergence_window": 5})
    reason = sim.run()
    assert reason == "convergence"
    assert sim.round_no < 500
    # The emitted loss series really did plateau: compare the last window.
    hist = sim.loss_history[sim.tree.root_of_edge(0).cluster_id]
    base = hist[-6]
    assert (base - hist[-1]) / abs(base) < 1e-3


def test_run_twice_is_an_error():
    sim = make_sim(rounds=2)
    sim.run()
    with pytest.raises(StateError):
        sim.run()
    with pytest.raises(StateError):
        sim.run_round()


# ---------------------------------------------------------------- metrics


def test_metrics_rows_are_consistent():
    spec = ClusteringConfig(enabled=True, eps1=0.5, eps2=1.5, split_interval=5)
    lab = SSLConfig(enabled=True, phi=0.5, label_interval=2)
    sim = make_sim(clustering=spec, ssl=lab, rounds=9, seed=11)
    sim.run()
    cumulative = 0.0
    for row, ev in zip(sim.metrics, events_of(sim, "round"), strict=True):
        assert isinstance(row, MetricsRow)
        cumulative += ev["duration_s"]
        assert math.isclose(row.cumulative_time_s, cumulative, rel_tol=1e-12)
        assert 0.0 <= row.acc_min <= row.acc_mean <= row.acc_max <= 1.0
        assert 0.0 <= row.injected_fraction <= 1.0
        assert row.drops == 0
        assert row.mean_labeling_latency_s <= row.cumulative_time_s + 1e-15
    rounds_with_clusters = [r.clusters for r in sim.metrics]
    assert rounds_with_clusters[0] == 0
    assert rounds_with_clusters[-1] == 2


def test_validation_rejects_misaligned_population():
    data = DataConfig(features=3, samples_per_device=30, labeled_fraction=0.3)
    devices = partition_devices(make_task_universe(data, 1), data, 4, 1)
    config = make_config(n_devices=4, rounds=5, seed=1)
    radios = sample_radios([0, 0, 0, 0], 1, config.network)
    with pytest.raises(ValueError, match="align"):
        Simulation(devices[:3], radios, config)
    with pytest.raises(ValueError, match="ordered by contiguous device_id"):
        Simulation(devices[::-1], radios, config)
    with pytest.raises(ValueError, match=r"unknown edges \[7\]"):
        Simulation(devices, sample_radios([0, 0, 0, 7], 1, config.network), config)
    with pytest.raises(ValueError, match="edge 1 has no devices"):
        Simulation(devices, radios, make_config(n_devices=4, n_edges=2, rounds=5, seed=1))
