"""The round's per-device bookkeeping in arrays, checked against scans after
every round: the population table against each device's rows and injection
record, `ClusterTree.leaf_of` against a scan of the current leaves, and each
`MetricsRow` (float bits included) and per-leaf loss mean against the
per-device list expressions of `references.ref_metrics_row`.

Two runs: a split-heavy self-labeling config whose merges join clusters of
different edges, and a csv-mode config, whose pools have no known truth
and where some devices hold no pool at all.
"""

import numpy as np

from cfsl.config import parse_config
from cfsl.data import (
    CORRECT,
    HOLDOUT,
    INJECTED,
    KNOWN,
    POOL,
    TRAIN,
)
from cfsl.experiment import build_simulation
from cfsl.orchestrator import LABEL_DONE_FRACTION
from references import injected_fraction, ref_metrics_row

SPLIT_AND_MERGE = """
[topology]
edges = 4
devices = 48

[data]
seed = 0
distributions = 4
samples_per_device = 40
labeled_fraction = 0.3

[clustering]
eps1 = 2.5
eps2 = 1.8
split_interval = 2
gamma_merge = 0.3

[ssl]
label_interval = 3

[network]
deadline_policy = fixed
deadline_s = 20

[run]
rounds = 14
convergence_window = 15
seed = 1
"""

# 61 labeled rows over 12 devices and 9 unlabeled ones, so that three
# devices have no pool.
CSV = """
[topology]
edges = 2
devices = 12

[data]
mode = csv
csv_path = {path}
features = 4
classes = 3
holdout_fraction = 0.5

[clustering]
split_interval = 2

[ssl]
phi = 0.4
label_interval = 2

[run]
rounds = 10
convergence_window = 11
seed = 5
"""


def leaf_scan(sim) -> list:
    """Each device's current leaf id by a scan of `tree.leaves()`, -1 for
    none; a device in two leaves fails."""
    leaf_of = [-1] * len(sim.devices)
    for node in sim.tree.leaves():
        for k in node.members:
            assert leaf_of[k] == -1, f"device {k} in leaves {leaf_of[k]} and {node.cluster_id}"
            leaf_of[k] = node.cluster_id
    return leaf_of


def count_scan(sim, k: int) -> dict:
    """Device k's counts from its rows and injection record."""
    dev = sim.devices[k]
    injected = dev.injected_labels >= 0
    truth = dev.hidden_truth[injected]
    return {HOLDOUT: len(dev.holdout), TRAIN: len(dev.train), POOL: injected.size,
            INJECTED: int(injected.sum()), KNOWN: int((truth >= 0).sum()),
            CORRECT: int((dev.injected_labels[injected] == truth).sum())}


def run_checked(sim) -> list:
    """Run `sim` to its end, checking the indexes and the metrics after
    every round; returns the run's events."""
    # Devices built with (nearly) all of their pool labeled cross at time 0.
    crossing = {d.device_id: 0.0 for d in sim.devices
                if injected_fraction(d) >= LABEL_DONE_FRACTION}
    while True:
        row = sim.run_round()
        assert sim.tree.leaf_of.tolist() == leaf_scan(sim)
        for k, dev in enumerate(sim.devices):
            assert dev.table is sim.population and dev.column == k
            scan = count_scan(sim, k)
            assert sim.population[:, k].tolist() == [scan[i] for i in range(len(scan))]
        want, leaf_means = ref_metrics_row(sim, crossing)
        assert repr(row) == repr(want)
        assert repr({c: sim.loss_history[c][-1] for c in leaf_means}) == repr(leaf_means)
        if sim.check_termination() is not None:
            return sim.events


def test_split_heavy_self_labeling_with_merges_across_edges():
    sim = build_simulation(parse_config(SPLIT_AND_MERGE))
    events = run_checked(sim)
    merges = [e for e in events if e["type"] == "merge" and e["acted"]]
    assert any(sim.tree.node(e["merged_into"]).edge_id is None for e in merges)
    assert sum(e["type"] == "split" for e in events) > 10
    assert sum(e["type"] == "injection" for e in events) > 10
    # Labels with a known truth, right and wrong, and leaves of many sizes.
    assert 0 < sim.population[CORRECT].sum() < sim.population[KNOWN].sum()
    assert len({len(n.members) for n in sim.tree.leaves()}) > 3


def test_csv_mode(tmp_path):
    rng = np.random.default_rng(11)
    rows = [",".join(f"{v:.2f}" for v in rng.normal(size=4)) + f",{rng.integers(3)}"
            for _ in range(61)]
    rows += [",".join(f"{v:.2f}" for v in rng.normal(size=4)) + "," for _ in range(9)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    sim = build_simulation(parse_config(CSV.format(path=path)))
    events = run_checked(sim)
    assert sum(e["type"] == "injection" for e in events) > 0
    assert (sim.population[POOL] == 0).sum() == 3 and not sim.population[KNOWN].any()
    assert all(dev.distribution_id == -1 for dev in sim.devices)
    assert sim.metrics[-1].labeling_accuracy_mean is None
