"""Oracle for the metrics pass: each device's test accuracy and train loss,
as `Simulation._device_scores` takes them for the metrics row, must equal
the row-wise references of `references.py` (`ref_evaluate`, `ref_loss`)
on the device's own model, one device at a time. The reference train batch
is gathered from copies taken when the devices were built: the train rows,
then the pool rows at the injected positions in ascending order, with their
pseudo-labels.
"""

import numpy as np

from cfsl.config import parse_config
from cfsl.experiment import build_simulation
from cfsl.models import LabeledBatch
from references import check_run_invariants, model_of, ref_evaluate, ref_loss

SYNTHETIC = """
[topology]
edges = 2
devices = 20

[data]
distributions = 3
classes = 4
features = 5
samples_per_device = 60
labeled_fraction = 0.3

[model]
learning_rate = 0.2
batch_size = 8

[clustering]
split_interval = 2

[ssl]
phi = 0.8
label_interval = 2

[run]
rounds = 10
convergence_window = 11
seed = 6
"""


def built_copies(sim):
    """Each device's train rows and pool rows in pool order, copied now."""
    return [(LabeledBatch(d.train.features.copy(), d.train.labels.copy()), d.pool_features())
            for d in sim.devices]


def reference_scores(sim, copies):
    accs, losses = [], []
    for dev, (train, pool) in zip(sim.devices, copies):
        model = model_of(sim, dev.device_id)
        injected = np.flatnonzero(dev.injected_labels >= 0)
        batch = LabeledBatch(np.concatenate([train.features, pool[injected]]),
                             np.concatenate([train.labels, dev.injected_labels[injected]]))
        accs.append(ref_evaluate(model, dev.test))
        losses.append(ref_loss(model, batch))
    return accs, losses


def run_checked(sim):
    """Run `sim` round by round; after each round, every device's scores and
    the metrics row against the references, and at the end the run
    invariants. Returns the event types seen."""
    copies = built_copies(sim)
    while True:
        row = sim.run_round()
        accs, losses = reference_scores(sim, copies)
        assert sim._device_scores() == (accs, losses)
        assert (row.acc_min, row.acc_mean, row.acc_max) == (
            float(np.min(accs)), float(np.mean(accs)), float(np.max(accs)))
        for node in sim.tree.active_leaves():
            assert sim.loss_history[node.cluster_id][-1] == float(
                np.mean([losses[k] for k in node.members]))
        if sim.check_termination() is not None:
            check_run_invariants(sim, sim.events)
            return {e["type"] for e in sim.events}


def test_metrics_match_the_references_through_splits_and_injections():
    sim = build_simulation(parse_config(SYNTHETIC))
    kinds = run_checked(sim)
    assert {"split", "injection"} <= kinds
    # The devices ran several models and trained on different row counts.
    assert len({id(model_of(sim, k)) for k in range(20)}) > 2
    assert len({len(d.train_batch()) for d in sim.devices}) > 2


def write_csv(path, seed, labeled, pool):
    rng = np.random.default_rng(seed)
    lines = []
    for j in range(max(labeled, pool)):
        if j < labeled:
            lines.append(",".join(f"{x:.4f}" for x in rng.normal(size=3) + j % 3) + f",{j % 3}")
        if j < pool:
            lines.append(",".join(f"{x:.4f}" for x in rng.normal(size=3) + j % 3) + ",")
    path.write_text("\n".join(lines) + "\n")


def test_metrics_match_the_references_in_csv_mode(tmp_path):
    # 43 labeled rows over 4 devices deal 11, 11, 11 and 10. The test set is
    # the holdout (6, 6, 6 and 5 rows at one half), or without one the
    # train rows: either way of more than one length.
    data = tmp_path / "data.csv"
    write_csv(data, 7, 43, 60)
    for holdout, lengths in (("0.5", {5, 6}), ("0.0", {10, 11})):
        sim = build_simulation(parse_config(f"""
[topology]
edges = 2
devices = 4
[data]
mode = csv
csv_path = {data}
features = 3
classes = 3
holdout_fraction = {holdout}
[ssl]
phi = 0.4
label_interval = 1
[run]
rounds = 4
convergence_window = 5
seed = 8
baseline = hfl-ssl
"""))
        assert {len(d.test) for d in sim.devices} == lengths
        assert "injection" in run_checked(sim)
