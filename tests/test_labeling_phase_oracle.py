"""The labeling phase against its per-device form.

`Simulation._labeling_phase` does its candidate work once per candidate
set: one holdout pass that stacks the holdouts of one length, and from its
(devices, candidates) array the best accuracy, the contenders and the `z`
template of every device. `references.ref_labeling_phase` is the phase as
it ran device by device. Before every round of each config below, both run
that round's phase on deep copies of the same simulation, which must end
in the same events, labeling rounds and utilities and in byte-identical
device rows, injection records and counters.
"""

import copy
import json
import logging

import numpy as np
import pytest

from cfsl.config import parse_config
from cfsl.experiment import build_simulation
from cfsl.orchestrator import jsonable
from references import counts, labeled_size, ref_labeling_phase, unlabeled_remaining

SPLIT_HEAVY = """
[topology]
edges = 4
devices = 96

[data]
seed = 0
distributions = 4
samples_per_device = 40
labeled_fraction = 0.3

[clustering]
eps1 = 2.5
eps2 = 1.8
split_interval = 2

[ssl]
label_interval = 3

[network]
deadline_policy = fixed
deadline_s = 20

[run]
rounds = 14
convergence_window = 15
"""

EDGE_SCOPE = """
[topology]
edges = 4
devices = 32

[data]
distributions = 4
samples_per_device = 40
labeled_fraction = 0.3

[clustering]
eps1 = 2.5
eps2 = 1.8
split_interval = 2

[ssl]
phi = 0.6
label_interval = 2
candidate_scope = edge

[run]
rounds = 12
convergence_window = 13
seed = 3
"""

# The shared model labels from round `label_interval` on; phi = 0.3 empties
# pools, whose devices stop labeling.
HFL_SSL = """
[topology]
edges = 2
devices = 16

[data]
samples_per_device = 30
labeled_fraction = 0.2

[ssl]
phi = 0.3
label_interval = 2

[run]
rounds = 8
baseline = hfl-ssl
"""

# 61 labeled rows over 12 devices, 5 or 6 each: holdouts of 2 and 3 rows at
# holdout_fraction = 0.5, none at 0; and 9 unlabeled rows, so that three
# devices have no pool at all.
CSV = """
[topology]
edges = 2
devices = 12

[data]
mode = csv
csv_path = {path}
features = 4
classes = 3
holdout_fraction = {holdout}

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


def csv_config(tmp_path, holdout: float) -> str:
    rng = np.random.default_rng(11)
    rows = [",".join(f"{v:.2f}" for v in rng.normal(size=4)) + f",{rng.integers(3)}"
            for _ in range(61)]
    rows += [",".join(f"{v:.2f}" for v in rng.normal(size=4)) + "," for _ in range(9)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    return CSV.format(path=path, holdout=holdout)


def device_state(sim) -> list:
    """Every array and counter of every device, as bytes and reprs (so
    that a counter that turned into a numpy integer differs)."""
    state = []
    for dev in sim.devices:
        idx, feats = dev.pending_features()
        batch = dev.train_batch()
        arrays = (dev.features, dev.labels, dev.injected_labels, dev.hidden_truth, idx, feats,
                  batch.features, batch.labels)
        state.append(([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
                      repr((counts(dev).tolist(), labeled_size(dev)))))
    return state


def check_phases(sim) -> dict:
    """Run `sim` round by round, checking each round's phase against the
    reference first; returns what the phases did over the run."""
    seen = {"selections": 0, "injections": 0, "candidates": 0, "empty pools": set()}
    while sim.termination_reason is None and sim.round_no < sim.config.run.rounds:
        r = sim.round_no + 1
        got, want = copy.deepcopy(sim), copy.deepcopy(sim)
        got._labeling_phase(r)
        ref_labeling_phase(want, r)
        assert json.dumps(jsonable(got.events)) == json.dumps(jsonable(want.events))
        assert repr(got.last_label_round) == repr(want.last_label_round)
        assert repr(got.utilities) == repr(want.utilities)
        assert device_state(got) == device_state(want)
        new = got.events[len(sim.events):]
        seen["selections"] += sum(e["type"] == "selection" for e in new)
        seen["injections"] += sum(e["type"] == "injection" for e in new)
        seen["candidates"] = max([seen["candidates"]]
                                 + [len(e["z"]) for e in new if e["type"] == "selection"])
        seen["empty pools"] |= {d.device_id for d in sim.devices if unlabeled_remaining(d) == 0}
        sim.run_round()
        sim.termination_reason = sim.check_termination()
    return seen


def test_split_heavy_phase_with_many_candidates():
    seen = check_phases(build_simulation(parse_config(SPLIT_HEAVY)))
    assert seen["candidates"] >= 40 and seen["injections"] > 0


def test_edge_scoped_candidates():
    sim = build_simulation(parse_config(EDGE_SCOPE))
    seen = check_phases(sim)
    assert seen["selections"] > 0 and seen["injections"] > 0
    # The edges label with candidate sets of their own.
    sets = {tuple(c) for c in sim._candidate_models(sim.round_no).values()}
    assert len(sets) > 1


def test_shared_model_baseline_until_pools_empty():
    sim = build_simulation(parse_config(HFL_SSL))
    seen = check_phases(sim)
    assert seen["selections"] > 0 and seen["candidates"] == 1
    # Devices whose pools emptied are no longer triggered.
    assert seen["empty pools"]


@pytest.mark.parametrize("holdout", [0.5, 0.0])
def test_csv_devices_ragged_holdouts_and_empty_pools(tmp_path, caplog, holdout):
    sim = build_simulation(parse_config(csv_config(tmp_path, holdout)))
    lengths = {len(d.holdout) for d in sim.devices}
    assert lengths == ({2, 3} if holdout else {0})
    assert sum(unlabeled_remaining(d) == 0 for d in sim.devices) == 3
    with caplog.at_level(logging.WARNING, logger="cfsl.labeling"):
        seen = check_phases(sim)
    assert seen["selections"] > 0 and seen["injections"] > 0
    # Without a holdout, every selection scores the train rows, with a warning.
    fallbacks = sum("empty holdout" in r.getMessage() for r in caplog.records)
    assert (fallbacks > 0) == (holdout == 0)
