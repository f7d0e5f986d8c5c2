"""Acceptance checks: formula exactness against a high-precision oracle,
gradient correctness against finite differences, cluster recovery on a
planted partition, bipartition optimality, directional comparisons
between training variants, threshold monotonicity, byte-level
determinism, flat-averaging equivalence before any split, and the
scheduling/selection constraint audit.

Every check runs inside the `criterion` context manager, which records
one PASS/FAIL line; tests/conftest.py replays the collected lines as a
scorecard at the end of the session. Tolerances are pinned inline.
"""

import hashlib
import itertools
import logging
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest

from cfsl import orchestrator
from cfsl.clustering import SimilarityMatrix, bipartition
from cfsl.config import NetworkConfig, parse_config
from cfsl.experiment import build_simulation, run_experiment
from cfsl.labeling import pseudo_label
from cfsl.models import LabeledBatch, gradient, init_params, loss, sgd_train
from cfsl.network import (
    DeviceRadio,
    ScheduleEntry,
    channel_gain,
    db_to_linear,
    dbm_to_watts,
    path_gains,
    rayleigh_fading,
    round_time,
    sample_radios,
    schedule_round,
)
from cfsl.orchestrator import edge_aggregate
from references import exhaustive_bipartition, labeled_size, max_cross, training_seed

logging.disable(logging.WARNING)

REPORT = []


def _record(num, title, verdict, elapsed):
    line = f"criterion {num:2d} {verdict:4s} ({elapsed:6.1f}s)  {title}"
    REPORT.append(line)
    print(line)


@contextmanager
def criterion(num, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _record(num, title, "FAIL", time.perf_counter() - start)
        raise
    _record(num, title, "PASS", time.perf_counter() - start)


# ------------------------------------------------- 1: latency formulas


def _mp_rel(value, oracle):
    return abs(mpmath.mpf(float(value)) - oracle) / abs(oracle)


def _mp_estimate(net, radio, power_w, q, workload, payload, epochs, fading=1.0):
    """(compute, upload) seconds of one device at 50 digits, from the
    config's and the radio's values and the transmit power `power_w`."""
    g_lin = mpmath.mpf(10) ** (mpmath.mpf(net.ref_gain_db) / 10)
    gain = g_lin * (mpmath.mpf(net.ref_distance_m) / mpmath.mpf(radio.distance_m)) ** 4
    snr = gain * mpmath.mpf(fading) * power_w / mpmath.mpf(net.noise_w)
    rate = mpmath.mpf(net.bandwidth_hz) / q * mpmath.log(1 + snr) / mpmath.log(2)
    t_cmp = (mpmath.mpf(epochs) * workload * mpmath.mpf(net.cycles_per_sample)
             / mpmath.mpf(radio.f_hz))
    return t_cmp, mpmath.mpf(payload) / rate


def _scheduled_terms(net, radios, q, workloads, payload, epochs, fading=None):
    """`schedule_round`'s estimate of each radio's upload alone (workload
    0), compute alone (payload 0) and their sum: [(upload, compute, sum)]."""
    gains = path_gains(radios, net)
    idle = {r.device_id: 0 for r in radios}

    def est(loads, bits):
        return schedule_round(net, q, radios, gains, loads, bits, epochs, fading).est_times

    up, cmp, total = est(idle, payload), est(workloads, 0.0), est(workloads, payload)
    return [(up[r.device_id], cmp[r.device_id], total[r.device_id]) for r in radios]


def test_criterion_01_latency_formula_exactness():
    """Channel gain, unit conversions, and `schedule_round`'s estimate term
    by term (upload alone, compute alone, their sum), on fixed cases and on
    drawn radios under Rayleigh fading, plus the edge and global round
    times, agree with a 50-digit reference implementation to 1e-12
    relative."""
    with criterion(1, "latency formulas match 50-digit oracle (rel <= 1e-12)"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260813)
        cases = []
        # Reference operating point at both ends of the cpu range.
        for f_hz in (1e9, 9e9):
            cases.append(dict(B=10e6, g_db=-35.0, d0=2.0, d=25.0, N0=1e-6,
                              theta=20.0, f=f_hz, p_dbm=10.0, payload=2e5,
                              epochs=5, n=200, q=4))
        while len(cases) < 20:
            d0 = float(rng.uniform(1.0, 3.0))
            cases.append(dict(
                B=float(rng.uniform(1e6, 2e7)),
                g_db=float(rng.uniform(-40.0, -20.0)),
                d0=d0,
                d=d0 * float(rng.uniform(2.0, 8.0)),
                N0=float(rng.uniform(1e-10, 1e-8)),
                theta=float(rng.uniform(5.0, 40.0)),
                f=float(rng.uniform(1e9, 9e9)),
                p_dbm=float(rng.uniform(0.0, 20.0)),
                payload=float(rng.uniform(1e4, 1e6)),
                epochs=int(rng.integers(1, 6)),
                n=int(rng.integers(10, 500)),
                q=int(rng.integers(1, 9)),
            ))
        assert len(cases) == 20

        tol = mpmath.mpf("1e-12")

        def check_terms(got, oracle):
            (up, cmp, total), (t_cmp, t_up) = got, oracle
            assert _mp_rel(up, t_up) <= tol
            assert _mp_rel(cmp, t_cmp) <= tol
            assert _mp_rel(total, t_cmp + t_up) <= tol

        totals = []
        with mpmath.workdps(50):
            for c in cases:
                g_lin = mpmath.mpf(10) ** (mpmath.mpf(c["g_db"]) / 10)
                p_w = mpmath.mpf(10) ** ((mpmath.mpf(c["p_dbm"]) - 30) / 10)
                gain = g_lin * (mpmath.mpf(c["d0"]) / mpmath.mpf(c["d"])) ** 4
                got_lin = db_to_linear(c["g_db"])
                got_p = dbm_to_watts(c["p_dbm"])
                assert _mp_rel(got_lin, g_lin) <= tol
                assert _mp_rel(got_p, p_w) <= tol
                assert _mp_rel(channel_gain(c["d"], got_lin, c["d0"]), gain) <= tol

                net = NetworkConfig(bandwidth_hz=c["B"], ref_gain_db=c["g_db"],
                                    ref_distance_m=c["d0"], noise_w=c["N0"],
                                    cycles_per_sample=c["theta"])
                radio = DeviceRadio(0, f_hz=c["f"], power_w=got_p, distance_m=c["d"],
                                    edge_id=0)
                [got] = _scheduled_terms(net, [radio], c["q"], {0: c["n"]}, c["payload"],
                                         c["epochs"])
                # The oracle takes the exact power of the dBm value.
                oracle = _mp_estimate(net, radio, p_w, c["q"], c["n"], c["payload"],
                                      c["epochs"])
                check_terms(got, oracle)
                totals.append((got[2], sum(oracle)))

            # Drawn radios, as a round schedules them: sampled attributes,
            # their path gains and one Rayleigh multiplier per device. The
            # float sum 1 + snr costs the rate about eps / snr of relative
            # accuracy, so the radios are near and the noise low enough
            # for an SNR above about 1e-2.
            net = NetworkConfig(noise_w=1e-9, power_min_dbm=0.0, distance_max_m=10.0,
                                cycles_per_sample=17312.7)
            radios = sample_radios([0] * 24, 7, net)
            fading = rayleigh_fading(24, np.random.default_rng(8))
            loads = {r.device_id: int(rng.integers(1, 500)) for r in radios}
            got = _scheduled_terms(net, radios, 8, loads, 2e4, 7, fading)
            for r, terms in zip(radios, got):
                check_terms(terms, _mp_estimate(net, r, mpmath.mpf(r.power_w), 8,
                                                loads[r.device_id], 2e4, 7,
                                                fading[r.device_id]))

            # Edge round time: slowest surviving device; the dropped one
            # must not count. Device ids index into the cases.
            def entry(selected, dropped=()):
                return ScheduleEntry(selected=selected, beta=0.25,
                                     deadline_s=float("inf"), dropped=dropped,
                                     est_times={k: totals[k][0] for k in selected})

            edge = entry((0, 1, 2), dropped=(2,))
            assert not edge.idle
            oracle_edge = max(totals[0][1], totals[1][1])
            assert _mp_rel(edge.round_s, oracle_edge) <= tol

            # Global round time: slowest edge plus the shared cloud hop,
            # idle edges excluded.
            edges = [edge, entry((6,)), entry((4, 5), dropped=(4, 5))]
            got_global = round_time(edges, totals[3][0])
            oracle_global = max(oracle_edge, totals[6][1]) + totals[3][1]
            assert _mp_rel(got_global, oracle_global) <= tol

        assert time.perf_counter() - start < 1.0


# ---------------------------------------------- 2: gradient correctness


def _central_differences(params, batch, h=1e-5):
    w = params.weights
    out = np.empty_like(w)
    for i in range(w.size):
        step = h * max(1.0, abs(w[i]))
        wp, wm = w.copy(), w.copy()
        wp[i] += step
        wm[i] -= step
        out[i] = (loss([params.with_weights(wp)], [batch])[0]
                  - loss([params.with_weights(wm)], [batch])[0]) / (2 * step)
    return out


def test_criterion_02_analytic_gradients_match_finite_differences():
    """Analytic gradients of both model families agree with central
    finite differences coordinate-wise to 1e-4 relative."""
    with criterion(2, "analytic gradients match finite differences (rel < 1e-4)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        for hidden_family in (False, True):
            for _ in range(50):
                dim = int(rng.integers(2, 7))
                classes = int(rng.integers(2, 6))
                hidden = int(rng.integers(2, 9)) if hidden_family else 0
                n = int(rng.integers(3, 13))
                params = init_params(dim, classes, hidden,
                                     seed=int(rng.integers(1 << 30)), scale=0.5)
                batch = LabeledBatch(rng.normal(size=(n, dim)),
                                     rng.integers(0, classes, size=n))
                (analytic,) = gradient([params], [batch])
                fd = _central_differences(params, batch)
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-5)
                worst = float(np.max(np.abs(analytic - fd) / denom))
                assert worst < 1e-4, f"worst per-coordinate rel err {worst:.2e}"
        assert time.perf_counter() - start < 30.0


# ---------------------------------------------- 3: clustering recovery

RECOVERY_CONFIG = """
[topology]
edges = 1
devices = 8

[data]
distributions = {dists}
classes = 4
features = 12
samples_per_device = 100
labeled_fraction = 0.3
max_classes_per_device = 4

[model]
learning_rate = 0.1

[clustering]
enabled = true
eps1 = 2.0
eps2 = 2.5
split_interval = 5

[ssl]
enabled = false

[network]
deadline_policy = fixed
deadline_s = 1e9

[run]
rounds = 15
seed = {seed}
convergence_window = 50
baseline = cfsl
"""


def _rand_index(parts_a, parts_b):
    label_a = {k: i for i, part in enumerate(parts_a) for k in part}
    label_b = {k: i for i, part in enumerate(parts_b) for k in part}
    ids = sorted(label_a)
    assert sorted(label_b) == ids
    agree = total = 0
    for x, y in itertools.combinations(ids, 2):
        total += 1
        agree += (label_a[x] == label_a[y]) == (label_b[x] == label_b[y])
    return agree / total


def test_criterion_03_planted_partition_recovery():
    """With two planted label permutations over 8 devices, the first
    split recovers the exact 4+4 ground truth on 5 seeds; a single
    shared distribution never trips the split gate."""
    with criterion(3, "first split recovers planted 4+4 partition, control clean"):
        start = time.perf_counter()
        for seed in range(5):
            sim = build_simulation(
                parse_config(RECOVERY_CONFIG.format(dists=2, seed=seed)))
            sim.run()
            splits = [e for e in sim.events if e["type"] == "split"]
            assert splits, f"seed {seed}: split gate never fired"
            parts = [tuple(sorted(p)) for p in splits[0]["parts"]]
            truth = [
                tuple(sorted(d.device_id for d in sim.devices
                             if d.distribution_id == g))
                for g in (0, 1)
            ]
            assert all(len(t) == 4 for t in truth)
            assert sorted(parts) == sorted(truth), f"seed {seed}: {parts}"
            assert _rand_index(parts, truth) == 1.0

            control = build_simulation(
                parse_config(RECOVERY_CONFIG.format(dists=1, seed=seed)))
            control.run()
            fired = [e for e in control.events if e["type"] == "split"]
            assert not fired, f"seed {seed}: control split {fired}"
        assert time.perf_counter() - start < 120.0


# ------------------------------------------- 4: bipartition optimality


def test_criterion_04_bipartition_matches_exhaustive_search():
    """bipartition() attains the exhaustive min-max-cross-similarity
    objective on 200 random symmetric matrices, n <= 8."""
    with criterion(4, "bipartition equals exhaustive min-max-cross search"):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            raw = rng.uniform(-1.0, 1.0, size=(n, n))
            values = (raw + raw.T) / 2.0
            np.fill_diagonal(values, 1.0)
            c1, c2 = bipartition(SimilarityMatrix(tuple(range(n)), values))
            assert sorted(c1 + c2) == list(range(n))
            assert not set(c1) & set(c2)
            achieved = float(values[np.ix_(c1, c2)].max())
            assert achieved == max_cross(values, *exhaustive_bipartition(values, n))
        assert time.perf_counter() - start < 10.0


# ----------------------------- 5 and 6: directional variant comparisons

COMPARATIVE_CONFIG = """
[topology]
edges = 2
devices = 16

[data]
distributions = 2
classes = 4
features = 12
samples_per_device = 250
labeled_fraction = {frac}
max_classes_per_device = 4
holdout_fraction = 0.4

[model]
learning_rate = 0.1

[clustering]
enabled = true
eps1 = 2.5
eps2 = 1.8
split_interval = 10

[ssl]
enabled = true
phi = {phi}
label_interval = 15

[network]
subchannels = 8
deadline_policy = fixed
deadline_s = 1e9

[run]
rounds = 40
seed = {seed}
convergence_window = 50
baseline = {baseline}
"""

FRACTIONS = (0.02, 0.05, 0.10)
SEEDS = (0, 1, 2)
VARIANTS = (
    ("c8", "cfsl", 0.8),
    ("h8", "hfl-ssl", 0.8),
    ("c4", "cfsl", 0.4),
    ("h4", "hfl-ssl", 0.4),
    ("lo", "cfl-labeled-only", 0.8),
)


@pytest.fixture(scope="module")
def comparative_runs():
    """Final metrics row for every (fraction, seed, variant) cell."""
    start = time.perf_counter()
    rows = {}
    for frac in FRACTIONS:
        for seed in SEEDS:
            for key, baseline, phi in VARIANTS:
                cfg = parse_config(COMPARATIVE_CONFIG.format(
                    frac=frac, seed=seed, baseline=baseline, phi=phi))
                sim = build_simulation(cfg)
                sim.run()
                rows[frac, seed, key] = sim.metrics[-1]
    return rows, time.perf_counter() - start


def _seed_mean(rows, frac, key, field):
    vals = []
    for seed in SEEDS:
        v = getattr(rows[frac, seed, key], field)
        vals.append(0.0 if v is None else v)
    return float(np.mean(vals))


def test_criterion_05_labeling_and_accuracy_gains(comparative_runs):
    """Specialized labeling beats shared-model labeling by >= 10 points
    of labeling accuracy, and final test accuracy never falls below
    training on the labeled subset alone."""
    with criterion(5, "labeling accuracy +10pp over shared model; test accuracy"
                      " >= labeled-only"):
        rows, elapsed = comparative_runs
        for frac in FRACTIONS:
            lab_c = _seed_mean(rows, frac, "c8", "labeling_accuracy_mean")
            lab_h = _seed_mean(rows, frac, "h8", "labeling_accuracy_mean")
            assert lab_c >= lab_h + 0.10, (
                f"frac {frac}: labeling {lab_c:.3f} vs shared {lab_h:.3f}")
            acc_c = _seed_mean(rows, frac, "c8", "acc_mean")
            acc_lo = _seed_mean(rows, frac, "lo", "acc_mean")
            assert acc_c >= acc_lo, (
                f"frac {frac}: accuracy {acc_c:.3f} vs labeled-only {acc_lo:.3f}")
        assert elapsed < 600.0


def test_criterion_06_latency_ordering(comparative_runs):
    """Clustered labeling reaches the 90% injection mark sooner than
    shared-model labeling, and a stricter confidence threshold never
    lowers labeling latency within either method."""
    with criterion(6, "labeling latency below shared model; rises with phi"):
        rows, elapsed = comparative_runs
        for frac in FRACTIONS:
            lat_c = _seed_mean(rows, frac, "c8", "mean_labeling_latency_s")
            lat_h = _seed_mean(rows, frac, "h8", "mean_labeling_latency_s")
            assert lat_c < lat_h, f"frac {frac}: {lat_c:.0f}s vs {lat_h:.0f}s"
            lat_c4 = _seed_mean(rows, frac, "c4", "mean_labeling_latency_s")
            lat_h4 = _seed_mean(rows, frac, "h4", "mean_labeling_latency_s")
            assert lat_c >= lat_c4, f"frac {frac}: phi 0.8 {lat_c:.0f}s < 0.4 {lat_c4:.0f}s"
            assert lat_h >= lat_h4, f"frac {frac}: phi 0.8 {lat_h:.0f}s < 0.4 {lat_h4:.0f}s"
        assert elapsed < 600.0


# -------------------------------------- 7: threshold monotonicity


def test_criterion_07_confidence_threshold_monotonicity():
    """Raising the acceptance threshold can only shrink the accepted
    set: whatever clears 0.8 also clears 0.4."""
    with criterion(7, "accepted set at phi=0.8 is a subset of phi=0.4"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            classes = int(rng.integers(2, 7))
            hidden = int(rng.integers(0, 7))
            params = init_params(dim, classes, hidden,
                                 seed=int(rng.integers(1 << 30)), scale=1.0)
            pool = rng.normal(size=(int(rng.integers(5, 41)), dim))
            pool *= rng.uniform(0.5, 3.0)
            strict = pseudo_label(params, pool, 0.8)
            loose = pseudo_label(params, pool, 0.4)
            assert set(strict.indices) <= set(loose.indices)
            assert np.all(strict.confidences >= 0.8)
            assert np.all(loose.confidences >= 0.4)
        assert time.perf_counter() - start < 5.0


# ------------------------------------------------- 8: determinism

SMOKE_CONFIG = """
[topology]
edges = 2
devices = 8

[clustering]
enabled = true
split_interval = 5

[ssl]
enabled = true
phi = 0.8
label_interval = 10

[network]
fading = rayleigh

[run]
rounds = 30
seed = 7
out_dir = {out}
"""


def test_criterion_08_byte_identical_replay(tmp_path):
    """Two runs of the 8-device 30-round smoke setup with one seed write
    byte-identical metrics and event logs."""
    with criterion(8, "same seed replays to byte-identical outputs"):
        start = time.perf_counter()
        blobs = []
        for sub in ("a", "b"):
            cfg = parse_config(SMOKE_CONFIG.format(out=tmp_path / sub))
            res = run_experiment(cfg)
            with open(res.metrics_path, "rb") as fh:
                metrics = fh.read()
            with open(res.events_path, "rb") as fh:
                events = fh.read()
            blobs.append((metrics, events))
        assert blobs[0][0] == blobs[1][0], "metrics files differ"
        assert blobs[0][1] == blobs[1][1], "event logs differ"
        assert time.perf_counter() - start < 120.0


# ------------------------------------- 9: flat-averaging equivalence

FLAT_CONFIG = """
[topology]
edges = 2
devices = 10

[model]
learning_rate = 0.1

[clustering]
enabled = false

[ssl]
enabled = false

[network]
subchannels = 3

[run]
rounds = 20
seed = 3
convergence_window = 50
"""


def test_criterion_09_pre_split_matches_flat_averaging():
    """With splitting and self-labeling off, the orchestrated global
    model is bit-identical, round by round, to a plain loop that trains
    each scheduled device and takes one weighted average."""
    with criterion(9, "global trajectory bit-identical to flat reference loop"):
        start = time.perf_counter()
        cfg = parse_config(FLAT_CONFIG)
        sim = build_simulation(cfg)
        sim.run()
        hashes = {e["round"]: e["global_hash"]
                  for e in sim.events if e["type"] == "round"}
        participating = {}
        for e in sim.events:
            if e["type"] == "schedule":
                keep = [k for k in e["selected"] if k not in e["dropped"]]
                participating.setdefault(e["round"], []).extend(keep)
        assert len(hashes) == 20

        ref = build_simulation(parse_config(FLAT_CONFIG))
        model = ref.global_model
        mdl = cfg.model
        for r in sorted(hashes):
            ks = sorted(participating.get(r, ()))
            if ks:
                updates = [
                    sgd_train([model], [ref.devices[k].train_batch()], mdl.epochs,
                              mdl.batch_size, mdl.learning_rate,
                              [training_seed(cfg.run.seed, r, k)])[0]
                    for k in ks
                ]
                sizes = [labeled_size(ref.devices[k]) for k in ks]
                model = edge_aggregate(updates, sizes)
            digest = hashlib.sha256(
                np.ascontiguousarray(model.weights).tobytes()).hexdigest()
            assert digest == hashes[r], f"round {r}: trajectory diverged"
        assert time.perf_counter() - start < 60.0


# --------------------------------------------- 10: constraint audit

AUDIT_CONFIG = """
[topology]
edges = 2
devices = 12

[data]
distributions = 2
classes = 4
features = 12
samples_per_device = 100
labeled_fraction = 0.3
max_classes_per_device = 4

[model]
learning_rate = 0.1

[clustering]
enabled = true
eps1 = 2.0
eps2 = 2.5
split_interval = 5

[ssl]
enabled = true
phi = 0.4
label_interval = 10

[network]
subchannels = 2
deadline_policy = median
deadline_kappa = 1.3
{budget}

[run]
rounds = 50
seed = 0
convergence_window = 50
baseline = cfsl
"""


def test_criterion_10_scheduling_and_selection_constraints(monkeypatch):
    """Over a 50-round run with a tight deadline: bandwidth shares sum
    to at most 1 per edge-round, dropped devices never contribute to an
    aggregate, every selection is one-hot over exactly the candidates it
    chose from with its 1 on the chosen model, and a time budget stops the
    run within one round of being crossed."""
    with criterion(10, "bandwidth, drop, one-hot, and time-budget constraints hold"):
        start = time.perf_counter()
        offered = []  # each selection's candidate ids, ascending
        scored_against = {}  # each device's candidate ids in its last holdout pass
        holdouts, select = orchestrator.holdout_accuracies, orchestrator.select_best_model

        def recording_holdouts(devices, candidates):
            scored_against.update((dev.device_id, sorted(candidates)) for dev in devices)
            return holdouts(devices, candidates)

        def recording_select(device, *args, **kwargs):
            offered.append(scored_against[device.device_id])
            return select(device, *args, **kwargs)

        monkeypatch.setattr(orchestrator, "holdout_accuracies", recording_holdouts)
        monkeypatch.setattr(orchestrator, "select_best_model", recording_select)
        sim = build_simulation(parse_config(AUDIT_CONFIG.format(budget="")))
        reason = sim.run()
        assert reason == "round budget"

        dropped = {}
        total_drops = 0
        for e in sim.events:
            if e["type"] == "schedule":
                assert e["beta"] * len(e["selected"]) <= 1.0 + 1e-12
                dropped.setdefault(e["round"], set()).update(e["dropped"])
                total_drops += len(e["dropped"])
        assert total_drops > 0, "audit needs at least one deadline drop"

        aggregates = [e for e in sim.events if e["type"] == "aggregate"]
        assert aggregates
        for e in aggregates:
            hit = set(e["contributors"]) & dropped.get(e["round"], set())
            assert not hit, f"round {e['round']}: dropped {hit} aggregated"
            assert all(w > 0 for w in e["weights"])
            assert abs(sum(e["weights"]) - 1.0) <= 1e-12

        selections = [e for e in sim.events if e["type"] == "selection"]
        assert selections, "audit needs at least one labeling selection"
        assert len(selections) == len(offered)
        assert any(len(ids) > 1 for ids in offered), "audit needs a choice among models"
        for e, ids in zip(selections, offered):
            z = list(e["z"].values())
            assert all(v in (0, 1) for v in z)
            assert sum(z) == 1
            assert list(e["z"]) == ids
            assert e["z"][e["chosen_model"]] == 1

        budget = 0.55 * sim.cumulative_time_s
        capped = build_simulation(parse_config(
            AUDIT_CONFIG.format(budget=f"time_budget_s = {budget!r}")))
        reason = capped.run()
        assert reason == "time budget"
        cum = [row.cumulative_time_s for row in capped.metrics]
        assert len(cum) >= 2
        assert cum[-1] >= budget, "run stopped before the budget was spent"
        assert cum[-2] < budget, "run overshot the budget by more than one round"
        assert time.perf_counter() - start < 120.0
