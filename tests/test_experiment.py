"""Experiment driver: artifact writing, baselines, sweeps, plot tables."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

import cfsl.experiment as experiment
import cfsl.orchestrator as orchestrator
from cfsl.config import override, parse_config
from cfsl.errors import ConfigError
from cfsl.experiment import (
    METRIC_COLUMNS,
    _edge_assignment,
    build_simulation,
    emit_plot_data,
    metrics_rows,
    run_experiment,
    sweep,
)
from cfsl.labeling import inject, pseudo_label
from cfsl.models import gradient, sgd_train
from cfsl.network import dbm_to_watts, device_round_time
from cfsl.seeding import sweep_seed, training_seed

BASE = """
[topology]
edges = 1
devices = 4

[data]
distributions = 2
classes = 3
features = 3
samples_per_device = 30
labeled_fraction = 0.3

[model]
learning_rate = 0.1

[clustering]
eps1 = 0.5
eps2 = 1.5

[run]
rounds = 5
seed = 9
"""


def make_cfg(extra="", out_dir=None, **run):
    """The BASE config plus `extra` text, with `out_dir` and any other
    [run] values set through `override`."""
    if out_dir is not None:
        run["out_dir"] = str(out_dir)
    return override(parse_config(BASE + extra), {f"run.{k}": v for k, v in run.items()})


# ------------------------------------------------------------ schema freeze


def test_metric_columns_frozen():
    # Golden schema: plot tooling and archived CSVs key on these names.
    assert METRIC_COLUMNS == (
        "baseline",
        "seed",
        "labeled_fraction",
        "phi",
        "round",
        "cumulative_time_s",
        "acc_min",
        "acc_mean",
        "acc_max",
        "labeling_accuracy_mean",
        "injected_fraction",
        "clusters",
        "objective",
        "drops",
        "mean_labeling_latency_s",
    )


# ------------------------------------------------------------ building


def test_edge_assignment_schemes():
    assert _edge_assignment(5, 2, "blocks") == [0, 0, 0, 1, 1]
    assert _edge_assignment(5, 2, "round-robin") == [0, 1, 0, 1, 0]
    assert _edge_assignment(4, 4, "blocks") == [0, 1, 2, 3]


def schedule_events(cfg, rounds=2):
    """The `schedule` events of the first `rounds` rounds of `cfg`."""
    sim = build_simulation(cfg)
    for _ in range(rounds):
        sim.run_round()
    return [e for e in sim.events if e["type"] == "schedule"]


def test_auto_subchannels_half_of_members():
    cfg = override(make_cfg(), {"topology.edges": 2, "topology.devices": 5})
    events = schedule_events(cfg)
    assert len(events) == 4
    for e in events:
        q = (2, 1)[e["edge"]]  # blocks of 3 and 2 devices
        assert e["beta"] == 1 / q
        assert len(e["selected"]) == q


def test_explicit_subchannels_respected():
    events = schedule_events(make_cfg("\n[network]\nsubchannels = 4\n"))
    assert len(events) == 2
    for e in events:
        assert e["beta"] == 1 / 4
        assert e["selected"] == [0, 1, 2, 3]


def test_schedule_deadline_follows_the_policy():
    fixed = make_cfg("\n[network]\ndeadline_policy = fixed\ndeadline_s = 0.25\n")
    assert [e["deadline_s"] for e in schedule_events(fixed)] == [0.25, 0.25]
    median = schedule_events(make_cfg("\n[network]\ndeadline_kappa = 1.3\n"))
    assert len(median) == 2
    for e in median:
        est = [e["est_times"][d] for d in e["selected"]]
        assert e["deadline_s"] == 1.3 * float(np.median(est))


def upload_times(sim):
    """Each device's estimated upload time on the whole band of its edge."""
    return [
        device_round_time(radio, 1.0, sim.config.network, sim.payload_bits, 1, 1)[1]
        for radio in sim.radios
    ]


def test_ref_gain_db_shortens_every_upload():
    base = upload_times(build_simulation(make_cfg("\n[network]\nref_gain_db = -40\n")))
    louder = upload_times(build_simulation(make_cfg("\n[network]\nref_gain_db = -30\n")))
    assert len(base) == 4
    assert all(b < a for a, b in zip(base, louder))


def test_test_set_has_configured_rows():
    for rows in (1, 7, 63):
        sim = build_simulation(override(make_cfg(), {"data.test_samples_per_device": rows}))
        assert [len(d.test) for d in sim.devices] == [rows] * 4


def test_narrow_radio_ranges_bound_every_radio():
    cfg = make_cfg(
        "\n[network]\n"
        "cpu_min_hz = 3e9\ncpu_max_hz = 3.2e9\n"
        "power_min_dbm = 5\npower_max_dbm = 6\n"
        "distance_min_m = 20\ndistance_max_m = 21\n"
    )
    cfg = override(cfg, {"topology.devices": 24})
    radios = build_simulation(cfg).radios
    assert len(radios) == 24
    for r in radios:
        assert 3e9 <= r.f_hz <= 3.2e9
        assert dbm_to_watts(5) <= r.power_w <= dbm_to_watts(6)
        assert 20 <= r.distance_m <= 21


def test_use_weight_deltas_makes_the_split_signal_the_weight_delta():
    # Small minibatches, so that local training takes several steps.
    text = BASE.replace("[model]\n", "[model]\nbatch_size = 4\n")
    deltas = build_simulation(parse_config(
        text.replace("[clustering]\n", "[clustering]\nuse_weight_deltas = true\n")
    ))
    plain = build_simulation(parse_config(text))
    tr, seed, r = deltas.config.model, deltas.config.run.seed, 3
    for sim in (deltas, plain):
        node = sim.tree.root_of_edge(0)
        members = sorted(node.members)
        # Pseudo-labels give the members different train sizes.
        for k, count in zip(members, (0, 5, 2, 5)):
            idx, feats = sim.devices[k].pending_features()
            inject(sim.devices[k], pseudo_label(node.model, feats[:count], 0.0, device_id=k,
                                                pool_indices=idx[:count]))
        assert len({sim.devices[k].train_size for k in members}) == 3
        signals = sim._split_signals(node, members, r)
        assert list(signals) == members == [0, 1, 2, 3]
        for k in members:
            batch = sim.devices[k].train_batch()
            if sim is deltas:
                (after,) = sgd_train([node.model], [batch], tr.epochs, tr.batch_size,
                                     tr.learning_rate, [training_seed(seed, r, k)])
                want = node.model.weights - after.weights
            else:
                (want,) = gradient([node.model], [batch])
            assert np.array_equal(signals[k], want)


def feature_spread(sim):
    """Root-mean-square distance of every labeled and test feature row from
    the mean of its (distribution, class) group over all devices."""
    groups = {}
    for dev in sim.devices:
        for batch in (dev.labeled, dev.test):
            for row, label in zip(batch.features, batch.labels):
                groups.setdefault((dev.distribution_id, int(label)), []).append(row)
    sq = [((np.array(rows) - np.mean(rows, axis=0)) ** 2).sum(axis=1) for rows in groups.values()]
    return float(np.sqrt(np.concatenate(sq).mean()))


def test_noise_scale_sets_the_feature_spread_around_class_means():
    spreads = {}
    for noise in (0.25, None):
        text = BASE if noise is None else BASE.replace(
            "[data]\n", f"[data]\nnoise_scale = {noise}\n"
        )
        cfg = override(parse_config(text), {"topology.devices": 16})
        spreads[noise] = feature_spread(build_simulation(cfg))
    # Spread is proportional to the noise scale; the default is 1.0.
    assert spreads[0.25] < 0.5 * spreads[None]
    assert 0.15 < spreads[0.25] / spreads[None] < 0.35


def test_baseline_variants():
    full = build_simulation(make_cfg())
    assert full.config.clustering.enabled and full.config.ssl.enabled

    sim = build_simulation(make_cfg(baseline="cfl-fully-labeled"))
    assert not sim.config.ssl.enabled
    assert sim.config.clustering.enabled
    assert all(d.unlabeled_features.shape[0] == 0 for d in sim.devices)

    sim = build_simulation(make_cfg(baseline="cfl-labeled-only"))
    assert not sim.config.ssl.enabled
    assert sim.config.clustering.enabled
    assert any(d.unlabeled_features.shape[0] > 0 for d in sim.devices)

    sim = build_simulation(make_cfg(baseline="hfl-ssl"))
    assert not sim.config.clustering.enabled
    assert sim.config.ssl.enabled and sim.use_global_model

    sim = build_simulation(make_cfg(baseline="hfl-labeled-only"))
    assert not sim.config.clustering.enabled and not sim.config.ssl.enabled


# ------------------------------------------------------------ run artifacts


def test_run_writes_expected_artifacts(tmp_path):
    res = run_experiment(make_cfg(out_dir=tmp_path / "out"))
    assert len(res.rows) == 5
    assert res.reason == "round budget"

    with open(res.metrics_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "cfsl"
    assert first[1] == "9"
    assert first[4] == "1"

    with open(res.events_path) as fh:
        events = [json.loads(line) for line in fh]
    assert events[0]["type"] == "run_header"
    assert events[0]["seed"] == 9
    assert events[0]["config"]["data"]["labeled_fraction"] == 0.3
    assert "out_dir" not in events[0]["config"]["run"]
    assert events[0]["config"]["network"]["time_budget_s"] == "inf"
    assert events[-1]["type"] == "termination"
    assert sum(e["type"] == "round" for e in events) == 5

    leftovers = [p for p in os.listdir(res.out_dir) if p.endswith(".tmp")]
    assert leftovers == []


def test_interleaved_atomic_writes_of_one_path_both_land(tmp_path, monkeypatch):
    # A second write of the same path runs while the first is between its
    # temp file and os.replace, as when two runs share an out_dir.
    path = str(tmp_path / "metrics.csv")
    first, second = "first\n" * 1000, "second\n" * 1000
    real_replace = os.replace
    calls = []

    def replace(src, dst):
        calls.append(src)
        if len(calls) == 1:
            experiment._atomic_write(path, second)
        real_replace(src, dst)

    monkeypatch.setattr(experiment.os, "replace", replace)
    experiment._atomic_write(path, first)
    assert len(calls) == 2 and calls[0] != calls[1]
    with open(path) as fh:
        assert fh.read() in (first, second)
    assert os.listdir(tmp_path) == ["metrics.csv"]


def test_failed_atomic_write_keeps_old_file_and_no_temp(tmp_path):
    path = str(tmp_path / "events.jsonl")
    experiment._atomic_write(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        experiment._atomic_write(path, "new \ud800\n")
    with open(path) as fh:
        assert fh.read() == "old\n"
    assert os.listdir(tmp_path) == ["events.jsonl"]


def test_atomic_write_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        experiment._atomic_write(str(tmp_path / "a.csv"), "x\n")
        with open(tmp_path / "b.csv", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "a.csv").st_mode == os.stat(tmp_path / "b.csv").st_mode


def test_same_config_byte_identical_outputs(tmp_path):
    a = run_experiment(make_cfg(out_dir=tmp_path / "a"))
    b = run_experiment(make_cfg(out_dir=tmp_path / "b"))
    with open(a.metrics_path, "rb") as fh:
        ma = fh.read()
    with open(b.metrics_path, "rb") as fh:
        mb = fh.read()
    assert ma == mb
    with open(a.events_path, "rb") as fh:
        ea = fh.read()
    with open(b.events_path, "rb") as fh:
        eb = fh.read()
    assert ea == eb


# sha256 of the README quick-start run's artifacts (metrics.csv, events.jsonl)
# under each baseline. They are exact bytes of floating-point results, so the
# pin assumes the numpy/BLAS build that recorded it (numpy 2.4, OpenBLAS,
# x86-64); on another build a mismatch may mean a different last digit rather
# than a changed algorithm.
README_DEMO_DIGESTS = {
    "cfsl": (
        "741ce74c52f1d4b9ffc5913c38beecab5fe443745b42ed98c3447a879e393846",
        "7094bacc1e27ba3ba34c5bbac1aa6814ce325857551b0e43a954233b8f817b22",
    ),
    "cfl-fully-labeled": (
        "06e4cbe25237eb0056326b92832e63872e3157dfad8031755c1ea85d1b84bc5d",
        "5d2d1a6767a924640a6ba8098527e922ecf7b0b0d4939ea6265c7faf3739994d",
    ),
    "cfl-labeled-only": (
        "5b024b06e58cb0ac7509dcdcc8991957dc8446c46ee06fda102d0032a5a40bdf",
        "0de588fca903ed07d67925ea50ff8c35901c500f7b38face19edc7b35edef4cb",
    ),
    "hfl-ssl": (
        "7d940a4eba66b9342bb663110aaabde49d21558e0588732aefbc5cdedb3f7460",
        "91d7bd28692b4a7931708469cf902dec0531d3ea6d81899059ed2d9a972824fe",
    ),
    "hfl-labeled-only": (
        "03e1c23a4cc62f60f8c5ba1215d53e98ca76fec1f5cd27ef03e3526c21209b18",
        "40a9ec0989d8d301dcaf92531f7a85afb64a3f69cbd847473a5ab21dd2046ff5",
    ),
}


@pytest.mark.parametrize("baseline", sorted(README_DEMO_DIGESTS))
def test_readme_demo_digests_pinned(tmp_path, baseline):
    """A speed-up must not change results: the README demo config (its
    `ini` block) still writes byte-identical artifacts under every
    baseline."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    demo = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = override(parse_config(demo), {"run.out_dir": str(tmp_path), "run.baseline": baseline})
    res = run_experiment(cfg)
    digests = []
    for path in (res.metrics_path, res.events_path):
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert tuple(digests) == README_DEMO_DIGESTS[baseline]


# sha256 of (metrics.csv, events.jsonl) for two selection paths the README
# demo does not take, recorded before selection stopped scoring the pool for
# candidates that lose on holdout accuracy; same numpy/BLAS caveat as above.
# Edge scope: the demo with each device choosing among its own edge's clusters.
DEMO_EDGE_SCOPE_DIGESTS = (
    "b45a9490ef0a0f7781f223707135864a9a816caad06c693a1d21597c9168da12",
    "8e1dea5fa993e1ab17590d7ab44e93f2c64e906ab4b01cfe8ddf5e011de5074f",
)
# Self-labeling: 2% labels give every device a 2-row holdout, so candidates
# often tie on holdout accuracy, and it labels every 2 rounds.
SELFLABEL_PIN = """
[topology]
edges = 4
devices = 32

[data]
seed = 0
distributions = 4
classes = 6
features = 16
samples_per_device = 400
labeled_fraction = 0.02
separation = 3.0

[model]
epochs = 2

[clustering]
split_interval = 5

[ssl]
phi = 0.9
label_interval = 2

[network]
deadline_policy = fixed
deadline_s = 12

[run]
rounds = 20
convergence_window = 21
seed = 0
"""
SELFLABEL_PIN_DIGESTS = (
    "45b26e85457ddf70edefe123192a7c9dd1aaeb658bf1d427563c78a38c36bbbe",
    "7e1d94baca49f7c8fbebab907f7a9fa366a3b1dceed876d92e062423329df364",
)


def artifact_digests(res):
    digests = []
    for path in (res.metrics_path, res.events_path):
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(digests)


def test_demo_edge_scope_digests_pinned(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        demo = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = override(parse_config(demo),
                   {"run.out_dir": str(tmp_path), "ssl.candidate_scope": "edge"})
    assert artifact_digests(run_experiment(cfg)) == DEMO_EDGE_SCOPE_DIGESTS


def test_selflabel_digests_pinned(tmp_path):
    cfg = override(parse_config(SELFLABEL_PIN), {"run.out_dir": str(tmp_path)})
    res = run_experiment(cfg)
    with open(res.events_path) as fh:
        selections = [e for e in map(json.loads, fh) if e["type"] == "selection"]
    assert sum(len(e["z"]) >= 5 for e in selections) >= 50
    assert artifact_digests(res) == SELFLABEL_PIN_DIGESTS


def test_clusters_without_an_update_log_one_warning_per_round(tmp_path, caplog):
    # In the pin, the lone members of clusters 5 and 9 are never scheduled
    # after the round-5 split, and cluster 7 gets no update until round 11.
    cfg = override(parse_config(SELFLABEL_PIN), {"run.out_dir": str(tmp_path)})
    with caplog.at_level("WARNING", logger="cfsl.orchestrator"):
        run_experiment(cfg)
    idle = [rec.args for rec in caplog.records if "no device update" in rec.getMessage()]
    assert idle == [(r, [5, 7, 9]) for r in range(6, 11)] + [(r, [5, 9]) for r in range(11, 21)]


def test_label_latency_is_the_pool_inference_time_and_only_logged(tmp_path, monkeypatch):
    # est_label_latency_s prices one pass over the device's pending rows on
    # its CPU. No selection, simulated time or metric depends on it, so
    # doubling the cycles doubles that field and changes nothing else.
    pending = []
    select = orchestrator.select_best_model

    def recording_select(device, *args):
        pending.append(device.unlabeled_remaining)
        return select(device, *args)

    monkeypatch.setattr(orchestrator, "select_best_model", recording_select)
    artifacts = []
    for cycles in (20.0, 40.0):
        pending.clear()
        cfg = override(parse_config(SELFLABEL_PIN), {
            "run.out_dir": str(tmp_path / str(cycles)), "run.rounds": 12,
            "ssl.inference_cycles_per_sample": cycles,
        })
        res = run_experiment(cfg)
        selections = [e for e in res.sim.events if e["type"] == "selection"]
        assert len(selections) == len(pending) >= 50
        for ev, n in zip(selections, pending):
            assert ev["est_label_latency_s"] == n * cycles / res.sim.radios[ev["device"]].f_hz
        with open(res.metrics_path, "rb") as fh, open(res.events_path) as gh:
            artifacts.append((fh.read(), [json.loads(line) for line in gh]))

    (metrics, events), (metrics2, events2) = artifacts
    assert metrics == metrics2
    assert len(events) == len(events2)
    header, header2 = events[0], events2[0]
    assert header2["config"]["ssl"].pop("inference_cycles_per_sample") == 40.0
    header["config"]["ssl"].pop("inference_cycles_per_sample")
    assert header == header2
    doubled = 0
    for ev, ev2 in zip(events[1:], events2[1:]):
        if ev["type"] == "selection":
            assert ev2.pop("est_label_latency_s") == 2 * ev.pop("est_label_latency_s") > 0
            doubled += 1
        assert ev == ev2
    assert doubled == len(pending)


def test_infinite_estimate_is_written_as_string(tmp_path):
    # At -400 dB the SNR underflows, every rate is 0 and every upload
    # estimate infinite; events.jsonl must still be strict JSON.
    res = run_experiment(make_cfg("\n[network]\nref_gain_db = -400\n", out_dir=tmp_path))

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    with open(res.events_path) as fh:
        events = [json.loads(line, parse_constant=reject) for line in fh]
    schedules = [e for e in events if e["type"] == "schedule"]
    assert schedules
    for ev in schedules:
        assert set(ev["est_times"].values()) == {"inf"}


def test_seed_changes_metrics(tmp_path):
    a = run_experiment(make_cfg(out_dir=tmp_path / "a"))
    b = run_experiment(make_cfg(out_dir=tmp_path / "b", seed=10))
    assert [r["acc_mean"] for r in a.rows] != [r["acc_mean"] for r in b.rows]


def test_fully_labeled_baseline_rows(tmp_path):
    res = run_experiment(make_cfg(out_dir=tmp_path / "out", baseline="cfl-fully-labeled"))
    for row in res.rows:
        assert row["labeled_fraction"] == 1.0
        assert row["injected_fraction"] == 1.0  # no pool left to label
        assert row["labeling_accuracy_mean"] is None


def test_none_metrics_serialize_as_empty_field(tmp_path):
    res = run_experiment(make_cfg(out_dir=tmp_path / "out", baseline="hfl-labeled-only"))
    with open(res.metrics_path) as fh:
        lines = fh.read().splitlines()
    col = METRIC_COLUMNS.index("labeling_accuracy_mean")
    assert all(line.split(",")[col] == "" for line in lines[1:])
    clusters = METRIC_COLUMNS.index("clusters")
    assert all(line.split(",")[clusters] == "0" for line in lines[1:])


def test_csv_mode_run(tmp_path):
    rows = ["f0,f1,label"]
    for i in range(8):
        rows.append(f"{0.1 * i},{1.0 - 0.1 * i},{i % 2}")
    for i in range(4):
        rows.append(f"{0.5 + 0.1 * i},{0.3},")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n")

    cfg = parse_config(
        f"""
[topology]
edges = 1
devices = 2
[data]
mode = csv
csv_path = {data_path}
features = 2
classes = 2
[ssl]
phi = 0.0
label_interval = 1
[clustering]
enabled = false
[run]
rounds = 3
seed = 3
baseline = hfl-ssl
"""
    )
    res = run_experiment(override(cfg, {"run.out_dir": str(tmp_path / "out")}))
    sim = res.sim
    assert [len(d.labeled) for d in sim.devices] == [4, 4]
    assert [d.unlabeled_features.shape[0] for d in sim.devices] == [2, 2]
    assert all(d.distribution_id == -1 for d in sim.devices)
    # phi=0 labels the whole pool at round 1, but truth is unknown so
    # labeling accuracy stays undefined.
    assert res.rows[-1]["injected_fraction"] == 1.0
    assert all(r["labeling_accuracy_mean"] is None for r in res.rows)


def test_csv_mode_oracle(tmp_path):
    # Known rows: labeled row j is (j, -j) with label j % 3, unlabeled row j
    # is (100 + j, 0.5); the two kinds are interleaved in the file.
    n_devices, labeled_rows, pool_rows = 3, 12, 7
    lines = ["f0,f1,label"]
    for j in range(max(labeled_rows, pool_rows)):
        if j < labeled_rows:
            lines.append(f"{j}.0,{-j}.0,{j % 3}")
        if j < pool_rows:
            lines.append(f"{100 + j}.0,0.5,")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(lines) + "\n")
    text = f"""
[topology]
edges = 1
devices = {n_devices}
[data]
mode = csv
csv_path = {data_path}
features = 2
classes = 3
holdout_fraction = 0.5
[ssl]
phi = 0.0
label_interval = 1
[run]
rounds = 3
seed = 4
baseline = hfl-ssl
"""
    cfg = parse_config(text)
    sim = build_simulation(cfg)
    for k, dev in enumerate(sim.devices):
        # Round-robin deal in file order, separately for the two kinds.
        own = list(range(k, labeled_rows, n_devices))
        assert dev.labeled.features.tolist() == [[float(j), float(-j)] for j in own]
        assert dev.labeled.labels.tolist() == [j % 3 for j in own]
        pool = list(range(k, pool_rows, n_devices))
        assert dev.unlabeled_features.tolist() == [[100.0 + j, 0.5] for j in pool]
        assert dev.hidden_truth.tolist() == [-1] * len(pool)
        # The holdout doubles as the test set.
        assert len(dev.holdout_indices) == 2
        assert np.array_equal(dev.test.features, dev.holdout_batch().features)
        assert np.array_equal(dev.test.labels, dev.holdout_batch().labels)
    # Without a holdout the whole labeled set is the test set.
    no_holdout = build_simulation(override(cfg, {"data.holdout_fraction": 0.0}))
    assert all(np.array_equal(d.test.features, d.labeled.features) for d in no_holdout.devices)

    runs = [run_experiment(override(cfg, {"run.out_dir": str(tmp_path / name)}))
            for name in ("a", "b")]
    assert runs[0].rows[-1]["injected_fraction"] == 1.0
    with open(runs[0].metrics_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col = METRIC_COLUMNS.index("labeling_accuracy_mean")
    assert len(lines) == 4 and all(line.split(",")[col] == "" for line in lines[1:])
    for name in ("metrics.csv", "events.jsonl"):
        with open(tmp_path / "a" / name, "rb") as a, open(tmp_path / "b" / name, "rb") as b:
            assert a.read() == b.read()


def test_csv_mode_needs_enough_labeled_rows(tmp_path):
    data_path = tmp_path / "data.csv"
    data_path.write_text("0.0,1.0,0\n")
    cfg = parse_config(
        f"""
[topology]
edges = 1
devices = 2
[data]
mode = csv
csv_path = {data_path}
features = 2
classes = 2
[run]
rounds = 1
"""
    )
    with pytest.raises(ConfigError) as exc:
        build_simulation(cfg)
    assert "data.csv_path" in str(exc.value)


def test_csv_mode_holdout_must_leave_training_rows(tmp_path):
    # Two labeled rows per device; holding out round(0.9 * 2) = 2 of them
    # leaves none to train on, as the synthetic rule forbids.
    data_path = tmp_path / "data.csv"
    data_path.write_text("".join(f"{k}.0,1.0,{k % 2}\n" for k in range(4)) + "0.5,0.5,\n")
    text = f"""
[topology]
edges = 1
devices = 2
[data]
mode = csv
csv_path = {data_path}
features = 2
classes = 2
holdout_fraction = {{holdout}}
[run]
rounds = 1
out_dir = {tmp_path / "out"}
"""
    with pytest.raises(ConfigError) as exc:
        build_simulation(parse_config(text.format(holdout=0.9)))
    assert "data.holdout_fraction" in str(exc.value)
    assert run_experiment(parse_config(text.format(holdout=0.4))).rows


# ------------------------------------------------------------ sweep


def test_sweep_derives_seeds_and_concatenates(tmp_path):
    cfg = make_cfg("\n[ssl]\nlabel_interval = 2\n", out_dir=tmp_path / "sw", rounds=3)
    summary = sweep(cfg, "phi", ["0.4", "0.8"])
    assert summary["completed"] == ["0.4", "0.8"]
    assert summary["failed"] == {}

    for token in ("0.4", "0.8"):
        sub = tmp_path / "sw" / f"phi={token}"
        with open(sub / "events.jsonl") as fh:
            header = json.loads(fh.readline())
        assert header["seed"] == sweep_seed(9, "phi", float(token))
        assert header["config"]["ssl"]["phi"] == float(token)

    with open(summary["combined_path"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "axis," + ",".join(METRIC_COLUMNS)
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("phi=0.4,")
    assert lines[4].startswith("phi=0.8,")

    with open(tmp_path / "sw" / "sweep_summary.json") as fh:
        stored = json.load(fh)
    assert stored["completed"] == ["0.4", "0.8"]


def test_sweep_seed_axis_uses_values_directly(tmp_path):
    cfg = make_cfg(out_dir=tmp_path / "sw", rounds=2)
    summary = sweep(cfg, "seed", [3, 4])
    for token in ("3", "4"):
        with open(tmp_path / "sw" / f"seed={token}" / "events.jsonl") as fh:
            header = json.loads(fh.readline())
        assert header["seed"] == int(token)
    assert summary["completed"] == ["3", "4"]


def test_sweep_validates_axis_and_values(tmp_path):
    cfg = make_cfg(out_dir=tmp_path / "sw")
    with pytest.raises(ConfigError):
        sweep(cfg, "epochs", [1, 2])
    with pytest.raises(ConfigError):
        sweep(cfg, "phi", [])
    with pytest.raises(ConfigError):
        sweep(cfg, "phi", ["1.5"])
    with pytest.raises(ConfigError):
        sweep(cfg, "labeled_fraction", ["0"])
    with pytest.raises(ConfigError):
        sweep(cfg, "seed", ["3.5"])


def test_sweep_value_checked_like_a_file_value(tmp_path):
    # 5% of 40 samples is 2 labeled; a 0.9 holdout takes both. The file's
    # 50% passes, so only the swept value can trip the check, and it must
    # do so before any run starts.
    cfg = override(make_cfg(out_dir=tmp_path / "sw", rounds=1), {
        "data.samples_per_device": 40, "data.labeled_fraction": 0.5, "data.holdout_fraction": 0.9,
    })
    with pytest.raises(ConfigError) as exc:
        sweep(cfg, "labeled_fraction", ["0.5", "0.05"])
    assert "data.holdout_fraction" in str(exc.value)
    assert not (tmp_path / "sw").exists()


def test_sweep_negative_seed_rejected_before_any_run(tmp_path):
    cfg = make_cfg(out_dir=tmp_path / "sw", rounds=1)
    with pytest.raises(ConfigError) as exc:
        sweep(cfg, "seed", ["1", "-1"])
    assert "run.seed" in str(exc.value)
    assert not (tmp_path / "sw").exists()


def test_sweep_repeated_value_rejected_before_any_run(tmp_path):
    # Three spellings of one value would run one experiment three times
    # into the same directory.
    cfg = make_cfg(out_dir=tmp_path / "sw", rounds=1)
    with pytest.raises(ConfigError) as exc:
        sweep(cfg, "labeled_fraction", ["0.5", "0.50", "5e-1"])
    assert exc.value.key == "sweep.values"
    assert not (tmp_path / "sw").exists()
    with pytest.raises(ConfigError):
        sweep(cfg, "seed", ["3", "03"])


def test_sweep_continues_past_failing_run(tmp_path, monkeypatch):
    real = experiment.build_simulation

    def flaky(cfg):
        if cfg.ssl.phi == 0.5:
            raise RuntimeError("injected fault")
        return real(cfg)

    monkeypatch.setattr(experiment, "build_simulation", flaky)
    cfg = make_cfg(out_dir=tmp_path / "sw", rounds=2)
    summary = sweep(cfg, "phi", ["0.4", "0.5", "0.8"])
    assert summary["completed"] == ["0.4", "0.8"]
    assert list(summary["failed"]) == ["0.5"]
    assert "injected fault" in summary["failed"]["0.5"]
    with open(summary["combined_path"]) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert not any("phi=0.5" in line for line in lines)


def test_phi_sweep_low_threshold_labels_no_less(tmp_path):
    cfg = make_cfg("\n[ssl]\nlabel_interval = 2\n", out_dir=tmp_path / "sw", rounds=4,
                   baseline="hfl-ssl")
    summary = sweep(cfg, "phi", ["0.0", "0.999"])
    assert summary["failed"] == {}
    final = {}
    for token in ("0.0", "0.999"):
        sub = tmp_path / "sw" / f"phi={token}"
        res_rows = list(open(sub / "metrics.csv"))
        last = res_rows[-1].split(",")
        final[token] = float(last[METRIC_COLUMNS.index("injected_fraction")])
    assert final["0.0"] == 1.0
    assert final["0.0"] >= final["0.999"]


# ------------------------------------------------------------ plot tables


PLOT_HEADER = ",".join(METRIC_COLUMNS)

PLOT_ROWS = "\n".join(
    [
        PLOT_HEADER,
        # run A: two rounds, only the final one may count
        "cfsl,1,0.1,0.8,1,10.0,0.1,0.3,0.5,,0.2,2,1.0,0,5.0",
        "cfsl,1,0.1,0.8,2,20.0,0.25,0.5,0.75,0.5,0.6,2,0.9,0,4.0",
        # run B: one round
        "cfsl,2,0.1,0.8,2,21.0,0.75,1.0,1.0,,0.7,2,0.8,1,6.0",
        # run C: different baseline
        "hfl-labeled-only,1,0.1,0.8,1,12.0,0.3,0.4,0.5,,0.0,0,1.1,0,0.0",
    ]
) + "\n"


def test_plot_accuracy_hand_aggregation(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(PLOT_ROWS)
    out, rows = emit_plot_data(str(path), "accuracy")
    assert os.path.exists(out)
    assert rows == [
        {
            "baseline": "cfsl",
            "labeled_fraction": "0.1",
            "acc_min": 0.5,
            "acc_mean": 0.75,
            "acc_max": 0.875,
            "n_runs": 2,
        },
        {
            "baseline": "hfl-labeled-only",
            "labeled_fraction": "0.1",
            "acc_min": 0.3,
            "acc_mean": 0.4,
            "acc_max": 0.5,
            "n_runs": 1,
        },
    ]
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "baseline,labeled_fraction,acc_min,acc_mean,acc_max,n_runs"
    assert lines[1] == "cfsl,0.1,0.5,0.75,0.875,2"


def test_plot_labeling_accuracy_skips_empty_values(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(PLOT_ROWS)
    _, rows = emit_plot_data(str(path), "labeling-accuracy")
    by_baseline = {r["baseline"]: r for r in rows}
    assert by_baseline["cfsl"]["labeling_accuracy_mean"] == 0.5
    assert by_baseline["cfsl"]["n_runs"] == 1
    assert by_baseline["hfl-labeled-only"]["labeling_accuracy_mean"] is None
    assert by_baseline["hfl-labeled-only"]["n_runs"] == 0


def test_plot_labeling_latency(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(PLOT_ROWS)
    _, rows = emit_plot_data(str(path), "labeling-latency")
    by_baseline = {r["baseline"]: r for r in rows}
    assert by_baseline["cfsl"]["mean_labeling_latency_s"] == 5.0  # (4 + 6) / 2
    assert by_baseline["cfsl"]["n_runs"] == 2


def test_plot_empty_metrics_gives_empty_table(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(PLOT_HEADER + "\n")
    out, rows = emit_plot_data(str(path), "accuracy")
    assert rows == []
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1


def test_plot_rejects_missing_columns(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("baseline,round\ncfsl,1\n")
    with pytest.raises(ValueError) as exc:
        emit_plot_data(str(path), "accuracy")
    assert "missing columns" in str(exc.value)


def test_plot_rejects_unknown_figure(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(PLOT_ROWS)
    with pytest.raises(ConfigError):
        emit_plot_data(str(path), "loss")


def test_metrics_rows_match_simulation(tmp_path):
    cfg = make_cfg(out_dir=tmp_path / "out")
    res = run_experiment(cfg)
    again = metrics_rows(cfg, res.sim)
    assert again == res.rows
    assert [r["round"] for r in again] == [1, 2, 3, 4, 5]
