"""Pseudo-labeling checks: thresholding, selection, injection,
labeling accuracy, and the reported objective."""

import math

import numpy as np
import pytest

from cfsl.config import DataConfig, NetworkConfig
from cfsl.data import CORRECT, INJECTED, KNOWN, POOL, make_task_universe, partition_devices
from cfsl.errors import StateError
from cfsl.labeling import (
    PseudoLabelBatch,
    inject,
    objective_value,
    pseudo_label,
    select_best_model,
    utility,
)
from cfsl.models import LabeledBatch, ModelParams, evaluate, sgd_train
from cfsl.network import DeviceRadio, path_gains, schedule_round
from references import (
    as_spans,
    counts,
    labeled_size,
    labeling_accuracy,
    record_pool_passes,
    select_alone,
    unlabeled_remaining,
    zero_params,
)


def device_with_pool(seed=0, labeled_fraction=0.25, samples=40, classes=4, dists=2,
                     holdout_fraction=0.2):
    data = DataConfig(distributions=dists, classes=classes, features=3,
                      samples_per_device=samples, labeled_fraction=labeled_fraction,
                      holdout_fraction=holdout_fraction)
    u = make_task_universe(data, seed)
    return u, partition_devices(u, data, 2, seed)


def trained_on(device, universe, steps=60, seed=0):
    """A model fitted to the device's own distribution via its full truth."""
    feats = np.vstack([device.train.features, device.holdout.features,
                       device.pool_features()])
    labs = np.concatenate([device.train.labels, device.holdout.labels, device.hidden_truth])
    batch = LabeledBatch(feats, labs)
    p = zero_params(universe.dim, universe.n_classes)
    return sgd_train([p], [batch], epochs=steps, batch_size=64, lr=0.5, seeds=[seed])[0]


# ---------------------------------------------------------------- pseudo_label


def test_zero_threshold_accepts_everything():
    p = zero_params(3, 4)
    feats = np.random.default_rng(0).normal(size=(9, 3))
    batch = pseudo_label(p, feats, phi=0.0)
    assert len(batch) == 9
    assert np.array_equal(batch.indices, np.arange(9))


def test_uniform_model_rejects_above_chance():
    # Zero weights give exactly 0.25 confidence on 4 classes; phi=0.4 rejects all.
    p = zero_params(3, 4)
    feats = np.random.default_rng(1).normal(size=(12, 3))
    assert len(pseudo_label(p, feats, phi=0.4)) == 0
    assert len(pseudo_label(p, feats, phi=0.25)) == 12


def test_threshold_monotone_superset():
    rng = np.random.default_rng(2)
    p = ModelParams(rng.normal(size=8), 3, 2)
    for _ in range(100):
        feats = rng.normal(size=(30, 3))
        lo, hi = sorted(rng.uniform(0.5, 1.0, size=2))
        a = set(pseudo_label(p, feats, phi=lo).indices.tolist())
        b = set(pseudo_label(p, feats, phi=hi).indices.tolist())
        assert b <= a


def test_pseudo_label_pool_indices_and_metadata():
    p = zero_params(2, 2)
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    batch = pseudo_label(
        p, feats, phi=0.5, device_id=7, pool_indices=np.array([4, 9]),
    )
    assert np.array_equal(batch.indices, [4, 9])
    assert batch.device_id == 7 and batch.phi == 0.5
    assert np.all(batch.confidences >= 0.5)


def test_pseudo_label_batch_validation():
    with pytest.raises(ValueError):
        PseudoLabelBatch(0, np.array([1, 2]), np.array([0, 0]),
                         np.array([0.9, 0.3]), 0.5)
    with pytest.raises(ValueError, match="align"):
        PseudoLabelBatch(0, np.array([1, 2]), np.array([0]), np.array([0.9, 0.8]), 0.5)
    with pytest.raises(ValueError):
        pseudo_label(zero_params(2, 2), np.zeros((1, 2)), phi=1.5)


# ---------------------------------------------------------------- utility


def test_utility_own_distribution_beats_foreign():
    u, devices = device_with_pool(seed=3)
    dev = devices[0]
    own = trained_on(dev, u)
    foreign = trained_on(devices[1], u)
    phi = 0.4
    mine_acc, _ = utility(0, own, dev, phi)
    theirs_acc, _ = utility(1, foreign, dev, phi)
    assert mine_acc > theirs_acc


def test_utility_empty_pool():
    u, devices = device_with_pool(seed=4, labeled_fraction=1.0)
    dev = devices[0]
    _, coverage = utility(0, zero_params(3, 4), dev, 0.4)
    assert coverage == 0.0


def test_utility_deterministic():
    u, devices = device_with_pool(seed=5)
    dev = devices[0]
    m = trained_on(dev, u)
    assert utility(0, m, dev, 0.4) == utility(0, m, dev, 0.4)


def test_utility_empty_holdout_falls_back(caplog):
    u, devices = device_with_pool(seed=6, holdout_fraction=0.0)
    dev = devices[0]
    assert len(dev.holdout) == 0 and len(dev.train) == 10
    model = trained_on(dev, u)

    def warnings():
        return sum("empty holdout" in r.getMessage() for r in caplog.records)

    with caplog.at_level("WARNING"):
        val_accuracy, _ = utility(0, model, dev, 0.4)
        assert warnings() == 1
        # One warning per selection, however many candidates it scores.
        for n_calls in (2, 3):
            select_alone(dev, {0: model, 1: zero_params(3, 4), 2: model}, 0.4)
            assert warnings() == n_calls
    assert 0.0 <= val_accuracy <= 1.0
    assert val_accuracy == evaluate([model], *as_spans([dev.train]))[0]


# ---------------------------------------------------------------- selection


def test_selection_prefers_accuracy_over_coverage(monkeypatch):
    u, devices = device_with_pool(seed=7)
    dev = devices[0]
    good = trained_on(dev, u)
    bad = zero_params(3, 4)
    loser = utility(5, bad, dev, 0.25)
    winner = utility(9, good, dev, 0.25)
    passes = record_pool_passes(monkeypatch)
    mid, *score, _ = select_alone(dev, {5: bad, 9: good}, 0.25)
    assert (mid, *score) == (9, *winner)
    assert winner[0] > loser[0]
    # The uniform model covers everything at phi=0.25 but loses on accuracy,
    # so selection never runs it over the pool.
    assert loser[1] == 1.0
    assert passes == [[id(good)]]


def test_selection_single_candidate_and_empty_error():
    u, devices = device_with_pool(seed=8)
    dev = devices[0]
    assert select_alone(dev, {3: zero_params(3, 4)}, 0.4)[0] == 3
    with pytest.raises(StateError):
        select_best_model(dev, [], 0.4, (np.zeros((0, 30), int), np.zeros((0, 30))))


def test_selection_ranks_the_given_scores_and_runs_no_model(monkeypatch):
    # Contenders 6 and 4, tied at the best accuracy, in that order: 6
    # covers more at phi = 0.5, and on an empty pool the tie goes to the
    # lower id.
    dev = device_with_pool(seed=8)[1][0]
    classes = np.array([[1, 1, 3], [0, 1, 2]])
    conf = np.array([[0.6, 0.7, 0.5], [0.9, 0.2, 0.5]])
    monkeypatch.setattr("cfsl.labeling.confidences", None)
    monkeypatch.setattr("cfsl.labeling.pool_predictions", None)
    mid, cov, (got_classes, got_conf) = select_best_model(dev, [6, 4], 0.5, (classes, conf))
    assert (mid, cov) == (6, 1.0)
    assert got_classes.tolist() == [1, 1, 3] and got_conf.tolist() == [0.6, 0.7, 0.5]
    # Equal coverage: the lower id.
    assert select_best_model(dev, [6, 4], 0.65, (classes, conf))[:2] == (4, 1 / 3)
    empty = (np.zeros((2, 0), dtype=np.int64), np.zeros((2, 0)))
    assert select_best_model(dev, [6, 4], 0.5, empty)[:2] == (4, 0.0)


def test_selection_tie_breaks_to_lowest_model_id():
    u, devices = device_with_pool(seed=9)
    dev = devices[0]
    m = zero_params(3, 4)
    assert select_alone(dev, {8: m, 2: m, 5: m}, 0.4)[0] == 2


def test_selection_tie_on_accuracy_goes_to_higher_coverage(monkeypatch):
    # Tripling a logistic model's weights scales its logits by about 3: the
    # same holdout accuracy, at higher confidence.
    u, devices = device_with_pool(seed=10)
    dev = devices[0]
    m = trained_on(dev, u, steps=5)
    sharp = m.with_weights(3.0 * m.weights)
    (acc, cov), (sharp_acc, sharp_cov) = utility(2, m, dev, 0.9), utility(7, sharp, dev, 0.9)
    assert acc == sharp_acc and cov < sharp_cov
    passes = record_pool_passes(monkeypatch)
    mid, *score, _ = select_alone(dev, {2: m, 7: sharp}, 0.9)
    assert (mid, *score) == (7, sharp_acc, sharp_cov)
    assert passes == [[id(m), id(sharp)]]


# ---------------------------------------------------------------- injection


def test_inject_moves_counts_per_sum_rule():
    u, devices = device_with_pool(seed=11, labeled_fraction=0.25, samples=40)
    dev = devices[0]
    pool_before = unlabeled_remaining(dev)
    batch = PseudoLabelBatch(
        dev.device_id, np.arange(5), np.array([dev.class_whitelist[0]] * 5),
        np.full(5, 0.99), phi=0.8,
    )
    added = inject(dev, batch)
    assert added == 5
    assert labeled_size(dev) == 10 + 5
    assert unlabeled_remaining(dev) == pool_before - 5
    assert counts(dev)[INJECTED] == 5 and counts(dev)[POOL] == pool_before
    # Conservation: originals plus pool size never change.
    assert len(dev.train) + len(dev.holdout) + dev.injected_labels.size == 40


def test_inject_empty_batch_is_noop():
    u, devices = device_with_pool(seed=12)
    dev = devices[0]
    before = labeled_size(dev)
    batch = pseudo_label(zero_params(3, 4), np.zeros((0, 3)), 0.4, device_id=dev.device_id)
    assert inject(dev, batch) == 0
    assert labeled_size(dev) == before
    assert counts(dev)[INJECTED] == 0


def test_inject_rejects_reinjection_and_bad_indices():
    u, devices = device_with_pool(seed=13)
    dev = devices[0]
    wl = dev.class_whitelist[0]
    first = PseudoLabelBatch(dev.device_id, np.array([2]), np.array([wl]),
                             np.array([0.9]), 0.5)
    inject(dev, first)
    again = PseudoLabelBatch(dev.device_id, np.array([2]), np.array([wl]),
                             np.array([0.9]), 0.5)
    with pytest.raises(StateError):
        inject(dev, again)
    # Frozen label survives the failed attempt.
    assert dev.injected_labels[2] == wl
    out_of_range = PseudoLabelBatch(dev.device_id, np.array([10**6]), np.array([wl]),
                                    np.array([0.9]), 0.5)
    with pytest.raises(ValueError):
        inject(dev, out_of_range)
    wrong_dev = PseudoLabelBatch(dev.device_id + 1, np.array([3]), np.array([wl]),
                                 np.array([0.9]), 0.5)
    with pytest.raises(ValueError):
        inject(dev, wrong_dev)


def test_inject_increases_compute_time():
    u, devices = device_with_pool(seed=14)
    dev = devices[0]
    radio = DeviceRadio(dev.device_id, f_hz=1e9, power_w=0.01, distance_m=4.0, edge_id=0)
    net = NetworkConfig(cycles_per_sample=20.0)

    def compute_time():
        # With no payload the scheduled estimate is the compute time alone.
        entry = schedule_round(net, 1, [radio], path_gains([radio], net),
                               {dev.device_id: labeled_size(dev)}, 0.0, 5)
        return entry.est_times[dev.device_id]

    before = compute_time()
    batch = PseudoLabelBatch(dev.device_id, np.array([0, 1]),
                             np.array([dev.class_whitelist[0]] * 2),
                             np.array([0.9, 0.9]), 0.5)
    inject(dev, batch)
    assert compute_time() > before


# ---------------------------------------------------------------- accuracy metric


def test_labeling_accuracy_undefined_then_counts():
    u, devices = device_with_pool(seed=15)
    dev = devices[0]
    assert labeling_accuracy(dev) is None and counts(dev)[KNOWN] == 0
    truth = dev.hidden_truth[:4]
    labels = truth.copy()
    labels[3] = [c for c in dev.class_whitelist if c != truth[3]][0]
    batch = PseudoLabelBatch(dev.device_id, np.arange(4), labels,
                             np.full(4, 0.9), 0.5)
    inject(dev, batch)
    assert labeling_accuracy(dev) == 0.75
    assert (counts(dev)[KNOWN], counts(dev)[CORRECT]) == (4, 3)


def test_labeling_accuracy_perfect_and_adversarial():
    u, devices = device_with_pool(seed=16)
    dev = devices[0]
    own = trained_on(dev, u)
    idx, feats = dev.pending_features()
    batch = pseudo_label(own, feats, phi=0.9, device_id=dev.device_id,
                         pool_indices=idx)
    assert len(batch) > 0
    inject(dev, batch)
    assert labeling_accuracy(dev) > 0.9

    # A model trained on the permuted distribution mislabels nearly everything
    # it is confident about.
    other = devices[1]
    assert other.distribution_id != dev.distribution_id
    foreign = trained_on(other, u)
    idx2, feats2 = dev.pending_features()
    bad = pseudo_label(foreign, feats2, phi=0.9, device_id=dev.device_id,
                       pool_indices=idx2)
    if len(bad):
        correct_before = labeling_accuracy(dev) * counts(dev)[INJECTED]
        inject(dev, bad)
        wrong_share = (counts(dev)[INJECTED] - correct_before) / counts(dev)[INJECTED]
        assert wrong_share > 0


# ---------------------------------------------------------------- objective


def test_objective_lambda_zero_is_loss_sum():
    losses = {0: 0.5, 1: 1.25}
    assert objective_value(losses, {}, lam=0.0) == 1.75


def test_objective_hand_case():
    losses = {0: 0.5, 1: 1.0}
    # Device 1 never chose a model: 0.5 + 1.0 - 2 * (0.9 * 0.5) = 0.6
    got = objective_value(losses, {0: 0.9 * 0.5}, lam=2.0)
    assert math.isclose(got, 0.6, rel_tol=1e-12)


def test_objective_all_utilities_one():
    losses = {k: 0.0 for k in range(4)}
    utilities = {k: 1.0 for k in range(4)}
    assert objective_value(losses, utilities, lam=1.0) == -4.0
