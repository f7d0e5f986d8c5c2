"""Pseudo-labeling checks: thresholding, utility ranking, injection,
labeling accuracy, and the reported objective."""

import math

import numpy as np
import pytest

from cfsl.data import make_task_universe, partition_devices
from cfsl.errors import StateError
from cfsl.labeling import (
    PseudoLabelBatch,
    SelectionDecision,
    UtilityScore,
    inject,
    labeling_accuracy,
    objective_value,
    pseudo_label,
    select_best_model,
    utility,
)
from cfsl.models import LabeledBatch, ModelParams, evaluate, sgd_train, zero_params
from cfsl.network import compute_time


def device_with_pool(seed=0, labeled_fraction=0.25, samples=40, classes=4, dists=2):
    u = make_task_universe(dists, classes, 3, mode="label-permutation", seed=seed)
    return u, partition_devices(u, 2, samples, labeled_fraction, seed=seed)


def trained_on(device, universe, steps=60, seed=0):
    """A model fitted to the device's own distribution via its full truth."""
    feats = np.vstack([device.labeled.features, device.unlabeled_features])
    labs = np.concatenate([device.labeled.labels, device.hidden_truth])
    batch = LabeledBatch(feats, labs)
    p = zero_params(universe.dim, universe.n_classes)
    return sgd_train(p, batch, epochs=steps, batch_size=64, lr=0.5, seed=seed)


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
        p, feats, phi=0.5, device_id=7, source_model_id=3, round_no=12,
        pool_indices=np.array([4, 9]),
    )
    assert np.array_equal(batch.indices, [4, 9])
    assert batch.device_id == 7 and batch.source_model_id == 3 and batch.round_no == 12
    assert np.all(batch.confidences >= 0.5)


def test_pseudo_label_batch_validation():
    with pytest.raises(ValueError):
        PseudoLabelBatch(0, np.array([1, 1]), np.array([0, 0]),
                         np.array([0.9, 0.9]), 0, 0, 0.5)
    with pytest.raises(ValueError):
        PseudoLabelBatch(0, np.array([1, 2]), np.array([0, 0]),
                         np.array([0.9, 0.3]), 0, 0, 0.5)
    with pytest.raises(ValueError):
        pseudo_label(zero_params(2, 2), np.zeros((1, 2)), phi=1.5)


# ---------------------------------------------------------------- utility


def test_utility_own_distribution_beats_foreign():
    u, devices = device_with_pool(seed=3)
    dev = devices[0]
    own = trained_on(dev, u)
    foreign = trained_on(devices[1], u)
    phi = 0.4
    mine = utility(0, own, dev, phi, f_hz=1e9, inference_cycles_per_sample=20)
    theirs = utility(1, foreign, dev, phi, f_hz=1e9, inference_cycles_per_sample=20)
    assert mine.val_accuracy > theirs.val_accuracy


def test_utility_empty_pool():
    u, devices = device_with_pool(seed=4, labeled_fraction=1.0)
    dev = devices[0]
    score = utility(0, zero_params(3, 4), dev, 0.4, 1e9, 20)
    assert score.coverage == 0.0
    assert score.est_label_latency == 0.0
    assert score.mean_confidence == 0.0


def test_utility_deterministic_and_latency_formula():
    u, devices = device_with_pool(seed=5)
    dev = devices[0]
    m = trained_on(dev, u)
    a = utility(0, m, dev, 0.4, 2e9, 20)
    b = utility(0, m, dev, 0.4, 2e9, 20)
    assert a == b
    assert math.isclose(
        a.est_label_latency, dev.unlabeled_remaining * 20 / 2e9, rel_tol=1e-12
    )


def test_utility_empty_holdout_falls_back(caplog):
    u, devices = device_with_pool(seed=6)
    dev = devices[0]
    dev.holdout_indices = np.array([], dtype=int)
    model = trained_on(dev, u)

    def warnings():
        return sum("empty holdout" in r.getMessage() for r in caplog.records)

    with caplog.at_level("WARNING"):
        score = utility(0, model, dev, 0.4, 1e9, 20)
        assert warnings() == 1
        # One warning per selection, however many candidates it scores.
        for n_calls in (2, 3):
            select_best_model(dev, {0: model, 1: zero_params(3, 4), 2: model}, 0.4, 1e9, 20)
            assert warnings() == n_calls
    assert 0.0 <= score.val_accuracy <= 1.0
    assert score.val_accuracy == evaluate(model, dev.labeled)


def test_utility_score_range_validation():
    with pytest.raises(ValueError):
        UtilityScore(0, 1.2, 0.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        UtilityScore(0, 0.5, 0.5, 0.5, -1.0)


# ---------------------------------------------------------------- selection


def score(mid, acc, cov, lat=1.0):
    return UtilityScore(mid, acc, cov, cov, lat)


def rank_oracle(scores):
    """Independent full sort used to cross-check the selector."""
    return sorted(
        scores, key=lambda s: (-s.val_accuracy, -s.coverage, s.est_label_latency, s.model_id)
    )[0].model_id


def test_selection_prefers_accuracy_over_coverage():
    u, devices = device_with_pool(seed=7)
    dev = devices[0]
    good = trained_on(dev, u)
    bad = zero_params(3, 4)
    decision, scores, _ = select_best_model(dev, {5: bad, 9: good}, 0.25, 1e9, 20)
    loser = utility(5, bad, dev, 0.25, 1e9, 20)
    assert scores[9].val_accuracy > loser.val_accuracy
    # The uniform model covers everything at phi=0.25 but loses on accuracy,
    # so selection never scores it over the pool.
    assert loser.coverage == 1.0
    assert 5 not in scores
    assert decision.chosen_model_id == 9
    assert decision.z == {5: 0, 9: 1}


def test_selection_single_candidate_and_empty_error():
    u, devices = device_with_pool(seed=8)
    dev = devices[0]
    decision, _, _ = select_best_model(dev, {3: zero_params(3, 4)}, 0.4, 1e9, 20)
    assert decision.chosen_model_id == 3
    with pytest.raises(StateError):
        select_best_model(dev, {}, 0.4, 1e9, 20)


def test_selection_tie_breaks_to_lowest_model_id():
    u, devices = device_with_pool(seed=9)
    dev = devices[0]
    m = zero_params(3, 4)
    decision, _, _ = select_best_model(dev, {8: m, 2: m, 5: m}, 0.4, 1e9, 20)
    assert decision.chosen_model_id == 2
    assert decision.z == {2: 1, 5: 0, 8: 0}


def test_selection_matches_full_sort_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        scores = [
            score(int(mid), float(rng.choice([0.3, 0.6, 0.9])),
                  float(rng.choice([0.2, 0.5])), float(rng.choice([1.0, 2.0])))
            for mid in rng.choice(20, size=n, replace=False)
        ]
        ranked = sorted(
            scores,
            key=lambda s: (-s.val_accuracy, -s.coverage, s.est_label_latency, s.model_id),
        )
        assert ranked[0].model_id == rank_oracle(scores)


def test_selection_invariant_to_latency_rescaling():
    # Latency is device-wide here, so scaling it never flips the choice.
    base = [score(1, 0.9, 0.4, 2.0), score(2, 0.9, 0.4, 2.0), score(3, 0.5, 1.0, 0.1)]
    scaled = [score(s.model_id, s.val_accuracy, s.coverage, s.est_label_latency * 7)
              for s in base]
    assert rank_oracle(base) == rank_oracle(scaled)


def test_selection_decision_validation():
    with pytest.raises(ValueError):
        SelectionDecision(0, 1, {1: 1, 2: 1})
    with pytest.raises(ValueError):
        SelectionDecision(0, 1, {1: 0, 2: 0})
    with pytest.raises(ValueError):
        SelectionDecision(0, 1, {1: 0, 2: 1})
    with pytest.raises(ValueError):
        SelectionDecision(0, 1, {1: 2, 2: -1})


# ---------------------------------------------------------------- injection


def test_inject_moves_counts_per_sum_rule():
    u, devices = device_with_pool(seed=11, labeled_fraction=0.25, samples=40)
    dev = devices[0]
    pool_before = dev.unlabeled_remaining
    batch = PseudoLabelBatch(
        dev.device_id, np.arange(5), np.array([dev.class_whitelist[0]] * 5),
        np.full(5, 0.99), source_model_id=1, round_no=3, phi=0.8,
    )
    added = inject(dev, batch)
    assert added == 5
    assert dev.labeled_size == 10 + 5
    assert dev.unlabeled_remaining == pool_before - 5
    # Conservation: originals plus pool size never change.
    assert len(dev.labeled) + dev.injected_mask.size == 40


def test_inject_empty_batch_is_noop():
    u, devices = device_with_pool(seed=12)
    dev = devices[0]
    before = dev.labeled_size
    batch = pseudo_label(zero_params(3, 4), np.zeros((0, 3)), 0.4, device_id=dev.device_id)
    assert inject(dev, batch) == 0
    assert dev.labeled_size == before


def test_inject_rejects_reinjection_and_bad_indices():
    u, devices = device_with_pool(seed=13)
    dev = devices[0]
    wl = dev.class_whitelist[0]
    first = PseudoLabelBatch(dev.device_id, np.array([2]), np.array([wl]),
                             np.array([0.9]), 0, 0, 0.5)
    inject(dev, first)
    again = PseudoLabelBatch(dev.device_id, np.array([2]), np.array([wl]),
                             np.array([0.9]), 0, 1, 0.5)
    with pytest.raises(StateError):
        inject(dev, again)
    # Frozen label survives the failed attempt.
    assert dev.injected_labels[2] == wl
    out_of_range = PseudoLabelBatch(dev.device_id, np.array([10**6]), np.array([wl]),
                                    np.array([0.9]), 0, 0, 0.5)
    with pytest.raises(ValueError):
        inject(dev, out_of_range)
    wrong_dev = PseudoLabelBatch(dev.device_id + 1, np.array([3]), np.array([wl]),
                                 np.array([0.9]), 0, 0, 0.5)
    with pytest.raises(ValueError):
        inject(dev, wrong_dev)


def test_inject_increases_compute_time():
    u, devices = device_with_pool(seed=14)
    dev = devices[0]
    before = compute_time(5, dev.labeled_size, 20, 1e9)
    batch = PseudoLabelBatch(dev.device_id, np.array([0, 1]),
                             np.array([dev.class_whitelist[0]] * 2),
                             np.array([0.9, 0.9]), 0, 0, 0.5)
    inject(dev, batch)
    assert compute_time(5, dev.labeled_size, 20, 1e9) > before


# ---------------------------------------------------------------- accuracy metric


def test_labeling_accuracy_undefined_then_counts():
    u, devices = device_with_pool(seed=15)
    dev = devices[0]
    assert labeling_accuracy(dev) is None
    truth = dev.hidden_truth[:4]
    labels = truth.copy()
    labels[3] = [c for c in dev.class_whitelist if c != truth[3]][0]
    batch = PseudoLabelBatch(dev.device_id, np.arange(4), labels,
                             np.full(4, 0.9), 0, 0, 0.5)
    inject(dev, batch)
    assert labeling_accuracy(dev) == 0.75


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
        correct_before = labeling_accuracy(dev) * dev.n_injected
        inject(dev, bad)
        wrong_share = (dev.n_injected - correct_before) / dev.n_injected
        assert wrong_share > 0


# ---------------------------------------------------------------- objective


def test_objective_lambda_zero_is_loss_sum():
    losses = {0: 0.5, 1: 1.25}
    assert objective_value(losses, {}, {}, lam=0.0) == 1.75


def test_objective_hand_case():
    losses = {0: 0.5, 1: 1.0}
    decision = SelectionDecision(0, 2, {2: 1, 3: 0})
    utilities = {0: {2: score(2, 0.9, 0.5), 3: score(3, 0.1, 1.0)}}
    # 0.5 + 1.0 - 2 * (0.9 * 0.5) = 0.6
    got = objective_value(losses, {0: decision}, utilities, lam=2.0)
    assert math.isclose(got, 0.6, rel_tol=1e-12)


def test_objective_all_utilities_one():
    losses = {k: 0.0 for k in range(4)}
    selections = {k: SelectionDecision(k, 1, {1: 1}) for k in range(4)}
    utilities = {k: {1: score(1, 1.0, 1.0)} for k in range(4)}
    assert objective_value(losses, selections, utilities, lam=1.0) == -4.0
