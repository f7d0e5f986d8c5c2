"""Model-core checks: frozen numeric oracles plus randomized invariants."""

import math

import mpmath
import numpy as np
import pytest

from cfsl import models
from cfsl.models import (
    LabeledBatch,
    ModelParams,
    confidences,
    evaluate,
    gradient,
    init_params,
    loss,
    param_count,
    sgd_train,
)
from references import forward, zero_params


def make_batch(rng, n, d, c):
    return LabeledBatch(rng.normal(size=(n, d)), rng.integers(0, c, size=n))


def random_params(rng, d, c, hidden=0, scale=0.5):
    n = param_count(d, c, hidden)
    return ModelParams(rng.uniform(-scale, scale, size=n), d, c, hidden)


# ---------------------------------------------------------------- shapes


def test_param_count_matches_layout():
    assert param_count(4, 3) == 15
    assert param_count(4, 3, hidden=8) == 4 * 8 + 8 + 8 * 3 + 3


def test_params_reject_wrong_length():
    with pytest.raises(ValueError):
        ModelParams(np.zeros(14), 4, 3)


def test_size_bits_counts_all_parameters():
    p = zero_params(4, 3, hidden=8)
    assert p.size_bits == param_count(4, 3, 8) * 32


def test_batch_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        LabeledBatch(np.zeros((3, 2)), np.zeros(2, dtype=int))


def test_gradient_rejects_nan():
    p = ModelParams(np.array([1.0, np.nan, 0.0, 0.0]), 1, 2)
    batch = LabeledBatch(np.array([[1.0], [2.0], [-1.0]]), np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="gradient contains non-finite entries"):
        gradient([p], [batch])


# ---------------------------------------------------------------- forward / loss


def test_zero_weights_give_uniform_probabilities():
    p = zero_params(5, 4)
    x = np.random.default_rng(0).normal(size=(7, 5))
    probs = forward(p, x)
    assert np.allclose(probs, 0.25)


def test_zero_weight_loss_is_log_c():
    for c in (2, 3, 7):
        p = zero_params(3, c)
        rng = np.random.default_rng(c)
        batch = make_batch(rng, 10, 3, c)
        assert math.isclose(loss([p], [batch])[0], math.log(c), rel_tol=1e-12)


def test_forward_matches_high_precision_softmax():
    # Hand-specified 1-sample logistic case checked against 50-digit arithmetic.
    w = np.array([0.3, -0.2, 0.05, 0.5, -0.4, 0.1, 0.02, -0.03, 0.11])
    p = ModelParams(w, 2, 3)
    x = np.array([[1.5, -2.0]])
    probs = forward(p, x)

    mpmath.mp.dps = 50
    logits = [
        mpmath.mpf("1.5") * mpmath.mpf(str(w[j]))
        + mpmath.mpf("-2.0") * mpmath.mpf(str(w[3 + j]))
        + mpmath.mpf(str(w[6 + j]))
        for j in range(3)
    ]
    exps = [mpmath.e**z for z in logits]
    total = sum(exps)
    expected = [float(e / total) for e in exps]
    assert np.allclose(probs[0], expected, rtol=1e-13, atol=0)

    lab = LabeledBatch(x, np.array([2]))
    expected_loss = float(-mpmath.log(exps[2] / total))
    assert math.isclose(loss([p], [lab])[0], expected_loss, rel_tol=1e-13)


def test_forward_is_overflow_safe():
    p = ModelParams(np.array([500.0, -500.0, 0.0, 0.0]), 1, 2)
    probs = forward(p, np.array([[3.0]]))
    assert np.all(np.isfinite(probs))
    assert math.isclose(probs.sum(), 1.0, rel_tol=1e-12)


def test_forward_empty_matrix():
    p = zero_params(4, 3)
    out = forward(p, np.zeros((0, 4)))
    assert out.shape == (0, 3)


def test_forward_rejects_wrong_width():
    p = zero_params(4, 3)
    with pytest.raises(ValueError):
        forward(p, np.zeros((2, 5)))


def test_probabilities_sum_to_one_both_families():
    rng = np.random.default_rng(7)
    for hidden in (0, 6):
        for _ in range(20):
            p = random_params(rng, 5, 4, hidden)
            x = rng.normal(size=(9, 5))
            probs = forward(p, x)
            assert np.all(probs >= 0)
            assert np.allclose(probs.sum(axis=1), 1.0, rtol=1e-12)


# ---------------------------------------------------------------- gradients


def finite_difference(p, batch, eps=1e-6):
    base = p.weights
    out = np.zeros_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += eps
        down = base.copy()
        down[i] -= eps
        out[i] = (loss([p.with_weights(up)], [batch])[0]
                  - loss([p.with_weights(down)], [batch])[0]) / (2 * eps)
    return out


@pytest.mark.parametrize("hidden", [0, 5])
def test_gradient_matches_central_differences(hidden):
    rng = np.random.default_rng(11 + hidden)
    for _ in range(8):
        p = random_params(rng, 4, 3, hidden)
        batch = make_batch(rng, 6, 4, 3)
        (g,) = gradient([p], [batch])
        fd = finite_difference(p, batch)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(g - fd) / denom < 1e-6


def test_gradient_zero_at_perfect_separation_limit():
    # Saturated correct predictions push the gradient toward zero.
    p = ModelParams(np.array([50.0, -50.0, 0.0, 0.0]), 1, 2)
    batch = LabeledBatch(np.array([[1.0], [-1.0]]), np.array([0, 1]))
    (g,) = gradient([p], [batch])
    assert np.linalg.norm(g) < 1e-12


def test_gradient_mean_scaling():
    # Duplicating every sample leaves the mean gradient unchanged.
    rng = np.random.default_rng(3)
    p = random_params(rng, 4, 3)
    batch = make_batch(rng, 5, 4, 3)
    doubled = LabeledBatch(
        np.vstack([batch.features, batch.features]),
        np.concatenate([batch.labels, batch.labels]),
    )
    assert np.allclose(*gradient([p, p], [batch, doubled]), rtol=1e-12)


def test_empty_batch_rejected():
    p = zero_params(2, 2)
    empty = LabeledBatch(np.zeros((0, 2)), np.zeros(0, dtype=int))
    for fn in (loss, gradient, evaluate):
        with pytest.raises(ValueError):
            fn([p], [empty])


# ---------------------------------------------------------------- sgd


def test_one_step_sgd_is_one_gradient_step():
    rng = np.random.default_rng(5)
    p = random_params(rng, 3, 2)
    batch = make_batch(rng, 4, 3, 2)
    lr = 0.1
    (g,) = gradient([p], [batch])
    # batch_size >= D and one epoch: a single full-batch step.
    (trained,) = sgd_train([p], [batch], epochs=1, batch_size=10, lr=lr, seeds=[0])
    assert np.allclose(trained.weights, p.weights - lr * g, rtol=1e-12)


def test_sgd_step_count_via_tiny_lr():
    # With lr so small each step barely moves, the displacement norm is
    # proportional to the number of steps; check ceil(D / b) * epochs.
    rng = np.random.default_rng(9)
    p = random_params(rng, 3, 3)
    batch = make_batch(rng, 7, 3, 3)
    (a,) = sgd_train([p], [batch], epochs=2, batch_size=3, lr=1e-9, seeds=[1])
    steps = 2 * math.ceil(7 / 3)
    moved = np.linalg.norm(a.weights - p.weights)
    per_step = np.linalg.norm(gradient([p], [batch])[0]) * 1e-9
    # Mini-batch gradients vary but stay within a loose factor of the mean.
    assert moved > 0
    assert moved < steps * per_step * 50


def test_sgd_deterministic_for_fixed_seed():
    rng = np.random.default_rng(13)
    p = random_params(rng, 4, 3, hidden=5)
    batch = make_batch(rng, 12, 4, 3)
    a, b, c = (sgd_train([p], [batch], epochs=3, batch_size=4, lr=0.05, seeds=[s])[0]
               for s in (42, 42, 43))
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


def test_sgd_accepts_seedsequence():
    rng = np.random.default_rng(17)
    p = random_params(rng, 3, 2)
    batch = make_batch(rng, 8, 3, 2)
    ss = np.random.SeedSequence([7, 4, 0, 3])
    (a,) = sgd_train([p], [batch], epochs=2, batch_size=3, lr=0.05, seeds=[ss])
    (b,) = sgd_train([p], [batch], epochs=2, batch_size=3, lr=0.05,
                     seeds=[np.random.SeedSequence([7, 4, 0, 3])])
    assert np.array_equal(a.weights, b.weights)


def test_sgd_reduces_loss_on_separable_data():
    rng = np.random.default_rng(21)
    n = 40
    x = np.vstack([rng.normal(-2, 0.3, size=(n, 2)), rng.normal(2, 0.3, size=(n, 2))])
    y = np.array([0] * n + [1] * n)
    batch = LabeledBatch(x, y)
    for hidden in (0, 4):
        p = init_params(2, 2, hidden, seed=0)
        (before,) = loss([p], [batch])
        (trained,) = sgd_train([p], [batch], epochs=5, batch_size=16, lr=0.1, seeds=[1])
        assert loss([trained], [batch])[0] < before
        assert evaluate([trained], [batch])[0] > 0.95


def test_sgd_validates_arguments():
    rng = np.random.default_rng(2)
    p = random_params(rng, 2, 2)
    batch = make_batch(rng, 4, 2, 2)
    with pytest.raises(ValueError):
        sgd_train([p], [batch], epochs=0, batch_size=2, lr=0.1, seeds=[0])
    with pytest.raises(ValueError):
        sgd_train([p], [batch], epochs=1, batch_size=0, lr=0.1, seeds=[0])
    with pytest.raises(ValueError):
        sgd_train([p], [batch], epochs=1, batch_size=2, lr=0.0, seeds=[0])


# ---------------------------------------------------------------- init / predict


def test_init_bounds_and_determinism():
    a = init_params(6, 4, hidden=3, seed=123)
    b = init_params(6, 4, hidden=3, seed=123)
    c = init_params(6, 4, hidden=3, seed=124)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)
    assert np.all(np.abs(a.weights) <= 0.05)


def test_argmax_tie_breaks_to_lowest_class():
    p = zero_params(2, 3)
    batch = LabeledBatch(np.array([[1.0, 1.0]]), np.array([0]))
    assert evaluate([p], [batch]) == [1.0]
    classes, conf = confidences([p], np.array([[1.0, 1.0]]))
    assert classes[0, 0] == 0
    assert math.isclose(conf[0, 0], 1 / 3, rel_tol=1e-12)


def test_confidences_empty_input():
    p = zero_params(2, 3)
    classes, conf = confidences([p], np.zeros((0, 2)))
    assert classes.shape == conf.shape == (1, 0)


def test_evaluate_counts_correct_fraction():
    w = np.array([1.0, -1.0, 0.0, 0.0])
    p = ModelParams(w, 1, 2)
    batch = LabeledBatch(np.array([[1.0], [1.0], [-1.0], [-1.0]]), np.array([0, 1, 1, 0]))
    assert evaluate([p], [batch]) == [0.5]
