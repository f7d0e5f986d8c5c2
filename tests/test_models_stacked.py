"""Oracle checks for the stacked training and scoring path.

The reference below is a verbatim copy of the per-device functions that
`sgd_train`, `evaluate` and `loss` replaced: one `gradient()` call per SGD
step, one model at a time. Every device trained or scored in a stack must
get the same bits as this loop gives it alone.
"""

import numpy as np
import pytest

import cfsl.orchestrator as orchestrator
from cfsl.config import parse_config
from cfsl.experiment import build_simulation
from cfsl.models import (
    STACK_CHUNK,
    GradientUpdate,
    LabeledBatch,
    ModelParams,
    evaluate,
    gradient,
    loss,
    param_count,
    sgd_train,
)

# ---------------------------------------------------------------- reference


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _unpack(p: ModelParams):
    """Views into the flat vector: (W, b) or (W1, b1, W2, b2)."""
    d, c, h = p.dim_in, p.dim_out, p.hidden
    w = p.weights
    if h == 0:
        return w[: d * c].reshape(d, c), w[d * c :]
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * c
    return (
        w[:o1].reshape(d, h),
        w[o1:o2],
        w[o2:o3].reshape(h, c),
        w[o3:],
    )


def _logits(p: ModelParams, x: np.ndarray):
    """Raw class scores; for the tanh network also returns the hidden activations."""
    if p.hidden == 0:
        w, b = _unpack(p)
        return x @ w + b, None
    w1, b1, w2, b2 = _unpack(p)
    hidden = np.tanh(x @ w1 + b1)
    return hidden @ w2 + b2, hidden


def _check_features(p: ModelParams, features: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != p.dim_in:
        raise ValueError(
            f"feature matrix must be 2-D with {p.dim_in} columns, got shape {features.shape}"
        )
    return features


def ref_forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix: row-wise softmax over the model's logits."""
    features = _check_features(params, features)
    if features.shape[0] == 0:
        return np.zeros((0, params.dim_out))
    z, _ = _logits(params, features)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_loss(params: ModelParams, batch: LabeledBatch) -> float:
    """Mean cross-entropy over the batch (log-softmax form for accuracy)."""
    if len(batch) == 0:
        raise ValueError("loss requires a nonempty batch")
    x = _check_features(params, batch.features)
    z, _ = _logits(params, x)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(len(batch)), batch.labels]
    return float(-picked.mean())


def ref_gradient(params: ModelParams, batch: LabeledBatch) -> GradientUpdate:
    """Exact analytic gradient of loss() at params."""
    if len(batch) == 0:
        raise ValueError("gradient requires a nonempty batch")
    x = _check_features(params, batch.features)
    n = len(batch)
    z, hidden = _logits(params, x)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n
    if params.hidden == 0:
        gw = x.T @ delta
        gb = delta.sum(axis=0)
        flat = np.concatenate([gw.ravel(), gb])
    else:
        _, _, w2, _ = _unpack(params)
        gw2 = hidden.T @ delta
        gb2 = delta.sum(axis=0)
        dhidden = (delta @ w2.T) * (1.0 - hidden * hidden)
        gw1 = x.T @ dhidden
        gb1 = dhidden.sum(axis=0)
        flat = np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])
    return GradientUpdate(flat, n)


def ref_sgd_train(
    params: ModelParams,
    data: LabeledBatch,
    epochs: int,
    batch_size: int,
    lr: float,
    seed,
) -> ModelParams:
    """Mini-batch SGD: exactly epochs * ceil(D / batch_size) update steps.

    Batch order is a fresh seeded shuffle per epoch; a batch_size larger
    than the dataset degenerates to one full-batch step per epoch.
    Deterministic for a fixed seed.
    """
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    if len(data) == 0:
        raise ValueError("sgd_train requires a nonempty batch")
    rng = _rng(seed)
    n = len(data)
    n_batches = -(-n // batch_size)
    current = params
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in range(n_batches):
            idx = order[i * batch_size : (i + 1) * batch_size]
            g = ref_gradient(current, data.subset(idx))
            current = current.with_weights(current.weights - lr * g.grad)
    return current


def ref_evaluate(params: ModelParams, batch: LabeledBatch) -> float:
    """Fraction of argmax predictions matching labels (ties -> lowest class id)."""
    if len(batch) == 0:
        raise ValueError("evaluate requires a nonempty batch")
    probs = ref_forward(params, batch.features)
    preds = probs.argmax(axis=1)
    return float((preds == batch.labels).mean())


# ---------------------------------------------------------------- cases


def make_case(seed, hidden, k, n, d=6, c=5):
    """A start model plus k seeded batches of n rows each."""
    rng = np.random.default_rng(seed)
    params = ModelParams(rng.uniform(-0.5, 0.5, size=param_count(d, c, hidden)), d, c, hidden)
    batches = [
        LabeledBatch(rng.normal(size=(n, d)), rng.integers(0, c, size=n)) for _ in range(k)
    ]
    seeds = [np.random.SeedSequence([seed, i]) for i in range(k)]
    return params, batches, seeds


CASES = [
    # (hidden, K, n, batch_size): n % batch_size != 0, and batch_size > n.
    (hidden, k, n, bs)
    for hidden in (0, 7)
    for k in (1, 2, 16, 17)
    for n, bs in ((23, 8), (33, 32), (5, 32))
]


@pytest.mark.parametrize("hidden,k,n,batch_size", CASES)
def test_stacked_sgd_matches_per_device_loop_bit_for_bit(hidden, k, n, batch_size):
    for seed in range(3):
        params, batches, seeds = make_case(100 * seed + k, hidden, k, n)
        stacked = sgd_train(params, batches, 3, batch_size, 0.3, seeds)
        assert len(stacked) == k
        for batch, s, got in zip(batches, seeds, stacked):
            want = ref_sgd_train(params, batch, 3, batch_size, 0.3, s)
            assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("hidden", [0, 7])
def test_single_batch_is_one_model_and_matches_reference(hidden):
    params, (batch,), (seed,) = make_case(5, hidden, 1, 37)
    got = sgd_train(params, batch, 2, 16, 0.1, seed)
    assert isinstance(got, ModelParams)
    assert np.array_equal(got.weights, ref_sgd_train(params, batch, 2, 16, 0.1, seed).weights)
    assert np.array_equal(gradient(params, batch).grad, ref_gradient(params, batch).grad)
    assert evaluate(params, batch) == ref_evaluate(params, batch)
    assert loss(params, batch) == ref_loss(params, batch)


@pytest.mark.parametrize("hidden", [0, 7])
@pytest.mark.parametrize("k", [1, 2, 16, 17])
def test_stacked_evaluate_and_loss_match_per_device_bit_for_bit(hidden, k):
    params, batches, _ = make_case(11 + k, hidden, k, 41)
    accs, losses = evaluate(params, batches), loss(params, batches)
    assert accs == [ref_evaluate(params, b) for b in batches]
    assert losses == [ref_loss(params, b) for b in batches]


def test_results_do_not_depend_on_how_batches_are_stacked():
    params, batches, seeds = make_case(3, 7, 17, 29)
    whole = sgd_train(params, batches, 2, 8, 0.2, seeds)
    for cut in (1, 5, STACK_CHUNK):
        parts = (sgd_train(params, batches[:cut], 2, 8, 0.2, seeds[:cut])
                 + sgd_train(params, batches[cut:], 2, 8, 0.2, seeds[cut:]))
        assert all(np.array_equal(a.weights, b.weights) for a, b in zip(whole, parts))
    assert loss(params, batches) == loss(params, batches[:5]) + loss(params, batches[5:])
    assert evaluate(params, batches) == [evaluate(params, b) for b in batches]


def test_stacked_calls_reject_bad_input():
    params, batches, seeds = make_case(8, 0, 3, 12)
    short = LabeledBatch(batches[0].features[:11], batches[0].labels[:11])
    for call in (
        lambda: sgd_train(params, [*batches[:2], short], 1, 4, 0.1, seeds),
        lambda: evaluate(params, [batches[0], short]),
        lambda: loss(params, [short, batches[1]]),
        lambda: sgd_train(params, batches, 1, 4, 0.1, seeds[:2]),
        lambda: sgd_train(params, [], 1, 4, 0.1, []),
        lambda: evaluate(params, []),
    ):
        with pytest.raises(ValueError):
            call()


def test_non_finite_weights_raise():
    params, batches, seeds = make_case(9, 7, 2, 10)
    broken = params.with_weights(np.where(np.arange(params.weights.size) == 3, np.inf,
                                          params.weights))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            sgd_train(broken, batches, 1, 4, 0.1, seeds)
        with pytest.raises(ValueError):
            sgd_train(broken, batches[0], 1, 4, 0.1, seeds[0])
        # Finite start, but a step size that overflows the weights.
        with pytest.raises(ValueError):
            sgd_train(params, batches, 2, 4, 1e308, seeds)


# ---------------------------------------------------------------- orchestrator

GROUPED = """
[topology]
edges = 3
devices = 24

[data]
distributions = 3
classes = 4
features = 5
samples_per_device = 60
labeled_fraction = 0.3

[model]
family = mlp
hidden = 6
learning_rate = 0.1
epochs = 2
batch_size = 8

[clustering]
split_interval = 2

[ssl]
phi = 0.5
label_interval = 2

[run]
rounds = 8
seed = 4
"""


def test_simulation_does_not_depend_on_stack_chunk(monkeypatch):
    """Chunks of 1 (every device alone), 3 and the default give the same
    run, through splits and injections that change the groups."""
    runs = []
    for chunk in (1, 3, STACK_CHUNK):
        monkeypatch.setattr(orchestrator, "STACK_CHUNK", chunk)
        sim = build_simulation(parse_config(GROUPED))
        sim.run()
        runs.append(sim)
    kinds = {e["type"] for e in runs[0].events}
    assert {"split", "injection"} <= kinds
    for sim in runs[1:]:
        assert sim.metrics == runs[0].metrics
        assert sim.events == runs[0].events
