"""Oracle checks for the stacked training and scoring path.

The reference below, with the row-wise model reference of `references.py`
(`ref_evaluate` among it), is a verbatim copy of the per-device functions that `sgd_train`, `gradient`,
`evaluate` and `loss` replaced: one `gradient()` call per SGD step, one
model and one batch at a time, with the row-wise softmax; a gradient is a
flat vector. Every device trained or scored in a ragged stack must get the
same bits as this loop gives it alone.
"""

import json

import numpy as np
import pytest

import cfsl.models as models
import cfsl.orchestrator as orchestrator
from cfsl.config import parse_config
from cfsl.experiment import build_simulation
from cfsl.models import (
    STACK_CHUNK,
    LabeledBatch,
    ModelParams,
    evaluate,
    gradient,
    loss,
    param_count,
    sgd_train,
)
from references import _check_features, _logits, _unpack, ref_evaluate

# ---------------------------------------------------------------- reference


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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


def ref_gradient(params: ModelParams, batch: LabeledBatch) -> np.ndarray:
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
    if not np.all(np.isfinite(flat)):
        raise ValueError("gradient contains non-finite entries")
    return flat


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
            current = current.with_weights(current.weights - lr * g)
    return current


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
        stacked = sgd_train([params] * k, batches, 3, batch_size, 0.3, seeds)
        assert len(stacked) == k
        for batch, s, got in zip(batches, seeds, stacked):
            want = ref_sgd_train(params, batch, 3, batch_size, 0.3, s)
            assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("hidden", [0, 7])
def test_single_batch_is_one_model_and_matches_reference(hidden):
    params, (batch,), (seed,) = make_case(5, hidden, 1, 37)
    (got,) = sgd_train([params], [batch], 2, 16, 0.1, [seed])
    assert isinstance(got, ModelParams)
    assert np.array_equal(got.weights, ref_sgd_train(params, batch, 2, 16, 0.1, seed).weights)
    assert np.array_equal(gradient([params], [batch])[0], ref_gradient(params, batch))
    assert evaluate([params], [batch]) == [ref_evaluate(params, batch)]
    assert loss([params], [batch]) == [ref_loss(params, batch)]


@pytest.mark.parametrize("hidden", [0, 7])
@pytest.mark.parametrize("k", [1, 2, 16, 17])
def test_stacked_evaluate_and_loss_match_per_device_bit_for_bit(hidden, k):
    params, batches, _ = make_case(11 + k, hidden, k, 41)
    accs, losses = evaluate([params] * k, batches), loss([params] * k, batches)
    assert accs == [ref_evaluate(params, b) for b in batches]
    assert losses == [ref_loss(params, b) for b in batches]


# Logistic and MLP at the default case shape, the split-512 shape
# (d = 16, c = 6), and two shapes whose BLAS results depend on the row
# count when the rows are split.
@pytest.mark.parametrize("hidden,d,c", [(0, 6, 5), (7, 6, 5), (0, 16, 6), (0, 32, 10),
                                        (32, 20, 10)])
@pytest.mark.parametrize("k", [1, 2, 16, 17])
def test_stacked_gradient_matches_per_batch_bit_for_bit(hidden, d, c, k):
    params, batches, _ = make_case(23 + k, hidden, k, 37, d=d, c=c)
    got = gradient([params] * k, batches)
    assert isinstance(got, list) and len(got) == k
    for batch, g in zip(batches, got):
        assert np.array_equal(g, ref_gradient(params, batch))


# (hidden, d, c): logistic and MLP at the default case shape, and the two
# shapes whose BLAS results depend on the row count when the rows are split.
SHAPES = [(0, 6, 5), (7, 6, 5), (0, 32, 10), (32, 20, 10)]
LENGTH_SETS = ["equal", "distinct", "mixed"]


def ragged_lengths(rng, k, kind, bs):
    """k batch lengths drawn from 1, bs - 1, bs, bs + 1, 2 bs and random
    lengths up to 5 bs: all equal, all distinct, or mixed."""
    special = [1, bs - 1, bs, bs + 1, 2 * bs]
    randoms = rng.permutation(np.arange(1, 5 * bs + 1)).tolist()
    if kind == "equal":
        return [(special + randoms[:1])[rng.integers(6)]] * k
    if kind == "distinct":
        pool = rng.permutation(special).tolist() + [n for n in randoms if n not in special]
        return rng.permutation(pool[:k]).tolist()
    return rng.choice(special + randoms[:2], size=k).tolist()


def start_models(rng, k, d, c, hidden):
    """k start models, some of them shared: k - k // 3 distinct ones."""
    distinct = [ModelParams(rng.uniform(-0.5, 0.5, size=param_count(d, c, hidden)), d, c, hidden)
                for _ in range(k - k // 3)]
    return [distinct[i % len(distinct)] for i in rng.permutation(k)]


@pytest.mark.parametrize("kind", LENGTH_SETS)
@pytest.mark.parametrize("k", [1, 2, 5, 16, 17])
@pytest.mark.parametrize("hidden,d,c", SHAPES)
def test_ragged_sgd_matches_each_device_alone_bit_for_bit(hidden, d, c, k, kind):
    bs = 8
    for case in range(2):
        rng = np.random.default_rng([case, hidden, d, k, LENGTH_SETS.index(kind)])
        lengths = ragged_lengths(rng, k, kind, bs)
        if kind != "mixed":
            assert len(set(lengths)) == (1 if kind == "equal" else k)
        starts = start_models(rng, k, d, c, hidden)
        batches = [LabeledBatch(rng.normal(size=(n, d)), rng.integers(0, c, size=n))
                   for n in lengths]
        seeds = [np.random.SeedSequence([case, i]) for i in range(k)]
        want = [ref_sgd_train(p, b, 2, bs, 0.3, s).weights
                for p, b, s in zip(starts, batches, seeds)]
        got = sgd_train(starts, batches, 2, bs, 0.3, seeds)
        assert len(got) == k
        assert all(np.array_equal(g.weights, w) for g, w in zip(got, want))
        # Shuffling the input order changes no device's result.
        perm = rng.permutation(k)
        shuffled = sgd_train([starts[i] for i in perm], [batches[i] for i in perm], 2, bs, 0.3,
                             [seeds[i] for i in perm])
        assert all(np.array_equal(g.weights, want[i]) for i, g in zip(perm, shuffled))
        # One start model shared by every batch.
        shared = sgd_train([starts[0]] * k, batches, 2, bs, 0.3, seeds)
        for batch, s, g in zip(batches, seeds, shared):
            assert np.array_equal(g.weights, ref_sgd_train(starts[0], batch, 2, bs, 0.3, s).weights)


def assert_scores_match_alone(models, batches):
    """Every pair's ragged loss, accuracy and gradient are bit-equal to what
    the reference gives that model and batch alone."""
    losses, accs = loss(models, batches), evaluate(models, batches)
    assert len(losses) == len(accs) == len(batches)
    for m, b, got_loss, got_acc in zip(models, batches, losses, accs):
        assert np.array_equal(got_loss, ref_loss(m, b), equal_nan=True)
        assert np.array_equal(got_acc, ref_evaluate(m, b))
    if all(np.isfinite(m.weights).all() for m in models):
        for m, b, got in zip(models, batches, gradient(models, batches)):
            assert np.array_equal(got, ref_gradient(m, b))


def random_batches(rng, lengths, d, c):
    return [LabeledBatch(rng.normal(size=(n, d)), rng.integers(0, c, size=n)) for n in lengths]


@pytest.mark.parametrize("kind", LENGTH_SETS)
@pytest.mark.parametrize("k", [1, 2, 5, 16, 17])
@pytest.mark.parametrize("hidden,d,c", SHAPES)
def test_ragged_scoring_matches_each_pair_alone_bit_for_bit(hidden, d, c, k, kind):
    for case in range(2):
        rng = np.random.default_rng([case, hidden, d, k, LENGTH_SETS.index(kind), 1])
        batches = random_batches(rng, ragged_lengths(rng, k, kind, 8), d, c)
        models = start_models(rng, k, d, c, hidden)
        assert_scores_match_alone(models, batches)
        # One model shared by every batch, as in the split checks.
        assert_scores_match_alone([models[0]] * k, batches)
        # K models meeting one batch.
        one = batches[0]
        assert loss(models, [one] * k) == [ref_loss(m, one) for m in models]
        for m, got in zip(models, gradient(models, [one] * k)):
            assert np.array_equal(got, ref_gradient(m, one))


@pytest.mark.parametrize("c", [2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 33, 129])
@pytest.mark.parametrize("hidden", [0, 7])
def test_ragged_scoring_for_every_pairwise_sum_branch(hidden, c):
    rng = np.random.default_rng([c, hidden])
    batches = random_batches(rng, [1, 7, 8, 33, 20], 6, c)
    assert_scores_match_alone(start_models(rng, 5, 6, c, hidden), batches)


def assert_sgd_matches_alone(starts, batches, batch_size):
    """Every device's stacked SGD result is bit-equal to the reference
    trained alone."""
    seeds = [np.random.SeedSequence([len(batches), i]) for i in range(len(batches))]
    got = sgd_train(starts, batches, 2, batch_size, 0.3, seeds)
    assert len(got) == len(batches)
    for p, b, s, g in zip(starts, batches, seeds, got):
        assert np.array_equal(g.weights, ref_sgd_train(p, b, 2, batch_size, 0.3, s).weights)


@pytest.mark.parametrize("c", [2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 33, 129])
@pytest.mark.parametrize("hidden", [0, 7])
def test_ragged_sgd_for_every_pairwise_sum_branch(hidden, c):
    # One-row batches, and lengths that end on a shorter remainder step.
    rng = np.random.default_rng([c, hidden, 2])
    lengths = [1, 7, 8, 9, 20, 1, 33]
    starts = start_models(rng, len(lengths), 6, c, hidden)
    assert_sgd_matches_alone(starts, random_batches(rng, lengths, 6, c), 8)


# The workloads' training shapes at their batch size: the fedavg-128 MLP,
# and the logistic models of selflabel-64 and split-512.
@pytest.mark.parametrize("hidden,d,c", [(16, 8, 4), (0, 16, 6), (0, 8, 4)])
def test_ragged_sgd_at_the_workload_shapes(hidden, d, c):
    rng = np.random.default_rng([hidden, d, c])
    lengths = [160, 1, 31, 160, 33, 64, 80, 45]
    starts = start_models(rng, len(lengths), d, c, hidden)
    assert_sgd_matches_alone(starts, random_batches(rng, lengths, d, c), 32)


@pytest.mark.parametrize("hidden", [0, 7])
def test_training_steps_run_on_contiguous_operands(monkeypatch, hidden):
    """A step's class-major softmax runs on a C-contiguous copy of the
    logits, and its backward matmuls get a C-contiguous delta, as the
    row-wise code gave them. A strided table gives the same bits, only
    slower, so the bit-equality oracles cannot see it."""
    layouts = []

    def recording(name, at):
        real = getattr(models, name)

        def call(*args):
            layouts.append((name, args[at].flags.c_contiguous))
            return real(*args)
        return call

    # The softmax's table is its first argument, the delta _backward's last.
    for name, at in (("_softmax_columns", 0), ("_backward", -1)):
        monkeypatch.setattr(models, name, recording(name, at))
    rng = np.random.default_rng([hidden, 3])
    lengths = [1, 9, 20, 20]
    starts = start_models(rng, len(lengths), 6, 5, hidden)
    sgd_train(starts, random_batches(rng, lengths, 6, 5), 2, 8, 0.3, range(len(lengths)))
    assert {name for name, _ in layouts} == {"_softmax_columns", "_backward"}
    assert all(contiguous for _, contiguous in layouts)


def permutation_model(perm) -> ModelParams:
    """Logistic model whose logits are its input features in `perm` order."""
    c = len(perm)
    return ModelParams(np.concatenate([np.eye(c)[perm].ravel(), np.zeros(c)]), c, c)


@pytest.mark.parametrize("c", [2, 5, 9, 33, 129])
def test_ragged_evaluate_keeps_first_of_tied_probabilities(c):
    # One-decimal logits, so exact ties land on different classes in
    # different models; the first row of every batch ties every class.
    rng = np.random.default_rng(c)
    identity = permutation_model(np.arange(c))
    models = [identity] + [permutation_model(rng.permutation(c)) for _ in range(3)]
    batches = []
    for n in (1, 6, 40, 13):
        x = np.round(rng.normal(0.0, 0.5, size=(n, c)), 1)
        x[0] = 0.0
        batches.append(LabeledBatch(x, rng.integers(0, c, size=n)))
    assert_scores_match_alone(models, batches)
    # Every class tied: class 0 wins, so only the first label is a hit.
    tied = LabeledBatch(np.zeros((3, c)), np.array([0, 1, c - 1]))
    assert evaluate([identity], [tied]) == [1 / 3]


def test_ragged_scoring_with_nan_weights_matches_row_wise():
    rng = np.random.default_rng(4)
    models = [ModelParams(rng.uniform(-0.5, 0.5, size=param_count(3, 5)), 3, 5) for _ in range(3)]
    models[1].weights[2] = np.nan
    batches = random_batches(rng, [4, 9, 2], 3, 5)
    assert_scores_match_alone(models, batches)
    # Every sample of the NaN model gets class 0, as argmax gives it.
    assert evaluate(models, batches)[1] == float(np.mean(batches[1].labels == 0))
    assert np.isnan(loss(models, batches)[1])
    with pytest.raises(ValueError, match="non-finite"):
        gradient(models, batches)


def test_results_do_not_depend_on_how_batches_are_stacked():
    params, batches, seeds = make_case(3, 7, 17, 29)
    starts = [params] * len(batches)
    whole = sgd_train(starts, batches, 2, 8, 0.2, seeds)
    for cut in (1, 5, STACK_CHUNK):
        parts = (sgd_train(starts[:cut], batches[:cut], 2, 8, 0.2, seeds[:cut])
                 + sgd_train(starts[cut:], batches[cut:], 2, 8, 0.2, seeds[cut:]))
        assert all(np.array_equal(a.weights, b.weights) for a, b in zip(whole, parts))
    assert loss(starts, batches) == loss(starts[:5], batches[:5]) + loss(starts[5:], batches[5:])
    assert evaluate(starts, batches) == [evaluate([params], [b])[0] for b in batches]


def test_stacked_calls_reject_bad_input():
    params, batches, seeds = make_case(8, 0, 3, 12)
    short = LabeledBatch(batches[0].features[:11], batches[0].labels[:11])
    empty = LabeledBatch(batches[0].features[:0], batches[0].labels[:0])
    wide = ModelParams(np.zeros(param_count(7, 5)), 7, 5)
    pair = [params, params]
    # Unequal lengths are valid everywhere (see the ragged tests).
    assert evaluate(pair, [batches[0], short]) == [ref_evaluate(params, b)
                                                   for b in (batches[0], short)]
    assert loss(pair, [short, batches[1]]) == [ref_loss(params, b)
                                               for b in (short, batches[1])]
    assert np.array_equal(gradient(pair, [batches[0], short])[1], ref_gradient(params, short))
    for call in (
        lambda: sgd_train([params] * 3, batches, 1, 4, 0.1, seeds[:2]),
        lambda: sgd_train([params, wide, params], batches, 1, 4, 0.1, seeds),
        lambda: sgd_train(pair, batches, 1, 4, 0.1, seeds),
        lambda: sgd_train([params] * 3, [batches[0], empty, batches[2]], 1, 4, 0.1, seeds),
        lambda: sgd_train([params], [], 1, 4, 0.1, []),
        lambda: evaluate([params], []),
        lambda: gradient([params], []),
        lambda: loss(pair, [batches[0], empty]),
        lambda: evaluate(pair, [batches[0]]),
        lambda: gradient([params], [empty]),
        lambda: gradient([params], batches),
        lambda: loss(pair, batches),
        lambda: gradient([params, params, params], batches[:2]),
        lambda: evaluate([params, wide], batches[:2]),
        lambda: evaluate([params], empty),
        lambda: evaluate([params], LabeledBatch(short.features[:2], np.array([5, 0]))),
        lambda: evaluate([params], LabeledBatch(short.features[:2], np.array([0, -1]))),
        lambda: loss([], batches),
        lambda: gradient([params], [LabeledBatch(short.features, short.labels + 5)]),
    ):
        with pytest.raises(ValueError):
            call()


def test_non_finite_weights_raise():
    params, batches, seeds = make_case(9, 7, 2, 10)
    broken = params.with_weights(np.where(np.arange(params.weights.size) == 3, np.inf,
                                          params.weights))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            sgd_train([broken] * 2, batches, 1, 4, 0.1, seeds)
        with pytest.raises(ValueError):
            sgd_train([broken], batches[:1], 1, 4, 0.1, seeds[:1])
        # Finite start, but a step size that overflows the weights.
        with pytest.raises(ValueError):
            sgd_train([params] * 2, batches, 2, 4, 1e308, seeds)


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


def one_device_per_call(monkeypatch):
    """Run the orchestrator's stacked calls one device per call: chunks of
    one device for `evaluate`, `loss` and `gradient`, `sgd_train` patched
    to train one device at a time, and each selection scoring its own
    device's holdout instead of taking the grouped accuracies."""
    def trained_alone(models, batches, epochs, batch_size, lr, seeds):
        return [sgd_train([m], [b], epochs, batch_size, lr, [s])[0]
                for m, b, s in zip(models, batches, seeds)]

    def selected_alone(device, candidates, phi, pool, accuracy):
        return select(device, candidates, phi, pool)

    select = orchestrator.select_best_model
    monkeypatch.setattr(orchestrator, "STACK_CHUNK", 1)
    monkeypatch.setattr(orchestrator, "sgd_train", trained_alone)
    monkeypatch.setattr(orchestrator, "select_best_model", selected_alone)


@pytest.mark.parametrize("scope", ["cloud", "edge"])
def test_simulation_does_not_depend_on_how_devices_are_grouped(monkeypatch, scope):
    """The round as shipped (one training stack, metrics grouped by model
    and length, one holdout pass per candidate set and length) and one
    device per call give byte-identical events and metrics, through splits
    and injections that give the devices different models and train sizes,
    and with candidate sets shared by every edge or each edge's own."""
    config = parse_config(GROUPED.replace("[ssl]\n", f"[ssl]\ncandidate_scope = {scope}\n"))
    mixed = {"sgd_train": [], "loss": [], "gradient": []}
    shared = []

    def recording(name):
        real = getattr(orchestrator, name)

        def call(models, batches, *args):
            # The split checks score one cluster model per call.
            many_models = name == "gradient" or len({m.weights.tobytes() for m in models}) > 1
            mixed[name].append(many_models and len({len(b) for b in batches}) > 1)
            return real(models, batches, *args)
        return call

    with monkeypatch.context() as patch:
        for name in mixed:
            patch.setattr(orchestrator, name, recording(name))
        real_holdouts = orchestrator.holdout_accuracies

        def holdouts(devices, candidates):
            shared.append(len(devices))
            return real_holdouts(devices, candidates)
        patch.setattr(orchestrator, "holdout_accuracies", holdouts)
        grouped = build_simulation(config)
        grouped.run()
    # Some call mixes models (for training and the loss) and train sizes,
    # and some holdout pass scores several devices.
    for name, calls in mixed.items():
        assert any(calls), name
    assert max(shared) > 1
    kinds = {e["type"] for e in grouped.events}
    assert {"split", "injection", "selection"} <= kinds
    # Each round's selections (and with them the injections) in device order.
    selections = [(e["round"], e["device"]) for e in grouped.events if e["type"] == "selection"]
    assert selections == sorted(selections)

    one_device_per_call(monkeypatch)
    alone = build_simulation(config)
    alone.run()
    assert json.dumps(alone.events) == json.dumps(grouped.events)
    assert repr(alone.metrics) == repr(grouped.metrics)
