"""Oracle checks for candidate scoring in one pass per device.

The reference below is a verbatim copy of the row-wise code that
`models.confidences`, `labeling.utility`, `labeling.select_best_model` and
`labeling.pseudo_label` replaced: one `utility` call per candidate, each
reading the holdout and the pool again, a row-wise softmax, and a second
forward pass of the chosen model in `pseudo_label`. The class-major,
one-pass code must give the same bits: equal (classes, confidences), equal
UtilityScore fields, equal SelectionDecisions and equal PseudoLabelBatch
arrays, for every class count. `confidences` on a list of K models must
give each model the row-wise bits it gets alone, for pools inside one
softmax block and across several.
"""

import logging
import warnings

import numpy as np
import pytest

from cfsl.data import DeviceDataset
from cfsl.errors import StateError
from cfsl.labeling import (
    PseudoLabelBatch,
    SelectionDecision,
    UtilityScore,
    pseudo_label,
    select_best_model,
    utility,
)
from cfsl.models import (
    SOFTMAX_BLOCK,
    LabeledBatch,
    ModelParams,
    _pairwise_sum,
    confidences,
    evaluate,
    param_count,
)

log = logging.getLogger(__name__)

# ---------------------------------------------------------------- reference


def _unpack(p: ModelParams, weights: np.ndarray | None = None):
    """Views into flat weights of shape (P,) or stacked (K, P): (W, b) or
    (W1, b1, W2, b2). Stacked biases get a singleton row axis, (K, 1, n),
    so that they broadcast over a (K, b, n) batch."""
    d, c, h = p.dim_in, p.dim_out, p.hidden
    w = p.weights if weights is None else weights
    lead = w.shape[:-1]
    row = lead + (1,) if lead else ()
    if h == 0:
        return w[..., : d * c].reshape(*lead, d, c), w[..., d * c :].reshape(*row, c)
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * c
    return (
        w[..., :o1].reshape(*lead, d, h),
        w[..., o1:o2].reshape(*row, h),
        w[..., o2:o3].reshape(*lead, h, c),
        w[..., o3:].reshape(*row, c),
    )


def _logits(hidden: int, views, x: np.ndarray):
    """Raw class scores; for the tanh network also returns the hidden activations."""
    if hidden == 0:
        w, b = views
        return x @ w + b, None
    w1, b1, w2, b2 = views
    h = np.tanh(x @ w1 + b1)
    return h @ w2 + b2, h


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _check_features(p: ModelParams, features: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != p.dim_in:
        raise ValueError(
            f"feature matrix must be 2-D with {p.dim_in} columns, got shape {features.shape}"
        )
    return features


def _stack(p: ModelParams, batches, caller: str):
    """Features and labels of one nonempty batch, (n, d) and (n,), or of a
    list of K equal-length nonempty batches, (K, n, d) and (K, n)."""
    if isinstance(batches, LabeledBatch):
        if len(batches) == 0:
            raise ValueError(f"{caller} requires a nonempty batch")
        return _check_features(p, batches.features), batches.labels
    lengths = sorted({len(b) for b in batches})
    if not lengths or lengths[0] == 0:
        raise ValueError(f"{caller} requires a nonempty batch")
    if len(lengths) > 1:
        raise ValueError(f"{caller} requires equal-length batches, got lengths {lengths}")
    x = np.stack([_check_features(p, b.features) for b in batches])
    return x, np.stack([b.labels for b in batches])


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix: row-wise softmax over the model's logits."""
    features = _check_features(params, features)
    if features.shape[0] == 0:
        return np.zeros((0, params.dim_out))
    z, _ = _logits(params.hidden, _unpack(params), features)
    return _softmax(z)


def ref_evaluate(params: ModelParams, batch):
    """Fraction of argmax predictions matching labels (ties -> lowest class id).

    `batch` is one LabeledBatch, giving a float, or a list of equal-length
    batches, giving one float per batch."""
    x, y = _stack(params, batch, "evaluate")
    z, _ = _logits(params.hidden, _unpack(params), x)
    preds = _softmax(z).argmax(axis=-1)
    return (preds == y).mean(axis=-1).tolist()


def ref_confidences(params: ModelParams, features: np.ndarray):
    """Per-sample (argmax class, max probability), ties to the lowest class id."""
    probs = forward(params, features)
    if probs.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    classes = probs.argmax(axis=1)
    return classes, probs.max(axis=1)


def ref_pseudo_label(
    model: ModelParams,
    features: np.ndarray,
    phi: float,
    device_id: int = -1,
    source_model_id: int = -1,
    round_no: int = -1,
    pool_indices: np.ndarray | None = None,
) -> PseudoLabelBatch:
    """Label every sample whose max class probability reaches phi.

    pool_indices maps feature rows back to positions in the device's
    unlabeled pool; by default rows label themselves 0..n-1.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phi must be in [0, 1]")
    if pool_indices is None:
        pool_indices = np.arange(features.shape[0])
    classes, conf = ref_confidences(model, features)
    accept = conf >= phi
    return PseudoLabelBatch(
        device_id=device_id,
        indices=np.asarray(pool_indices)[accept],
        labels=classes[accept],
        confidences=conf[accept],
        source_model_id=source_model_id,
        round_no=round_no,
        phi=phi,
    )


def ref_utility(
    model_id: int,
    model: ModelParams,
    device: DeviceDataset,
    phi: float,
    f_hz: float,
    inference_cycles_per_sample: float,
) -> UtilityScore:
    """Score a candidate on never-trained holdout accuracy plus how much
    of the remaining unlabeled pool it would label at threshold phi.

    Estimated labeling latency is the single inference pass over the
    remaining pool on this device's CPU; it depends on the device, not
    the model, so it only matters as a documented tie-break dimension.
    """
    holdout = device.holdout_batch()
    if len(holdout) == 0:
        log.warning(
            "device %d: empty holdout, scoring val_accuracy on the full labeled set",
            device.device_id,
        )
        holdout = device.labeled
    val_acc = ref_evaluate(model, holdout)

    _, pending = device.pending_features()
    n_pending = pending.shape[0]
    if n_pending == 0:
        return UtilityScore(model_id, val_acc, 0.0, 0.0, 0.0)
    _, conf = ref_confidences(model, pending)
    coverage = float((conf >= phi).mean())
    latency = n_pending * inference_cycles_per_sample / f_hz
    return UtilityScore(model_id, val_acc, coverage, float(conf.mean()), latency)


def ref_select_best_model(
    device: DeviceDataset,
    candidates: dict,
    phi: float,
    f_hz: float,
    inference_cycles_per_sample: float,
):
    """Rank candidate models and pick exactly one for this device.

    Ranking is lexicographic: highest holdout accuracy, then highest
    coverage, then lowest estimated labeling latency, then lowest model
    id. Returns the one-hot decision plus every candidate's score.
    """
    if not candidates:
        raise StateError(f"device {device.device_id}: no candidate models to select from")
    scores = {
        mid: ref_utility(mid, model, device, phi, f_hz, inference_cycles_per_sample)
        for mid, model in candidates.items()
    }
    ranked = sorted(
        scores.values(),
        key=lambda s: (-s.val_accuracy, -s.coverage, s.est_label_latency, s.model_id),
    )
    chosen = ranked[0].model_id
    z = {mid: (1 if mid == chosen else 0) for mid in sorted(candidates)}
    return SelectionDecision(device.device_id, chosen, z), scores


# ---------------------------------------------------------------- fixtures

CLASS_COUNTS = (2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 33, 128, 129, 200)
FAMILIES = {"logistic": 0, "mlp": 7}


def random_model(rng, d, c, hidden, scale=1.5, rounded=False):
    w = rng.normal(0.0, scale, size=param_count(d, c, hidden))
    if rounded:
        w = np.round(w, 1)
    return ModelParams(w, d, c, hidden)


def identity_model(c):
    """Logistic model whose logits are exactly its input features."""
    return ModelParams(np.concatenate([np.eye(c).ravel(), np.zeros(c)]), c, c)


def make_device(rng, d, c, n_labeled=10, n_pool=60, n_holdout=4, rounded=False):
    labels = rng.integers(0, c, size=n_labeled)
    feats = rng.normal(size=(n_labeled, d))
    pool = rng.normal(size=(n_pool, d))
    if rounded:
        feats, pool = np.round(feats, 1), np.round(pool, 1)
    return DeviceDataset(
        device_id=int(rng.integers(0, 100)),
        labeled=LabeledBatch(feats, labels),
        unlabeled_features=pool,
        hidden_truth=rng.integers(0, c, size=n_pool),
        distribution_id=0,
        class_whitelist=tuple(range(c)),
        holdout_indices=np.sort(rng.choice(n_labeled, size=n_holdout, replace=False)),
        test=LabeledBatch(feats, labels),
    )


def assert_same_predictions(got, want):
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1], equal_nan=True)


def assert_stacked_matches(models, pool):
    """Stacked confidences, row k bit-equal to model k scored alone by the
    row-wise reference."""
    classes, conf = confidences(models, pool)
    assert classes.shape == conf.shape == (len(models), pool.shape[0])
    for k, model in enumerate(models):
        assert_same_predictions((classes[k], conf[k]), ref_confidences(model, pool))


def assert_same_batch(got: PseudoLabelBatch, want: PseudoLabelBatch):
    assert (got.device_id, got.source_model_id, got.round_no, got.phi) == (
        want.device_id, want.source_model_id, want.round_no, want.phi)
    for name in ("indices", "labels", "confidences"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def check_selection(device, candidates, phi=0.6, f_hz=2e9, cycles=20.0):
    """One-pass selection and labeling against the reference, field by field."""
    want_decision, want_scores = ref_select_best_model(device, candidates, phi, f_hz, cycles)
    idx, feats = device.pending_features()
    decision, scores, predictions = select_best_model(
        device, candidates, phi, f_hz, cycles, pool=feats
    )
    assert decision == want_decision
    # Only the candidates tied at the best holdout accuracy can win; they
    # alone are scored over the pool, in candidate order.
    best = max(s.val_accuracy for s in want_scores.values())
    assert list(scores) == [mid for mid, s in want_scores.items() if s.val_accuracy == best]
    for mid, want in want_scores.items():
        if mid in scores:
            assert scores[mid] == want
        assert utility(mid, candidates[mid], device, phi, f_hz, cycles) == want
    # Without the pool handed in, selection reads it itself.
    assert select_best_model(device, candidates, phi, f_hz, cycles)[:2] == (decision, scores)

    chosen = decision.chosen_model_id
    assert_same_predictions(predictions, ref_confidences(candidates[chosen], feats))
    want_batch = ref_pseudo_label(candidates[chosen], feats, phi, device.device_id, chosen, 3, idx)
    assert_same_batch(
        pseudo_label(candidates[chosen], feats, phi, device.device_id, chosen, 3, idx,
                     predictions=predictions),
        want_batch,
    )
    assert_same_batch(
        pseudo_label(candidates[chosen], feats, phi, device.device_id, chosen, 3, idx),
        want_batch,
    )
    return decision


# ---------------------------------------------------------------- confidences


@pytest.mark.parametrize("c", CLASS_COUNTS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_confidences_bit_equal_to_row_wise(family, c):
    rng = np.random.default_rng(1000 * c + FAMILIES[family])
    d = 5
    for trial in range(6):
        rounded = trial >= 3
        model = random_model(rng, d, c, FAMILIES[family], rounded=rounded)
        n = int(rng.integers(1, 400))
        pool = rng.normal(size=(n, d))
        if rounded:
            pool = np.round(pool, 1)
        assert_same_predictions(confidences(model, pool), ref_confidences(model, pool))
    for n in (0, 1):
        pool = rng.normal(size=(n, d))
        assert_same_predictions(confidences(model, pool), ref_confidences(model, pool))


@pytest.mark.parametrize("c", CLASS_COUNTS)
def test_confidences_on_logits_rounded_to_one_decimal(c):
    # Coarse logits give many exact probability ties; the class must be the
    # first one with the highest probability.
    rng = np.random.default_rng(c)
    model = identity_model(c)
    for spread in (0.3, 1.0, 4.0):
        logits = np.round(rng.normal(0.0, spread, size=(300, c)), 1)
        classes, conf = confidences(model, logits)
        assert_same_predictions((classes, conf), ref_confidences(model, logits))
    ties = np.zeros((3, c))
    ties[1, c // 2 :] = 2.5
    ties[2, -1] = ties[2, 0] = -1.0
    classes, _ = confidences(model, ties)
    assert classes.tolist() == [0, c // 2, 1 if c > 2 else 0]


def test_class_is_first_highest_probability_not_logit():
    # exp(-1e-17) rounds to 1.0, so both probabilities are 0.5 although the
    # second logit is larger.
    model = identity_model(2)
    logits = np.array([[-1e-17, 0.0], [0.0, -1e-17], [0.0, 1.0]])
    classes, conf = confidences(model, logits)
    assert classes.tolist() == [0, 0, 1]
    assert conf[0] == conf[1] == 0.5
    assert_same_predictions((classes, conf), ref_confidences(model, logits))


@pytest.mark.parametrize(
    "c", list(range(1, 40)) + [127, 128, 129, 136, 255, 256, 257, 300, 1000, 1029]
)
def test_pairwise_sum_follows_numpy_row_sum(c):
    rng = np.random.default_rng(c)
    for a in (rng.exponential(size=(c, 50)), np.round(rng.uniform(0, 1, size=(c, 50)), 1)):
        want = np.ascontiguousarray(a.T).sum(axis=1)
        assert np.array_equal(_pairwise_sum(a), want)


# ---------------------------------------------------------------- stacked confidences


def rows_per_block(k, c):
    return max(1, SOFTMAX_BLOCK // (k * c))


@pytest.mark.parametrize("k", [1, 2, 38])
@pytest.mark.parametrize("c", CLASS_COUNTS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stacked_confidences_bit_equal_model_by_model(family, c, k):
    rng = np.random.default_rng(100 * c + 10 * k + FAMILIES[family])
    d = 5
    models = [random_model(rng, d, c, FAMILIES[family], rounded=i % 3 == 2) for i in range(k)]
    if k > 2:
        models[-1] = models[0]
    block = rows_per_block(k, c)
    for n in (0, 1, min(block, 37), 3 * block + 7):
        pool = rng.normal(size=(n, d))
        if n % 2:
            pool = np.round(pool, 1)
        assert_stacked_matches(models, pool)


@pytest.mark.parametrize(
    "d,c,hidden", [(32, 10, 0), (20, 10, 32), (32, 33, 0), (16, 6, 0), (8, 4, 0)]
)
def test_stacked_confidences_on_row_count_sensitive_shapes(d, c, hidden):
    # BLAS results can depend on the row count for these shapes, so the
    # matmuls must run over the whole pool, whatever the softmax blocks.
    rng = np.random.default_rng(d + c + hidden)
    for k in (1, 2, 12, 38):
        models = [random_model(rng, d, c, hidden, scale=0.5) for _ in range(k)]
        for n in (3, 76, rows_per_block(k, c) + 1, 980):
            assert_stacked_matches(models, rng.normal(size=(n, d)))


@pytest.mark.parametrize("c", [2, 5, 9, 33, 129])
def test_stacked_confidences_keep_first_of_tied_probabilities(c):
    # Identity and permuted-identity models see one-decimal logits, so
    # exact ties land on different classes in different models.
    rng = np.random.default_rng(c)
    models = [identity_model(c)]
    for _ in range(3):
        perm = np.eye(c)[rng.permutation(c)]
        models.append(ModelParams(np.concatenate([perm.ravel(), np.zeros(c)]), c, c))
    logits = np.round(rng.normal(0.0, 0.5, size=(400, c)), 1)
    logits[:5] = 0.0
    assert_stacked_matches(models, logits)
    classes, _ = confidences(models, logits[:5])
    assert (classes == 0).all()


def test_stacked_confidences_nan_model_matches_row_wise():
    rng = np.random.default_rng(4)
    models = [random_model(rng, 3, 5, hidden) for hidden in (0, 0, 0)]
    models[1].weights[2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_stacked_matches(models, rng.normal(size=(20, 3)))
        classes, conf = confidences(models, rng.normal(size=(4, 3)))
    assert (classes[1] == 0).all() and np.isnan(conf[1]).all()


def test_one_model_gives_one_dimensional_arrays():
    rng = np.random.default_rng(2)
    model = random_model(rng, 4, 6, 7)
    for n in (0, 1, 50):
        classes, conf = confidences(model, rng.normal(size=(n, 4)))
        assert classes.shape == conf.shape == (n,)
        classes, conf = confidences([model], rng.normal(size=(n, 4)))
        assert classes.shape == conf.shape == (1, n)


# ---------------------------------------------------------------- stacked holdout


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_stacked_evaluate_matches_one_model_at_a_time(family):
    rng = np.random.default_rng(5)
    for c in (2, 6, 9, 33):
        models = [random_model(rng, 4, c, FAMILIES[family], rounded=k % 2 == 1)
                  for k in range(5)]
        models.append(models[0])
        for n in (1, 4, 13):
            batch = LabeledBatch(rng.normal(size=(n, 4)), rng.integers(0, c, size=n))
            want = [ref_evaluate(m, batch) for m in models]
            assert evaluate(models, batch) == want
            assert [evaluate(m, batch) for m in models] == want


def test_stacked_evaluate_rejects_mixed_shapes_and_no_models():
    batch = LabeledBatch(np.zeros((2, 3)), np.array([0, 1]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="different shapes"):
        evaluate([random_model(rng, 3, 2, 0), random_model(rng, 3, 2, 4)], batch)
    with pytest.raises(ValueError, match="at least one model"):
        evaluate([], batch)
    # confidences stacks its models the same way.
    with pytest.raises(ValueError, match="different shapes"):
        confidences([random_model(rng, 3, 2, 0), random_model(rng, 3, 3, 0)], batch.features)
    with pytest.raises(ValueError, match="at least one model"):
        confidences([], batch.features)


# ---------------------------------------------------------------- selection


@pytest.mark.parametrize("c", CLASS_COUNTS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_selection_and_labels_match_reference(family, c):
    rng = np.random.default_rng(7000 + 10 * c + FAMILIES[family])
    d, hidden = 6, FAMILIES[family]
    for trial in range(3):
        rounded = trial == 2
        device = make_device(rng, d, c, n_pool=int(rng.integers(2, 300)), rounded=rounded)
        models = [random_model(rng, d, c, hidden, scale=0.8, rounded=rounded) for _ in range(4)]
        # Duplicates: the same object under two ids and an equal copy.
        candidates = {7: models[0], 3: models[1], 11: models[0], 5: models[2],
                      2: ModelParams(models[1].weights.copy(), d, c, hidden), 9: models[3]}
        check_selection(device, candidates, phi=float(rng.choice([0.0, 0.3, 0.6, 0.95])))


@pytest.mark.parametrize("k", [1, 2, 38])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_selection_over_many_candidates_matches_reference(family, k):
    # About 38 candidates over a pool of about 76 rows, as on split-512.
    rng = np.random.default_rng(40 + k + FAMILIES[family])
    for c in (4, 6):
        device = make_device(rng, 8, c, n_pool=76)
        models = {3 * i + 1: random_model(rng, 8, c, FAMILIES[family], scale=0.6)
                  for i in range(k)}
        check_selection(device, models, phi=0.6)


@pytest.mark.parametrize("n_pool", [0, 1])
def test_selection_on_empty_and_one_row_pools_warns_nothing(n_pool):
    rng = np.random.default_rng(21 + n_pool)
    device = make_device(rng, 3, 4, n_pool=n_pool)
    models = {k: random_model(rng, 3, 4, 0) for k in range(5)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, scores, (classes, conf) = select_best_model(device, models, 0.5, 2e9, 20.0)
    assert classes.shape == conf.shape == (n_pool,)
    if n_pool == 0:
        assert all(s.coverage == s.mean_confidence == 0.0 for s in scores.values())


def test_selection_counts_confidence_equal_to_phi():
    # Tied logits give a confidence of exactly 1/2 and a 40-wide gap one
    # of exactly 1.0; both reach a threshold equal to them.
    rng = np.random.default_rng(14)
    device = make_device(rng, 2, 2, n_pool=6)
    device.unlabeled_features[:] = [[0, 0], [1, 1], [40, 0], [0, 40], [2, 0], [0.5, 0.5]]
    models = {1: identity_model(2), 2: ModelParams(np.array([0, 1, 1, 0, 0, 0.0]), 2, 2)}
    for phi in (0.5, 1.0):
        check_selection(device, models, phi=phi)
    _, scores, _ = select_best_model(device, models, 0.5, 2e9, 20.0)
    assert scores[1].coverage == 1.0
    # The swapped model loses on holdout accuracy, so selection never scores
    # it over the pool; alone it covers the pool too.
    loser = utility(2, models[2], device, 0.5, 2e9, 20.0)
    assert loser.val_accuracy < scores[1].val_accuracy and loser.coverage == 1.0
    assert 2 not in scores


def test_selection_ties_on_identical_candidates():
    rng = np.random.default_rng(3)
    device = make_device(rng, 4, 5)
    model = random_model(rng, 4, 5, 0)
    decision = check_selection(device, {8: model, 4: model, 6: model})
    assert decision.chosen_model_id == 4


@pytest.mark.parametrize("n_pool", [0, 1])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_selection_on_empty_and_one_row_pools(family, n_pool):
    rng = np.random.default_rng(11 + n_pool)
    for c in (2, 9, 129):
        device = make_device(rng, 3, c, n_pool=n_pool)
        models = {k: random_model(rng, 3, c, FAMILIES[family]) for k in range(3)}
        check_selection(device, models, phi=0.0)
        check_selection(device, models, phi=0.5)


def test_selection_after_injection_shrinks_pool_to_one_row():
    rng = np.random.default_rng(12)
    device = make_device(rng, 3, 4, n_pool=5)
    device.injected_mask[[0, 1, 3, 4]] = True
    device.injected_labels[[0, 1, 3, 4]] = 0
    models = {k: random_model(rng, 3, 4, 0) for k in range(4)}
    check_selection(device, models, phi=0.2)


def test_selection_with_empty_holdout_matches_reference():
    rng = np.random.default_rng(13)
    device = make_device(rng, 4, 3, n_holdout=0)
    check_selection(device, {k: random_model(rng, 4, 3, 7) for k in range(5)})


# ---------------------------------------------------------------- selection fuzz


def permute_classes(model: ModelParams, perm) -> ModelParams:
    """The model with its output classes reordered by `perm`."""
    *hidden_layer, w, b = _unpack(model)
    flat = [v.ravel() for v in hidden_layer] + [w[:, perm].ravel(), b[perm]]
    return ModelParams(np.concatenate(flat), model.dim_in, model.dim_out, model.hidden)


def fuzz_case(rng, family, k):
    """A device with a 1-4 row holdout and a pool of 0, 1, about 80 or about
    600 rows, and k candidates under shuffled ids, drawn with repeats from
    fewer distinct models, equal copies and class-permuted copies among
    them; phi is sometimes a confidence that a candidate reaches."""
    d, c = int(rng.integers(2, 7)), int(rng.choice([2, 3, 4, 6]))
    hidden = FAMILIES[family]
    n_holdout = int(rng.integers(1, 5))
    n_pool = int(rng.choice([0, 1, rng.integers(70, 91), rng.integers(550, 651)]))
    rounded = bool(rng.integers(2))
    device = make_device(rng, d, c, n_labeled=n_holdout + 4, n_pool=n_pool,
                         n_holdout=n_holdout, rounded=rounded)
    distinct = [random_model(rng, d, c, hidden, scale=float(rng.choice([0.3, 1.0, 3.0])),
                             rounded=rounded) for _ in range(int(rng.integers(1, k + 1)))]
    models = []
    for _ in range(k):
        m = distinct[int(rng.integers(len(distinct)))]
        kind = int(rng.integers(4))
        if kind == 1:
            m = ModelParams(m.weights.copy(), d, c, hidden)
        elif kind == 2:
            m = permute_classes(m, rng.permutation(c))
        models.append(m)
    ids = rng.choice(1000, size=k, replace=False).tolist()
    candidates = dict(zip(ids, models))
    _, pool = device.pending_features()
    if n_pool and rng.integers(3) == 0:
        _, conf = ref_confidences(models[int(rng.integers(k))], pool)
        phi = float(conf[int(rng.integers(n_pool))])
    else:
        phi = float(rng.choice([0.0, 0.3, 0.6, 0.95, 1.0]))
    return device, candidates, phi


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_selection_fuzz_scores_pool_only_for_best_accuracy(family):
    rng = np.random.default_rng(90 + FAMILIES[family])
    pruned = tied = 0
    for k in range(1, 41):
        for _ in range(4):
            device, candidates, phi = fuzz_case(rng, family, k)
            want_decision, want_scores = ref_select_best_model(device, candidates, phi, 2e9, 20.0)
            _, feats = device.pending_features()
            decision, scores, predictions = select_best_model(
                device, candidates, phi, 2e9, 20.0, pool=feats
            )
            assert decision == want_decision
            best = max(s.val_accuracy for s in want_scores.values())
            contenders = [mid for mid, s in want_scores.items() if s.val_accuracy == best]
            assert list(scores) == contenders
            assert all(scores[mid] == want_scores[mid] for mid in contenders)
            chosen = decision.chosen_model_id
            assert_same_predictions(predictions, ref_confidences(candidates[chosen], feats))
            pruned += len(contenders) < k
            tied += len(contenders) > 1
    # The fuzz must reach both paths: candidates left out of the pool pass,
    # and contenders that tie on accuracy and are ranked by coverage.
    assert pruned >= 100 and tied >= 100
