"""Oracle checks for candidate scoring in one pass per device.

The reference below, on the row-wise model reference of `references.py`,
is a copy of the row-wise code that `models.confidences`,
`labeling.utility`, `labeling.select_best_model` and `labeling.pseudo_label`
replaced, trimmed to the record fields they still fill: one `utility` call per candidate, each reading the holdout and the
pool again, a row-wise softmax, a full lexicographic sort of every
candidate's (model id, holdout accuracy, coverage, estimated labeling
latency; the latency is the same for every candidate, so it never
decides), and a second forward pass of the chosen model in `pseudo_label`.
The class-major, one-pass code must give the same bits: equal (classes,
confidences), the chosen model's equal id, accuracy and coverage, every
candidate's equal accuracy and coverage from `utility`, and equal
PseudoLabelBatch arrays, for every class count; only the contenders, the
candidates tied at the best accuracy, may run over the pool. `confidences`
on a list of K models must give each model the row-wise bits it gets
alone, for pools inside one softmax block and across several.
"""

import logging
import warnings

import numpy as np
import pytest

from cfsl import labeling, models
from cfsl.config import DataConfig
from cfsl.data import DeviceDataset, csv_devices
from cfsl.errors import StateError
from cfsl.labeling import (
    PseudoLabelBatch,
    holdout_accuracies,
    inject,
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
    pool_predictions,
)
from references import (
    _unpack,
    contender_ids,
    holdout_devices,
    record_pool_passes,
    ref_confidences,
    ref_evaluate,
    select_alone,
)

log = logging.getLogger(__name__)

# ---------------------------------------------------------------- reference


def ref_pseudo_label(
    model: ModelParams,
    features: np.ndarray,
    phi: float,
    device_id: int = -1,
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
        phi=phi,
    )


def ref_utility(
    model_id: int,
    model: ModelParams,
    device: DeviceDataset,
    phi: float,
    f_hz: float,
    inference_cycles_per_sample: float,
) -> tuple:
    """(model id, holdout accuracy, coverage, estimated labeling latency):
    score a candidate on never-trained holdout accuracy plus how much
    of the remaining unlabeled pool it would label at threshold phi.

    Estimated labeling latency is the single inference pass over the
    remaining pool on this device's CPU; it depends on the device, not
    the model, so it only matters as a documented tie-break dimension.
    """
    holdout = device.holdout
    if len(holdout) == 0:
        log.warning(
            "device %d: empty holdout, scoring val_accuracy on the full labeled set",
            device.device_id,
        )
        holdout = device.train
    val_acc = ref_evaluate(model, holdout)

    _, pending = device.pending_features()
    n_pending = pending.shape[0]
    if n_pending == 0:
        return model_id, val_acc, 0.0, 0.0
    _, conf = ref_confidences(model, pending)
    coverage = float((conf >= phi).mean())
    latency = n_pending * inference_cycles_per_sample / f_hz
    return model_id, val_acc, coverage, latency


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
    id. Returns the chosen candidate's score plus every candidate's score.
    """
    if not candidates:
        raise StateError(f"device {device.device_id}: no candidate models to select from")
    scores = {
        mid: ref_utility(mid, model, device, phi, f_hz, inference_cycles_per_sample)
        for mid, model in candidates.items()
    }
    ranked = sorted(
        scores.values(),
        key=lambda s: (-s[1], -s[2], s[3], s[0]),
    )
    return ranked[0], scores


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


def make_device(rng, d, c, n_labeled=10, n_pool=60, n_holdout=4, rounded=False, pool=None):
    """A device of seeded random rows; `pool`, if given, replaces the drawn
    pool features after every draw."""
    labels = rng.integers(0, c, size=n_labeled)
    feats = rng.normal(size=(n_labeled, d))
    drawn = rng.normal(size=(n_pool, d))
    pool = drawn if pool is None else np.array(pool, dtype=np.float64)
    if rounded:
        feats, pool = np.round(feats, 1), np.round(pool, 1)
    device_id = int(rng.integers(0, 100))
    hidden_truth = rng.integers(0, c, size=n_pool)
    held = np.sort(rng.choice(n_labeled, size=n_holdout, replace=False))
    train = np.setdiff1d(np.arange(n_labeled), held)
    return DeviceDataset(
        device_id=device_id,
        features=np.concatenate([feats[held], feats[train], pool]),
        labels=np.concatenate([labels[held], labels[train], hidden_truth]),
        n_holdout=n_holdout,
        n_train=train.size,
        distribution_id=0,
        class_whitelist=tuple(range(c)),
        test=LabeledBatch(feats, labels),
    )


def assert_same_predictions(got, want):
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1], equal_nan=True)


def assert_stacked_matches(scorers, pool):
    """Stacked confidences, row k bit-equal to model k scored alone by the
    row-wise reference. So is every item form of the kernel, under budgets
    of one activation, of three items and of the default block: the
    diagonal pair form, each model alone on a pool of its own (even models
    on `pool`, odd ones on its rows reversed), and runs of one pool length
    that mix the shared list with another (the models reversed)."""
    other = pool[::-1].copy()
    want = {id(x): [ref_confidences(m, x) for m in scorers] for x in (pool, other)}
    classes, conf = confidences(scorers, pool)
    assert classes.shape == conf.shape == (len(scorers), pool.shape[0])
    for k, model in enumerate(scorers):
        assert_same_predictions((classes[k], conf[k]), want[id(pool)][k])
    # (models, pool, index of each model in `scorers`)
    items = [([m], (pool, other)[k % 2], [k]) for k, m in enumerate(scorers)]
    every, back = range(len(scorers)), range(len(scorers) - 1, -1, -1)
    rev = scorers[::-1]
    items += [(scorers, pool, every), (scorers, other, every), (rev, pool, back),
              (scorers, other, every), (rev, other, back)]
    row = pool.shape[0] * (scorers[0].dim_out + scorers[0].hidden)
    for budget in (1, 3 * row, SOFTMAX_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "SOFTMAX_BLOCK", budget)
            got = list(pool_predictions([(group, x) for group, x, _ in items]))
        for (group, x, ks), (classes, conf) in zip(items, got, strict=True):
            assert classes.shape == conf.shape == (len(group), x.shape[0])
            for j, k in enumerate(ks):
                assert_same_predictions((classes[j], conf[j]), want[id(x)][k])


def assert_same_batch(got: PseudoLabelBatch, want: PseudoLabelBatch):
    assert (got.device_id, got.phi) == (want.device_id, want.phi)
    for name in ("indices", "labels", "confidences"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def contenders(candidates, scores) -> list:
    """`id` of each candidate model tied at the best reference holdout
    accuracy, in candidate order: the models selection may run over the
    pool."""
    best = max(s[1] for s in scores.values())
    return [id(candidates[mid]) for mid, s in scores.items() if s[1] == best]


def check_selection(device, candidates, phi=0.6):
    """One-pass selection and labeling against the reference, field by field."""
    want_chosen, want_scores = ref_select_best_model(device, candidates, phi, 2e9, 20.0)
    idx, feats = device.pending_features()
    with pytest.MonkeyPatch.context() as mp:
        passes = record_pool_passes(mp)
        mid, acc, cov, predictions = select_alone(device, candidates, phi)
    assert (mid, acc, cov) == want_chosen[:3]
    # Only the candidates tied at the best holdout accuracy can win; they
    # alone run over the pool, in candidate order, in one pass.
    assert passes == [contenders(candidates, want_scores)]
    for m, want in want_scores.items():
        assert utility(m, candidates[m], device, phi) == want[1:3]
    # A second read of the pool selects the same model.
    assert select_alone(device, candidates, phi)[0] == mid

    model = candidates[mid]
    assert_same_predictions(predictions, ref_confidences(model, feats))
    want_batch = ref_pseudo_label(model, feats, phi, device.device_id, idx)
    assert_same_batch(
        pseudo_label(model, feats, phi, device.device_id, idx, predictions=predictions),
        want_batch,
    )
    assert_same_batch(pseudo_label(model, feats, phi, device.device_id, idx), want_batch)
    return mid


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
        assert_stacked_matches([model], pool)
    for n in (0, 1):
        assert_stacked_matches([model], rng.normal(size=(n, d)))


@pytest.mark.parametrize("c", CLASS_COUNTS)
def test_confidences_on_logits_rounded_to_one_decimal(c):
    # Coarse logits give many exact probability ties; the class must be the
    # first one with the highest probability.
    rng = np.random.default_rng(c)
    model = identity_model(c)
    for spread in (0.3, 1.0, 4.0):
        assert_stacked_matches([model], np.round(rng.normal(0.0, spread, size=(300, c)), 1))
    ties = np.zeros((3, c))
    ties[1, c // 2 :] = 2.5
    ties[2, -1] = ties[2, 0] = -1.0
    classes, _ = confidences([model], ties)
    assert classes.tolist() == [[0, c // 2, 1 if c > 2 else 0]]


def test_class_is_first_highest_probability_not_logit():
    # exp(-1e-17) rounds to 1.0, so both probabilities are 0.5 although the
    # second logit is larger.
    model = identity_model(2)
    logits = np.array([[-1e-17, 0.0], [0.0, -1e-17], [0.0, 1.0]])
    (classes,), (conf,) = confidences([model], logits)
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


def test_one_model_gives_one_row():
    rng = np.random.default_rng(2)
    model = random_model(rng, 4, 6, 7)
    for n in (0, 1, 50):
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
            devices = holdout_devices([batch])
            assert holdout_accuracies(devices, dict(enumerate(models))).tolist() == [want]
            assert [evaluate([m], [batch])[0] for m in models] == want


def test_stacked_evaluate_rejects_mixed_shapes_and_no_models():
    batch = LabeledBatch(np.zeros((2, 3)), np.array([0, 1]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="different shapes"):
        evaluate([random_model(rng, 3, 2, 0), random_model(rng, 3, 2, 4)], [batch, batch])
    with pytest.raises(ValueError, match="at least one model"):
        evaluate([], [batch])
    # confidences stacks its models the same way.
    with pytest.raises(ValueError, match="different shapes"):
        confidences([random_model(rng, 3, 2, 0), random_model(rng, 3, 3, 0)], batch.features)
    with pytest.raises(ValueError, match="at least one model"):
        confidences([], batch.features)


def csv_case(tmp_path, rng, d, c):
    """20 csv devices, 18 with holdouts of 4 rows (more than one block of
    16 holdouts, under a patched `SOFTMAX_BLOCK`) and 2 of 3 rows (138
    labeled rows dealt round-robin, half held out), features on a
    one-decimal grid so that logits tie, then two devices with empty
    holdouts."""
    rows = [",".join(f"{v:.1f}" for v in rng.normal(size=d)) + f",{rng.integers(c)}"
            for _ in range(138)]
    rows += [",".join(f"{v:.1f}" for v in rng.normal(size=d)) + "," for _ in range(12)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    data = DataConfig(mode="csv", csv_path=str(path), features=d, classes=c,
                      holdout_fraction=0.5)
    devices = csv_devices(data, 20, seed=0)
    for device_id in (20, 21):
        device = make_device(rng, d, c, n_holdout=0, rounded=True)
        device.device_id = device_id
        devices.append(device)
    return devices


@pytest.mark.parametrize("k", (1, 7, 30))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_holdout_accuracies_equal_evaluate_device_by_device(family, k, tmp_path, caplog,
                                                           monkeypatch):
    rng = np.random.default_rng([k, FAMILIES[family]])
    d, c = 5, 4
    devices = csv_case(tmp_path, rng, d, c)
    assert [len(dev.holdout) for dev in devices].count(4) > 16
    assert sorted({len(dev.holdout) for dev in devices}) == [0, 3, 4]
    candidates = {10 + j: random_model(rng, d, c, FAMILIES[family], rounded=j % 2 == 1)
                  for j in range(k)}
    models = list(candidates.values())
    with caplog.at_level(logging.WARNING, logger="cfsl.labeling"):
        got = holdout_accuracies(devices, candidates)
    assert got.shape == (len(devices), k)
    # The empty holdouts fall back to the train rows, with one warning each.
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["device 20", "device 21"]
    # Blocks of 16 holdouts of 4 rows, or of one holdout, change no bit.
    for budget in (16 * 4 * k * c, 1):
        with monkeypatch.context() as mp:
            mp.setattr("cfsl.models.SOFTMAX_BLOCK", budget)
            assert np.array_equal(holdout_accuracies(devices, candidates), got)
    for dev, row in zip(devices, got.tolist()):
        scored = dev.holdout if len(dev.holdout) else dev.train
        assert row == [ref_evaluate(m, scored) for m in models]
        assert all(type(v) is float for v in row)
        # Given the accuracies and the pool predictions, selection only
        # ranks: it neither scores nor warns again.
        ids = contender_ids(candidates, row)
        predictions = confidences([candidates[mid] for mid in ids], dev.pending_features()[1])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cfsl.labeling"), \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(labeling, "pool_predictions", None)
            mp.setattr(labeling, "confidences", None)
            picked = select_best_model(dev, ids, 0.6, predictions)
        assert not caplog.records
        mid, _, coverage, _ = select_alone(dev, candidates, 0.6)
        assert picked[:2] == (mid, coverage)


def test_holdout_accuracies_score_ragged_and_reject_empty_batches():
    rng = np.random.default_rng(3)
    model = random_model(rng, 3, 2, 0)
    batches = [LabeledBatch(rng.normal(size=(n, 3)), rng.integers(0, 2, size=n))
               for n in (2, 3, 0)]
    assert holdout_accuracies(holdout_devices(batches[:1]), {0: model}).tolist() == [
        [ref_evaluate(model, batches[0])]]
    # Batches of different lengths, in either order.
    for pair in (batches[:2], batches[1::-1]):
        got = holdout_accuracies(holdout_devices(pair), {0: model})
        assert got.tolist() == [[ref_evaluate(model, b)] for b in pair]
    for empty in (batches[2:], batches):
        with pytest.raises(ValueError, match="no labeled rows to score accuracy on"):
            holdout_accuracies(holdout_devices(empty), {0: model})
    # The errors name the holdout pass, not the kernel it runs.
    with pytest.raises(ValueError, match=r"^holdout_accuracies requires at least one device$"):
        holdout_accuracies([], {0: model})
    with pytest.raises(ValueError, match=r"^holdout_accuracies requires at least one model$"):
        holdout_accuracies(holdout_devices(batches[:1]), {})
    mixed = {0: model, 1: random_model(rng, 3, 2, 4)}
    with pytest.raises(ValueError, match=r"^holdout_accuracies: models with different "
                                         r"shapes cannot be stacked$"):
        holdout_accuracies(holdout_devices(batches[:2]), mixed)


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
        _, _, coverage, (classes, conf) = select_alone(device, models, 0.5)
        if n_pool == 0:
            assert coverage == 0.0
            assert all(utility(k, m, device, 0.5)[1] == 0.0 for k, m in models.items())
    assert classes.shape == conf.shape == (n_pool,)


def test_selection_counts_confidence_equal_to_phi(monkeypatch):
    # Tied logits give a confidence of exactly 1/2 and a 40-wide gap one
    # of exactly 1.0; both reach a threshold equal to them.
    rng = np.random.default_rng(14)
    device = make_device(rng, 2, 2, n_pool=6,
                         pool=[[0, 0], [1, 1], [40, 0], [0, 40], [2, 0], [0.5, 0.5]])
    models = {1: identity_model(2), 2: ModelParams(np.array([0, 1, 1, 0, 0, 0.0]), 2, 2)}
    for phi in (0.5, 1.0):
        check_selection(device, models, phi=phi)
    passes = record_pool_passes(monkeypatch)
    mid, acc, cov, _ = select_alone(device, models, 0.5)
    assert (mid, cov) == (1, 1.0)
    # The swapped model loses on holdout accuracy, so selection never runs
    # it over the pool; alone it covers the pool too.
    assert passes == [[id(models[1])]]
    loser_acc, loser_cov = utility(2, models[2], device, 0.5)
    assert loser_acc < acc and loser_cov == 1.0


def test_selection_ties_on_identical_candidates():
    rng = np.random.default_rng(3)
    device = make_device(rng, 4, 5)
    model = random_model(rng, 4, 5, 0)
    assert check_selection(device, {8: model, 4: model, 6: model}) == 4


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
    device.inject([0, 1, 3, 4], [0] * 4)
    models = {k: random_model(rng, 3, 4, 0) for k in range(4)}
    check_selection(device, models, phi=0.2)


def test_selection_with_empty_holdout_matches_reference():
    rng = np.random.default_rng(13)
    device = make_device(rng, 4, 3, n_holdout=0)
    check_selection(device, {k: random_model(rng, 4, 3, 7) for k in range(5)})


# ---------------------------------------------------------------- labeling phase


def phase_case(rng, family, c):
    """Devices of one labeling phase in device order, each with (device,
    candidates): pools of 0, 1, 5 and about 80 rows, holdouts of 1-4 rows
    and 1-12 candidates under shuffled ids drawn from 4 shared models. The
    first device has one candidate, the second 12 copies of one model, so
    that the contenders number from 1 to 12."""
    d, hidden = 5, FAMILIES[family]
    shared = [random_model(rng, d, c, hidden, scale=float(rng.choice([0.3, 1.0, 3.0])),
                           rounded=j % 2 == 1) for j in range(4)]
    phase = []
    for i, n_pool in enumerate((1, 80, 0, 5, 80, 1, 79, 81)):
        n_holdout = int(rng.integers(1, 5))
        device = make_device(rng, d, c, n_labeled=n_holdout + 4, n_pool=n_pool,
                             n_holdout=n_holdout, rounded=i % 2 == 0)
        k = (1, 12)[i] if i < 2 else int(rng.integers(1, 13))
        ids = rng.choice(1000, size=k, replace=False).tolist()
        picks = [0] * k if i == 1 else rng.integers(len(shared), size=k)
        phase.append((device, {mid: shared[j] for mid, j in zip(ids, picks)}))
    return phase


def batched_phase(phase, phi, accuracy):
    """The labeling phase as `Simulation._labeling_phase` runs it, given
    each device's holdout accuracies: one `pool_predictions` pass over
    every device's contenders on its pending pool, consumed in device
    order, each device selecting, pseudo-labeling and injecting before the
    next is taken. Returns each device's (pool pass, (model id, holdout
    accuracy, coverage, predictions), batch)."""
    pending = [dev.pending_features() for dev, _ in phase]
    ids = [contender_ids(candidates, acc) for (_, candidates), acc in zip(phase, accuracy)]
    scored = pool_predictions(
        ([candidates[mid] for mid in contenders], feats)
        for (_, candidates), contenders, (_, feats) in zip(phase, ids, pending))
    out = []
    for (dev, candidates), contenders, acc, (idx, feats), pool_pass in zip(
            phase, ids, accuracy, pending, scored):
        # The phase keeps each device's best accuracy from its holdout pass.
        mid, coverage, predictions = select_best_model(dev, contenders, phi, pool_pass)
        batch = pseudo_label(candidates[mid], feats, phi, dev.device_id, idx, predictions)
        inject(dev, batch)
        out.append((pool_pass, (mid, max(acc), coverage, predictions), batch))
    return out


# SOFTMAX_BLOCK for each way of cutting a phase into blocks, from the
# phase's largest group (its contenders times its pool rows times the
# kernel's row size, classes plus hidden units), the total of its groups,
# and one model on its largest pool.
BUDGETS = {
    "rows of one model": lambda largest, total, rows: 1,
    "two models of one group": lambda largest, total, rows: 2 * rows,
    "whole groups": lambda largest, total, rows: largest,
    "one block": lambda largest, total, rows: total,
}


@pytest.mark.parametrize("blocks", sorted(BUDGETS))
@pytest.mark.parametrize("c", [2, 6, 33])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batched_phase_equals_each_device_alone(family, c, blocks, monkeypatch):
    rng = np.random.default_rng([c, FAMILIES[family], len(blocks)])
    phase = phase_case(rng, family, c)
    phi = 0.6
    # The reference, device by device, on the pools before any injection.
    want = []
    for dev, candidates in phase:
        chosen, scores = ref_select_best_model(dev, candidates, phi, 2e9, 20.0)
        idx, feats = (a.copy() for a in dev.pending_features())
        want.append((chosen, scores, feats, ref_pseudo_label(
            candidates[chosen[0]], feats, phi, dev.device_id, idx)))
    ran = [len(contenders(candidates, scores)) for (_, candidates), (_, scores, _, _)
           in zip(phase, want)]
    row = c + FAMILIES[family]
    sizes = [k * feats.shape[0] * row for k, (_, _, feats, _) in zip(ran, want)]
    rows = max(feats.shape[0] for _, _, feats, _ in want) * row
    monkeypatch.setattr(models, "SOFTMAX_BLOCK", BUDGETS[blocks](max(sizes), sum(sizes), rows))
    accuracy = [holdout_accuracies([dev], candidates)[0].tolist() for dev, candidates in phase]
    # The number of models of each item of each block the pool pass scores.
    passes = []
    real_table = models._table

    def table(block):
        passes.append([k for k, _, _, _, _ in block])
        return real_table(block)
    monkeypatch.setattr(models, "_table", table)

    got = batched_phase(phase, phi, accuracy)
    for (dev, candidates), (chosen, scores, feats, batch), (pool_pass, selection, got_batch) \
            in zip(phase, want, got):
        assert selection[:3] == chosen[:3]
        ids = [mid for mid, s in scores.items() if s[1] == chosen[1]]
        classes, conf = pool_pass
        assert classes.shape == conf.shape == (len(ids), feats.shape[0])
        for k, mid in enumerate(ids):
            assert_same_predictions((classes[k], conf[k]), ref_confidences(candidates[mid], feats))
        assert_same_predictions(selection[3], ref_confidences(candidates[chosen[0]], feats))
        assert_same_batch(got_batch, batch)
    # The phase reaches one and many contenders, and injects.
    assert {1, 12} <= set(ran)
    assert sum(len(b) for _, _, b in got) > 0
    flat = [k for p in passes for k in p]
    # An empty pool is no larger than a block: its contenders are one item.
    alone = [m for k, (_, _, feats, _) in zip(ran, want) for m in ([1] * k if len(feats) else [k])]
    assert {"rows of one model": flat == alone,
            # The second device's 12 contenders on 80 rows: 6 items.
            "two models of one group": flat.count(2) >= 6 and sum(flat) == sum(ran),
            "whole groups": flat == ran and 1 < max(map(len, passes)) < len(ran),
            "one block": passes == [ran]}[blocks], passes


def test_pool_predictions_score_a_group_with_its_own_block():
    # The generator takes a group ahead to find where a block ends, but
    # runs that group's rows only with its own block: until then the rows
    # may still change.
    rng = np.random.default_rng(5)
    model = random_model(rng, 3, 2, 0)
    pools = [rng.normal(size=(4, 3)) for _ in range(3)]
    read = []

    def groups():
        for i, pool in enumerate(pools):
            read.append(i)
            yield [model], pool
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "SOFTMAX_BLOCK", 2 * 4 * 2)
        scored = pool_predictions(groups())
        first = next(scored)
        assert read == [0, 1, 2]
        pools[2] *= 2.0
        rest = list(scored)
    for (classes, conf), pool in zip([first, *rest], pools):
        assert_same_predictions((classes[0], conf[0]), ref_confidences(model, pool))
    with pytest.raises(ValueError, match="different shapes"):
        list(pool_predictions([([model], pools[0]), ([random_model(rng, 3, 3, 0)], pools[1])]))


class StackCounter:
    """numpy, counting the `array` calls that stack model weight vectors."""

    def __init__(self):
        self.built = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, obj, *args, **kwargs):
        if isinstance(obj, list) and all(isinstance(w, np.ndarray) and w.ndim == 1 for w in obj):
            self.built += 1
        return np.array(obj, *args, **kwargs)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pool_predictions_share_the_stack_of_the_same_models(family, monkeypatch):
    # Groups of the same models in the same order take one weight stack for
    # the whole pass, whichever list carries them and whatever the blocks;
    # the same models reordered take another. Every group gets each model's
    # bits alone.
    rng = np.random.default_rng([8, FAMILIES[family]])
    shared = [random_model(rng, 3, 4, FAMILIES[family], rounded=k % 2 == 1) for k in range(5)]
    pools = [rng.normal(size=(n, 3)) for n in (1, 4, 0, 7, 2, 4, 4)]
    stacks = StackCounter()
    monkeypatch.setattr(models, "np", stacks)
    row = 4 + FAMILIES[family]
    one_list = [shared] * len(pools)
    copies = [list(shared) for _ in pools]
    reordered = [shared[::-1] if i % 2 else list(shared) for i in range(len(pools))]
    # One model at a time, chunks of 2 models, three groups of 4 rows, one block.
    for budget in (1, 2 * 4 * row, 3 * 5 * 4 * row, SOFTMAX_BLOCK):
        monkeypatch.setattr(models, "SOFTMAX_BLOCK", budget)
        for lists, built in ((one_list, 1), (copies, 1), (reordered, 2)):
            stacks.built = 0
            scored = list(pool_predictions(zip(lists, pools)))
            assert stacks.built == built
            for group, pool, (classes, conf) in zip(lists, pools, scored, strict=True):
                for k, model in enumerate(group):
                    assert_same_predictions((classes[k], conf[k]), ref_confidences(model, pool))
    # The last chunk of a list cut into chunks of 2 models, and a list of
    # as many models on as many rows after it: one run of two lists.
    monkeypatch.setattr(models, "SOFTMAX_BLOCK", 2 * 4 * row)
    groups = [(shared, pools[1]), (shared[:1], pools[5]), (shared[1:2], pools[6])]
    for (group, pool), (classes, conf) in zip(groups, pool_predictions(groups), strict=True):
        assert classes.shape == (len(group), len(pool))
        for k, model in enumerate(group):
            assert_same_predictions((classes[k], conf[k]), ref_confidences(model, pool))
    # A group of another shape, or of mixed shapes, after a reused list.
    wide = random_model(rng, 3, 5, 0)
    for odd in ([wide], [shared[0], wide]):
        with pytest.raises(ValueError, match="confidences: models with different shapes"):
            list(pool_predictions([(shared, pools[0]), (shared, pools[1]), (odd, pools[1])]))


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
def test_selection_fuzz_scores_pool_only_for_best_accuracy(family, monkeypatch):
    rng = np.random.default_rng(90 + FAMILIES[family])
    passes = record_pool_passes(monkeypatch)
    pruned = tied = 0
    for k in range(1, 41):
        for _ in range(4):
            device, candidates, phi = fuzz_case(rng, family, k)
            want_chosen, want_scores = ref_select_best_model(device, candidates, phi, 2e9, 20.0)
            _, feats = device.pending_features()
            passes.clear()
            mid, acc, cov, predictions = select_alone(device, candidates, phi)
            assert (mid, acc, cov) == want_chosen[:3]
            ran = contenders(candidates, want_scores)
            assert passes == [ran]
            assert_same_predictions(predictions, ref_confidences(candidates[mid], feats))
            pruned += len(ran) < k
            tied += len(ran) > 1
    # The fuzz must reach both paths: candidates left out of the pool pass,
    # and contenders that tie on accuracy and are ranked by coverage.
    assert pruned >= 100 and tied >= 100
