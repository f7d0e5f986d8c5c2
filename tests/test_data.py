"""Data generation and partitioning checks."""

import numpy as np
import pytest

from cfsl.config import DataConfig
from cfsl.errors import StateError
from cfsl.data import (
    DeviceDataset,
    load_csv_dataset,
    make_task_universe,
    partition_devices,
    train_batches,
)
from cfsl.models import LabeledBatch


def small_universe(seed=0, mode="label-permutation", dists=2, classes=4):
    data = DataConfig(mode=mode, distributions=dists, classes=classes, features=3)
    return make_task_universe(data, seed)


def partition(universe, n_devices, samples_per_device, labeled_fraction, seed, **data):
    """`partition_devices` under the [data] section of `universe`, a
    label-permutation universe, with the defaults and `data` for the other
    keys."""
    section = DataConfig(distributions=universe.n_distributions,
                         classes=universe.n_classes, features=universe.dim,
                         samples_per_device=samples_per_device,
                         labeled_fraction=labeled_fraction, **data)
    return partition_devices(universe, section, n_devices, seed)


def labeled_labels(dev):
    """Labels of the device's labeled rows, train then holdout."""
    return np.concatenate([dev.train.labels, dev.holdout.labels])


# ---------------------------------------------------------------- universe


def test_universe_deterministic():
    a = small_universe(seed=5)
    b = small_universe(seed=5)
    assert np.array_equal(a.means, b.means)


def test_single_distribution_allowed():
    u = make_task_universe(
        DataConfig(mode="gaussian-clusters", distributions=1, classes=3, features=4), 1)
    assert u.means.shape == (1, 3, 4)


def permutation(u, j):
    """perm[m]: the label distribution j gives center m of distribution 0,
    read from where that center sits in means[j]."""
    perm = []
    for center in u.means[0]:
        (c,) = np.flatnonzero((u.means[j] == center).all(axis=1))
        perm.append(int(c))
    return tuple(perm)


def test_permutation_mode_uses_derangements():
    u = small_universe(seed=2, dists=3, classes=5)
    identity = tuple(range(5))
    assert permutation(u, 0) == identity
    for perm in (permutation(u, j) for j in range(1, u.n_distributions)):
        assert sorted(perm) == list(range(5))
        assert all(p != i for i, p in enumerate(perm))


def test_permutation_mode_shares_centers():
    u = small_universe(seed=3, dists=2, classes=4)
    # Same center set, relabeled: sorting rows lexicographically must agree.
    a = u.means[0][np.lexsort(u.means[0].T)]
    b = u.means[1][np.lexsort(u.means[1].T)]
    assert np.allclose(a, b)
    # Center of class c under distribution j is base center m with perm[m]=c.
    perm = np.array(permutation(u, 1))
    for m in range(4):
        assert np.allclose(u.means[1][perm[m]], u.means[0][m])


def test_distributions_distinguishable_empirically():
    for seed in range(4):
        for mode in ("gaussian-clusters", "label-permutation"):
            u = small_universe(seed=seed, mode=mode)
            rng = np.random.default_rng(99)
            labels = rng.integers(0, u.n_classes, size=300)
            x = np.vstack(
                [u.sample_features(0, labels[:150], rng), u.sample_features(1, labels[150:], rng)]
            )
            disagree = (u.nearest_mean_labels(0, x) != u.nearest_mean_labels(1, x)).mean()
            assert disagree >= 0.30


# ---------------------------------------------------------------- partition


def test_partition_counts_and_conservation():
    u = small_universe(seed=7)
    devices = partition(u, 6, samples_per_device=50, labeled_fraction=0.1, seed=7)
    assert len(devices) == 6
    for dev in devices:
        assert (len(dev.train), len(dev.holdout)) == (4, 1)
        assert dev.unlabeled_features.shape[0] == 45
        assert len(dev.train) + len(dev.holdout) + dev.unlabeled_features.shape[0] == 50
        assert dev.hidden_truth.shape[0] == 45


def test_partition_whitelist_closure_and_cap():
    u = small_universe(seed=8, classes=6)
    devices = partition(u, 10, samples_per_device=60, labeled_fraction=0.2, seed=8)
    for dev in devices:
        assert len(dev.class_whitelist) <= 2
        assert set(labeled_labels(dev)) <= set(dev.class_whitelist)
        assert set(dev.hidden_truth) <= set(dev.class_whitelist)
        assert set(dev.test.labels) <= set(dev.class_whitelist)
        hist = np.bincount(
            np.concatenate([labeled_labels(dev), dev.hidden_truth]), minlength=6
        )
        assert (hist > 0).sum() <= 2


def test_partition_one_label_per_class_floor():
    u = small_universe(seed=9)
    # 1% of 50 rounds to 0 labeled; floor lifts it to one per whitelisted class.
    devices = partition(u, 3, samples_per_device=50, labeled_fraction=0.01, seed=9)
    for dev in devices:
        assert len(labeled_labels(dev)) == len(dev.class_whitelist)
        assert set(labeled_labels(dev)) == set(dev.class_whitelist)


def test_partition_fully_labeled_edge():
    u = small_universe(seed=10)
    devices = partition(u, 4, samples_per_device=30, labeled_fraction=1.0, seed=10)
    for dev in devices:
        assert len(dev.train) + len(dev.holdout) == 30
        assert dev.unlabeled_features.shape[0] == 0
        assert dev.injected_fraction == 1.0
        assert dev.unlabeled_remaining == 0
        check_counts_match_mask(dev)


def test_partition_round_robin_assignment():
    u = small_universe(seed=11, dists=2)
    devices = partition(u, 8, samples_per_device=30, labeled_fraction=0.2, seed=11)
    assert [d.distribution_id for d in devices] == [0, 1] * 4


def test_partition_deterministic_and_seed_sensitive():
    u = small_universe(seed=12)
    a = partition(u, 5, 40, 0.1, seed=3)
    b = partition(u, 5, 40, 0.1, seed=3)
    c = partition(u, 5, 40, 0.1, seed=4)
    for x, y in zip(a, b):
        for part in ("train", "holdout"):
            assert np.array_equal(getattr(x, part).features, getattr(y, part).features)
            assert np.array_equal(getattr(x, part).labels, getattr(y, part).labels)
        assert np.array_equal(x.unlabeled_features, y.unlabeled_features)
        assert np.array_equal(x.test.features, y.test.features)
    assert not np.array_equal(a[0].train.features, c[0].train.features)


def test_partition_prefix_stable_in_device_count():
    # Adding devices must not disturb earlier devices' draws.
    u = small_universe(seed=13)
    short = partition(u, 3, 40, 0.1, seed=5)
    longer = partition(u, 7, 40, 0.1, seed=5)
    for x, y in zip(short, longer):
        assert np.array_equal(x.train.features, y.train.features)
        assert np.array_equal(x.holdout.features, y.holdout.features)
        assert np.array_equal(x.unlabeled_features, y.unlabeled_features)


def test_holdout_and_train_batch_partition_labeled_pool():
    u = small_universe(seed=14)
    devices = partition(u, 2, 100, 0.2, seed=14, holdout_fraction=0.2)
    # The labeled rows are drawn before the holdout, so without one the
    # train batch is the whole labeled pool in draw order.
    whole = partition(u, 2, 100, 0.2, seed=14, holdout_fraction=0.0)
    for dev, pool in zip(devices, whole):
        assert len(dev.holdout) == 4 and len(pool.holdout) == 0
        train = dev.train_batch()
        assert len(train) == 16
        assert np.array_equal(train.features, dev.train.features)
        rows = [tuple(r) for r in pool.train.features]
        held = [rows.index(tuple(r)) for r in dev.holdout.features]
        assert held == sorted(set(held))
        for got, part in ((train, "features"), (dev.train, "labels")):
            want = np.delete(getattr(pool.train, part), held, axis=0)
            assert np.array_equal(getattr(got, part), want)
        assert np.array_equal(dev.holdout.labels, pool.train.labels[held])


def test_labeled_rows_and_pool_are_views_of_one_array():
    u = small_universe(seed=14)
    for dev in partition(u, 3, 100, 0.2, seed=14, holdout_fraction=0.2):
        rows = dev.train.features.base
        parts = (dev.train.features, dev.holdout.features, dev.unlabeled_features)
        assert all(len(p) for p in parts)
        assert all(np.shares_memory(rows, p) for p in parts)
        # Each row is stored once: the parts tile the array in order.
        assert rows.shape[0] == sum(len(p) for p in parts)
        assert np.array_equal(rows, np.vstack(parts))


def test_train_batch_includes_injections_in_pool_order():
    u = small_universe(seed=15)
    (dev,) = partition(u, 1, 40, 0.25, seed=15, holdout_fraction=0.0)
    dev.inject([7, 2], [dev.class_whitelist[0], dev.class_whitelist[1]])
    train = dev.train_batch()
    assert len(train) == 12
    assert dev.labeled_size == 12
    assert np.array_equal(train.features[-2], dev.unlabeled_features[2])
    assert np.array_equal(train.features[-1], dev.unlabeled_features[7])
    assert train.labels[-2] == dev.class_whitelist[1]
    assert train.labels[-1] == dev.class_whitelist[0]


def check_counts_match_mask(dev):
    """The injection counts against their mask-reduction definitions."""
    mask = dev.injected_labels >= 0
    assert type(dev.n_injected) is int and dev.n_injected == int(mask.sum())
    assert type(dev.unlabeled_remaining) is int
    assert dev.unlabeled_remaining == int((~mask).sum())
    want = float(mask.mean()) if mask.size else 1.0
    assert type(dev.injected_fraction) is float and dev.injected_fraction == want
    assert dev.train_size == len(dev.train) + int(mask.sum()) == len(dev.train_batch())
    truth = dev.hidden_truth[mask]
    known = truth >= 0
    assert dev.n_known == int(known.sum())
    assert dev.n_correct == int((dev.injected_labels[mask][known] == truth[known]).sum())


def reference_train_batch(dev):
    idx = np.flatnonzero(dev.injected_labels >= 0)
    return (
        np.vstack([dev.train.features, dev.unlabeled_features[idx]]),
        np.concatenate([dev.train.labels, dev.injected_labels[idx]]),
    )


def test_injection_counts_equal_mask_reductions_under_inject():
    u = small_universe(seed=16)
    (dev,) = partition(u, 1, 500, 0.03, seed=16)
    rng = np.random.default_rng(16)
    check_counts_match_mask(dev)
    for _ in range(40):
        pending = np.flatnonzero(dev.injected_labels < 0)
        idx = rng.choice(pending, size=int(rng.integers(1, 12)), replace=False)
        dev.inject(idx, rng.choice(dev.class_whitelist, size=idx.size))
        check_counts_match_mask(dev)
    rest = np.flatnonzero(dev.injected_labels < 0)[::-1]
    dev.inject(rest, dev.hidden_truth[rest])
    check_counts_match_mask(dev)
    assert dev.injected_fraction == 1.0 and dev.unlabeled_remaining == 0


def test_injection_state_is_read_only_outside_inject():
    u = small_universe(seed=18)
    (dev,) = partition(u, 1, 40, 0.25, seed=18)
    with pytest.raises(ValueError, match="read-only"):
        dev.injected_labels[0] = dev.class_whitelist[0]
    dev.inject([3], [dev.class_whitelist[0]])
    assert dev.injected_labels[3] == dev.class_whitelist[0]
    assert not dev.injected_labels.flags.writeable


def test_inject_rejects_a_negative_label():
    u = small_universe(seed=18)
    (dev,) = partition(u, 1, 40, 0.25, seed=18)
    for labels in ([-1], [dev.class_whitelist[0], -2]):
        with pytest.raises(ValueError, match="negative"):
            dev.inject([3, 4][:len(labels)], labels)
        assert dev.n_injected == 0 and np.all(dev.injected_labels == -1)


def test_inject_rejects_a_repeated_or_injected_position_and_changes_nothing():
    train = LabeledBatch(np.zeros((2, 2)), np.array([0, 1]))
    dev = DeviceDataset(0, train, train.subset(np.array([], dtype=int)), np.zeros((4, 2)),
                        np.array([0, 1, 0, 1]), 0, (0, 1), train)

    def state():
        return dev.n_injected, dev.n_known, dev.n_correct, dev.injected_labels.tolist()

    dev.inject([3], [1])
    before = state()
    assert before == (1, 1, 1, [-1, -1, -1, 1])
    for indices, labels, error in (([3], [0], StateError), ([2, 2], [0, 0], ValueError),
                                   ([4], [0], ValueError), ([-1], [0], ValueError),
                                   ([2, 3], [0, 0], StateError)):
        with pytest.raises(error):
            dev.inject(indices, labels)
        assert state() == before
    dev.inject([2, 0], [0, 1])
    assert state() == (3, 3, 2, [1, -1, 0, 1])


def test_injected_fraction_is_the_rounded_mean_for_every_count():
    def device(size):
        return DeviceDataset(
            0, LabeledBatch(np.zeros((2, 2)), np.array([0, 1])),
            LabeledBatch(np.zeros((0, 2)), np.array([], dtype=np.int64)), np.zeros((size, 2)),
            np.zeros(size, dtype=np.int64), 0, (0, 1),
            LabeledBatch(np.zeros((1, 2)), np.array([0])),
        )

    for size in (1, 3, 7, 10, 49, 97, 192):
        dev = device(size)
        for count in range(size + 1):
            if count:
                dev.inject([count - 1], [0])
            mask = np.arange(size) < count
            # A device given every injection at once sets its counts up alike.
            built = device(size)
            built.inject(np.flatnonzero(mask), 0)
            for d in (dev, built):
                assert d.injected_fraction == float(mask.mean())
                assert d.n_injected == count and d.unlabeled_remaining == size - count
                assert d.n_known == d.n_correct == count


def test_train_batch_equals_its_definition_with_and_without_injections():
    u = small_universe(seed=17)
    (dev,) = partition(u, 1, 60, 0.3, seed=17, holdout_fraction=0.25)
    for injected in ([], [5], [4, 0, 31], range(dev.injected_labels.size)):
        new = [i for i in injected if dev.injected_labels[i] < 0]
        dev.inject(new, [dev.class_whitelist[0]] * len(new))
        train = dev.train_batch()
        feats, labels = reference_train_batch(dev)
        assert train.features.dtype == feats.dtype and train.labels.dtype == labels.dtype
        assert np.array_equal(train.features, feats) and np.array_equal(train.labels, labels)
        # Callers own the batch: it shares no memory with the pools.
        assert not np.shares_memory(train.features, dev.train.features)
        assert not np.shares_memory(train.labels, dev.train.labels)
        check_counts_match_mask(dev)


def test_train_batches_are_slices_of_one_table():
    u = small_universe(seed=19)
    devices = partition(u, 4, 60, 0.3, seed=19, holdout_fraction=0.25)
    rng = np.random.default_rng(19)
    for dev in devices[1:]:
        idx = rng.choice(dev.injected_labels.size, size=int(rng.integers(1, 20)), replace=False)
        dev.inject(idx, rng.choice(dev.class_whitelist, size=idx.size))
    batches = train_batches(devices)
    for dev, batch in zip(devices, batches):
        want = dev.train_batch()
        assert np.array_equal(batch.features, want.features)
        assert np.array_equal(batch.labels, want.labels)
    assert len({len(b) for b in batches}) > 1
    assert all(b.features.base is batches[0].features.base for b in batches)
    assert all(b.labels.base is batches[0].labels.base for b in batches)


def test_device_dataset_rejects_whitelist_violation():
    bad = LabeledBatch(np.zeros((1, 2)), np.array([3]))
    good = LabeledBatch(np.zeros((1, 2)), np.array([1]))
    for train, holdout in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="outside whitelist"):
            DeviceDataset(
                device_id=0,
                train=train,
                holdout=holdout,
                unlabeled_features=np.zeros((0, 2)),
                hidden_truth=np.zeros(0, dtype=int),
                distribution_id=0,
                class_whitelist=(0, 1),
                test=good,
            )


# ---------------------------------------------------------------- csv


def write_csv(tmp_path, text):
    p = tmp_path / "data.csv"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_csv_exact_values(tmp_path):
    path = write_csv(tmp_path, "x0,x1,label\n1.5,-2.0,1\n0.25,0.5,\n3.0,4.0,0\n")
    labeled, unlabeled = load_csv_dataset(path, n_features=2, n_classes=2)
    assert np.array_equal(labeled.features, np.array([[1.5, -2.0], [3.0, 4.0]]))
    assert np.array_equal(labeled.labels, np.array([1, 0]))
    assert np.array_equal(unlabeled, np.array([[0.25, 0.5]]))


def test_csv_all_labeled(tmp_path):
    path = write_csv(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n")
    labeled, unlabeled = load_csv_dataset(path, n_features=2, n_classes=2)
    assert len(labeled) == 2
    assert unlabeled.shape == (0, 2)


def test_csv_byte_order_mark_is_not_a_header(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,\n")
    labeled, unlabeled = load_csv_dataset(str(p), n_features=2, n_classes=2)
    assert np.array_equal(labeled.features, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(labeled.labels, np.array([0, 1]))
    assert np.array_equal(unlabeled, np.array([[5.0, 6.0]]))


def test_csv_header_only(tmp_path):
    path = write_csv(tmp_path, "x0,x1,label\n")
    labeled, unlabeled = load_csv_dataset(path, n_features=2, n_classes=2)
    assert len(labeled) == 0
    assert unlabeled.shape == (0, 2)


def test_csv_header_after_blank_lines(tmp_path):
    path = write_csv(tmp_path, "\n,\nf0,f1,label\n1.0,2.0,0\n")
    labeled, unlabeled = load_csv_dataset(path, n_features=2, n_classes=2)
    assert np.array_equal(labeled.features, np.array([[1.0, 2.0]]))
    assert np.array_equal(labeled.labels, np.array([0]))
    assert unlabeled.shape == (0, 2)
    # Only the first non-blank row can be a header.
    second = write_csv(tmp_path, "\nf0,f1,label\nx0,x1,label\n")
    with pytest.raises(ValueError, match=":3: bad feature value"):
        load_csv_dataset(second, n_features=2, n_classes=2)


def test_csv_missing_label_column_is_unlabeled(tmp_path):
    path = write_csv(tmp_path, "1.0,2.0\n")
    labeled, unlabeled = load_csv_dataset(path, n_features=2, n_classes=2)
    assert len(labeled) == 0
    assert unlabeled.shape == (1, 2)


def test_csv_errors_carry_row_numbers(tmp_path):
    bad_field = write_csv(tmp_path, "1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ValueError, match=":2:"):
        load_csv_dataset(bad_field, n_features=2, n_classes=2)

    nan = write_csv(tmp_path, "nan,2.0,0\n")
    with pytest.raises(ValueError, match=":1:"):
        load_csv_dataset(nan, n_features=2, n_classes=2)

    wrong_width = write_csv(tmp_path, "1.0,2.0,3.0,4.0,0\n")
    with pytest.raises(ValueError, match="fields"):
        load_csv_dataset(wrong_width, n_features=2, n_classes=2)

    unknown_class = write_csv(tmp_path, "1.0,2.0,9\n")
    with pytest.raises(ValueError, match="class id"):
        load_csv_dataset(unknown_class, n_features=2, n_classes=2)
