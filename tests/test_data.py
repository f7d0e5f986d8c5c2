"""Data generation and partitioning checks."""

import logging
from itertools import groupby

import numpy as np
import pytest

import cfsl.data as data
from cfsl.config import DataConfig, parse_config
from cfsl.errors import ConfigError, StateError
from cfsl.experiment import build_simulation
from cfsl.data import (
    CORRECT,
    HOLDOUT,
    INJECTED,
    KNOWN,
    POOL,
    TRAIN,
    DeviceDataset,
    csv_devices,
    injected_fractions,
    labeled_sizes,
    load_csv_dataset,
    make_task_universe,
    partition_devices,
    population,
)
from cfsl.labeling import _scored_holdout
from cfsl.models import LabeledBatch
from references import counts


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


def test_too_many_distributions_name_the_key():
    # Valid as a section, but 4 classes give no 9 label permutations that
    # pairwise disagree enough: generation gives up naming the key.
    config = parse_config("[topology]\nedges = 2\ndevices = 6\n"
                          "[data]\ndistributions = 9\n[run]\nrounds = 1\n")
    with pytest.raises(ConfigError, match="data.distributions") as err:
        build_simulation(config)
    assert err.value.key == "data.distributions"


@pytest.mark.parametrize("mode", ["label-permutation", "gaussian-clusters"])
def test_distinguish_min_is_the_least_accepted_disagreement(monkeypatch, mode):
    # A disagreement of exactly DISTINGUISH_MIN accepts the first draw, one
    # probe per pair; one just below it never does.
    probes = []

    def probe(value):
        def disagreement(universe, i, j, rng):
            probes.append((i, j))
            return value
        return disagreement

    monkeypatch.setattr(data, "_probe_disagreement", probe(data.DISTINGUISH_MIN))
    small_universe(mode=mode, dists=3)
    assert probes == [(0, 1), (0, 2), (1, 2)]
    monkeypatch.setattr(data, "_probe_disagreement",
                        probe(float(np.nextafter(data.DISTINGUISH_MIN, 0.0))))
    with pytest.raises(ConfigError) as err:
        small_universe(mode=mode, dists=3)
    assert err.value.key == "data.distributions"


# ---------------------------------------------------------------- partition


def test_partition_counts_and_conservation():
    u = small_universe(seed=7)
    devices = partition(u, 6, samples_per_device=50, labeled_fraction=0.1, seed=7)
    assert len(devices) == 6
    for dev in devices:
        assert (len(dev.train), len(dev.holdout)) == (4, 1)
        assert dev.pool_features().shape[0] == 45
        assert len(dev.train) + len(dev.holdout) + dev.pool_features().shape[0] == 50
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


def test_partition_one_label_per_class_floor(caplog):
    u = small_universe(seed=9)
    # 1% of 50 rounds to 0 labeled; floor lifts it to one per whitelisted
    # class, with one warning for the whole population.
    with caplog.at_level(logging.WARNING, logger="cfsl.data"):
        devices = partition(u, 5, samples_per_device=50, labeled_fraction=0.01, seed=9)
    assert [r.getMessage() for r in caplog.records] == [
        "labeled_fraction 0.01 gives 0 labeled samples per device; "
        "raising to the 1-per-class floor of 2"
    ]
    for dev in devices:
        assert len(labeled_labels(dev)) == len(dev.class_whitelist)
        assert set(labeled_labels(dev)) == set(dev.class_whitelist)


def test_partition_fully_labeled_edge():
    u = small_universe(seed=10)
    devices = partition(u, 4, samples_per_device=30, labeled_fraction=1.0, seed=10)
    for dev in devices:
        assert len(dev.train) + len(dev.holdout) == 30
        assert dev.pool_features().shape[0] == 0
        assert injected_fractions(dev.table)[dev.column] == 1.0
        assert counts(dev)[POOL] == counts(dev)[INJECTED] == 0
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
        assert np.array_equal(x.pool_features(), y.pool_features())
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
        assert np.array_equal(x.pool_features(), y.pool_features())


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
        dev.inject([4, 1], [dev.class_whitelist[0]] * 2)
        rows, labels = dev.features, dev.labels
        train = dev.train_batch()
        pending = dev.pending_features()[1]
        # holdout | train | pseudo-labeled | pending
        parts = (dev.holdout.features, dev.train.features, train.features[len(dev.train):],
                 pending)
        assert all(len(p) for p in parts)
        assert all(p.base is rows for p in (*parts, train.features))
        assert all(b.labels.base is labels for b in (dev.holdout, dev.train, train))
        # Each row is stored once: the parts tile the array in order.
        assert rows.shape[0] == sum(len(p) for p in parts) == labels.shape[0]
        assert np.array_equal(rows, np.vstack(parts))
        assert np.array_equal(labels[: rows.shape[0] - len(pending)], np.concatenate(
            [dev.holdout.labels, train.labels]))


def test_train_batch_includes_injections_in_pool_order():
    u = small_universe(seed=15)
    (dev,) = partition(u, 1, 40, 0.25, seed=15, holdout_fraction=0.0)
    dev.inject([7, 2], [dev.class_whitelist[0], dev.class_whitelist[1]])
    train = dev.train_batch()
    assert len(train) == 12
    assert labeled_sizes(dev.table)[dev.column] == 12
    assert np.array_equal(train.features[-2], dev.pool_features()[2])
    assert np.array_equal(train.features[-1], dev.pool_features()[7])
    assert train.labels[-2] == dev.class_whitelist[1]
    assert train.labels[-1] == dev.class_whitelist[0]


def check_counts_match_mask(dev):
    """The injection counts against their mask-reduction definitions."""
    mask = dev.injected_labels >= 0
    row = counts(dev)
    assert dev.table.dtype == np.int64 and dev.table.shape[0] == 6
    assert (row[HOLDOUT], row[TRAIN]) == (len(dev.holdout), len(dev.train))
    assert row[INJECTED] == int(mask.sum()) and row[POOL] == mask.size
    assert row[POOL] - row[INJECTED] == int((~mask).sum())
    want = float(mask.mean()) if mask.size else 1.0
    assert injected_fractions(dev.table)[dev.column] == want
    assert len(dev.train_batch()) == len(dev.train) + int(mask.sum())
    assert labeled_sizes(dev.table)[dev.column] == len(dev.holdout) + len(dev.train_batch())
    truth = dev.hidden_truth[mask]
    known = truth >= 0
    assert row[KNOWN] == int(known.sum())
    assert row[CORRECT] == int((dev.injected_labels[mask][known] == truth[known]).sum())


def reference_train_batch(dev):
    idx = np.flatnonzero(dev.injected_labels >= 0)
    return (
        np.vstack([dev.train.features, dev.pool_features()[idx]]),
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
    assert injected_fractions(dev.table)[dev.column] == 1.0
    assert counts(dev)[POOL] == counts(dev)[INJECTED]


def test_population_holds_every_device_row_and_inject_keeps_it_up():
    u = small_universe(seed=21)
    devices = partition(u, 3, 40, 0.25, seed=21)
    built = [counts(d).tolist() for d in devices]
    table = population(devices)
    assert table.shape == (6, 3) and all(d.table is table for d in devices)
    assert [d.column for d in devices] == [0, 1, 2]
    assert table.T.tolist() == built
    devices[1].inject([5, 0], [devices[1].class_whitelist[0]] * 2)
    devices[2].inject([3], [devices[2].class_whitelist[1]])
    assert table[INJECTED].tolist() == [0, 2, 1]
    for dev in devices:
        check_counts_match_mask(dev)


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
        assert counts(dev)[INJECTED] == 0 and np.all(dev.injected_labels == -1)


def test_inject_rejects_a_repeated_or_injected_position_and_changes_nothing():
    # Two train rows, labeled 0 and 1, then a pool of four with truth 0, 1, 0, 1.
    dev = DeviceDataset(0, np.zeros((6, 2)), np.array([0, 1, 0, 1, 0, 1]), 0, 2, 0, (0, 1))

    def state():
        row = counts(dev)
        return (int(row[INJECTED]), int(row[KNOWN]), int(row[CORRECT]),
                dev.injected_labels.tolist())

    dev.inject([3], [1])
    before = state()
    assert before == (1, 1, 1, [-1, -1, -1, 1])
    for indices, labels, error in (([3], [0], StateError), ([2, 2], [0, 0], ValueError),
                                   ([4], [0], ValueError), ([-1], [0], ValueError),
                                   ([2, 3], [0, 0], StateError), ([0, 1, 2], [1, 0], ValueError),
                                   ([0, 1], [], ValueError),
                                   # Neither truncated nor read as 0 and 1.
                                   ([0, 1], [1.7, 0.2], ValueError), ([2], 1.0, ValueError),
                                   ([2.0], [0], ValueError), ([0, 2], [True, False], ValueError),
                                   ([True], [0], ValueError),
                                   # Positions that are not one-dimensional.
                                   ([[0], [2]], [[0], [0]], ValueError),
                                   ([[2], [0]], [[0], [0]], ValueError),
                                   ([[0, 2]], [[0, 0]], ValueError)):
        with pytest.raises(error, match="device 0") as raised:
            dev.inject(indices, labels)
        assert ("one-dimensional" in str(raised.value)) == (np.ndim(indices) > 1)
        assert state() == before
        assert not any(a.flags.writeable
                       for a in (dev.injected_labels, dev.features, dev.labels))
    dev.inject([2, 0], [0, 1])
    assert state() == (3, 3, 2, [1, -1, 0, 1])


def test_injected_fraction_is_the_rounded_mean_for_every_count():
    def device(size):
        return DeviceDataset(
            0, np.zeros((2 + size, 2)), np.r_[0, 1, np.zeros(size, dtype=np.int64)], 0, 2,
            0, (0, 1), LabeledBatch(np.zeros((1, 2)), np.array([0])),
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
                row = counts(d)
                assert injected_fractions(d.table)[d.column] == float(mask.mean())
                assert row[INJECTED] == count and row[POOL] - row[INJECTED] == size - count
                assert row[KNOWN] == row[CORRECT] == count


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
        # The batch is a read-only view of the device's rows: no copy.
        assert train.features.base is dev.features and train.labels.base is dev.labels
        assert not train.features.flags.writeable and not train.labels.flags.writeable
        check_counts_match_mask(dev)


def test_test_sets_are_views_of_one_population_table():
    u = small_universe(seed=19)
    devices = partition(u, 4, 60, 0.3, seed=19, test_samples_per_device=7)
    table, labels = devices[0].test.features.base, devices[0].test.labels.base
    assert table.shape == (4, 7, u.dim) and labels.shape == (4, 7)
    for k, dev in enumerate(devices):
        assert dev.test.features.base is table and dev.test.labels.base is labels
        assert np.array_equal(dev.test.features, table[k])
        assert np.array_equal(dev.test.labels, labels[k])
    # The draws are those of a smaller population's devices.
    for x, y in zip(devices, partition(u, 2, 60, 0.3, seed=19, test_samples_per_device=7)):
        assert np.array_equal(x.test.features, y.test.features)
        assert np.array_equal(x.test.labels, y.test.labels)


# ---------------------------------------------------------------- layout oracle


class Reference:
    """What a device's round reads, kept apart from the device: its train
    batch and its pool rows in pool order, copied when it was built, and
    the pseudo-label of each injected position."""

    def __init__(self, dev):
        self.train = LabeledBatch(dev.train.features.copy(), dev.train.labels.copy())
        self.pool = dev.pool_features()
        self.record = {}

    def inject(self, dev, indices, labels):
        dev.inject(indices, labels)
        self.record.update(zip(np.asarray(indices).tolist(),
                               np.broadcast_to(labels, np.shape(indices)).tolist()))

    def check(self, dev):
        injected = sorted(self.record)
        pending = sorted(set(range(len(self.pool))) - set(self.record))
        batch = dev.train_batch()
        want = (np.concatenate([self.train.features, self.pool[injected]]),
                np.concatenate([self.train.labels,
                                np.array([self.record[p] for p in injected], dtype=np.int64)]))
        for got, ref in zip((batch.features, batch.labels), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        idx, feats = dev.pending_features()
        assert idx.tolist() == pending
        assert feats.dtype == self.pool.dtype
        assert np.array_equal(feats, self.pool[pending].reshape(-1, self.pool.shape[1]))
        assert np.array_equal(dev.pool_features(), self.pool)
        assert dev.injected_labels.tolist() == [self.record.get(p, -1)
                                                for p in range(len(self.pool))]
        assert len(dev.train_batch()) == len(batch) == len(self.train) + len(injected)
        # Views of the one array, and no part of it writable from outside.
        for a in (batch.features, feats, dev.train.features, dev.holdout.features):
            assert a.base is dev.features and not a.flags.writeable
        check_counts_match_mask(dev)


def layout(dev):
    return dev.features.tobytes(), dev.labels.tobytes(), dev.injected_labels.tobytes()


def rejected_injects(rng, dev, ref):
    """Injects that must fail: each named by its arguments."""
    size = len(ref.pool)
    label = dev.class_whitelist[0]
    cases = [([size], [label]), ([-1], [label])]
    pending = np.flatnonzero(dev.injected_labels < 0)
    if pending.size:
        p = int(rng.choice(pending))
        cases += [([p, p], [label, label]), ([p], [-1])]
    if ref.record:
        p = int(rng.choice(sorted(ref.record)))
        cases.append(([p], [label]))
        if pending.size:
            cases.append(([int(pending[0]), p], [label, label]))
    return cases


def run_inject_sequence(dev, seed, ref=None):
    """Random injects, each of a random subset of the pending positions in
    random order, and rejected injects between them, checked against `ref`
    (by default one taken now) after every step, until the pool is fully
    injected."""
    rng = np.random.default_rng(seed)
    ref = ref or Reference(dev)
    ref.check(dev)
    while True:
        for indices, labels in rejected_injects(rng, dev, ref):
            before = layout(dev)
            with pytest.raises((ValueError, StateError)):
                dev.inject(indices, labels)
            assert layout(dev) == before
            ref.check(dev)
        pending = np.flatnonzero(dev.injected_labels < 0)
        if not pending.size:
            break
        count = int(rng.integers(1, min(pending.size, 9) + 1))
        idx = rng.permutation(pending)[:count]
        if rng.random() < 0.3:
            ref.inject(dev, idx, int(rng.choice(dev.class_whitelist)))
        else:
            ref.inject(dev, idx, rng.choice(dev.class_whitelist, size=count))
        ref.check(dev)
    # An empty inject changes nothing either.
    before = layout(dev)
    dev.inject([], [])
    assert layout(dev) == before
    assert injected_fractions(dev.table)[dev.column] == 1.0
    assert counts(dev)[POOL] == counts(dev)[INJECTED]


@pytest.mark.parametrize("seed", range(6))
def test_layout_matches_a_reference_gather_on_synthetic_devices(seed):
    u = small_universe(seed=20 + seed, classes=5)
    for dev in partition(u, 3, 40 + 7 * seed, 0.2, seed=seed, holdout_fraction=0.25):
        run_inject_sequence(dev, [seed, dev.device_id])


def test_layout_matches_a_reference_gather_on_csv_devices(tmp_path):
    rng = np.random.default_rng(21)
    lines = []
    for j in range(40):
        lines.append(",".join(f"{x:.3f}" for x in rng.normal(size=3)) + f",{j % 3}")
        lines.append(",".join(f"{x:.3f}" for x in rng.normal(size=3)) + ",")
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    for holdout_fraction in (0.25, 0.0):
        data = DataConfig(mode="csv", csv_path=path, features=3, classes=3,
                          holdout_fraction=holdout_fraction)
        for dev in csv_devices(data, 3, seed=2):
            # The test set is the holdout, or the train rows, in place.
            assert dev.test is (dev.holdout if holdout_fraction else dev.train)
            run_inject_sequence(dev, [22, dev.device_id])


def test_layout_on_an_empty_and_a_fully_injected_pool():
    u = small_universe(seed=23)
    (empty,) = partition(u, 1, 30, 1.0, seed=23)
    assert len(empty.pool_features()) == 0
    run_inject_sequence(empty, 23)
    (full,) = partition(u, 1, 30, 0.3, seed=24)
    ref = Reference(full)
    ref.inject(full, np.arange(len(ref.pool))[::-1], full.class_whitelist[-1])
    ref.check(full)
    assert full.pending_features()[1].shape == (0, u.dim)
    run_inject_sequence(full, 24, ref)


def test_device_dataset_rejects_whitelist_violation():
    # A holdout, a train and a pool row, each in turn outside the whitelist.
    bad, good = 3, 1
    for labels in ((bad, good, good), (good, bad, good), (good, good, bad)):
        with pytest.raises(ValueError, match="outside whitelist"):
            DeviceDataset(
                device_id=0,
                features=np.zeros((3, 2)),
                labels=np.array(labels),
                n_holdout=1,
                n_train=1,
                distribution_id=0,
                class_whitelist=(0, 1),
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

    fractional_label = write_csv(tmp_path, "1.0,2.0,0\n1.0,2.0,1.5\n")
    with pytest.raises(ValueError, match=":2: label '1.5' is not an integer"):
        load_csv_dataset(fractional_label, n_features=2, n_classes=2)


def test_scored_holdout_lengths_form_at_most_two_runs_in_device_order(tmp_path):
    # A labeling phase scores its devices' holdouts (the train rows where a
    # holdout is empty) in device order, and the scoring kernel stacks the
    # adjacent ones of one length: every data mode gives at most two
    # lengths, each one contiguous run of devices.
    populations = []
    for mode in ("label-permutation", "gaussian-clusters"):
        u = small_universe(seed=31, mode=mode)
        for n, samples, labeled, holdout in ((7, 50, 0.01, 0.2), (16, 40, 0.2, 0.2),
                                             (5, 30, 1.0, 0.1), (9, 60, 0.1, 0.0)):
            populations.append(partition(u, n, samples, labeled, seed=31, mode=mode,
                                         holdout_fraction=holdout))
    rng = np.random.default_rng(31)
    # Labeled rows dealt to devices: ragged holdouts of 4 and 3 rows; of 1
    # row and none (the train rows, 2); none at all (2 and 1 train rows);
    # none, every device alike.
    for rows, n, holdout in ((40, 3, 0.25), (23, 10, 0.2), (15, 10, 0.2), (30, 10, 0.0)):
        lines = [",".join(f"{x:.3f}" for x in rng.normal(size=3)) + f",{j % 3}"
                 for j in range(rows)]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        data = DataConfig(mode="csv", csv_path=path, features=3, classes=3,
                          holdout_fraction=holdout)
        populations.append(csv_devices(data, n, seed=31))
    shapes = set()
    for devices in populations:
        lengths = [len(_scored_holdout(dev)) for dev in devices]
        assert len([n for n, _ in groupby(lengths)]) <= 2, lengths
        shapes.add((len(set(lengths)), any(not len(dev.holdout) for dev in devices)))
    # Ragged and uniform lengths, with and without the train-row fallback.
    assert shapes == {(1, False), (2, False), (1, True), (2, True)}
