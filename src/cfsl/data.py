"""Synthetic non-IID task generation, device partitioning, and CSV ingestion.

A task universe holds several class-conditional Gaussian distributions.
Devices draw from exactly one distribution and see at most a small
whitelist of classes, which is what makes the population non-IID. Each
device keeps its labeled rows split once into `train` and a small
validation `holdout`, an unlabeled pool whose true labels are retained
only for scoring, the pseudo-labels injected into that pool, and a fresh
test draw used for reporting.

Rows are stored once, where and in the order a round reads them, so that
no round gathers rows: a device's rows are one array (see `DeviceDataset`),
and the population's test draws are one table.

A device's counts are one column of a population table, an int64 array
with a row per count (`HOLDOUT` ... `CORRECT`), so that a round reads
every device's counts as arrays. `population` gathers a simulation's
devices into one table, and each device's `inject` then keeps its column
up in place: the counts always equal what the device's `injected_labels`
and `hidden_truth` give. A device belongs to one population at a time.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StateError
from .models import LabeledBatch
from .seeding import DATA_STREAM, streams

log = logging.getLogger(__name__)

DISTINGUISH_PROBE = 400
DISTINGUISH_MIN = 0.30
GENERATION_RETRIES = 100

# The rows of a population table: holdout, train and pool lengths, injected
# labels, those of a known truth and those matching it.
HOLDOUT, TRAIN, POOL, INJECTED, KNOWN, CORRECT = range(6)


@dataclass(frozen=True)
class TaskUniverse:
    """Generative description of every distribution devices can draw from.

    means[j, c] is the feature-space center of class c under distribution j.
    In label-permutation mode all distributions share one set of centers and
    differ only in which label each center carries: means[j] reorders the
    rows of means[0], whose center m carries label m.
    """

    n_distributions: int
    n_classes: int
    dim: int
    means: np.ndarray
    noise_scale: float

    def sample_features(self, dist_id: int, labels: np.ndarray, rng: np.random.Generator):
        """Feature rows for the given labels under one distribution."""
        centers = self.means[dist_id][labels]
        return centers + rng.normal(0.0, self.noise_scale, size=(labels.size, self.dim))

    def nearest_mean_labels(self, dist_id: int, features: np.ndarray) -> np.ndarray:
        """Labels assigned by the distribution's nearest-center classifier."""
        diffs = features[:, None, :] - self.means[dist_id][None, :, :]
        return np.argmin((diffs * diffs).sum(axis=2), axis=1)


def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Permutation of range(n) with no fixed points (rejection sampling)."""
    while True:
        p = rng.permutation(n)
        if not np.any(p == np.arange(n)):
            return p


def _probe_disagreement(universe: TaskUniverse, i: int, j: int, rng) -> float:
    """Fraction of probe samples where the two distributions' nearest-mean
    classifiers assign different labels. Probes are drawn from both sides."""
    labels = rng.integers(0, universe.n_classes, size=DISTINGUISH_PROBE)
    half = DISTINGUISH_PROBE // 2
    xa = universe.sample_features(i, labels[:half], rng)
    xb = universe.sample_features(j, labels[half:], rng)
    probe = np.vstack([xa, xb])
    pred_i = universe.nearest_mean_labels(i, probe)
    pred_j = universe.nearest_mean_labels(j, probe)
    return float((pred_i != pred_j).mean())


def make_task_universe(data, seed) -> TaskUniverse:
    """Build the universe of `data`, a `[data]` section (`config.DataConfig`,
    which has checked its values): `distributions` distributions of `classes`
    classes in `features` dimensions, drawn by `mode` with `separation` and
    `noise_scale`.

    Candidate parameter draws are rejected until every pair of
    distributions disagrees on at least 30% of a probe set; after 100
    failed draws generation gives up with a `ConfigError` naming
    `data.distributions`.
    """
    n_distributions, n_classes, dim = data.distributions, data.classes, data.features
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), DATA_STREAM, 0]))
    for _ in range(GENERATION_RETRIES):
        if data.mode == "gaussian-clusters":
            means = rng.normal(0.0, data.separation / 2.0,
                               size=(n_distributions, n_classes, dim))
        else:
            base = rng.normal(0.0, data.separation / 2.0, size=(n_classes, dim))
            perms = [np.arange(n_classes)]
            perms += [_derangement(n_classes, rng) for _ in range(n_distributions - 1)]
            # Center m carries label perm[m], so the center of class c is
            # base[m] with perm[m] == c.
            means = np.stack([base[np.argsort(perm)] for perm in perms])
        universe = TaskUniverse(n_distributions, n_classes, dim, means, data.noise_scale)
        if all(
            _probe_disagreement(universe, i, j, rng) >= DISTINGUISH_MIN
            for i in range(n_distributions)
            for j in range(i + 1, n_distributions)
        ):
            return universe
    raise ConfigError(
        "data.distributions",
        f"could not generate {n_distributions} distinguishable distributions of "
        f"{n_classes} classes after {GENERATION_RETRIES} attempts; use fewer "
        "distributions, or more data.classes",
    )


@dataclass
class DeviceDataset:
    """One device's local data and pseudo-labeling state.

    The device takes over one features and one labels array laid out as
    holdout | train | pool, the pool labeled with its truth (-1 where it is
    unknown), and keeps each row there: the pool becomes pseudo-labeled |
    pending, each part in pool order, and its truth moves to hidden_truth.
    `holdout`, `train`, `train_batch()` (train and pseudo-labeled) and
    `pending_features()` are views. injected_labels is the one record of
    pseudo-labeling: each pool position's label, -1 while it is pending.
    It and the rows are read-only outside `inject`, which checks every rule
    on the record, moves the accepted rows into the pseudo-labeled part and
    keeps the device's counts, column `column` of the population table
    `table`. Pool positions index the record and hidden_truth wherever
    their row is; `pool_features()` reads the pool in their order.
    hidden_truth and test are for metrics only; `test` defaults to the
    holdout, or the train rows when there is none.
    """

    device_id: int
    features: np.ndarray
    labels: np.ndarray
    n_holdout: int
    n_train: int
    distribution_id: int
    class_whitelist: tuple
    test: LabeledBatch | None = None
    holdout: LabeledBatch = field(init=False)
    train: LabeledBatch = field(init=False)
    hidden_truth: np.ndarray = field(init=False)
    injected_labels: np.ndarray = field(init=False)
    table: np.ndarray = field(init=False, repr=False)
    column: int = field(init=False)

    def __post_init__(self):
        h, lo = self.n_holdout, self.n_holdout + self.n_train
        # First row of the pool: pseudo-labeled, then pending.
        self._pool_row = lo
        self.hidden_truth = self.labels[lo:].copy()
        wl = set(self.class_whitelist)
        if not set(self.labels[:lo].tolist()) <= wl:
            raise ValueError(f"device {self.device_id}: labeled class outside whitelist")
        # -1 marks unknown truth (external data); anything else must be
        # whitelisted.
        if not set(self.hidden_truth.tolist()) - {-1} <= wl:
            raise ValueError(f"device {self.device_id}: hidden truth outside whitelist")
        self.labels[lo:] = -1
        self.features.setflags(write=False)
        self.labels.setflags(write=False)
        self.holdout = LabeledBatch(self.features[:h], self.labels[:h])
        self.train = self._train_batch = LabeledBatch(self.features[h:lo], self.labels[h:lo])
        if self.test is None:
            self.test = self.holdout if h else self.train
        n_u = self.hidden_truth.size
        self.injected_labels = np.empty(n_u, dtype=np.int64)
        self.injected_labels.fill(-1)  # faster than np.full for small pools
        self.injected_labels.setflags(write=False)
        # The pool position of each pool row, in row order.
        self._positions = np.arange(n_u)
        self.table = np.array([h, self.n_train, n_u, 0, 0, 0])[:, None]
        self.column = 0

    def inject(self, indices, labels):
        """Pseudo-label pool positions `indices` with `labels` (one each, or one
        for all). Positions must be one-dimensional integers, in range, unique
        and pending (StateError: injected labels are frozen), labels integers
        >= 0, or nothing changes."""
        indices, labels = np.asarray(indices), np.asarray(labels)
        if labels.ndim and labels.shape != indices.shape:
            raise ValueError(f"device {self.device_id}: {labels.size} pseudo-labels "
                             f"for {indices.size} positions")
        if not indices.size:
            return
        if indices.ndim != 1:
            raise ValueError(f"device {self.device_id}: pseudo-label positions must be "
                             f"one-dimensional, got shape {indices.shape}")
        # A cast would truncate 1.7 to 1 and read True as 1.
        if indices.dtype.kind not in "iu" or labels.dtype.kind not in "iu":
            raise ValueError(f"device {self.device_id}: pseudo-label positions and labels "
                             f"must be integers, got {indices.dtype} and {labels.dtype}")
        record = self.injected_labels
        # Checks by counts: `np.count_nonzero` costs a fraction of `any`,
        # `min` or `max` on a few dozen values. Positions in pool order, as
        # `pseudo_label` gives them, are their own sort and cannot repeat.
        ordered = indices
        if np.count_nonzero(indices[1:] <= indices[:-1]):
            ordered = np.sort(indices)
        if not 0 <= ordered[0] <= ordered[-1] < record.size:
            raise ValueError(f"device {self.device_id}: pseudo-label index out of range")
        if ordered is not indices and np.count_nonzero(ordered[1:] == ordered[:-1]):
            raise ValueError(f"device {self.device_id}: pseudo-label indices repeat")
        prior = record[indices]
        if np.count_nonzero(prior >= 0):
            raise StateError(f"device {self.device_id}: samples "
                             f"{sorted(indices[prior >= 0].tolist())} already injected")
        if np.count_nonzero(labels < 0):
            raise ValueError(f"device {self.device_id}: pseudo-label {labels.min()} is negative")
        record.setflags(write=True)
        record[indices] = labels
        record.setflags(write=False)
        counts = self.table[:, self.column]
        truth = self.hidden_truth[indices]
        counts[KNOWN] += np.count_nonzero(truth >= 0)
        # A label is never negative, so it matches only a known truth.
        counts[CORRECT] += np.count_nonzero(labels == truth)
        counts[INJECTED] = n = int(counts[INJECTED]) + indices.size
        # The pool rows again, pseudo-labeled then pending, each in pool
        # order: row i takes the row that holds pool position order[i].
        order = np.argsort(record < 0, kind="stable")
        row_of = np.empty_like(order)
        row_of[self._positions] = np.arange(order.size)
        lo = self._pool_row
        for rows in (self.features, self.labels):
            rows.setflags(write=True)
        self.features[lo:] = self.features[lo:].take(row_of[order], axis=0)
        self.labels[lo : lo + n] = record[order[:n]]
        for rows in (self.features, self.labels):
            rows.setflags(write=False)
        self._positions = order
        h = self.n_holdout
        self._train_batch = LabeledBatch(self.features[h : lo + n], self.labels[h : lo + n])

    def train_batch(self) -> LabeledBatch:
        """`train`, then the injected samples in pool order: read-only views
        of the device's rows, valid until the next `inject`."""
        return self._train_batch

    def pending_features(self):
        """(pool positions, features) of the samples not yet injected, in pool
        order: read-only views, valid until the next `inject`."""
        n = self.table[INJECTED, self.column]
        return self._positions[n:], self.features[self._pool_row + n :]

    def pool_features(self) -> np.ndarray:
        """Every pool row's features in pool order, pending or injected (a copy)."""
        return self.features[self._pool_row :][np.argsort(self._positions)]


def population(devices: list) -> np.ndarray:
    """The population table of `devices`, in list order: each device's
    counts move into its column."""
    table = np.concatenate([d.table[:, d.column, None] for d in devices], axis=1)
    for k, dev in enumerate(devices):
        dev.table, dev.column = table, k
    return table


def labeled_sizes(table: np.ndarray) -> np.ndarray:
    """Each device's labeled rows: holdout, train and injected."""
    return table[HOLDOUT] + table[TRAIN] + table[INJECTED]


def injected_fractions(table: np.ndarray) -> np.ndarray:
    """Each device's share of its pool pseudo-labeled, 1.0 for an empty pool
    (count / size is rounded once, as the mean of a bool mask is)."""
    pool = table[POOL]
    return np.divide(table[INJECTED], pool, out=np.ones(pool.shape), where=pool > 0)


def holdout_size(n_labeled: int, holdout_fraction: float, owner: str) -> int:
    """round(holdout_fraction * n_labeled), the labeled rows `owner` holds
    out; a `ConfigError` naming `data.holdout_fraction` when that leaves
    none to train on."""
    n_hold = int(round(holdout_fraction * n_labeled))
    if n_hold >= n_labeled:
        raise ConfigError("data.holdout_fraction", f"holds out all {n_labeled} labeled rows "
                          f"of {owner}, leaving none to train on")
    return n_hold


def labeled_split(
    labeled_fraction: float, samples_per_device: int, width: int, holdout_fraction: float
):
    """(labeled, holdout) sample counts of one synthetic device.

    round(labeled_fraction * samples_per_device) samples are labeled, raised
    to `width`, the floor of one per whitelisted class; `holdout_size` of
    them are held out.
    """
    n_labeled = max(int(round(labeled_fraction * samples_per_device)), width)
    return n_labeled, holdout_size(n_labeled, holdout_fraction, "each device")


def partition_devices(universe: TaskUniverse, data, n_devices: int, seed) -> list:
    """Draw `n_devices` devices' pools from their assigned distributions,
    with the sizes, whitelist width and assignment of `data`, the `[data]`
    section (`config.DataConfig`) `universe` was made from.

    Exactly round(labeled_fraction * samples_per_device) samples are
    labeled, raised to one per whitelisted class (with a warning) when
    the fraction is too small; the rest form the unlabeled pool with
    their true labels retained for scoring only. The population's test
    draws are one (n_devices, test_samples_per_device, features) table,
    of which each device's `test` is a view.
    """
    samples_per_device, labeled_fraction = data.samples_per_device, data.labeled_fraction
    width = min(data.max_classes_per_device, universe.n_classes)
    n_labeled, n_hold = labeled_split(
        labeled_fraction, samples_per_device, width, data.holdout_fraction
    )
    asked = round(labeled_fraction * samples_per_device)
    if n_labeled > asked:
        log.warning(
            "labeled_fraction %.4g gives %d labeled samples per device; "
            "raising to the 1-per-class floor of %d",
            labeled_fraction, asked, width,
        )
    assign_rng = np.random.default_rng(np.random.SeedSequence([int(seed), DATA_STREAM, 1]))
    n_test = data.test_samples_per_device
    test_features = np.empty((n_devices, n_test, universe.dim))
    test_labels = np.empty((n_devices, n_test), dtype=np.int64)
    devices = []
    for k, rng in enumerate(streams([int(seed), DATA_STREAM, 2], range(n_devices))):
        if data.distribution_assignment == "round-robin":
            dist_id = k % universe.n_distributions
        else:
            dist_id = int(assign_rng.integers(0, universe.n_distributions))
        whitelist = np.sort(rng.choice(universe.n_classes, size=width, replace=False))

        # First `width` labels cover the whitelist once so every class has
        # at least one labeled sample; the rest are uniform draws.
        tail = rng.choice(whitelist, size=samples_per_device - width, replace=True)
        labels = np.concatenate([whitelist, tail]).astype(np.int64)
        features = universe.sample_features(dist_id, labels, rng)

        held = np.zeros(n_labeled, dtype=bool)
        held[rng.choice(n_labeled, size=n_hold, replace=False)] = True
        # Reordered in place to holdout | train | pool, each part in draw
        # order, the layout the device keeps.
        order = np.argsort(~held, kind="stable")
        features[:n_labeled], labels[:n_labeled] = features[order], labels[order]

        test_labels[k] = rng.choice(whitelist, size=n_test, replace=True)
        test_features[k] = universe.sample_features(dist_id, test_labels[k], rng)

        devices.append(
            DeviceDataset(
                device_id=k,
                features=features,
                labels=labels,
                n_holdout=n_hold,
                n_train=n_labeled - n_hold,
                distribution_id=dist_id,
                class_whitelist=tuple(int(c) for c in whitelist),
                test=LabeledBatch(test_features[k], test_labels[k]),
            )
        )
    return devices


def csv_devices(data, n_devices: int, seed) -> list:
    """Deal the rows of `data.csv_path` round-robin across `n_devices`
    devices, under `data`, the `[data]` section (`config.DataConfig`).

    External data has no per-device draw to replicate, so labeled and
    unlabeled rows are dealt in file order. Ground truth of unlabeled
    rows is unknown (-1), which makes labeling accuracy undefined, and
    each device's holdout (its train rows when it holds none out) doubles
    as its test set, stored once with the device's rows.
    """
    labeled, unlabeled = load_csv_dataset(data.csv_path, data.features, data.classes)
    if len(labeled) < n_devices:
        raise ConfigError(
            "data.csv_path",
            f"{len(labeled)} labeled rows cannot cover {n_devices} devices",
        )
    whitelist = tuple(range(data.classes))
    devices = []
    for k, rng in enumerate(streams([int(seed), DATA_STREAM, 2], range(n_devices))):
        lab = LabeledBatch(labeled.features[k::n_devices], labeled.labels[k::n_devices])
        pool = unlabeled[k::n_devices]
        n_hold = holdout_size(len(lab), data.holdout_fraction, f"device {k}")
        held = np.zeros(len(lab), dtype=bool)
        held[rng.choice(len(lab), size=n_hold, replace=False)] = True
        devices.append(
            DeviceDataset(
                device_id=k,
                features=np.concatenate([lab.features[held], lab.features[~held], pool]),
                labels=np.concatenate([lab.labels[held], lab.labels[~held],
                                       np.full(pool.shape[0], -1, dtype=np.int64)]),
                n_holdout=n_hold,
                n_train=len(lab) - n_hold,
                distribution_id=-1,
                class_whitelist=whitelist,
            )
        )
    return devices


def load_csv_dataset(path: str, n_features: int, n_classes: int):
    """Parse a feature/label CSV into a labeled batch plus unlabeled matrix.

    Rows carry n_features floats then one optional label column; an empty
    label field marks the row unlabeled. A single non-numeric first
    non-blank row is treated as a header. Returns (LabeledBatch, unlabeled
    feature matrix).
    """
    labeled_feats, labeled_labels, unlabeled_feats = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header_candidate = True
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if header_candidate:
                header_candidate = False
                try:
                    float(row[0])
                except ValueError:
                    continue
            if len(row) not in (n_features, n_features + 1):
                raise ValueError(
                    f"{path}:{row_no}: expected {n_features} features plus "
                    f"optional label, got {len(row)} fields"
                )
            try:
                feats = [float(cell) for cell in row[:n_features]]
            except ValueError as exc:
                raise ValueError(f"{path}:{row_no}: bad feature value ({exc})") from None
            if not all(np.isfinite(feats)):
                raise ValueError(f"{path}:{row_no}: non-finite feature value")
            label_cell = row[n_features].strip() if len(row) == n_features + 1 else ""
            if label_cell == "":
                unlabeled_feats.append(feats)
                continue
            try:
                label = int(label_cell)
            except ValueError:
                raise ValueError(f"{path}:{row_no}: label {label_cell!r} is not an integer") from None
            if not 0 <= label < n_classes:
                raise ValueError(
                    f"{path}:{row_no}: class id {label} outside [0, {n_classes})"
                )
            labeled_feats.append(feats)
            labeled_labels.append(label)

    labeled = LabeledBatch(
        np.array(labeled_feats, dtype=np.float64).reshape(-1, n_features),
        np.array(labeled_labels, dtype=np.int64),
    )
    unlabeled = np.array(unlabeled_feats, dtype=np.float64).reshape(-1, n_features)
    return labeled, unlabeled
