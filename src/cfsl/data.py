"""Synthetic non-IID task generation, device partitioning, and CSV ingestion.

A task universe holds several class-conditional Gaussian distributions.
Devices draw from exactly one distribution and see at most a small
whitelist of classes, which is what makes the population non-IID. Each
device keeps its labeled rows split once into `train` and a small
validation `holdout`, an unlabeled pool whose true labels are retained
only for scoring, the pseudo-labels injected into that pool, and a fresh
test draw used for reporting.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ConfigError, StateError
from .models import LabeledBatch
from .seeding import DATA_STREAM

log = logging.getLogger(__name__)

DISTINGUISH_PROBE = 400
DISTINGUISH_MIN = 0.30
GENERATION_RETRIES = 100


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
    failed draws generation gives up.
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
    raise ValueError(
        f"could not generate {n_distributions} distinguishable distributions "
        f"after {GENERATION_RETRIES} attempts"
    )


@dataclass
class DeviceDataset:
    """One device's local data and pseudo-labeling state.

    The labeled rows are immutable, split once when the device is built
    into `train`, where local training starts, and `holdout`, on which
    selection scores candidates. injected_labels is the one record of
    pseudo-labeling: each pool position's label, -1 while it is pending. It
    is made here and read-only outside `inject`, which checks every rule on
    it and keeps the injected positions in pool order and the counts of
    injected labels with a known truth (`n_known`) and of those matching it
    (`n_correct`). hidden_truth and test are for metrics only.
    """

    device_id: int
    train: LabeledBatch
    holdout: LabeledBatch
    unlabeled_features: np.ndarray
    hidden_truth: np.ndarray
    distribution_id: int
    class_whitelist: tuple
    test: LabeledBatch
    injected_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        n_u = self.unlabeled_features.shape[0]
        if self.hidden_truth.shape[0] != n_u:
            raise ValueError("hidden_truth must cover the unlabeled pool")
        wl = set(self.class_whitelist)
        if not set(np.unique(np.concatenate([self.train.labels, self.holdout.labels]))) <= wl:
            raise ValueError(f"device {self.device_id}: labeled class outside whitelist")
        # -1 marks unknown truth (external data); anything else must be
        # whitelisted.
        if n_u and not set(np.unique(self.hidden_truth)) - {-1} <= wl:
            raise ValueError(f"device {self.device_id}: hidden truth outside whitelist")
        self.injected_labels = np.empty(n_u, dtype=np.int64)
        self.injected_labels.fill(-1)  # faster than np.full for small pools
        self.injected_labels.setflags(write=False)
        self._injected = np.empty(0, np.intp)
        self.n_known = self.n_correct = 0

    def inject(self, indices, labels):
        """Pseudo-label pool positions `indices` with `labels` (one each, or one
        for all). Positions must be in range, unique and pending (StateError:
        injected labels are frozen) and labels >= 0, or nothing changes."""
        indices, labels = np.asarray(indices, dtype=np.intp), np.asarray(labels)
        if not indices.size:
            return
        if not 0 <= indices.min() <= indices.max() < self.injected_labels.size:
            raise ValueError(f"device {self.device_id}: pseudo-label index out of range")
        if np.unique(indices).size < indices.size:
            raise ValueError(f"device {self.device_id}: pseudo-label indices repeat")
        already = indices[self.injected_labels[indices] >= 0]
        if already.size:
            raise StateError(f"device {self.device_id}: samples "
                             f"{sorted(already.tolist())} already injected")
        if labels.min() < 0:
            raise ValueError(f"device {self.device_id}: pseudo-label {labels.min()} is negative")
        self.injected_labels.setflags(write=True)
        self.injected_labels[indices] = labels
        self.injected_labels.setflags(write=False)
        self._injected = np.flatnonzero(self.injected_labels >= 0)
        truth = self.hidden_truth[indices]
        known = truth >= 0
        self.n_known += int(np.count_nonzero(known))
        self.n_correct += int(np.count_nonzero(known & (self.injected_labels[indices] == truth)))

    # Exact integer counts: count / size is the same correctly rounded
    # quotient as the mean of a bool mask.
    @property
    def n_injected(self) -> int:
        return self._injected.size

    @property
    def labeled_size(self) -> int:
        """Original labels, holdout included, plus injected ones."""
        return len(self.train) + len(self.holdout) + self.n_injected

    @property
    def unlabeled_remaining(self) -> int:
        return self.injected_labels.size - self.n_injected

    @property
    def injected_fraction(self) -> float:
        """Share of the original unlabeled pool already pseudo-labeled."""
        if self.injected_labels.size == 0:
            return 1.0
        return self.n_injected / self.injected_labels.size

    @property
    def train_size(self) -> int:
        """len(self.train_batch()), without building the batch."""
        return len(self.train) + self.n_injected

    def train_batch(self) -> LabeledBatch:
        """`train`, then the injected samples in pool order."""
        return train_batches([self])[0]

    def pending_features(self):
        """(pool indices, features) of unlabeled samples not yet injected."""
        idx = np.flatnonzero(self.injected_labels < 0)
        return idx, self.unlabeled_features[idx]


def train_batches(devices: list) -> list:
    """Each device's `train_batch`, in order, as row slices of one table."""
    rows = [0, *accumulate(d.train_size for d in devices)]
    features = np.empty((rows[-1], devices[0].train.features.shape[1]))
    labels = np.empty(rows[-1], dtype=np.int64)
    for dev, lo, hi in zip(devices, rows, rows[1:]):
        mid = lo + len(dev.train)
        features[lo:mid] = dev.train.features
        labels[lo:mid] = dev.train.labels
        # Every index is in range, so "clip" only skips take's buffering.
        dev.unlabeled_features.take(dev._injected, axis=0, out=features[mid:hi], mode="clip")
        dev.injected_labels.take(dev._injected, out=labels[mid:hi], mode="clip")
    return [LabeledBatch(features[lo:hi], labels[lo:hi]) for lo, hi in zip(rows, rows[1:])]


def labeled_split(
    labeled_fraction: float, samples_per_device: int, width: int, holdout_fraction: float
):
    """(labeled, holdout) sample counts of one synthetic device.

    round(labeled_fraction * samples_per_device) samples are labeled, raised
    to `width`, the floor of one per whitelisted class; round(holdout_fraction
    * labeled) of them are held out.
    """
    n_labeled = max(int(round(labeled_fraction * samples_per_device)), width)
    return n_labeled, int(round(holdout_fraction * n_labeled))


def partition_devices(universe: TaskUniverse, data, n_devices: int, seed) -> list:
    """Draw `n_devices` devices' pools from their assigned distributions,
    with the sizes, whitelist width and assignment of `data`, the `[data]`
    section (`config.DataConfig`) `universe` was made from.

    Exactly round(labeled_fraction * samples_per_device) samples are
    labeled, raised to one per whitelisted class (with a warning) when
    the fraction is too small; the rest form the unlabeled pool with
    their true labels retained for scoring only.
    """
    samples_per_device, labeled_fraction = data.samples_per_device, data.labeled_fraction
    assign_rng = np.random.default_rng(np.random.SeedSequence([int(seed), DATA_STREAM, 1]))
    devices = []
    for k in range(n_devices):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), DATA_STREAM, 2, k]))
        if data.distribution_assignment == "round-robin":
            dist_id = k % universe.n_distributions
        else:
            dist_id = int(assign_rng.integers(0, universe.n_distributions))

        width = min(data.max_classes_per_device, universe.n_classes)
        whitelist = np.sort(rng.choice(universe.n_classes, size=width, replace=False))

        n_labeled, n_hold = labeled_split(
            labeled_fraction, samples_per_device, width, data.holdout_fraction
        )
        asked = round(labeled_fraction * samples_per_device)
        if n_labeled > asked:
            log.warning(
                "device %d: labeled_fraction %.4g gives %d labeled samples; "
                "raising to the 1-per-class floor of %d",
                k, labeled_fraction, asked, width,
            )

        # First `width` labels cover the whitelist once so every class has
        # at least one labeled sample; the rest are uniform draws.
        tail = rng.choice(whitelist, size=samples_per_device - width, replace=True)
        labels = np.concatenate([whitelist, tail]).astype(np.int64)
        features = universe.sample_features(dist_id, labels, rng)

        held = np.zeros(n_labeled, dtype=bool)
        held[rng.choice(n_labeled, size=n_hold, replace=False)] = True
        # Reordered in place to train | holdout | pool, each part in draw
        # order: the three are views of one array, so no row is stored twice.
        order = np.argsort(held, kind="stable")
        features[:n_labeled], labels[:n_labeled] = features[order], labels[order]
        cut = n_labeled - n_hold

        test_labels = rng.choice(whitelist, size=data.test_samples_per_device,
                                 replace=True).astype(np.int64)
        test = LabeledBatch(
            universe.sample_features(dist_id, test_labels, rng), test_labels
        )

        devices.append(
            DeviceDataset(
                device_id=k,
                train=LabeledBatch(features[:cut], labels[:cut]),
                holdout=LabeledBatch(features[cut:n_labeled], labels[cut:n_labeled]),
                unlabeled_features=features[n_labeled:],
                hidden_truth=labels[n_labeled:],
                distribution_id=dist_id,
                class_whitelist=tuple(int(c) for c in whitelist),
                test=test,
            )
        )
    return devices


def csv_devices(data, n_devices: int, seed) -> list:
    """Deal the rows of `data.csv_path` round-robin across `n_devices`
    devices, under `data`, the `[data]` section (`config.DataConfig`).

    External data has no per-device draw to replicate, so labeled and
    unlabeled rows are dealt in file order. Ground truth of unlabeled
    rows is unknown (-1), which makes labeling accuracy undefined, and
    each device's holdout doubles as its test set.
    """
    labeled, unlabeled = load_csv_dataset(data.csv_path, data.features, data.classes)
    if len(labeled) < n_devices:
        raise ConfigError(
            "data.csv_path",
            f"{len(labeled)} labeled rows cannot cover {n_devices} devices",
        )
    whitelist = tuple(range(data.classes))
    devices = []
    for k in range(n_devices):
        lab = LabeledBatch(labeled.features[k::n_devices], labeled.labels[k::n_devices])
        pool = unlabeled[k::n_devices]
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), DATA_STREAM, 2, k]))
        n_hold = int(round(data.holdout_fraction * len(lab)))
        if n_hold >= len(lab):
            raise ConfigError(
                "data.holdout_fraction",
                f"holds out all {len(lab)} labeled rows of device {k}, "
                "leaving none to train on",
            )
        held = np.zeros(len(lab), dtype=bool)
        held[rng.choice(len(lab), size=n_hold, replace=False)] = True
        train, holdout = lab.subset(~held), lab.subset(held)
        devices.append(
            DeviceDataset(
                device_id=k,
                train=train,
                holdout=holdout,
                unlabeled_features=pool,
                hidden_truth=np.full(pool.shape[0], -1, dtype=np.int64),
                distribution_id=-1,
                class_whitelist=whitelist,
                test=holdout if n_hold else train,
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
