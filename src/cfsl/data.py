"""Synthetic non-IID task generation, device partitioning, and CSV ingestion.

A task universe holds several class-conditional Gaussian distributions.
Devices draw from exactly one distribution and see at most a small
whitelist of classes, which is what makes the population non-IID. Each
device keeps a labeled pool, an unlabeled pool whose true labels are
retained only for scoring, a small validation holdout carved from the
labeled pool, and a fresh test draw used for reporting.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    differ only in which label each center carries; permutations[j] maps
    center index -> label under distribution j.
    """

    mode: str
    n_distributions: int
    n_classes: int
    dim: int
    means: np.ndarray
    noise_scale: float
    permutations: tuple | None = None

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


def make_task_universe(
    n_distributions: int,
    n_classes: int,
    dim: int,
    mode: str = "label-permutation",
    seed=0,
    separation: float = 4.0,
    noise_scale: float = 1.0,
) -> TaskUniverse:
    """Build a universe whose distributions are pairwise distinguishable.

    Candidate parameter draws are rejected until every pair of
    distributions disagrees on at least 30% of a probe set; after 100
    failed draws generation gives up.
    """
    if n_distributions < 1:
        raise ValueError("n_distributions must be >= 1")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if mode not in ("gaussian-clusters", "label-permutation"):
        raise ValueError(f"unknown task mode {mode!r}")
    if mode == "label-permutation" and n_distributions > 1 and n_classes < 3:
        # A 2-class derangement is the swap; three or more distributions
        # would be forced to collide.
        if n_distributions > 2:
            raise ValueError("label-permutation with n_classes=2 supports at most 2 distributions")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), DATA_STREAM, 0]))
    for _ in range(GENERATION_RETRIES):
        if mode == "gaussian-clusters":
            means = rng.normal(0.0, separation / 2.0, size=(n_distributions, n_classes, dim))
            perms = None
        else:
            base = rng.normal(0.0, separation / 2.0, size=(n_classes, dim))
            perm_list = [np.arange(n_classes)]
            for _ in range(n_distributions - 1):
                perm_list.append(_derangement(n_classes, rng))
            means = np.empty((n_distributions, n_classes, dim))
            for j, perm in enumerate(perm_list):
                # Center m carries label perm[m], so the center of class c
                # is base[m] with perm[m] == c.
                inverse = np.argsort(perm)
                means[j] = base[inverse]
            perms = tuple(tuple(int(v) for v in p) for p in perm_list)
        universe = TaskUniverse(
            mode, n_distributions, n_classes, dim, means, noise_scale, perms
        )
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

    The labeled pool is immutable; pseudo-labeling only flips entries of
    injected_mask and fills injected_labels, so the original pools stay
    intact for accounting. hidden_truth and test exist for metrics only
    and are never shown to training code.
    """

    device_id: int
    labeled: LabeledBatch
    unlabeled_features: np.ndarray
    hidden_truth: np.ndarray
    distribution_id: int
    class_whitelist: tuple
    holdout_indices: np.ndarray
    test: LabeledBatch
    injected_mask: np.ndarray = field(default=None)
    injected_labels: np.ndarray = field(default=None)

    def __post_init__(self):
        n_u = self.unlabeled_features.shape[0]
        if self.injected_mask is None:
            self.injected_mask = np.zeros(n_u, dtype=bool)
        if self.injected_labels is None:
            self.injected_labels = np.full(n_u, -1, dtype=np.int64)
        if self.hidden_truth.shape[0] != n_u:
            raise ValueError("hidden_truth must cover the unlabeled pool")
        wl = set(self.class_whitelist)
        if len(self.labeled) and not set(np.unique(self.labeled.labels)) <= wl:
            raise ValueError(f"device {self.device_id}: labeled class outside whitelist")
        # -1 marks unknown truth (external data); anything else must be
        # whitelisted.
        if n_u and not set(np.unique(self.hidden_truth)) - {-1} <= wl:
            raise ValueError(f"device {self.device_id}: hidden truth outside whitelist")

    @property
    def n_injected(self) -> int:
        return int(self.injected_mask.sum())

    @property
    def labeled_size(self) -> int:
        """Current training-set size: original labels plus injected ones."""
        return len(self.labeled) + self.n_injected

    @property
    def unlabeled_remaining(self) -> int:
        return int((~self.injected_mask).sum())

    @property
    def injected_fraction(self) -> float:
        """Share of the original unlabeled pool already pseudo-labeled."""
        if self.injected_mask.size == 0:
            return 1.0
        return float(self.injected_mask.mean())

    @cached_property
    def keep(self) -> np.ndarray:
        """Labeled-pool rows outside the holdout, computed on first use."""
        mask = np.ones(len(self.labeled), dtype=bool)
        mask[self.holdout_indices] = False
        return np.flatnonzero(mask)

    @property
    def train_size(self) -> int:
        """len(self.train_batch()), without building the batch."""
        return len(self.keep) + self.n_injected

    def train_batch(self) -> LabeledBatch:
        """Labeled samples outside the holdout, plus injected pseudo-labels."""
        feats = [self.labeled.features[self.keep]]
        labs = [self.labeled.labels[self.keep]]
        if self.n_injected:
            idx = np.flatnonzero(self.injected_mask)
            feats.append(self.unlabeled_features[idx])
            labs.append(self.injected_labels[idx])
        return LabeledBatch(np.vstack(feats), np.concatenate(labs))

    def holdout_batch(self) -> LabeledBatch:
        return self.labeled.subset(self.holdout_indices)

    def pending_features(self):
        """(pool indices, features) of unlabeled samples not yet injected."""
        idx = np.flatnonzero(~self.injected_mask)
        return idx, self.unlabeled_features[idx]


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


def partition_devices(
    universe: TaskUniverse,
    n_devices: int,
    samples_per_device: int,
    labeled_fraction: float,
    max_classes: int = 2,
    distribution_assignment: str = "round-robin",
    seed=0,
    holdout_fraction: float = 0.2,
    test_samples: int = 40,
) -> list:
    """Draw every device's pools from its assigned distribution.

    Exactly round(labeled_fraction * samples_per_device) samples are
    labeled, raised to one per whitelisted class (with a warning) when
    the fraction is too small; the rest form the unlabeled pool with
    their true labels retained for scoring only.
    """
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    if not 0 < labeled_fraction <= 1:
        raise ValueError("labeled_fraction must be in (0, 1]")
    if samples_per_device < max(2, max_classes):
        raise ValueError("samples_per_device too small for the class whitelist")
    if not 0 <= holdout_fraction < 1:
        raise ValueError("holdout_fraction must be in [0, 1)")
    if distribution_assignment not in ("round-robin", "random"):
        raise ValueError(f"unknown distribution_assignment {distribution_assignment!r}")

    assign_rng = np.random.default_rng(np.random.SeedSequence([int(seed), DATA_STREAM, 1]))
    devices = []
    for k in range(n_devices):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), DATA_STREAM, 2, k]))
        if distribution_assignment == "round-robin":
            dist_id = k % universe.n_distributions
        else:
            dist_id = int(assign_rng.integers(0, universe.n_distributions))

        width = min(max_classes, universe.n_classes)
        whitelist = np.sort(rng.choice(universe.n_classes, size=width, replace=False))

        n_labeled, n_hold = labeled_split(
            labeled_fraction, samples_per_device, width, holdout_fraction
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

        labeled = LabeledBatch(features[:n_labeled], labels[:n_labeled])
        unlabeled = features[n_labeled:]
        truth = labels[n_labeled:]

        holdout = np.sort(rng.choice(n_labeled, size=n_hold, replace=False))

        test_labels = rng.choice(whitelist, size=test_samples, replace=True).astype(np.int64)
        test = LabeledBatch(
            universe.sample_features(dist_id, test_labels, rng), test_labels
        )

        devices.append(
            DeviceDataset(
                device_id=k,
                labeled=labeled,
                unlabeled_features=unlabeled,
                hidden_truth=truth,
                distribution_id=dist_id,
                class_whitelist=tuple(int(c) for c in whitelist),
                holdout_indices=holdout,
                test=test,
            )
        )
    return devices


def load_csv_dataset(path: str, n_features: int, n_classes: int):
    """Parse a feature/label CSV into a labeled batch plus unlabeled matrix.

    Rows carry n_features floats then one optional label column; an empty
    label field marks the row unlabeled. A single non-numeric first row is
    treated as a header. Returns (LabeledBatch, unlabeled feature matrix).
    """
    labeled_feats, labeled_labels, unlabeled_feats = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if row_no == 1:
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
