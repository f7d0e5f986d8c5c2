"""Pseudo-labeling: confidence gating, model utility, selection, injection.

Once specialized models exist, each device scores the candidate models
on its own labeled holdout and unlabeled pool, picks exactly one, and
injects the samples that model labels with confidence at or above the
threshold. Injected labels are frozen; the device's training workload
grows accordingly, which feeds back into scheduling.

A selection reads the holdout and the pool once for all candidates and
scores their holdout accuracy in one stacked pass. Accuracy ranks first,
so only the contenders, the candidates tied at the best accuracy, can be
chosen; only they run over the pool, in one stacked pass, to get their
coverage. The estimated labeling latency is the same for every candidate
of one selection, so it never breaks a tie there. The chosen model's pool
predictions go on to `pseudo_label`, which then does not run that model
again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import DeviceDataset
from .errors import StateError
from .models import ModelParams, confidences, evaluate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PseudoLabelBatch:
    """Accepted pseudo-labels for one device from one model, one pass."""

    device_id: int
    indices: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray
    source_model_id: int
    round_no: int
    phi: float

    def __post_init__(self):
        if not (self.indices.size == self.labels.size == self.confidences.size):
            raise ValueError("indices, labels, and confidences must align")
        if self.indices.size and np.unique(self.indices).size != self.indices.size:
            raise ValueError("pseudo-label indices must be unique")
        if self.indices.size and self.confidences.min() < self.phi:
            raise ValueError("confidence below threshold in accepted batch")

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class UtilityScore:
    """How useful one candidate model looks to one device."""

    model_id: int
    val_accuracy: float
    coverage: float
    mean_confidence: float
    est_label_latency: float

    def __post_init__(self):
        for name in ("val_accuracy", "coverage", "mean_confidence"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.est_label_latency < 0:
            raise ValueError("est_label_latency must be >= 0")

    @property
    def scalar(self) -> float:
        """Single-number utility used by the reported objective."""
        return self.val_accuracy * self.coverage


@dataclass(frozen=True)
class SelectionDecision:
    """One-hot choice of labeling model for a device."""

    device_id: int
    chosen_model_id: int
    z: dict

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.z.values()):
            raise ValueError("z entries must be binary")
        if sum(self.z.values()) != 1:
            raise ValueError("z must have exactly one entry equal to 1")
        if self.z.get(self.chosen_model_id) != 1:
            raise ValueError("chosen model must carry the 1 entry")


def pseudo_label(
    model: ModelParams,
    features: np.ndarray,
    phi: float,
    device_id: int = -1,
    source_model_id: int = -1,
    round_no: int = -1,
    pool_indices: np.ndarray | None = None,
    predictions: tuple | None = None,
) -> PseudoLabelBatch:
    """Label every sample whose max class probability reaches phi.

    pool_indices maps feature rows back to positions in the device's
    unlabeled pool; by default rows label themselves 0..n-1. predictions
    is `confidences(model, features)` when the caller has it already
    (select_best_model returns the chosen model's), which saves running
    the model over the features a second time.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phi must be in [0, 1]")
    if pool_indices is None:
        pool_indices = np.arange(features.shape[0])
    classes, conf = confidences(model, features) if predictions is None else predictions
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


def _score_candidates(
    device: DeviceDataset,
    candidates: dict,
    phi: float,
    f_hz: float,
    inference_cycles_per_sample: float,
    pool: np.ndarray | None,
):
    """({model id: UtilityScore}, {model id: (classes, confidences) over
    the pool}) for the contenders, the candidates whose holdout accuracy
    equals the best, in candidate order, from one read of the holdout and
    of the pool. Holdout accuracy is one stacked pass over all candidates,
    pool confidences one stacked pass over the contenders: no other
    candidate can win the selection, and row k of a stacked pass has the
    bits model k gets alone, so each contender's score is its `utility`."""
    holdout = device.holdout_batch()
    if len(holdout) == 0:
        log.warning(
            "device %d: empty holdout, scoring val_accuracy on the full labeled set",
            device.device_id,
        )
        holdout = device.labeled
    accuracy = evaluate(list(candidates.values()), holdout)
    best = max(accuracy)
    contenders = [mid for mid, acc in zip(candidates, accuracy) if acc == best]
    if pool is None:
        _, pool = device.pending_features()
    classes, conf = confidences([candidates[mid] for mid in contenders], pool)
    n_pending = pool.shape[0]
    if n_pending == 0:
        coverage = mean_conf = [0.0] * len(contenders)
        latency = 0.0
    else:
        coverage = (conf >= phi).mean(axis=1).tolist()
        mean_conf = conf.mean(axis=1).tolist()
        latency = n_pending * inference_cycles_per_sample / f_hz
    scores = {
        mid: UtilityScore(mid, best, *fields, latency)
        for mid, *fields in zip(contenders, coverage, mean_conf)
    }
    predictions = dict(zip(contenders, zip(classes, conf)))
    return scores, predictions


def utility(
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
    the model, so it is the same for every candidate of one selection.
    An empty holdout falls back to the full labeled set, with a warning.
    """
    scores, _ = _score_candidates(
        device, {model_id: model}, phi, f_hz, inference_cycles_per_sample, None
    )
    return scores[model_id]


def select_best_model(
    device: DeviceDataset,
    candidates: dict,
    phi: float,
    f_hz: float,
    inference_cycles_per_sample: float,
    pool: np.ndarray | None = None,
):
    """Rank candidate models and pick exactly one for this device.

    Ranking is lexicographic: highest holdout accuracy, then highest
    coverage, then lowest estimated labeling latency, then lowest model
    id. The latency is the same for every candidate of one selection, so
    it never breaks a tie. Every candidate's holdout accuracy is scored;
    only the contenders, the candidates tied at the best accuracy, run
    over the pool, and each gets its `utility` score. All of it comes
    from one read of the device's holdout and pool; `pool` is the
    device's pending features (`device.pending_features()[1]`) when the
    caller has read them already. Returns the one-hot decision over every
    candidate, the contenders' scores in candidate order, and the chosen
    model's (classes, confidences) over the pool for `pseudo_label`.
    """
    if not candidates:
        raise StateError(f"device {device.device_id}: no candidate models to select from")
    scores, predictions = _score_candidates(
        device, candidates, phi, f_hz, inference_cycles_per_sample, pool
    )
    ranked = sorted(
        scores.values(),
        key=lambda s: (-s.val_accuracy, -s.coverage, s.est_label_latency, s.model_id),
    )
    chosen = ranked[0].model_id
    z = {mid: (1 if mid == chosen else 0) for mid in sorted(candidates)}
    return SelectionDecision(device.device_id, chosen, z), scores, predictions[chosen]


def inject(device: DeviceDataset, batch: PseudoLabelBatch) -> int:
    """Move accepted pseudo-labels into the device's training data.

    Labels are frozen once injected; re-injecting an index is a state
    error. Returns the number of samples added.
    """
    if batch.device_id != device.device_id:
        raise ValueError(
            f"batch for device {batch.device_id} applied to device {device.device_id}"
        )
    if len(batch) == 0:
        return 0
    idx = batch.indices
    if idx.min() < 0 or idx.max() >= device.injected_mask.size:
        raise ValueError(f"device {device.device_id}: pseudo-label index out of range")
    already = idx[device.injected_mask[idx]]
    if already.size:
        raise StateError(
            f"device {device.device_id}: samples {sorted(already.tolist())} already injected"
        )
    device.injected_mask[idx] = True
    device.injected_labels[idx] = batch.labels
    return len(batch)


def labeling_accuracy(device: DeviceDataset):
    """Fraction of injected labels matching hidden truth; None before any
    injection or when the truth is unknown (the metric is undefined, not
    zero)."""
    if device.n_injected == 0:
        return None
    idx = np.flatnonzero(device.injected_mask)
    idx = idx[device.hidden_truth[idx] >= 0]
    if idx.size == 0:
        return None
    return float((device.injected_labels[idx] == device.hidden_truth[idx]).mean())


def objective_value(device_losses: dict, selections: dict, utilities: dict, lam: float) -> float:
    """Training losses minus lam times each device's realized utility.

    selections maps device -> SelectionDecision for devices that have
    chosen a labeling model; others contribute loss only. The utility
    scalar is holdout accuracy times coverage.
    """
    total = 0.0
    for dev in sorted(device_losses):
        total += float(device_losses[dev])
        decision = selections.get(dev)
        if decision is None:
            continue
        scores = utilities[dev]
        one_hot = sum(decision.z.values())
        if one_hot != 1:
            raise ValueError(f"device {dev}: z sums to {one_hot}, expected 1")
        total -= lam * scores[decision.chosen_model_id].scalar
    return total
