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
of one selection, so the contenders rank by coverage, then model id. The
selection hands back the chosen model's score, whose scalar enters the
reported objective, and its pool predictions, which go on to
`pseudo_label` so that it does not run that model again.
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
    est_label_latency: float

    def __post_init__(self):
        for name in ("val_accuracy", "coverage"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.est_label_latency < 0:
            raise ValueError("est_label_latency must be >= 0")

    @property
    def scalar(self) -> float:
        """Single-number utility used by the reported objective."""
        return self.val_accuracy * self.coverage


def pseudo_label(
    model: ModelParams,
    features: np.ndarray,
    phi: float,
    device_id: int = -1,
    pool_indices: np.ndarray | None = None,
    predictions: tuple | None = None,
) -> PseudoLabelBatch:
    """Label every sample whose max class probability reaches phi.

    pool_indices maps feature rows back to positions in the device's
    unlabeled pool; by default rows label themselves 0..n-1. predictions
    is the model's (classes, confidences) over the features when the
    caller has them already (select_best_model returns the chosen
    model's), which saves running the model over the features a second
    time.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phi must be in [0, 1]")
    if pool_indices is None:
        pool_indices = np.arange(features.shape[0])
    if predictions is None:
        predictions = [rows[0] for rows in confidences([model], features)]
    classes, conf = predictions
    accept = conf >= phi
    return PseudoLabelBatch(
        device_id=device_id,
        indices=np.asarray(pool_indices)[accept],
        labels=classes[accept],
        confidences=conf[accept],
        phi=phi,
    )


def _score_candidates(
    device: DeviceDataset,
    candidates: dict,
    phi: float,
    f_hz: float,
    inference_cycles_per_sample: float,
    pool: np.ndarray,
):
    """({model id: UtilityScore}, {model id: (classes, confidences) over
    `pool`, the device's pending features}) for the contenders, the
    candidates whose holdout accuracy equals the best, in candidate order,
    from one read of the holdout. Holdout accuracy is one stacked pass over
    all candidates, pool confidences one stacked pass over the contenders:
    no other candidate can win the selection, and row k of a stacked pass
    has the bits model k gets alone, so each contender's score is its
    `utility`."""
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
    classes, conf = confidences([candidates[mid] for mid in contenders], pool)
    n_pending = pool.shape[0]
    if n_pending == 0:
        coverage = [0.0] * len(contenders)
        latency = 0.0
    else:
        coverage = (conf >= phi).mean(axis=1).tolist()
        latency = n_pending * inference_cycles_per_sample / f_hz
    scores = {
        mid: UtilityScore(mid, best, cov, latency) for mid, cov in zip(contenders, coverage)
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
    """One candidate's score as `select_best_model` computes it: holdout
    accuracy, and coverage of the remaining pool at threshold phi."""
    scores, _ = _score_candidates(
        device, {model_id: model}, phi, f_hz, inference_cycles_per_sample,
        device.pending_features()[1],
    )
    return scores[model_id]


def select_best_model(
    device: DeviceDataset,
    candidates: dict,
    phi: float,
    f_hz: float,
    inference_cycles_per_sample: float,
    pool: np.ndarray,
):
    """Pick exactly one candidate model for this device.

    Every candidate's holdout accuracy is scored, and only the contenders,
    the candidates tied at the best accuracy, run over `pool`, the device's
    pending features (`device.pending_features()[1]`). The contenders share
    that accuracy and one estimated labeling latency, so they rank by
    coverage descending, then by model id ascending. All of it comes from
    one read of the device's holdout and of `pool`. Returns the chosen
    model's `UtilityScore`, as `utility` gives it, and its (classes,
    confidences) over the pool for `pseudo_label`.
    """
    if not candidates:
        raise StateError(f"device {device.device_id}: no candidate models to select from")
    scores, predictions = _score_candidates(
        device, candidates, phi, f_hz, inference_cycles_per_sample, pool
    )
    chosen = min(scores.values(), key=lambda s: (-s.coverage, s.model_id))
    return chosen, predictions[chosen.model_id]


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
    device.inject(idx, batch.labels)
    return len(batch)


def labeling_accuracy(device: DeviceDataset):
    """Fraction of injected labels matching hidden truth; None before any
    injection or when the truth is unknown (the metric is undefined, not
    zero)."""
    if device.n_known == 0:
        return None
    # Exact counts: the correctly rounded quotient, as the bool mean gives.
    return device.n_correct / device.n_known


def objective_value(device_losses: dict, utilities: dict, lam: float) -> float:
    """Training losses minus lam times each device's realized utility.

    utilities maps device -> the scalar utility (holdout accuracy times
    coverage) of its last chosen labeling model; devices that never chose
    one contribute loss only.
    """
    total = 0.0
    for dev in sorted(device_losses):
        total += float(device_losses[dev])
        if dev in utilities:
            total -= lam * utilities[dev]
    return total
