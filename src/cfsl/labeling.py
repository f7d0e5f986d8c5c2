"""Pseudo-labeling: confidence gating, model utility, selection, injection.

Once specialized models exist, each device scores the candidate models
on its own labeled holdout and unlabeled pool, picks exactly one, and
injects the samples that model labels with confidence at or above the
threshold. Injected labels are frozen; the device's training workload
grows accordingly, which feeds back into scheduling.

A selection reads the holdout and the pool once for all candidates and
scores their holdout accuracy in one stacked pass (`holdout_accuracies`
scores the devices that share a candidate set together). Accuracy ranks
first, so only the contenders, the candidates tied at the best accuracy,
can be chosen; only they run over the pool, in one stacked pass, to get their
coverage. The contenders rank by coverage, then by the lowest model id.
The selection hands back the chosen model's id, holdout accuracy and
coverage, whose product enters the reported objective, and its pool
predictions, which go on to `pseudo_label` so that it does not run that
model again.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .data import DeviceDataset
from .errors import StateError
from .models import (
    STACK_CHUNK,
    LabeledBatch,
    ModelParams,
    accuracy_grid,
    confidences,
    evaluate,
)

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
    caller has them already, as the last item `select_best_model` returns
    for the chosen model; that saves running the model over the features
    a second time.
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


def _scored_holdout(device: DeviceDataset) -> LabeledBatch:
    """The rows a selection scores holdout accuracy on: the holdout, or the
    train rows, with a warning, when the holdout is empty."""
    if len(device.holdout):
        return device.holdout
    log.warning(
        "device %d: empty holdout, scoring val_accuracy on the full labeled set",
        device.device_id,
    )
    return device.train


def holdout_accuracies(devices: list, candidates: dict) -> list:
    """Each device's holdout accuracy of every candidate, in candidate
    order, as `select_best_model` scores it alone: one `accuracy_grid` pass
    per holdout length and chunk of STACK_CHUNK devices."""
    holdouts = [_scored_holdout(dev) for dev in devices]
    by_length = defaultdict(list)
    for j, batch in enumerate(holdouts):
        by_length[len(batch)].append(j)
    out = [None] * len(devices)
    for group in by_length.values():
        for lo in range(0, len(group), STACK_CHUNK):
            chunk = group[lo : lo + STACK_CHUNK]
            grid = accuracy_grid(list(candidates.values()), [holdouts[j] for j in chunk])
            for j, column in zip(chunk, grid.T.tolist()):
                out[j] = column
    return out


def select_best_model(device: DeviceDataset, candidates: dict, phi: float, pool: np.ndarray,
                      accuracy: list | None = None):
    """Pick exactly one candidate model for this device.

    Every candidate's holdout accuracy is scored in one stacked pass, unless
    `accuracy` gives them, in candidate order, as `holdout_accuracies`
    returns them. Only the contenders, the candidates tied at the best
    accuracy, can win, so only they run over `pool`, the device's pending
    features (`device.pending_features()[1]`), in one stacked pass in
    candidate order; row k of a stacked pass has the bits model k gets
    alone. The contenders rank by coverage descending, then by model id
    ascending. Returns (model id, holdout accuracy, coverage, (classes,
    confidences) over the pool) of the chosen model; `pseudo_label` takes
    the last.
    """
    if not candidates:
        raise StateError(f"device {device.device_id}: no candidate models to select from")
    if accuracy is None:
        accuracy = evaluate(list(candidates.values()), _scored_holdout(device))
    best = max(accuracy)
    contenders = [mid for mid, acc in zip(candidates, accuracy) if acc == best]
    classes, conf = confidences([candidates[mid] for mid in contenders], pool)
    if pool.shape[0] == 0:
        coverage = [0.0] * len(contenders)
    else:
        coverage = (conf >= phi).mean(axis=1).tolist()
    k = min(range(len(contenders)), key=lambda j: (-coverage[j], contenders[j]))
    return contenders[k], best, coverage[k], (classes[k], conf[k])


def utility(model_id: int, model: ModelParams, device: DeviceDataset, phi: float) -> tuple:
    """One candidate's (holdout accuracy, coverage of the remaining pool at
    threshold phi), as `select_best_model` scores it."""
    pool = device.pending_features()[1]
    _, val_accuracy, coverage, _ = select_best_model(device, {model_id: model}, phi, pool)
    return val_accuracy, coverage


def inject(device: DeviceDataset, batch: PseudoLabelBatch) -> int:
    """Move accepted pseudo-labels into the device's training data.

    `DeviceDataset.inject` checks the positions and labels: injected labels
    are frozen, so re-injecting a position is a state error. Returns the
    number of samples added.
    """
    if batch.device_id != device.device_id:
        raise ValueError(
            f"batch for device {batch.device_id} applied to device {device.device_id}"
        )
    device.inject(batch.indices, batch.labels)
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
