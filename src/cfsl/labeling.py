"""Pseudo-labeling: confidence gating, model utility, selection, injection.

Once specialized models exist, each device scores the candidate models
on its own labeled holdout and unlabeled pool, picks exactly one, and
injects the samples that model labels with confidence at or above the
threshold. Injected labels are frozen; the device's training workload
grows accordingly, which feeds back into scheduling.

A labeling phase does its candidate work once per candidate set, through
the one scoring kernel of `models`: `holdout_accuracies` scores every
holdout against the set, accuracy ranks first, and only the contenders (the
candidates tied at a device's best accuracy) run over the device's pool,
read before the device injects. `select_best_model` then only ranks them,
and the chosen model's pool predictions go on to `pseudo_label`, so that no
model runs twice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .data import DeviceDataset
from .errors import StateError
from .models import LabeledBatch, ModelParams, confidences, hit_rates, pool_predictions

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
    a second time. Without them the model runs over the features here:
    labeling with a bare model is a use of its own (the threshold
    monotonicity acceptance check does it), and the benchmark's tracer
    counts the rows of `features`, read at position 1.
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
    if not len(device.train):
        raise ValueError(f"device {device.device_id}: no labeled rows to score accuracy on")
    log.warning(
        "device %d: empty holdout, scoring val_accuracy on the full labeled set",
        device.device_id,
    )
    return device.train


def holdout_accuracies(devices: list, candidates: dict) -> np.ndarray:
    """(devices, candidates) array: each device's holdout accuracy of every
    candidate, in the given orders, with the bits `models.evaluate` gives
    each pair. One `pool_predictions` pass scores the holdouts, one item per
    device, in the given order; its (candidates, n) classes, side by side
    in the smallest integer type that holds a class (each block cast as it
    comes), are counted against the labels by one `models.hit_rates` call,
    as `evaluate` counts its pairs. Errors name this function."""
    if not devices:
        raise ValueError("holdout_accuracies requires at least one device")
    scorers = list(candidates.values())
    holdouts = [_scored_holdout(dev) for dev in devices]
    scored = pool_predictions(zip(repeat(scorers), [h.features for h in holdouts]),
                              "holdout_accuracies")
    classes = np.concatenate([predicted.astype(np.min_scalar_type(scorers[0].dim_out - 1))
                              for predicted, _ in scored], axis=1)
    labels = np.concatenate([h.labels for h in holdouts])
    rows = [0, *accumulate(h.labels.shape[0] for h in holdouts)]
    return hit_rates(classes, labels, rows).T


def select_best_model(device: DeviceDataset, ids: list, phi: float, predictions: tuple):
    """Pick exactly one of the contenders `ids` for this device.

    The contenders are the candidates tied at the device's best holdout
    accuracy; `predictions` is their (K, n) (classes, confidences) over the
    device's pending pool, in `ids` order, as `models.confidences` returns
    them. They rank by coverage, the share of the pool at or above phi (one
    count per contender), descending, then by model id ascending. Returns
    (model id, coverage, (classes, confidences) over the pool) of the
    chosen model; `pseudo_label` takes the last.
    """
    if not ids:
        raise StateError(f"device {device.device_id}: no candidate models to select from")
    classes, conf = predictions
    n = conf.shape[1]
    counts = np.add.reduce(conf >= phi, axis=1, dtype=np.intp).tolist()
    k = min(range(len(ids)), key=lambda j: (-counts[j], ids[j]))
    # Exact counts: the correctly rounded quotient, as the bool mean gives.
    return ids[k], counts[k] / n if n else 0.0, (classes[k], conf[k])


def utility(model_id: int, model: ModelParams, device: DeviceDataset, phi: float) -> tuple:
    """One candidate's (holdout accuracy, coverage of the remaining pool at
    threshold phi), as the labeling phase scores it."""
    accuracy = float(holdout_accuracies([device], {model_id: model})[0, 0])
    predictions = confidences([model], device.pending_features()[1])
    return accuracy, select_best_model(device, [model_id], phi, predictions)[1]


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
