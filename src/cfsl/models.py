"""Flat-vector softmax classifiers with hand-derived gradients.

Two shapes are supported: multinomial logistic regression (``hidden == 0``)
and a one-hidden-layer tanh network. Parameters travel as a single flat
float64 vector so that averaging, cosine similarity, and upload-size
accounting all operate on the same object.

Stacked layout. ``gradient``, ``evaluate`` and ``loss`` take one batch or
a list of K equal-length batches; ``sgd_train`` takes one batch or a list
of K batches of any lengths (see "Ragged training"). K devices' features
form one ``(K, b, d)`` array and their weights one ``(K, P)`` array, which
``_unpack`` views as ``(K, d, h)`` matrices and ``(K, 1, h)`` biases. Every
step is written over the last two axes, so the same code runs a single
device (trained as K = 1, scored on 2-D arrays) and a stack of them. A
stacked ``gradient`` (the split checks take one per cluster member) is one
``_grads`` pass over the ``(K, b, d)`` batch against the one model, as
``evaluate`` and ``loss`` score a stack.

Why the bits match. numpy's ``matmul`` runs each 2-D slice of a stacked
operand through the same BLAS call, with the same inner strides, as it
would a 2-D operand of that shape. Softmax, tanh and the updates are
elementwise; the reductions run along the same axes in the same order. So
every device's weights, gradient, accuracy and loss are bit-equal to what
it gets alone; ``tests/test_models_stacked.py`` checks this against a
verbatim copy of the per-device loop.

Ragged training. ``sgd_train`` also takes batches of unequal lengths and
one start model per batch. It stacks the devices longest first, with all
their rows in one table, and each device draws its epoch permutations from
its own generator, as alone. At each step position, each run of adjacent
devices whose minibatch has the same size (``batch_size`` or the device's
remainder) takes one ``_grads`` step through ``_unpack`` views of its slice
of the weight stack, so every matmul slice has the ``(m, d)`` shape it has
alone and the argument above holds. ``gradient``, ``evaluate`` and ``loss``
keep equal lengths: they multiply whole batches, and stacking unequal ones
would pad or split rows, which can change the BLAS bits.

Chunks. Callers stack at most ``STACK_CHUNK`` (16) devices at a time, because
stacking copies each device's batches once more. On the 128-device MLP
benchmark (fedavg-128), one stack of all 128 devices raised peak RSS from
45 to 55 MiB; chunks of 16 keep it at 46.5 MiB for 8% less speed. Training
chunks devices in order of train size, so a chunk's lengths are close.

Training data is passed in, not cached: ``DeviceDataset.train_batch`` builds
each batch on demand (only its non-holdout index is kept), because caching
the batches copies every injected pseudo-label row for the life of the run.

``evaluate`` also takes a list of K same-shape models and one batch: the
batch's ``(b, d)`` features meet the models' ``(K, d, c)`` weights in one
broadcast matmul, and by the same argument each model's accuracy is
bit-equal to what it gets scored alone.

Class-major confidences. ``confidences`` runs the pool through the model
row-major, as ``forward`` does, then transposes the ``(n, c)`` logits to
``(c, n)`` so that each softmax step is a few long vector operations
instead of n reductions over c values. The bits match the row-wise
softmax: the max, the subtraction, ``exp`` (the same contiguous kernel)
and the division are exact or elementwise, which leaves the sum. numpy
sums one contiguous row of c values pairwise: below 8 values from left to
right; up to 128 into eight accumulators ``r[j] = a[j] + a[j+8] + ...``
over the whole blocks of 8, combined as
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover values from
left to right; above 128 it splits at half the count, rounded down to a
multiple of 8, and adds the two halves' sums. ``_pairwise_sum`` adds the
class rows in that order, so every class count gets the row-wise bits (a
plain ``sum(axis=0)`` matches only below 8 classes). The class is the
first index of the highest probability, not of the highest logit, as
``argmax`` of the row-wise probabilities picks it: logits that differ may
round to equal probabilities. ``tests/test_labeling_oracle.py`` checks all
of this against a verbatim copy of the row-wise code.

Stacked candidates. ``confidences`` also takes a list of K same-shape
models and one pool, giving (K, n) classes and confidences; a selection
scores all its contenders in one call. Row k has the bits model k gets
alone. The pool's ``(n, d)`` features meet the ``(K, d, c)`` weights (and
the tanh network's ``(K, d, h)`` hidden weights) in one broadcast matmul
over the whole pool, so each model's slice runs through the same BLAS call
as one model does. The matmuls are never split by rows: the BLAS result
can depend on the row count (splitting the rows changed bits for d=32,
c=10 and for d=20, h=32, c=10). Only the softmax after them is blocked,
over samples: a block is ``(c, K, b)``, class-major across all models, in
even blocks of at most ``SOFTMAX_BLOCK`` values. Each step in a block is
elementwise or works on one sample's c values, so blocks change no bit.
The block size was measured on one core (numpy 2.4.6, OpenBLAS, logistic,
d=16): unblocked, K=12, c=6, n=5,000 took 6.8 ms against 4.7 ms for one
call per model, and blocks of 32,768 values (256 KiB) took 3.0 ms; blocks
of 8,192 values were 1.6-1.7x slower than 32,768 at K=38, c=33; 131,072
was no faster. The tie rule is the one-model rule, found without
``argmax`` along the class axis (which copies the block transposed, 9 ms
against 1 ms at K=38, c=6, n=5,000): among the classes whose probability
is not below the sample's highest, the first one. A NaN sample (from NaN
weights) has every class "not below" its NaN maximum, so it gets class 0,
as ``argmax`` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

BITS_PER_PARAMETER = 32

# Devices per stacked pass (see the module docstring).
STACK_CHUNK = 16

# Values per block of the class-major softmax in `confidences` (see the
# module docstring).
SOFTMAX_BLOCK = 32768


def param_count(dim_in: int, dim_out: int, hidden: int = 0) -> int:
    """Number of scalar parameters for the given shape (weights + biases)."""
    if hidden == 0:
        return (dim_in + 1) * dim_out
    return (dim_in + 1) * hidden + (hidden + 1) * dim_out


@dataclass(frozen=True)
class ModelParams:
    """A classifier's parameters as one flat vector plus shape metadata."""

    weights: np.ndarray
    dim_in: int
    dim_out: int
    hidden: int = 0

    def __post_init__(self):
        expected = param_count(self.dim_in, self.dim_out, self.hidden)
        if self.weights.ndim != 1 or self.weights.size != expected:
            raise ValueError(
                f"weights length {self.weights.size} does not match shape "
                f"(dim_in={self.dim_in}, hidden={self.hidden}, dim_out={self.dim_out}): "
                f"expected {expected}"
            )

    @property
    def size_bits(self) -> int:
        """Upload payload size in bits (fixed bits per parameter)."""
        return self.weights.size * BITS_PER_PARAMETER

    def with_weights(self, weights: np.ndarray) -> "ModelParams":
        return replace(self, weights=weights)


@dataclass(frozen=True)
class LabeledBatch:
    """Feature matrix with integer class labels, one row per sample."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"features rows ({self.features.shape[0]}) != labels ({self.labels.shape[0]})"
            )

    def __len__(self) -> int:
        return self.labels.shape[0]

    def subset(self, idx: np.ndarray) -> "LabeledBatch":
        return LabeledBatch(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class GradientUpdate:
    """Flat gradient of the mean cross-entropy plus the sample count used."""

    grad: np.ndarray
    sample_count: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.grad)):
            raise ValueError("gradient contains non-finite entries")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.grad))


def init_params(
    dim_in: int, dim_out: int, hidden: int = 0, seed=0, scale: float = 0.05
) -> ModelParams:
    """Seeded uniform initialization in [-scale, scale]."""
    rng = _rng(seed)
    n = param_count(dim_in, dim_out, hidden)
    w = rng.uniform(-scale, scale, size=n)
    return ModelParams(w, dim_in, dim_out, hidden)


def zero_params(dim_in: int, dim_out: int, hidden: int = 0) -> ModelParams:
    return ModelParams(np.zeros(param_count(dim_in, dim_out, hidden)), dim_in, dim_out, hidden)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _unpack(p: ModelParams, weights: np.ndarray | None = None):
    """Views into flat weights of shape (P,) or stacked (K, P): (W, b) or
    (W1, b1, W2, b2). Stacked biases get a singleton row axis, (K, 1, n),
    so that they broadcast over a (K, b, n) batch."""
    d, c, h = p.dim_in, p.dim_out, p.hidden
    w = p.weights if weights is None else weights
    lead = w.shape[:-1]
    row = lead + (1,) if lead else ()
    if h == 0:
        return w[..., : d * c].reshape(*lead, d, c), w[..., d * c :].reshape(*row, c)
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * c
    return (
        w[..., :o1].reshape(*lead, d, h),
        w[..., o1:o2].reshape(*row, h),
        w[..., o2:o3].reshape(*lead, h, c),
        w[..., o3:].reshape(*row, c),
    )


def _logits(hidden: int, views, x: np.ndarray):
    """Raw class scores; for the tanh network also returns the hidden activations."""
    if hidden == 0:
        w, b = views
        return x @ w + b, None
    w1, b1, w2, b2 = views
    h = np.tanh(x @ w1 + b1)
    return h @ w2 + b2, h


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _onehot(p: ModelParams, labels: np.ndarray) -> np.ndarray:
    """(..., n, dim_out) float one-hot rows of integer class labels."""
    if labels.min() < 0 or labels.max() >= p.dim_out:
        raise ValueError(f"class labels must lie in [0, {p.dim_out})")
    return (labels[..., None] == np.arange(p.dim_out)).astype(np.float64)


def _grads(hidden: int, views, x: np.ndarray, onehot: np.ndarray) -> tuple:
    """Per-view gradients of the mean cross-entropy, shaped like `views`,
    for a (b, d) batch or a (K, b, d) stack of batches. Subtracting the
    0.0/1.0 one-hot rows gives the bits of subtracting 1.0 at each label."""
    z, h = _logits(hidden, views, x)
    delta = _softmax(z) - onehot
    delta /= onehot.shape[-2]
    xt = x.swapaxes(-1, -2)
    if hidden == 0:
        return xt @ delta, delta.sum(axis=-2, keepdims=True)
    w2 = views[2]
    dh = (delta @ w2.swapaxes(-1, -2)) * (1.0 - h * h)
    return (
        xt @ dh,
        dh.sum(axis=-2, keepdims=True),
        h.swapaxes(-1, -2) @ delta,
        delta.sum(axis=-2, keepdims=True),
    )


def _check_features(p: ModelParams, features: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != p.dim_in:
        raise ValueError(
            f"feature matrix must be 2-D with {p.dim_in} columns, got shape {features.shape}"
        )
    return features


def _stack(p: ModelParams, batches, caller: str):
    """Features and labels of one nonempty batch, (n, d) and (n,), or of a
    list of K equal-length nonempty batches, (K, n, d) and (K, n)."""
    if isinstance(batches, LabeledBatch):
        if len(batches) == 0:
            raise ValueError(f"{caller} requires a nonempty batch")
        return _check_features(p, batches.features), batches.labels
    lengths = sorted({len(b) for b in batches})
    if not lengths or lengths[0] == 0:
        raise ValueError(f"{caller} requires a nonempty batch")
    if len(lengths) > 1:
        raise ValueError(f"{caller} requires equal-length batches, got lengths {lengths}")
    x = np.stack([_check_features(p, b.features) for b in batches])
    return x, np.stack([b.labels for b in batches])


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix: row-wise softmax over the model's logits."""
    features = _check_features(params, features)
    if features.shape[0] == 0:
        return np.zeros((0, params.dim_out))
    z, _ = _logits(params.hidden, _unpack(params), features)
    return _softmax(z)


def loss(params: ModelParams, batch):
    """Mean cross-entropy over the batch (log-softmax form for accuracy).

    `batch` is one LabeledBatch, giving a float, or a list of equal-length
    batches, giving one float per batch."""
    x, y = _stack(params, batch, "loss")
    z, _ = _logits(params.hidden, _unpack(params), x)
    z = z - z.max(axis=-1, keepdims=True)
    log_probs = (z - np.log(np.exp(z).sum(axis=-1, keepdims=True))).reshape(-1, z.shape[-1])
    picked = log_probs[np.arange(log_probs.shape[0]), y.ravel()].reshape(y.shape)
    return (-picked.mean(axis=-1)).tolist()


def gradient(params: ModelParams, batch):
    """Exact analytic gradient of loss() at params.

    `batch` is one LabeledBatch, giving one GradientUpdate, or a list of
    equal-length batches, giving one GradientUpdate per batch."""
    x, y = _stack(params, batch, "gradient")
    grads = _grads(params.hidden, _unpack(params), x, _onehot(params, y))
    *lead, n = y.shape
    flat = np.concatenate([g.reshape(*lead, -1) for g in grads], axis=-1)
    return [GradientUpdate(g, n) for g in flat] if lead else GradientUpdate(flat, n)


def sgd_train(
    params,
    data,
    epochs: int,
    batch_size: int,
    lr: float,
    seed,
):
    """Mini-batch SGD: exactly epochs * ceil(D / batch_size) update steps.

    Batch order is a fresh seeded shuffle per epoch; a batch_size larger
    than the dataset degenerates to one full-batch step per epoch.
    Deterministic for a fixed seed.

    `data` is one LabeledBatch with one `seed`, giving one ModelParams, or
    a list of K nonempty batches of any lengths with a list of K seeds,
    giving K models in input order. `params` is one start model for every
    batch, or a list of K same-shape ones. Each model has the bits it gets
    trained alone (see "Ragged training" in the module docstring).
    """
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    single = isinstance(data, LabeledBatch)
    batches, seeds = ([data], [seed]) if single else (list(data), list(seed))
    first, starts = _models(params, "sgd_train")
    k = len(batches)
    # Longest first: the devices still training at a step are a prefix.
    order = sorted(range(k), key=lambda i: -len(batches[i]))
    lengths = [len(batches[i]) for i in order]
    if not lengths or lengths[-1] == 0:
        raise ValueError("sgd_train requires a nonempty batch")
    if len(seeds) != k or (starts is not None and len(starts) != k):
        raise ValueError(f"sgd_train got {k} batches, {len(seeds)} seeds and "
                         f"{1 if starts is None else len(starts)} start models")
    # Every batch's rows in one table, device by device.
    x = np.concatenate([_check_features(first, batches[i].features) for i in order])
    onehot = _onehot(first, np.concatenate([batches[i].labels for i in order]))
    weights = np.tile(first.weights, (k, 1)) if starts is None else starts[order]
    # (run of devices, minibatch columns, weight views) of every step.
    steps = []
    for start in range(0, lengths[0], batch_size):
        lo = 0
        for m, run in groupby(min(n - start, batch_size) for n in lengths if n > start):
            hi = lo + len(list(run))
            steps.append((lo, hi, start, start + m, _unpack(first, weights[lo:hi])))
            lo = hi
    rngs = [_rng(s) for s in seeds]
    # Each epoch, row j of `table_rows` holds device j's shuffled table rows
    # in its first lengths[j] columns; `base` repeats each device's first
    # table row once per sample.
    table_rows = np.zeros((k, lengths[0]), dtype=np.intp)
    filled = np.arange(lengths[0]) < np.array(lengths)[:, None]
    base = np.repeat(np.cumsum([0, *lengths[:-1]]), lengths)
    for _ in range(epochs):
        drawn = [rng.permutation(len(b)) for rng, b in zip(rngs, batches)]
        table_rows[filled] = np.concatenate([drawn[i] for i in order]) + base
        for lo, hi, start, stop, views in steps:
            rows = table_rows[lo:hi, start:stop]
            grads = _grads(first.hidden, views, x.take(rows, axis=0), onehot.take(rows, axis=0))
            for view, g in zip(views, grads):
                view -= lr * g
    # A non-finite gradient makes the weights non-finite for good, so one
    # check at the end stands in for a check at every step.
    if not np.all(np.isfinite(weights)):
        raise ValueError("sgd_train produced non-finite weights")
    out = [first.with_weights(w) for w in weights[np.argsort(order)]]
    return out[0] if single else out


def _models(params, caller: str):
    """(first model, None) for one model, or (first model, (K, P) stacked
    weights) for a list of K same-shape models."""
    if isinstance(params, ModelParams):
        return params, None
    if not params:
        raise ValueError(f"{caller} requires at least one model")
    first = params[0]
    if any((m.dim_in, m.dim_out, m.hidden) != (first.dim_in, first.dim_out, first.hidden)
           for m in params):
        raise ValueError(f"{caller}: models with different shapes cannot be stacked")
    return first, np.stack([m.weights for m in params])


def evaluate(params, batch):
    """Fraction of argmax predictions matching labels (ties -> lowest class id).

    `batch` is one LabeledBatch, giving a float, or a list of equal-length
    batches, giving one float per batch. `params` is one model, or a list
    of K same-shape models scored on one batch, giving one float per
    model."""
    first, weights = _models(params, "evaluate")
    x, y = _stack(first, batch, "evaluate")
    z, _ = _logits(first.hidden, _unpack(first, weights), x)
    preds = _softmax(z).argmax(axis=-1)
    return (preds == y).mean(axis=-1).tolist()


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sums of the columns of a (c, n) array, adding its c rows in the
    order numpy sums a contiguous row of c values (see the module
    docstring)."""
    c = a.shape[0]
    if c > 128:  # numpy's pairwise block size
        half = c // 2 - (c // 2) % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    if c < 8:
        return a.sum(axis=0)
    blocks = c - c % 8
    r = a[:blocks].reshape(-1, 8, *a.shape[1:]).sum(axis=0)
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in a[blocks:]:
        total += row
    return total


def confidences(params, features: np.ndarray):
    """Per-sample (argmax class, max probability), ties to the lowest class
    id; the softmax runs class-major with the bits of `forward`.

    `params` is one model, giving (n,) arrays, or a list of K same-shape
    models scored on one pool, giving (K, n) arrays whose row k is what
    model k gets alone."""
    first, weights = _models(params, "confidences")
    features = _check_features(first, features)
    *hidden_layer, w, b = _unpack(first, weights)
    lead, n, c = w.shape[:-2], features.shape[0], first.dim_out
    classes = np.empty(lead + (n,), dtype=np.int64)
    conf = np.empty(lead + (n,))
    if n == 0:
        return classes, conf
    # The matmuls run over the whole pool: BLAS bits can depend on the
    # row count.
    if hidden_layer:
        w1, b1 = hidden_layer
        features = features @ w1
        features += b1
        np.tanh(features, out=features)
    logits = features @ w
    class_major = (len(lead) + 1, *range(len(lead) + 1))
    bias = b.reshape(*lead, 1, c).transpose(class_major)
    # A sample's class is the first one whose probability is not below its
    # highest: the largest rank c - j over those classes j.
    rank = np.arange(c, 0, -1, dtype=np.min_scalar_type(c)).reshape(c, *[1] * len(lead), 1)
    # Class-major softmax, (c, n) or (c, K, n), in even blocks of samples.
    blocks = -(-logits.size // SOFTMAX_BLOCK)
    step = -(-n // blocks)
    for lo in range(0, n, step):
        probs = logits[..., lo : lo + step, :].transpose(class_major).copy()
        probs += bias
        probs -= probs.max(axis=0)
        np.exp(probs, out=probs)
        probs /= _pairwise_sum(probs)
        top = conf[..., lo : lo + step] = probs.max(axis=0)
        at_top = np.less(probs, top)
        np.logical_not(at_top, out=at_top)
        classes[..., lo : lo + step] = c - (at_top.view(np.uint8) * rank).max(axis=0)
    return classes, conf
