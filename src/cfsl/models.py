"""Flat-vector softmax classifiers with hand-derived gradients.

Two shapes are supported: multinomial logistic regression (``hidden == 0``)
and a one-hidden-layer tanh network. Parameters travel as a single flat
float64 vector so that averaging, cosine similarity, and upload-size
accounting all operate on the same object.

Ragged stacks. ``sgd_train``, ``gradient``, ``evaluate`` and ``loss`` take
a list of K same-shape models and a list of K nonempty batches of any
lengths, and return a list of K results, one per (model, batch) pair; a
gradient is a flat float64 vector. Each pair gets the bits it gets alone;
``tests/test_models_stacked.py`` checks this against a verbatim copy of
the per-device code. A matmul's BLAS result can depend on its row
count (splitting the rows changed bits for d=32, c=10 and for d=20, h=32,
c=10), so every matmul runs on one batch's own ``(n, d)`` rows, alone or as
a slice of a stacked operand, which numpy runs through the same BLAS call
with the same strides. The rest works within one sample (softmax, log, the
pick) or one batch (means, ``x.T @ delta``, column sums), so it may run
over all pairs at once. Scoring writes every pair's logits into one
class-major ``(c, N)`` table for one softmax (see "Class-major softmax")
and takes each pair's loss, accuracy or gradient from its own columns.
``evaluate`` has one second form, K models on one LabeledBatch (a
selection's holdout): one broadcast matmul with the row-wise softmax. On so
few rows it is the faster way to score them: on one core (numpy 2.4.6,
d=16, c=6, both families, holdouts of 1-4 rows), taking the accuracy from
``confidences`` instead was 1.1-1.7x slower for K <= 12 candidates and
1.0-1.2x slower at K = 30.
Training takes the class-major softmax too, on a contiguous copy of each
step's logits. With the in-place forward and backward passes, on one core,
a fedavg-128 round of ``sgd_train`` (64 MLP devices of 160 rows, d=8, h=16,
c=4) ran 1.17-1.23x faster than row-wise; a step of a few rows pays for the
copy (one one-row device, or two MLP devices of 3 and 5 rows: 1-6% slower).
Each device draws its epoch permutations from its own generator, as alone;
at each step position, each run of devices whose minibatch has the same
size takes one ``_grads`` step through views of its slice of the ``(K, P)``
weights.

Training takes one stack per round: every participating device goes into
one ``sgd_train`` call, which copies each device's rows once more. Against
chunks of 16, the benchmark's peak RSS (seed 0, two runs each, one core)
went from 46.4 to 48.7 MiB on fedavg-128 (64 MLP devices train per round),
74.9 to 75.3 MiB on selflabel-64 and 65.4 to 66.5 MiB on split-512.
Scoring callers stack at most ``STACK_CHUNK`` (16) devices at a time: they
score up to every device of the run, and one ``accuracy_grid`` pass over
all 512 devices of split-512 against 61 candidates raised one replica's
peak RSS from 55 to 65.5 MiB. Train batches are gathered per call
(``data.train_batches``), not cached: caching copies every injected row
for the life of the run.

Class-major softmax. The ``(n, c)`` logits are transposed to ``(c, n)``, so
that each softmax step is a few long vector operations instead of n
reductions over c values. The max, the subtraction, ``exp``, ``log`` (the
same contiguous kernels) and the division are exact or elementwise, which
leaves the sum. numpy sums a contiguous row of c values pairwise: below 8
values from left to right; up to 128 into eight accumulators
``r[j] = a[j] + a[j+8] + ...`` over the whole blocks of 8, combined as
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover values from left
to right; above 128 it splits at half the count, rounded down to a multiple
of 8, and adds the two halves' sums. ``_pairwise_sum`` adds the class rows
in that order, so every class count gets the row-wise bits. The predicted
class is the first index of the highest probability (logits that differ may
round to equal probabilities), found without ``argmax`` along the class
axis, which copies the table transposed (9 ms against 1 ms at K=38, c=6,
n=5,000): the first class whose probability is not below the sample's
highest. A NaN sample (from NaN weights) has every class "not below" its
NaN maximum, so it gets class 0, as ``argmax`` gives it.
``tests/test_labeling_oracle.py`` checks this against the row-wise code.

``confidences`` of K models on one pool is one broadcast matmul, then the
softmax in blocks of ``(c, K, b)`` samples of at most ``SOFTMAX_BLOCK``
values. On one core (numpy 2.4.6, OpenBLAS, logistic, d=16), unblocked,
K=12, c=6, n=5,000 took 6.8 ms against 4.7 ms for one call per model, and
3.0 ms in blocks of 32,768 values (256 KiB); blocks of 8,192 values were
1.6-1.7x slower at K=38, c=33, and 131,072 were no faster.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, groupby

import numpy as np

BITS_PER_PARAMETER = 32

# Devices per stacked scoring pass (see the module docstring).
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


def init_params(
    dim_in: int, dim_out: int, hidden: int = 0, seed=0, scale: float = 0.05
) -> ModelParams:
    """Seeded uniform initialization in [-scale, scale]."""
    rng = np.random.default_rng(seed)
    n = param_count(dim_in, dim_out, hidden)
    w = rng.uniform(-scale, scale, size=n)
    return ModelParams(w, dim_in, dim_out, hidden)


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
    """Raw class scores; for the tanh network also returns the hidden
    activations. Biases and ``tanh`` are applied in place."""
    if hidden == 0:
        w, b = views
        z = x @ w
        z += b
        return z, None
    w1, b1, w2, b2 = views
    h = x @ w1
    h += b1
    np.tanh(h, out=h)
    z = h @ w2
    z += b2
    return z, h


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _check_labels(p: ModelParams, labels: np.ndarray) -> np.ndarray:
    if labels.min() < 0 or labels.max() >= p.dim_out:
        raise ValueError(f"class labels must lie in [0, {p.dim_out})")
    return labels


def _onehot(p: ModelParams, labels: np.ndarray) -> np.ndarray:
    """(..., n, dim_out) float one-hot rows of integer class labels."""
    _check_labels(p, labels)
    return (labels[..., None] == np.arange(p.dim_out)).astype(np.float64)


def _grads(hidden: int, views, x: np.ndarray, onehot: np.ndarray) -> tuple:
    """Per-view gradients of the mean cross-entropy, shaped like `views`,
    for a (K, b, d) stack of minibatches, with the class-major softmax on a
    (c, K * b) copy; `delta` overwrites the C-contiguous logits. Subtracting
    the 0.0/1.0 one-hot rows gives the bits of subtracting 1.0 at each label."""
    z, h = _logits(hidden, views, x)
    probs = _softmax_columns(z.reshape(-1, z.shape[-1]).T.copy())
    delta = np.subtract(probs.T.reshape(z.shape), onehot, out=z)
    delta /= onehot.shape[-2]
    return _backward(hidden, views, x, h, delta)


def _backward(hidden: int, views, x: np.ndarray, h, delta: np.ndarray) -> tuple:
    """Per-view gradients, shaped like `views`, of a (K, b, d) stack from
    `delta`, the gradient of the mean cross-entropy with respect to the
    logits, and the hidden activations `h`; tanh's derivative is in place."""
    xt = x.swapaxes(-1, -2)
    if hidden == 0:
        return xt @ delta, delta.sum(axis=-2, keepdims=True)
    dh = delta @ views[2].swapaxes(-1, -2)
    g = h * h
    np.subtract(1.0, g, out=g)
    dh *= g
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


def _logit_table(models, batches, caller: str):
    """Every (model, batch) pair's logits, for K models and K nonempty
    batches, in one class-major (c, N) table. Adjacent pairs with one model
    object and one batch length share a stacked matmul. Returns (first
    model, table, labels (N,), rows, runs): pair i has columns
    rows[i]:rows[i + 1], and a run is (weight views, features (r, n, d),
    hidden activations, its first pair)."""
    first = _first_model(models, caller)
    if not batches or min(map(len, batches)) == 0:
        raise ValueError(f"{caller} requires a nonempty batch")
    if len(models) != len(batches):
        raise ValueError(f"{caller} got {len(models)} models for {len(batches)} batches")
    rows = [0, *accumulate(map(len, batches))]
    table = np.empty((first.dim_out, rows[-1]))
    runs = []
    for _, run in groupby(range(len(batches)), key=lambda i: (id(models[i]), len(batches[i]))):
        i, *rest = run
        x = [_check_features(first, batches[j].features) for j in (i, *rest)]
        x = np.stack(x) if rest else x[0][None]
        views = _unpack(models[i])
        z, h = _logits(first.hidden, views, x)
        table[:, rows[i] : rows[i + len(x)]] = z.reshape(-1, first.dim_out).T
        runs.append((views, x, h, i))
    labels = _check_labels(first, np.concatenate([b.labels for b in batches]))
    return first, table, labels, rows, runs


def _softmax_columns(table: np.ndarray) -> np.ndarray:
    """The softmax of every column of class-major (c, ...) logits, in place,
    with the row-wise softmax's bits (see "Class-major softmax")."""
    table -= table.max(axis=0)
    np.exp(table, out=table)
    table /= _pairwise_sum(table)
    return table


def _top_class(probs: np.ndarray):
    """(class, probability) of the first highest probability in each column
    of class-major (c, ...) probabilities, NaN to class 0, as `argmax`."""
    c = probs.shape[0]
    top = probs.max(axis=0)
    at_top = np.less(probs, top)
    np.logical_not(at_top, out=at_top)
    # The first class not below the highest: the largest rank c - j.
    rank = np.arange(c, 0, -1, dtype=np.min_scalar_type(c)).reshape(c, *[1] * (probs.ndim - 1))
    return c - (at_top.view(np.uint8) * rank).max(axis=0), top


def loss(models, batches) -> list:
    """Mean cross-entropy of each (model, batch) pair, as a float
    (log-softmax form for accuracy; see "Ragged stacks")."""
    _, z, y, rows, _ = _logit_table(models, batches, "loss")
    z -= z.max(axis=0)
    picked = z[y, np.arange(y.size)] - np.log(_pairwise_sum(np.exp(z)))
    # Each pair's mean as `mean` takes it: its slice's pairwise sum over n.
    return [float(-(np.add.reduce(picked[lo:hi]) / (hi - lo))) for lo, hi in zip(rows, rows[1:])]


def gradient(models, batches) -> list:
    """Exact analytic gradient of `loss` for each (model, batch) pair, as a
    flat float64 vector laid out like the model's weights (see "Ragged
    stacks"). Raises ValueError if any entry is not finite."""
    first, z, y, rows, runs = _logit_table(models, batches, "gradient")
    delta = _softmax_columns(z)
    delta[y, np.arange(y.size)] -= 1.0
    # Row-major again, as each batch's backward matmuls take it alone.
    delta = delta.T.copy()
    out = np.empty((len(batches), first.weights.size))
    for views, x, h, i in runs:
        r, n = x.shape[:2]
        d = delta[rows[i] : rows[i + r]].reshape(r, n, -1)
        d /= n
        grads = _backward(first.hidden, views, x, h, d)
        np.concatenate([g.reshape(r, -1) for g in grads], axis=-1, out=out[i : i + r])
    if not np.all(np.isfinite(out)):
        raise ValueError("gradient contains non-finite entries")
    return list(out)


def sgd_train(models, batches, epochs: int, batch_size: int, lr: float, seeds) -> list:
    """Mini-batch SGD of each of K same-shape start models on its own
    nonempty batch with its own seed, giving the K trained models in input
    order: exactly epochs * ceil(D / batch_size) update steps for a batch
    of D samples.

    Batch order is a fresh seeded shuffle per epoch; a batch_size larger
    than the dataset degenerates to one full-batch step per epoch.
    Deterministic for fixed seeds. Each model has the bits it gets trained
    alone (see "Ragged stacks" in the module docstring).
    """
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    if lr <= 0:
        raise ValueError("learning rate must be > 0")
    first = _first_model(models, "sgd_train")
    k = len(batches)
    # Longest first: the devices still training at a step are a prefix.
    order = sorted(range(k), key=lambda i: -len(batches[i]))
    lengths = [len(batches[i]) for i in order]
    if not lengths or lengths[-1] == 0:
        raise ValueError("sgd_train requires a nonempty batch")
    if len(seeds) != k or len(models) != k:
        raise ValueError(f"sgd_train got {k} batches, {len(seeds)} seeds and "
                         f"{len(models)} start models")
    # Every batch's rows in one table, device by device.
    x = np.concatenate([_check_features(first, batches[i].features) for i in order])
    onehot = _onehot(first, np.concatenate([batches[i].labels for i in order]))
    weights = np.stack([models[i].weights for i in order])
    # (run of devices, minibatch columns, weight views) of every step.
    steps = []
    for start in range(0, lengths[0], batch_size):
        lo = 0
        for m, run in groupby(min(n - start, batch_size) for n in lengths if n > start):
            hi = lo + len(list(run))
            steps.append((lo, hi, start, start + m, _unpack(first, weights[lo:hi])))
            lo = hi
    rngs = [np.random.default_rng(s) for s in seeds]
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
                g *= lr
                view -= g
    # A non-finite gradient makes the weights non-finite for good, so one
    # check at the end stands in for a check at every step.
    if not np.all(np.isfinite(weights)):
        raise ValueError("sgd_train produced non-finite weights")
    return [first.with_weights(w) for w in weights[np.argsort(order)]]


def _first_model(models, caller: str) -> ModelParams:
    """The first of a nonempty list of same-shape models."""
    if not models:
        raise ValueError(f"{caller} requires at least one model")
    first = models[0]
    if any((m.dim_in, m.dim_out, m.hidden) != (first.dim_in, first.dim_out, first.hidden)
           for m in models):
        raise ValueError(f"{caller}: models with different shapes cannot be stacked")
    return first


def _stacked_logits(models, features: np.ndarray, caller: str) -> np.ndarray:
    """(K, n, c) logits of K same-shape models on one (n, d) feature matrix,
    in one broadcast matmul."""
    first = _first_model(models, caller)
    x = _check_features(first, features)
    return _logits(first.hidden, _unpack(first, np.stack([m.weights for m in models])), x)[0]


def accuracy_grid(models, batches) -> np.ndarray:
    """(K, D) accuracies of K same-shape models on each of D nonempty
    batches of one length (the holdouts of the devices that share a
    candidate set), in one broadcast matmul of (K, 1, d, c) weights against
    (1, D, n, d) rows: entry (k, j) has the bits `evaluate([models[k]],
    batches[j])` gets, since every (model, batch) pair keeps its own
    (n, d) @ (d, c) BLAS call and the softmax works row by row."""
    first = _first_model(models, "evaluate")
    if not batches or len(batches[0]) == 0:
        raise ValueError("evaluate requires a nonempty batch")
    if any(len(b) != len(batches[0]) for b in batches):
        raise ValueError("accuracy_grid needs batches of one length")
    x = np.stack([_check_features(first, b.features) for b in batches])
    labels = _check_labels(first, np.stack([b.labels for b in batches]))
    weights = np.stack([m.weights for m in models])[:, None]
    z = _logits(first.hidden, _unpack(first, weights), x)[0]
    return (_softmax(z).argmax(axis=-1) == labels).mean(axis=-1)


def evaluate(models, batches) -> list:
    """Accuracy of each (model, batch) pair: the fraction of argmax
    predictions matching the labels, ties to the lowest class id (see
    "Ragged stacks").

    `batches` may also be one LabeledBatch, a selection's holdout, which
    every model is scored on (`accuracy_grid` with one batch); that form
    is the faster one on so few rows (see the module docstring)."""
    if isinstance(batches, LabeledBatch):
        return accuracy_grid(models, [batches])[:, 0].tolist()
    _, z, y, rows, _ = _logit_table(models, batches, "evaluate")
    hits = _top_class(_softmax_columns(z))[0] == y
    # Exact counts: count / n is rounded once, as the mean of the bools is.
    return (np.add.reduceat(hits, rows[:-1], dtype=np.intp) / np.diff(rows)).tolist()


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


def confidences(models, features: np.ndarray):
    """(argmax class, max probability) of each of K same-shape models on
    each of the n rows of one pool, as (K, n) arrays whose row k is what
    model k gets alone; ties go to the lowest class id. The softmax runs
    class-major with the bits of the row-wise `_softmax` (see "Class-major
    softmax")."""
    logits = _stacked_logits(models, features, "confidences")
    n = logits.shape[1]
    classes = np.empty((len(models), n), dtype=np.int64)
    conf = np.empty((len(models), n))
    if n == 0:
        return classes, conf
    # Class-major softmax, (c, K, n), in even blocks of samples.
    blocks = -(-logits.size // SOFTMAX_BLOCK)
    step = -(-n // blocks)
    for lo in range(0, n, step):
        probs = logits[:, lo : lo + step].transpose(2, 0, 1).copy()
        classes[:, lo : lo + step], conf[:, lo : lo + step] = _top_class(
            _softmax_columns(probs))
    return classes, conf
