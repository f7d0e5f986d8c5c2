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
over all pairs at once. The pairs come in any order: scoring orders them
stably by batch length alone, cuts them into blocks of whole pairs of at
most ``SOFTMAX_BLOCK`` activations (a row's logits and hidden units; a
larger pair alone), and gives each block one class-major ``(c, N)`` table
for one softmax (see "Class-major softmax"). In a block, the r pairs of
one length n are one run: one matmul of their stacked ``(r, n, d)`` rows
against their own stacked weights, in which every pair keeps its own
``(n, d) @ (d, c)`` BLAS call, whatever model it has. Each pair's loss,
accuracy or gradient comes from its own columns (a run's loss means from
one row-wise sum of its ``(r, n)`` values, which adds each row as a sum of
that row alone does), and the answers come in input order.
Training takes the class-major softmax too, on a contiguous copy of each
step's logits. With the in-place forward and backward passes, on one core,
a fedavg-128 round of ``sgd_train`` (64 MLP devices of 160 rows, d=8, h=16,
c=4) ran 1.17-1.23x faster than row-wise; a step of a few rows pays for the
copy (one one-row device, or two MLP devices of 3 and 5 rows: 1-6% slower).
The ``(epochs, rows)`` shuffle table starts as the table's row indices in
every epoch. Each device, in input order, shuffles its own columns in place
with one ``permuted`` call on its generator: the ``(epochs, n)`` rows in
turn, with the draws of one ``permutation(n)`` call per epoch, so no copy
and no offsets are added. The generators are taken one at a time, so the
orchestrator passes one reused generator re-stated per device
(``seeding.streams``) instead of building a ``SeedSequence`` and a
``PCG64`` per device (about 17 us a device). At each step position, each run of
devices whose minibatch has the same size takes one ``_grads`` step
through views of its slice of the ``(K, P)`` weights.

Training takes one stack per round: every participating device goes into
one ``sgd_train`` call, which copies each device's rows into one table.
Against chunks of 16, the benchmark's peak RSS (seed 0, two runs each, one
core) went from 46.4 to 48.7 MiB on fedavg-128 (64 MLP devices train per
round), 74.9 to 75.3 MiB on selflabel-64 and 65.4 to 66.5 MiB on split-512.
The batches themselves are views of each device's rows
(``DeviceDataset.train_batch``): no caller gathers or caches them, so no
injected row is stored twice. Scoring callers pass every pair in one call,
and the blocks bound what a call holds at once, since a train batch can
hold a device's whole pool: one unblocked pass scoring the holdouts of
all 512 devices of split-512 against 61 candidates raised one replica's
peak RSS from 55 to 65.5 MiB. The hidden units count because the blocks'
size is also their speed: on one core, fedavg-128's metrics (one MLP,
h=16, c=4, over 128 devices) took a median 6.7 ms in blocks of 32,768
logits, against 5.3 ms in chunks of 16 devices and 5.2 ms in blocks of
32,768 activations.

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

Pool blocks. ``pool_predictions`` scores the (models, pool) group of each
device of a labeling phase (``confidences`` is its one-group form), and
the (candidates, holdouts) groups of the devices that share a candidate
set, from whose classes ``labeling.holdout_accuracies`` takes accuracies.
A holdout group stacks the holdouts of one length that fit a block, as a
list of r pools of n rows, into one ``(r, 1, n, d) @ (K, d, c)`` matmul in
which each (holdout, candidate) pair keeps its own ``(n, d) @ (d, c)``
BLAS call. On one core, the 512 holdouts of 4 rows of a split-512 round
(d=8, c=4) against 61 candidates took a median 9.4 ms stacked against
13.5 ms as one group per device (41 alternating runs), with the same
bits. Groups that pass one list of models share its check, and within a
block its weight stack. It cuts the groups, in order, into blocks of at
most ``SOFTMAX_BLOCK`` logits: each group's one broadcast matmul
``(n, d) @ (K, d, c)`` writes into the block's row-major ``(R, c)``
buffer, and one transposing copy, softmax and ``_top_class`` cover the
block. A larger group runs alone, in chunks of
whole models whose logits fit a block, so that they are read back from
cache. On one core (numpy 2.4.6, OpenBLAS, d=16): K=12, c=6, n=5,000 took
3.0 ms in blocks of 32,768 values, against 6.8 ms unblocked and 4.7 ms for
one call per model; at K=38, c=33, the chunks take as long as one call per
model (55 ms logistic, 71 ms with h=16), where one matmul over all 38
models took 72 and 95 ms. Over 256 pools of 40-80 rows (d=8, c=4), one pass
took 4.6 ms against 10.3 ms for a call per device with 1-2 contenders each,
and 23.4 against 23.7 ms with 1-39, where the matmuls and ``exp`` dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

BITS_PER_PARAMETER = 32

# Values per block of scoring and of the pool passes' class-major softmax
# (see the module docstring).
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
        return ModelParams(weights, self.dim_in, self.dim_out, self.hidden)


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


def _logits(hidden: int, views, x: np.ndarray, out: np.ndarray | None = None):
    """Raw class scores, written to `out` if given; for the tanh network
    also returns the hidden activations. Biases and ``tanh`` are applied in
    place."""
    if hidden == 0:
        w, b = views
        z = np.matmul(x, w, out=out)
        z += b
        return z, None
    w1, b1, w2, b2 = views
    h = x @ w1
    h += b1
    np.tanh(h, out=h)
    z = np.matmul(h, w2, out=out)
    z += b2
    return z, h


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


def _stacked_features(p: ModelParams, features: list) -> np.ndarray:
    """One float64 (r, n, d) copy of r feature matrices of n rows, checked
    once as a whole. `np.array` copies the same rows as `np.stack`, about
    2x faster for 35 matrices of 16 x 36 values (numpy 2.4.6)."""
    try:
        x = np.array(features, dtype=np.float64)
    except ValueError:  # numpy refuses matrices of different shapes
        x = None
    if x is None or x.ndim != 3 or x.shape[2] != p.dim_in:
        raise ValueError(f"feature matrices must be 2-D with {p.dim_in} columns, got shapes "
                         f"{sorted({np.shape(f) for f in features})}")
    return x


def _scored_in_blocks(models, batches, caller: str, score) -> list:
    """One result per pair of K models and K nonempty batches, in input
    order: score(first model, *`_logit_table` of a block) gives one per
    pair of the block, ordered and blocked as "Ragged stacks" says."""
    first = _first_model(models, caller)
    lengths = list(map(len, batches))
    if not lengths or min(lengths) == 0:
        raise ValueError(f"{caller} requires a nonempty batch")
    if len(models) != len(batches):
        raise ValueError(f"{caller} got {len(models)} models for {len(batches)} batches")
    out = [None] * len(batches)
    for block in _blocks(sorted(range(len(lengths)), key=lengths.__getitem__),
                         [n * (first.dim_out + first.hidden) for n in lengths]):
        table = _logit_table(first, [models[i] for i in block], [batches[i] for i in block],
                             [lengths[i] for i in block])
        for i, result in zip(block, score(first, *table)):
            out[i] = result
    return out


def _blocks(order, sizes):
    """The indices of `order`, in that order, cut into lists of at most
    SOFTMAX_BLOCK total size, an index of a larger size alone."""
    block, total = [], 0
    for i in order:
        if block and total + sizes[i] > SOFTMAX_BLOCK:
            yield block
            block, total = [], 0
        block.append(i)
        total += sizes[i]
    if block:
        yield block


def _logit_table(first: ModelParams, models, batches, lengths):
    """Every (model, batch) pair's logits in one class-major (c, N) table.
    Adjacent pairs with one batch length share a stacked matmul of their
    rows against their own stacked weights. Returns (table, labels (N,),
    rows, runs): pair i has columns rows[i]:rows[i + 1], and a run is
    (weight views, features (r, n, d), hidden activations, its first pair)."""
    rows = [0, *accumulate(lengths)]
    table = np.empty((first.dim_out, rows[-1]))
    runs = []
    for _, run in groupby(range(len(batches)), key=lengths.__getitem__):
        i, *rest = run
        if rest:
            x = _stacked_features(first, [batches[j].features for j in (i, *rest)])
            views = _unpack(first, np.array([models[j].weights for j in (i, *rest)]))
        else:
            x = _check_features(first, batches[i].features)[None]
            views = _unpack(models[i])
        z, h = _logits(first.hidden, views, x)
        table[:, rows[i] : rows[i + len(x)]] = z.reshape(-1, first.dim_out).T
        runs.append((views, x, h, i))
    labels = _check_labels(first, np.concatenate([b.labels for b in batches]))
    return table, labels, rows, runs


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
    def score(first, z, y, rows, runs):
        z -= z.max(axis=0)
        picked = z[y, np.arange(y.size)] - np.log(_pairwise_sum(np.exp(z)))
        # Each pair's mean as `mean` takes it: the pairwise sum of its n
        # values, one contiguous row of its run's (r, n) view.
        out = np.empty(len(rows) - 1)
        for _, x, _, i in runs:
            r, n = x.shape[:2]
            np.add.reduce(picked[rows[i] : rows[i + r]].reshape(r, n), axis=1, out=out[i : i + r])
            out[i : i + r] /= n
        return (-out).tolist()
    return _scored_in_blocks(models, batches, "loss", score)


def gradient(models, batches) -> list:
    """Exact analytic gradient of `loss` for each (model, batch) pair, as a
    flat float64 vector laid out like the model's weights (see "Ragged
    stacks"). Raises ValueError if any entry is not finite."""
    def score(first, z, y, rows, runs):
        delta = _softmax_columns(z)
        delta[y, np.arange(y.size)] -= 1.0
        # Row-major again, as each batch's backward matmuls take it alone.
        delta = delta.T.copy()
        out = np.empty((len(rows) - 1, first.weights.size))
        for views, x, h, i in runs:
            r, n = x.shape[:2]
            d = delta[rows[i] : rows[i + r]].reshape(r, n, -1)
            d /= n
            grads = _backward(first.hidden, views, x, h, d)
            np.concatenate([g.reshape(r, -1) for g in grads], axis=-1, out=out[i : i + r])
        if not np.all(np.isfinite(out)):
            raise ValueError("gradient contains non-finite entries")
        return out
    return _scored_in_blocks(models, batches, "gradient", score)


def sgd_train(models, batches, epochs: int, batch_size: int, lr: float, seeds) -> list:
    """Mini-batch SGD of each of K same-shape start models on its own
    nonempty batch with its own seed, giving the K trained models in input
    order: exactly epochs * ceil(D / batch_size) update steps for a batch
    of D samples. `seeds` is K of what `np.random.default_rng` takes,
    consumed in input order, each before the next is taken (so one reused
    generator from `seeding.streams` will do).

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
    if len(models) != k:
        raise ValueError(f"sgd_train got {k} batches and {len(models)} start models")
    # Every batch's rows in one table, device by device.
    x = np.concatenate([_check_features(first, batches[i].features) for i in order])
    onehot = _onehot(first, np.concatenate([batches[i].labels for i in order]))
    weights = np.array([models[i].weights for i in order])
    # (run of devices, minibatch columns, weight views) of every step.
    steps = []
    for start in range(0, lengths[0], batch_size):
        lo = 0
        for m, run in groupby(min(n - start, batch_size) for n in lengths if n > start):
            hi = lo + len(list(run))
            steps.append((lo, hi, start, start + m, _unpack(first, weights[lo:hi])))
            lo = hi
    # Row e of `shuffles` holds every device's epoch-e order of its table
    # rows, device by device: one in-place `permuted` call per device, in
    # input order, shuffles its epochs' rows in turn, as one `permutation`
    # call per epoch would.
    offsets = [0, *accumulate(lengths)]
    shuffles = np.empty((epochs, offsets[-1]), dtype=np.intp)
    shuffles[:] = np.arange(offsets[-1])
    for (_, lo, n), seed in zip(sorted(zip(order, offsets, lengths)), seeds, strict=True):
        rows = shuffles[:, lo : lo + n]
        np.random.default_rng(seed).permuted(rows, axis=1, out=rows)
    # Each epoch, row j of `table_rows` holds device j's shuffled table rows
    # in its first lengths[j] columns.
    table_rows = np.zeros((k, lengths[0]), dtype=np.intp)
    filled = np.arange(lengths[0]) < np.array(lengths)[:, None]
    for shuffled in shuffles:
        table_rows[filled] = shuffled
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


def evaluate(models, batches) -> list:
    """Accuracy of each (model, batch) pair: the fraction of argmax
    predictions matching the labels, ties to the lowest class id (see
    "Ragged stacks")."""
    def score(first, z, y, rows, runs):
        hits = _top_class(_softmax_columns(z))[0] == y
        # Exact counts: count / n is rounded once, as the mean of the bools is.
        return (np.add.reduceat(hits, rows[:-1], dtype=np.intp) / np.diff(rows)).tolist()
    return _scored_in_blocks(models, batches, "evaluate", score)


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
    model k gets alone; ties go to the lowest class id. The one-group form
    of `pool_predictions`."""
    return next(pool_predictions([(models, features)]))


def pool_predictions(groups, caller: str = "confidences"):
    """For each (models, features) group, in order, what `confidences(models,
    features)` returns: each model's bits alone, all models of one shape.
    `features` is one pool's (n, d) matrix, or a list of r pools of n rows,
    scored as one ``(r, 1, n, d) @ (K, d, c)`` matmul, in which each (pool,
    model) pair keeps its own ``(n, d) @ (d, c)`` BLAS call, into (r, K, n)
    predictions; the caller keeps such a stack within one block. A
    generator that takes a group one ahead of the block it yields, runs its
    features with its own block, and holds one block's predictions at a
    time (see "Pool blocks"). Groups that pass one list object share its
    models' check, and within a block their weight stack, so the list must
    not change until its predictions are yielded. Errors name `caller`."""
    block, total, shape, checked = [], 0, None, {}
    for models, features in groups:
        seen = checked.get(id(models))
        if seen is None:
            first = _first_model(models, caller)
            shape = shape or (first.dim_in, first.dim_out, first.hidden)
            if (first.dim_in, first.dim_out, first.hidden) != shape:
                raise ValueError(f"{caller}: models with different shapes cannot be stacked")
            # Kept with its check, the list's id is not reused.
            checked[id(models)] = models, first
        else:
            first = seen[1]
        if isinstance(features, list):
            x = _stacked_features(first, features)
        else:
            x = _check_features(first, features)
        size = len(models) * x.size // first.dim_in * first.dim_out
        if block and total + size > SOFTMAX_BLOCK:
            yield from _pool_block(block)
            block, total = [], 0
        block.append((first, models, x))
        total += size
    if block:
        yield from _pool_block(block)


def _pool_block(groups):
    """(classes, confidences) of each (first model, models, features) group
    of one block, in order, as views of the block's arrays; a lone pool
    larger than a block runs in chunks of whole models (see "Pool blocks")."""
    rows = [0, *accumulate(len(models) * x.size // first.dim_in for first, models, x in groups)]
    classes = np.empty(rows[-1], dtype=np.int64)
    conf = np.empty(rows[-1])
    first, lone, x = groups[0]
    n = x.shape[0]
    step = max(1, SOFTMAX_BLOCK // max(1, n * first.dim_out))
    if len(groups) == 1 and x.ndim == 2 and step < len(lone):
        for lo in range(0, len(lone), step):
            chunk = slice(lo * n, (lo + step) * n)
            _score_pools([(first, lone[lo : lo + step], x)], classes[chunk], conf[chunk])
    else:
        _score_pools(groups, classes, conf)
    for (_, models, x), lo, hi in zip(groups, rows, rows[1:]):
        shape = (*x.shape[:-2], len(models), -1)
        yield classes[lo:hi].reshape(shape), conf[lo:hi].reshape(shape)


def _score_pools(groups, classes, conf):
    """Write the predictions of (first model, models, features) groups, in
    order, to `classes` and `conf`: one broadcast matmul per group into one
    row-major logit buffer, whose rows take the class-major softmax in even
    pieces of at most SOFTMAX_BLOCK values. Groups that pass one list object
    share its weight stack."""
    c = groups[0][0].dim_out
    logits = np.empty((classes.size, c))
    lo, stacks = 0, {}
    for first, models, x in groups:
        hi = lo + len(models) * x.size // first.dim_in
        views = stacks.get(id(models))
        if views is None:
            # `np.array` copies the same rows as `np.stack`, about 5x faster
            # for 35 vectors of 36 values.
            views = stacks[id(models)] = _unpack(first, np.array([m.weights for m in models]))
        out = logits[lo:hi].reshape(*x.shape[:-2], len(models), -1, c)
        _logits(first.hidden, views, x if x.ndim == 2 else x[:, None], out=out)
        lo = hi
    if classes.size:
        step = -(-classes.size // -(-logits.size // SOFTMAX_BLOCK))
        for lo in range(0, classes.size, step):
            classes[lo : lo + step], conf[lo : lo + step] = _top_class(
                _softmax_columns(logits[lo : lo + step].T.copy()))
