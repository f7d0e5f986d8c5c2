"""Flat-vector softmax classifiers with hand-derived gradients.

Two shapes: multinomial logistic regression (``hidden == 0``) and a
one-hidden-layer tanh network. Parameters travel as one flat float64 vector,
so averaging, cosine similarity and upload-size accounting share one object.

Ragged stacks. ``sgd_train`` takes K same-shape models and K nonempty
batches of any lengths; ``gradient``, ``evaluate`` and ``loss`` take K
models, one ``LabeledBatch`` of rows and a (K, 2) integer array of spans,
each a (first row, length) of those rows. Each returns K results, each
with the bits its (model, rows) pair gets alone
(``tests/test_models_stacked.py`` checks them against per-device code). A
matmul's BLAS result can depend on its row count, so each runs on one
pair's own ``(n, d)`` rows, at any row stride; the rest works within one
sample or one batch (a bias gradient adds the batch's rows in order), so it
may span all pairs at once.

Training steps. Each device shuffles its own columns of an ``(epochs,
rows)`` table of row indices with one ``permuted`` call, the draws of one
``permutation(n)`` per epoch. A run of devices whose minibatch has one size
b takes one step on row-position-major stacks: ``(K, b, ·)`` views whose
``swapaxes(0, 1)`` is C-contiguous, so that each bias add and bias-gradient
sum is a few long loops, not K·b short ones. ``_logits`` and ``_backward``
lay results out like their input, and the gradients land in views of one
``(K, P)`` buffer laid out like the weights, so an update is two operations.

Scoring kernel. ``loss``, ``gradient``, ``evaluate`` and
``pool_predictions`` (``confidences`` is its one-pool form) share one table
builder, ``_table``, over runs: each r items of n C-contiguous rows and K
same-shape models, a (model, span) pair being an item of K = 1 and a
labeling phase's pool an item of its contenders. Spans are ordered stably
by length, cut at the cumulative activation counts into blocks of at most
``SOFTMAX_BLOCK`` activations, and answered in input order through one
scatter. A run of equal-length spans whose first rows step up by one gap
no smaller than their length (back to back, or one per device segment) is
one strided view of the rows, any other run one ``take``, and its weights
rows of one stack of the pairs' weights. Pools are cut by ``_blocks`` and
scored in the order given, so a caller may use one before a later block
is read.

Class-major softmax. Each softmax step is a few long vector operations on
``(c, n)`` logits, with the row-wise bits: ``_pairwise_sum`` adds each
column's c values as numpy sums a contiguous row. The predicted class is the
first not below the highest probability, and a NaN sample gets class 0, as
``argmax`` gives them. ``tests/test_labeling_oracle.py`` checks this against
the row-wise code. CHANGES.md holds the timings behind these choices.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import itemgetter

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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in a new array laid out like `a`, so that a row-position-major
    stack stays one (see "Training steps")."""
    shape = np.broadcast(a[..., :1], b[..., :1, :]).shape
    return np.matmul(a, b, out=np.empty_like(a, shape=shape))


def _logits(hidden: int, views, x: np.ndarray):
    """Raw class scores, laid out like `x`; for the tanh network also
    returns the hidden activations. Biases and ``tanh`` are applied in
    place."""
    if hidden == 0:
        w, b = views
        z = _product(x, w)
        z += b
        return z, None
    w1, b1, w2, b2 = views
    h = _product(x, w1)
    h += b1
    np.tanh(h, out=h)
    z = _product(h, w2)
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


def _grads(hidden: int, views, x: np.ndarray, onehot: np.ndarray, grads) -> None:
    """Writes into `grads`, views shaped like `views`, the gradients of the
    mean cross-entropy of a row-position-major (K, b, d) stack of minibatches
    (see "Training steps"). The class-major softmax runs on a (c, b * K)
    copy of the logits, and `delta` overwrites them. Subtracting the 0.0/1.0
    one-hot rows gives the bits of subtracting 1.0 at each label."""
    z, h = _logits(hidden, views, x)
    stored = z.swapaxes(0, 1)
    probs = _softmax_columns(stored.reshape(-1, stored.shape[-1]).T.copy())
    delta = np.subtract(probs.T.reshape(stored.shape).swapaxes(0, 1), onehot, out=z)
    delta /= onehot.shape[-2]
    _backward(hidden, views, x, h, delta, grads)


def _backward(hidden: int, views, x: np.ndarray, h, delta: np.ndarray, grads) -> None:
    """Writes into `grads`, views shaped like `views`, the gradients of a
    (..., b, d) stack from `delta`, the gradient of the mean cross-entropy
    with respect to the logits, and the hidden activations `h`, in any
    layout: each matmul runs on one batch's b rows, and each bias gradient
    adds them in order. tanh's derivative is in place."""
    if hidden:
        np.matmul(h.swapaxes(-1, -2), delta, out=grads[2])
        np.add.reduce(delta, axis=-2, keepdims=True, out=grads[3])
        delta = _product(delta, views[2].swapaxes(-1, -2))
        g = h * h
        np.subtract(1.0, g, out=g)
        delta *= g
    np.matmul(x.swapaxes(-1, -2), delta, out=grads[0])
    np.add.reduce(delta, axis=-2, keepdims=True, out=grads[1])


def _check_features(p: ModelParams, features: np.ndarray):
    """`features` as a C-contiguous float64 (n, dim_in) matrix: scoring lays
    its results out like its features (see "Scoring kernel")."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != p.dim_in:
        raise ValueError(
            f"feature matrix must be 2-D with {p.dim_in} columns, got shape {features.shape}"
        )
    return features


def _stacked_features(p: ModelParams, features) -> np.ndarray:
    """(r, n, d) float64 stack of r feature matrices of n rows, checked once
    as a whole: a lone matrix's view or one copy (`np.array`, faster than
    `np.stack`)."""
    if len(features) == 1:
        return _check_features(p, features[0])[None]
    try:
        x = np.array(features, dtype=np.float64)
    except ValueError:  # numpy refuses matrices of different shapes
        x = None
    if x is None or x.ndim != 3 or x.shape[2] != p.dim_in:
        raise ValueError(f"feature matrices must be 2-D with {p.dim_in} columns, got shapes "
                         f"{sorted({np.shape(f) for f in features})}")
    return x


def _check_spans(rows: LabeledBatch, spans, count: int, caller: str) -> np.ndarray:
    """`spans` as a (count, 2) integer array of (first row, length) of
    nonempty spans of `rows`; a ValueError naming `caller` otherwise."""
    spans = np.asarray(spans)
    if spans.ndim != 2 or spans.shape[1] != 2 or spans.dtype.kind not in "iu":
        raise ValueError(f"{caller} takes a (K, 2) integer array of spans, got "
                         f"{spans.dtype} of shape {spans.shape}")
    if len(spans) != count:
        raise ValueError(f"{caller} got {count} models for {len(spans)} spans")
    first, length = spans.min(axis=0)
    if length < 1:
        raise ValueError(f"{caller} requires a nonempty span")
    if first < 0 or spans.sum(axis=1).max() > len(rows):
        raise ValueError(f"{caller}: a span lies outside the {len(rows)} rows")
    return spans.astype(np.intp, copy=False)


def _spans_view(x: np.ndarray, labels: np.ndarray, first: int, count: int, n: int, gap: int):
    """(count, n, d) and (count, n) views of C-contiguous rows `x` and their
    `labels`: the `count` spans of `n` rows whose first rows are first,
    first + gap, ... (`as_strided`'s views, made at a tenth of its cost).
    With gap >= n their strides fall from axis to axis, so that results
    laid out like them are C-contiguous."""
    row, step = x.strides[0], labels.strides[0]
    return (np.ndarray((count, n, x.shape[1]), x.dtype, x, first * row, (gap * row, *x.strides)),
            np.ndarray((count, n), labels.dtype, labels, first * step, (gap * step, step)))


def _scored_spans(models, rows: LabeledBatch, spans, caller: str, score) -> np.ndarray:
    """One result per (model, span) pair, in input order, as one array:
    score(first model, table, labels, columns, runs) of a block's `_table`
    gives one per pair of the block (see "Scoring kernel")."""
    first = _first_model(models, caller)
    spans = _check_spans(rows, spans, len(models), caller)
    x, labels = _check_features(first, rows.features), np.ascontiguousarray(rows.labels)
    order = np.argsort(spans[:, 1], kind="stable")
    spans = spans[order]
    # Every pair's weights, in length order.
    weights = np.array([models[i].weights for i in order.tolist()])
    edges = np.concatenate(([0], np.cumsum(spans[:, 1])))
    # A block holds the most pairs from lo on whose activations fit
    # SOFTMAX_BLOCK, or one; a run ends where the length changes or a block
    # ends.
    changes = (np.flatnonzero(np.diff(spans[:, 1])) + 1).tolist()
    fit = SOFTMAX_BLOCK // (first.dim_out + first.hidden)
    (first_rows, lengths), ends = spans.T.tolist(), edges.tolist()
    out, lo = None, 0
    while lo < len(order):
        hi = max(lo + 1, bisect_right(ends, ends[lo] + fit) - 1)
        cuts = [lo, *changes[bisect_right(changes, lo) : bisect_left(changes, hi)], hi]
        runs, ys = [], []
        for a, b in zip(cuts, cuts[1:]):
            r, s, n = b - a, first_rows[a], lengths[a]
            gap = first_rows[a + 1] - s if r > 1 else n
            # Spans that follow each other `gap` rows apart are one view.
            if gap >= n and first_rows[a:b] == [*range(s, s + r * gap, gap)]:
                xs, y = _spans_view(x, labels, s, r, n, gap)
            else:
                at_rows = (spans[a:b, :1] + np.arange(n)).ravel()
                xs, y = x.take(at_rows, axis=0).reshape(r, n, -1), labels.take(at_rows)
            runs.append((xs[:, None], weights[a:b, None]))
            ys.append(y)
        y = _check_labels(first, np.concatenate(ys, axis=None))
        table, scored = _table(first, runs)
        result = score(first, table, y, edges[lo : hi + 1] - edges[lo], scored)
        if out is None:
            out = np.empty((len(order), *result.shape[1:]))
        out[order[lo:hi]] = result
        lo = hi
    return out


def _blocks(items):
    """Items (K, n, first model, weights, (n, d) features) cut, in order,
    into lists of at most SOFTMAX_BLOCK activations, K·n·(c + hidden) an
    item; a larger item alone, or, of K > 1 models, in chunks of whole
    models that fit a block, each an item that starts a block. The weights
    are a group's (K, P) stack, whose chunks are views."""
    block, total = [], 0
    for item in items:
        k, n, first, stack, x = item
        row = n * (first.dim_out + first.hidden)
        if k > 1 and k * row > SOFTMAX_BLOCK:
            step = max(1, SOFTMAX_BLOCK // row)
            for lo in range(0, k, step):
                if block:
                    yield block
                chunk = stack[lo : lo + step]
                block, total = [(len(chunk), n, first, chunk, x)], len(chunk) * row
            continue
        if block and total + k * row > SOFTMAX_BLOCK:
            yield block
            block, total = [], 0
        block.append(item)
        total += k * row
    if block:
        yield block


def _table(first: ModelParams, runs):
    """The logits of `runs` in one class-major (c, N) table, run after run,
    each item after item and model after model. A run is (x, w): r items'
    features (r, 1, n, d) and their K models' weights, one (K, P) stack
    they share or r stacks (r, K, P). Its one ``x @ W`` matmul keeps each
    (rows, model) pair's own BLAS call. Returns (table, scored): run j is
    scored[j], (weight views, x, hidden activations, first column)."""
    c = first.dim_out
    columns = [0, *accumulate(x.shape[0] * w.shape[-2] * x.shape[2] for x, w in runs)]
    table = np.empty((c, columns[-1]))
    scored = []
    for (x, w), lo, hi in zip(runs, columns, columns[1:]):
        views = _unpack(first, w)
        z, h = _logits(first.hidden, views, x)
        table[:, lo:hi] = z.reshape(-1, c).T
        scored.append((views, x, h, lo))
    return table, scored


def _softmax_columns(table: np.ndarray) -> np.ndarray:
    """The softmax of every column of class-major (c, ...) logits, in place,
    with the row-wise softmax's bits (see "Class-major softmax")."""
    table -= table.max(axis=0)
    np.exp(table, out=table)
    table /= _pairwise_sum(table)
    return table


def _top_class(probs: np.ndarray):
    """(class, probability) of the first highest probability in each column
    of class-major (c, ...) probabilities, NaN to class 0, as `argmax`
    (along the class axis it would copy the table transposed)."""
    c = probs.shape[0]
    top = probs.max(axis=0)
    at_top = np.less(probs, top)
    np.logical_not(at_top, out=at_top)
    # The first class not below the highest: the largest rank c - j.
    rank = np.arange(c, 0, -1, dtype=np.min_scalar_type(c)).reshape(c, *[1] * (probs.ndim - 1))
    return np.subtract(c, (at_top.view(np.uint8) * rank).max(axis=0), dtype=np.int64), top


def loss(models, rows: LabeledBatch, spans) -> list:
    """Mean cross-entropy of each (model, span of `rows`) pair, as a float
    (log-softmax form for accuracy; see "Ragged stacks")."""
    def score(first, z, y, columns, scored):
        z -= z.max(axis=0)
        picked = z[y, np.arange(y.size)] - np.log(_pairwise_sum(np.exp(z)))
        # Each pair's mean as `mean` takes it: the pairwise sum of its n
        # values, one contiguous row of its run's (r, n) view.
        out = np.empty(len(columns) - 1)
        i = 0
        for _, x, _, lo in scored:
            r, n = x.shape[0], x.shape[2]
            np.add.reduce(picked[lo : lo + r * n].reshape(r, n), axis=1, out=out[i : i + r])
            out[i : i + r] /= n
            i += r
        return -out
    return _scored_spans(models, rows, spans, "loss", score).tolist()


def gradient(models, rows: LabeledBatch, spans) -> np.ndarray:
    """Exact analytic gradient of `loss` for each (model, span of `rows`)
    pair, as row i of a (K, P) array laid out like the models' weights (see
    "Ragged stacks"). Raises ValueError if any entry is not finite."""
    def score(first, z, y, columns, scored):
        delta = _softmax_columns(z)
        delta[y, np.arange(y.size)] -= 1.0
        # Row-major again, as each span's backward matmuls take it alone.
        delta = delta.T.copy()
        out = np.empty((len(columns) - 1, first.weights.size))
        i = 0
        for views, x, h, lo in scored:
            r, n = x.shape[0], x.shape[2]
            d = delta[lo : lo + r * n].reshape(r, 1, n, -1)
            d /= n
            _backward(first.hidden, views, x, h, d, _unpack(first, out[i : i + r, None]))
            i += r
        if not np.all(np.isfinite(out)):
            raise ValueError("gradient contains non-finite entries")
        return out
    return _scored_spans(models, rows, spans, "gradient", score)


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
    # Longest first, ties in input order (a reversed sort is stable): the
    # devices still training at a step are a prefix.
    lengths = [b.labels.shape[0] for b in batches]
    order = sorted(range(k), key=lengths.__getitem__, reverse=True)
    lengths = [lengths[i] for i in order]
    if not lengths or lengths[-1] == 0:
        raise ValueError("sgd_train requires a nonempty batch")
    if len(models) != k:
        raise ValueError(f"sgd_train got {k} batches and {len(models)} start models")
    # Every batch's rows in one table, device by device.
    x = np.concatenate([_check_features(first, batches[i].features) for i in order])
    onehot = _onehot(first, np.concatenate([batches[i].labels for i in order]))
    weights = np.array([models[i].weights for i in order])
    grads = np.empty_like(weights)
    # (run of devices, minibatch columns, weight and gradient views) of
    # every step.
    steps = []
    for start in range(0, lengths[0], batch_size):
        lo = 0
        for m, run in groupby(min(n - start, batch_size) for n in lengths if n > start):
            hi = lo + len(list(run))
            steps.append((lo, hi, start, start + m, _unpack(first, weights[lo:hi]),
                          _unpack(first, grads[lo:hi])))
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
        for lo, hi, start, stop, views, grad_views in steps:
            rows = table_rows[lo:hi, start:stop].T
            _grads(first.hidden, views, x.take(rows, axis=0).swapaxes(0, 1),
                   onehot.take(rows, axis=0).swapaxes(0, 1), grad_views)
            g = grads[lo:hi]
            g *= lr
            weights[lo:hi] -= g
    # A non-finite gradient makes the weights non-finite for good, so one
    # check at the end stands in for a check at every step.
    if not np.all(np.isfinite(weights)):
        raise ValueError("sgd_train produced non-finite weights")
    return [first.with_weights(w) for w in weights[np.argsort(order)]]


def _first_model(models, caller: str) -> ModelParams:
    """The first of a nonempty list of same-shape models, each distinct
    model checked once."""
    if not models:
        raise ValueError(f"{caller} requires at least one model")
    distinct = dict(zip(map(id, models), models)).values()
    if len({(m.dim_in, m.dim_out, m.hidden) for m in distinct}) > 1:
        raise ValueError(f"{caller}: models with different shapes cannot be stacked")
    return models[0]


def evaluate(models, rows: LabeledBatch, spans) -> list:
    """Accuracy of each (model, span of `rows`) pair: the fraction of argmax
    predictions matching the labels, ties to the lowest class id, counted
    by `hit_rates` (see "Ragged stacks")."""
    def score(first, z, y, columns, scored):
        return hit_rates(_top_class(_softmax_columns(z))[0], y, columns)
    return _scored_spans(models, rows, spans, "evaluate", score).tolist()


def hit_rates(classes: np.ndarray, labels: np.ndarray, rows) -> np.ndarray:
    """The share of predicted `classes` (..., N) that match `labels` (N,) in
    each nonempty span rows[i]:rows[i + 1] of the last axis, as (..., spans):
    an exact count over the span's length, rounded once, as the mean of the
    bools is. `evaluate` and `labeling.holdout_accuracies` score through it."""
    return np.add.reduceat(classes == labels, rows[:-1], axis=-1, dtype=np.intp) / np.diff(rows)


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sums of the columns of a (c, n) array, each as numpy sums a
    contiguous row of its c values: below 8 rows row by row (numpy's order
    there), from 8 on as numpy's own row sum of a transposed copy."""
    if a.shape[0] < 8:
        return a.sum(axis=0)
    return np.ascontiguousarray(a.T).sum(axis=1)


def confidences(models, features: np.ndarray):
    """(argmax class, max probability) of each of K same-shape models on
    each of the n rows of one pool, as (K, n) arrays whose row k is what
    model k gets alone; ties go to the lowest class id. The one-group form
    of `pool_predictions`."""
    return next(pool_predictions([(models, features)]))


def pool_predictions(groups, caller: str = "confidences"):
    """For each (models, features) group, in order, what `confidences(models,
    features)` returns: each model's bits alone, all models of one shape.
    A generator over the items of "Scoring kernel": it takes a group one
    ahead of the block it yields, scores its features with its own block,
    and holds one block's predictions at a time. Groups of the same models,
    in the same order, share one check and one weight stack for the whole
    pass, whichever list carries them, so adjacent ones of one length share
    their weights in a run. Errors name `caller`."""
    stacks = {}

    def items():
        shape = None
        for models, features in groups:
            key = tuple(map(id, models))
            entry = stacks.get(key)
            if entry is None:
                first = _first_model(models, caller)
                shape = shape or (first.dim_in, first.dim_out, first.hidden)
                if (first.dim_in, first.dim_out, first.hidden) != shape:
                    raise ValueError(f"{caller}: models with different shapes cannot be stacked")
                # Held with their stack, the models' ids are not reused in the pass.
                stack = np.array([m.weights for m in models])
                entry = stacks[key] = len(models), first, stack, tuple(models)
            k, first, stack, _ = entry
            yield k, features.shape[0], first, stack, features

    parts, done = [], 0
    for block in _blocks(items()):
        first = block[0][2]
        # A run: adjacent items of one n and K, which share their weights
        # when they carry one stack.
        items_of_runs = [list(run) for _, run in groupby(block, key=itemgetter(0, 1))]
        runs = []
        for run in items_of_runs:
            _, _, _, weights, xs = zip(*run)
            x = _stacked_features(first, xs)[:, None]
            shared = len({*map(id, weights)}) == 1
            runs.append((x, weights[0] if shared else np.array(weights)))
        table, scored = _table(first, runs)
        classes, conf = _top_class(_softmax_columns(table))
        for run, (_, x, _, lo) in zip(items_of_runs, scored):
            k, n, _, stack, _ = run[0]
            shape = (x.shape[0], k, n)
            span = slice(lo, lo + x.shape[0] * k * n)
            predictions = zip(classes[span].reshape(shape), conf[span].reshape(shape))
            # A chunk, a view of its group's stack (which owns its data),
            # starts a block; its group is yielded after its last chunk.
            if stack.base is not None:
                parts.append(next(predictions))
                done += k
                if done == stack.base.shape[0]:
                    yield tuple(map(np.concatenate, zip(*parts)))
                    parts, done = [], 0
            yield from predictions
