"""Flat-vector softmax classifiers with hand-derived gradients.

Two shapes are supported: multinomial logistic regression (``hidden == 0``)
and a one-hidden-layer tanh network. Parameters travel as a single flat
float64 vector so that averaging, cosine similarity, and upload-size
accounting all operate on the same object.

Ragged stacks. ``sgd_train``, ``gradient``, ``evaluate`` and ``loss`` take
K same-shape models and K nonempty batches of any lengths and return K
results, each with the bits its (model, batch) pair gets alone
(``tests/test_models_stacked.py`` checks this against the per-device code).
A matmul's BLAS result can depend on its row count, so every matmul runs on
one batch's own ``(n, d)`` rows, alone or as a slice of a stacked operand
with the same strides; the rest works within one sample or one batch, so it
may run over all pairs at once. Training takes a round's devices in one
``sgd_train`` call over views of their rows (``DeviceDataset.train_batch``),
with the class-major softmax on a copy of each step's logits. Each device
shuffles its own columns of the ``(epochs, rows)`` table of row indices in
place with one ``permuted`` call, the draws of one ``permutation(n)`` per
epoch, and each run of devices whose minibatch has the same size takes one
``_grads`` step through views of its slice of the ``(K, P)`` weights.

Scoring kernel. ``loss``, ``gradient``, ``evaluate`` and
``pool_predictions`` (``confidences`` is its one-pool form) share one
kernel over items, each K same-shape models and one ``(n, d)`` matrix: a
(model, batch) pair is an item of K = 1, a labeling phase's (models, pool)
group an item of its contenders.
- Runs. Adjacent items of one n and K are one ``(r, 1, n, d) @ W`` matmul
  in which each (rows, model) pair keeps its own ``(n, d) @ (d, c)`` BLAS
  call. W is shared exactly when the items carry one weights array (a
  pair's ``(P,)`` vector or a group's ``(K, P)`` stack), else it stacks
  each item's own, so the holdouts of one length scored against one
  candidate set are one matmul.
- Blocks. ``_blocks`` cuts the items into blocks of at most
  ``SOFTMAX_BLOCK`` activations (hidden units count, since a block's size
  is also its speed; an item of many models goes in chunks of whole
  models), so a call holds one block at a time even when a batch is a pool.
- The table. ``_table`` writes a block's logits class-major, item after
  item and model after model, and keeps each run's weight views, features
  and hidden units for ``gradient``. Each pair's result comes from its own
  columns (a run's loss means from one row-wise sum, which adds each row as
  it is alone), each pool's from its own. Pairs are ordered stably by
  length and answered in input order; pools are scored in the order given,
  so a caller may use a pool's predictions before a later block is read.
CHANGES.md holds the timings behind these choices.

Class-major softmax. The ``(n, c)`` logits are transposed to ``(c, n)``, so
that each softmax step is a few long vector operations. Everything but the
sum is exact or elementwise, and ``_pairwise_sum`` adds each column's c
values as numpy sums a contiguous row of them, so every class count gets
the row-wise bits: below 8 classes row by row (numpy's order there), from
8 on as numpy's own row sum of a transposed copy. The predicted class is
the first whose probability is not below the sample's highest (logits that
differ may round to equal probabilities; ``argmax`` along the class axis
would copy the table transposed), and a NaN sample (from NaN weights) gets
class 0, as ``argmax`` gives it.
``tests/test_labeling_oracle.py`` checks this against the row-wise code.
"""

from __future__ import annotations

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


def _scored_in_blocks(models, batches, caller: str, score) -> list:
    """One result per pair of K models and K nonempty batches, in input
    order: score(first model, table, labels, rows, runs) of a block's
    `_table` gives one per pair of the block (see "Scoring kernel")."""
    first = _first_model(models, caller)
    lengths = [b.labels.shape[0] for b in batches]
    if not lengths or min(lengths) == 0:
        raise ValueError(f"{caller} requires a nonempty batch")
    if len(models) != len(batches):
        raise ValueError(f"{caller} got {len(models)} models for {len(batches)} batches")
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    out = [None] * len(batches)
    done = 0
    for block in _blocks([(1, lengths[i], first, models[i].weights, batches[i].features)
                          for i in order]):
        pairs = order[done : done + len(block)]
        done += len(block)
        labels = _check_labels(first, np.concatenate([batches[i].labels for i in pairs]))
        table, rows, runs = _table(block)
        for i, result in zip(pairs, score(first, table, labels, rows, runs)):
            out[i] = result
    return out


def _blocks(items):
    """Items (K, n, first model, weights, (n, d) features) cut, in order,
    into lists of at most SOFTMAX_BLOCK activations, K·n·(c + hidden) an
    item; a larger item alone, or, of K > 1 models, in chunks of whole
    models that fit a block, each an item that starts a block. The weights
    are a pair's (P,) vector or a group's (K, P) stack, whose chunks are
    views."""
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


def _table(block):
    """The logits of a block's items in one class-major (c, N) table, item
    after item, each model after model. Returns (table, rows, runs): item i
    has columns rows[i]:rows[i + 1], and a run is (weight views, features
    (r, 1, n, d), hidden activations, its first item)."""
    first = block[0][2]
    rows = [0, *accumulate([k * n for k, n, _, _, _ in block])]
    table = np.empty((first.dim_out, rows[-1]))
    runs = []
    i = 0
    for (k, _), run in groupby(block, key=itemgetter(0, 1)):
        _, _, _, stacks, xs = zip(*run)
        x = _stacked_features(first, xs)[:, None]
        shared = len({*map(id, stacks)}) == 1
        w = stacks[0] if shared else np.array(stacks).reshape(len(xs), k, -1)
        views = _unpack(first, w)
        z, h = _logits(first.hidden, views, x)
        table[:, rows[i] : rows[i + x.shape[0]]] = z.reshape(-1, first.dim_out).T
        runs.append((views, x, h, i))
        i += x.shape[0]
    return table, rows, runs


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
    return np.subtract(c, (at_top.view(np.uint8) * rank).max(axis=0), dtype=np.int64), top


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
            r, n = x.shape[0], x.shape[2]
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
            r, n = x.shape[0], x.shape[2]
            d = delta[rows[i] : rows[i + r]].reshape(r, 1, n, -1)
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
    """The first of a nonempty list of same-shape models, each distinct
    model checked once."""
    if not models:
        raise ValueError(f"{caller} requires at least one model")
    distinct = dict(zip(map(id, models), models)).values()
    if len({(m.dim_in, m.dim_out, m.hidden) for m in distinct}) > 1:
        raise ValueError(f"{caller}: models with different shapes cannot be stacked")
    return models[0]


def evaluate(models, batches) -> list:
    """Accuracy of each (model, batch) pair: the fraction of argmax
    predictions matching the labels, ties to the lowest class id, counted
    by `hit_rates` (see "Ragged stacks")."""
    def score(first, z, y, rows, runs):
        return hit_rates(_top_class(_softmax_columns(z))[0], y, rows).tolist()
    return _scored_in_blocks(models, batches, "evaluate", score)


def hit_rates(classes: np.ndarray, labels: np.ndarray, rows) -> np.ndarray:
    """The share of predicted `classes` (..., N) that match `labels` (N,) in
    each nonempty span rows[i]:rows[i + 1] of the last axis, as (..., spans):
    an exact count over the span's length, rounded once, as the mean of the
    bools is. `evaluate` and `labeling.holdout_accuracies` score through it."""
    return np.add.reduceat(classes == labels, rows[:-1], axis=-1, dtype=np.intp) / np.diff(rows)


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sums of the columns of a (c, n) array, each as numpy sums a
    contiguous row of its c values (see "Class-major softmax")."""
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
        table, rows, runs = _table(block)
        classes, conf = _top_class(_softmax_columns(table))
        for _, x, _, i in runs:
            k, n, _, stack, _ = block[i]
            shape = (x.shape[0], k, n)
            span = slice(rows[i], rows[i + x.shape[0]])
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
