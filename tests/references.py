"""Helpers that only the tests call, kept out of the package, and the one
home of every oracle that more than one test file checks against.

`record_pool_passes` spies on the models that selection runs over a pool.
`select_alone` feeds `labeling.select_best_model` one device's contender
ids (`contender_ids`) and their pool predictions, as a labeling phase does,
and returns the contenders' holdout accuracy with the choice; `holdout_devices` stands devices around bare
holdout batches for `labeling.holdout_accuracies`. `ref_labeling_phase`
is the labeling phase as it ran device by device.
`cosine_similarity` is the pairwise definition, one `np.dot` per pair,
whose bits `clustering.similarity_matrix` must give every entry.

The row-wise model reference: `forward` is the row-wise softmax whose bits
`models.confidences` reproduces class-major, `ref_confidences` and
`ref_evaluate` read the prediction and accuracy off it, `ref_loss` is the
mean cross-entropy, and `test_models_stacked.py` builds its training
reference on the same helpers. They are a verbatim copy of the per-model
code and call none of the package's kernels, so that a change to those
kernels cannot also change the reference they are checked against.

`check_run_invariants` asserts what every finished run keeps, round by
round, from its simulation and its strict-JSON events: the config fuzz
runs it after every drawn config that runs.

`ref_edge_aggregate` is the aggregation loop whose bits
`orchestrator.edge_aggregate` keeps. `model_of` is the model a device
runs, found through its leaf. `counts` reads a device's column of its
population table; `labeled_size`, `unlabeled_remaining`,
`labeling_accuracy` and `injected_fraction` derive a device's counts from
its rows and injection record instead, as the per-device properties and
function that the table replaced defined them. `ref_metrics_row` is the
metrics pass as it ran device by device.

`NON_FINITE_NETWORK` lists `[network]` values whose latency or radio terms
are not finite floats, each with the key the config must reject it under;
`INFINITE_FLOATS` lists the float keys outside `[network]` that must be
finite, each as a snippet that opens its section.

`training_seed` is the spec of a device's training stream in a round,
which `seeding.streams` re-derives for all of a round's devices at once.

`exhaustive_bipartition` is the original pure-Python search over every
bipartition, which `clustering.bipartition` must match.
`kruskal_bipartition` reaches the same split for any size of symmetric
matrix by another road: Kruskal's algorithm with a union-find.
"""

import itertools
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np

from cfsl import labeling
from cfsl.data import INJECTED
from cfsl.errors import StateError
from cfsl.labeling import objective_value
from cfsl.models import LabeledBatch, ModelParams, evaluate, loss, param_count, pool_predictions
from cfsl.orchestrator import LABEL_DONE_FRACTION, MetricsRow
from cfsl.seeding import TRAIN_STREAM


# [network] values that validated once but then overflowed a float, or
# gave a NaN, in the latency model or the radio draw; the key each must be
# rejected under.
NON_FINITE_NETWORK = [
    ("ref_gain_db = 1e6", "network.ref_gain_db"),
    ("ref_gain_db = nan", "network.ref_gain_db"),
    ("power_min_dbm = 3200\npower_max_dbm = 3200", "network.power_min_dbm"),
    ("power_max_dbm = 3100", "network.power_max_dbm"),
    ("power_max_dbm = inf", "network.power_max_dbm"),
    ("distance_min_m = 1e-80\ndistance_max_m = 1e-80", "network.distance_min_m"),
    ("ref_distance_m = 1e80\ndistance_max_m = 1e81", "network.distance_min_m"),
    ("distance_max_m = inf", "network.distance_max_m"),
    ("cpu_max_hz = inf", "network.cpu_max_hz"),
]


# Float keys for which `inf` means nothing: as a learning rate it gave
# non-finite weights in round 1, as a separation or noise scale no
# distinguishable distributions, as lambda a -inf or NaN objective.
INFINITE_FLOATS = [
    ("[model]\nlearning_rate = inf", "model.learning_rate"),
    ("[data]\nseparation = inf", "data.separation"),
    ("[data]\nnoise_scale = inf", "data.noise_scale"),
    ("[ssl]\nlambda = inf", "ssl.lambda"),
]


def training_seed(seed: int, round_no: int, device_id: int) -> np.random.SeedSequence:
    """Per-(round, device) training stream; independent of scheduling order."""
    return np.random.SeedSequence([seed, TRAIN_STREAM, round_no, device_id])


# The metrics that are fractions; labeling accuracy is None before any label.
FRACTION_METRICS = ("acc_min", "acc_mean", "acc_max", "labeling_accuracy_mean",
                    "injected_fraction")


def check_run_invariants(sim, events: list):
    """Assert that after every round of a finished run the current leaves
    partition the devices, that cumulative time never decreases and that
    every metric fraction is in [0, 1]; and that each device's injected
    count is the sum of its `injection` events. `events` are the run's
    events as read back from events.jsonl."""
    devices = list(range(len(sim.devices)))
    rounds = [e for e in events if e["type"] == "round"]
    assert [e["round"] for e in rounds] == [row.round_no for row in sim.metrics]
    for e in rounds:
        members = sorted(k for node in e["tree"] if not node["children"]
                         and node["merged_into"] is None for k in node["members"])
        assert members == devices, f"round {e['round']}: leaves hold {members}"
    # Strict JSON writes an infinite time (every link at rate 0) as "inf".
    times = [0.0] + [float(e["cumulative_time_s"]) for e in rounds]
    assert times[1:] == [row.cumulative_time_s for row in sim.metrics]
    assert all(a <= b for a, b in zip(times, times[1:])), times
    for row in sim.metrics:
        for name in FRACTION_METRICS:
            value = getattr(row, name)
            assert value is None or 0 <= value <= 1, (row.round_no, name, value)
    injected = Counter()
    for e in events:
        if e["type"] == "injection":
            injected[e["device"]] += e["count"]
    assert [counts(d)[INJECTED] for d in sim.devices] == [injected[k] for k in devices]
    assert [d.injected_labels.size - unlabeled_remaining(d) for d in sim.devices] == [
        injected[k] for k in devices]


def ref_edge_aggregate(models: list, weights: list) -> np.ndarray:
    """The weights of `orchestrator.edge_aggregate` as a loop adds them:
    from zero, each normalized weight times its model in turn."""
    w = np.array([float(x) for x in weights])
    acc = np.zeros_like(models[0].weights)
    for wi, m in zip(w / w.sum(), models):
        acc += wi * m.weights
    return acc


def model_of(sim, device_id: int):
    """The model a device of `sim` runs: the shared global model before its
    cluster ever split, else its cluster's own specialized model."""
    node = sim.tree.cluster_of(device_id)
    return node.model if sim.tree.is_specialized(node) else sim.global_model


def counts(dev):
    """The device's column of its population table, its counts indexed by
    `data.HOLDOUT` ... `data.CORRECT`."""
    return dev.table[:, dev.column]


def labeled_size(dev) -> int:
    """Original labels, holdout included, plus injected ones."""
    return len(dev.holdout) + len(dev.train_batch())


def unlabeled_remaining(dev) -> int:
    """Pool positions not yet pseudo-labeled."""
    return int(np.count_nonzero(dev.injected_labels < 0))


def labeling_accuracy(dev):
    """Share of the injected labels that match a known truth; None while
    none has one."""
    injected = dev.injected_labels >= 0
    truth = dev.hidden_truth[injected]
    known = truth >= 0
    if not known.any():
        return None
    return float((dev.injected_labels[injected][known] == truth[known]).mean())


def injected_fraction(dev) -> float:
    """Share of the original unlabeled pool already pseudo-labeled."""
    size = dev.injected_labels.size
    return (size - unlabeled_remaining(dev)) / size if size else 1.0


def ref_metrics_row(sim, crossing: dict) -> tuple:
    """(`MetricsRow`, {leaf id: loss mean}) of `sim`'s last round, by the
    per-device list expressions the metrics pass used before the population
    table. `crossing` is {device: time its pool first reached
    `LABEL_DONE_FRACTION`}, which this keeps up first, as the round did."""
    cum = sim.cumulative_time_s
    for dev in sim.devices:
        if dev.device_id not in crossing and injected_fraction(dev) >= LABEL_DONE_FRACTION:
            crossing[dev.device_id] = cum
    models = [model_of(sim, d.device_id) for d in sim.devices]
    accs = evaluate(models, [d.test for d in sim.devices])
    losses = loss(models, [d.train_batch() for d in sim.devices])
    device_losses = dict(zip((d.device_id for d in sim.devices), losses))
    leaf_means = {node.cluster_id: float(np.mean([device_losses[k] for k in node.members]))
                  for node in sim.tree.active_leaves()}
    lab = [labeling_accuracy(d) for d in sim.devices]
    present = [v for v in lab if v is not None]
    row = MetricsRow(
        round_no=sim.round_no,
        cumulative_time_s=cum,
        acc_min=float(np.min(accs)),
        acc_mean=float(np.mean(accs)),
        acc_max=float(np.max(accs)),
        labeling_accuracy_mean=float(np.mean(present)) if present else None,
        injected_fraction=float(np.mean([injected_fraction(d) for d in sim.devices])),
        clusters=len(sim.tree.specialized()),
        objective=float(objective_value(device_losses, sim.utilities, sim.config.ssl.lam)),
        drops=sum(len(e["dropped"]) for e in sim.events
                  if e["type"] == "schedule" and e["round"] == sim.round_no),
        mean_labeling_latency_s=float(np.mean([crossing.get(d.device_id, cum)
                                               for d in sim.devices])),
    )
    return row, leaf_means


def zero_params(dim_in: int, dim_out: int, hidden: int = 0) -> ModelParams:
    return ModelParams(np.zeros(param_count(dim_in, dim_out, hidden)), dim_in, dim_out, hidden)


def record_pool_passes(monkeypatch) -> list:
    """Wrap `cfsl.labeling.confidences`, the pass that selection runs over a
    device's pool, so that each call appends the `id` of each model it runs,
    in order, to the returned list."""
    passes = []
    real = labeling.confidences

    def spy(models, features):
        passes.append([id(m) for m in models])
        return real(models, features)

    monkeypatch.setattr(labeling, "confidences", spy)
    return passes


def contender_ids(candidates: dict, accuracy: list) -> list:
    """The ids, in candidate order, of the candidates tied at the best of
    their holdout accuracies (`accuracy`, in candidate order)."""
    best = max(accuracy)
    return [mid for mid, acc in zip(candidates, accuracy) if acc == best]


def select_alone(device, candidates: dict, phi: float):
    """One device's selection on its own: its holdout accuracies, then its
    contenders over its pending pool in one `labeling.confidences` call
    (which `record_pool_passes` records), ranked by
    `labeling.select_best_model`. Returns (model id, holdout accuracy,
    coverage, (classes, confidences) over the pool) of the chosen model."""
    accuracy = labeling.holdout_accuracies([device], candidates)[0].tolist()
    ids = contender_ids(candidates, accuracy)
    predictions = labeling.confidences([candidates[mid] for mid in ids],
                                       device.pending_features()[1])
    mid, coverage, chosen = labeling.select_best_model(device, ids, phi, predictions)
    return mid, max(accuracy), coverage, chosen


# The per-device labeling phase, verbatim as `Simulation._labeling_phase`
# ran it before the phase took its candidate work once per candidate set,
# with the helpers it called in the forms they had then: a trigger test per
# device, list-valued holdout accuracies scored one group per device, the
# contenders and best accuracy worked out per device, and a selection that
# took every candidate with its accuracy. `tests/test_labeling_phase_oracle.py`
# checks the phase against it.


def _ref_scored_holdout(device):
    if len(device.holdout):
        return device.holdout
    if not len(device.train):
        raise ValueError(f"device {device.device_id}: no labeled rows to score accuracy on")
    labeling.log.warning(
        "device %d: empty holdout, scoring val_accuracy on the full labeled set",
        device.device_id,
    )
    return device.train


def _ref_holdout_accuracies(devices: list, candidates: dict) -> list:
    models = list(candidates.values())
    holdouts = [_ref_scored_holdout(dev) for dev in devices]
    scored = pool_predictions((models, holdout.features) for holdout in holdouts)
    hits = np.concatenate([classes for classes, _ in scored], axis=1) == np.concatenate(
        [holdout.labels for holdout in holdouts])
    rows = [0, *itertools.accumulate(map(len, holdouts))]
    return (np.add.reduceat(hits, rows[:-1], axis=1, dtype=np.intp) / np.diff(rows)).T.tolist()


def _ref_contenders(candidates: dict, accuracy: list) -> list:
    best = max(accuracy)
    return [mid for mid, acc in zip(candidates, accuracy) if acc == best]


def _ref_select_best_model(device, candidates: dict, phi: float, accuracy: list,
                           predictions: tuple):
    if not candidates:
        raise StateError(f"device {device.device_id}: no candidate models to select from")
    ids = _ref_contenders(candidates, accuracy)
    classes, conf = predictions
    if conf.shape[1] == 0:
        coverage = [0.0] * len(ids)
    else:
        coverage = (conf >= phi).mean(axis=1).tolist()
    k = min(range(len(ids)), key=lambda j: (-coverage[j], ids[j]))
    return ids[k], max(accuracy), coverage[k], (classes[k], conf[k])


def _ref_label_trigger(sim, device_id: int, r: int) -> bool:
    dev = sim.devices[device_id]
    if unlabeled_remaining(dev) == 0:
        return False
    last = sim.last_label_round.get(device_id)
    if last is not None and r - last < sim.config.ssl.label_interval:
        return False
    if r < sim.config.ssl.label_interval:
        return False
    if sim.use_global_model:
        return True
    root = sim.tree.root_of_edge(sim.radios[device_id].edge_id)
    return not root.is_leaf


def ref_labeling_phase(sim, r: int):
    """Round r's labeling phase of `sim`, device by device."""
    ssl = sim.config.ssl
    candidates_of_edge = sim._candidate_models(r)
    # The triggered devices with candidates, in device order.
    candidates_of = {}
    for k, radio in enumerate(sim.radios):
        if candidates_of_edge[radio.edge_id] and _ref_label_trigger(sim, k, r):
            candidates_of[k] = candidates_of_edge[radio.edge_id]
    # Holdout accuracies first, no injection changes them: one pass per
    # set of candidate ids over every device that has it.
    sharing = defaultdict(list)
    for k, candidates in candidates_of.items():
        sharing[tuple(candidates)].append(k)
    accuracy = {}
    for ids in sharing.values():
        accuracy.update(zip(ids, _ref_holdout_accuracies(
            [sim.devices[k] for k in ids], candidates_of[ids[0]])))
    # Every device's contenders over its pending pool in one pass, read
    # block by block as the loop below takes the devices in order: each
    # pool is scored before its device injects.
    pending = {k: sim.devices[k].pending_features() for k in candidates_of}
    scored = pool_predictions(
        ([candidates_of[k][mid] for mid in _ref_contenders(candidates_of[k], accuracy[k])],
         pending[k][1]) for k in candidates_of)
    for (k, candidates), pool_pass in zip(candidates_of.items(), scored):
        dev = sim.devices[k]
        idx, feats = pending[k]
        mid, acc, cov, predictions = _ref_select_best_model(
            dev, candidates, ssl.phi, accuracy[k], pool_pass)
        sim.last_label_round[k] = r
        sim.utilities[k] = acc * cov
        sim._event({
            "type": "selection", "round": r, "device": k, "chosen_model": mid,
            "z": {c: int(c == mid) for c in sorted(candidates)},
            "val_accuracy": acc, "coverage": cov,
            # One inference pass over the pool on the device's CPU: logged
            # only, it ranks no candidate and adds no simulated time.
            "est_label_latency_s":
                feats.shape[0] * ssl.inference_cycles_per_sample / sim.radios[k].f_hz,
        })
        batch = labeling.pseudo_label(
            candidates[mid], feats, ssl.phi,
            device_id=k, pool_indices=idx, predictions=predictions,
        )
        added = labeling.inject(dev, batch)
        if added:
            sim._event({
                "type": "injection", "round": r, "device": k, "count": added,
                "source_model": mid,
                "mean_confidence": float(batch.confidences.mean()),
                "pool_remaining": unlabeled_remaining(dev),
            })


def holdout_devices(batches) -> list:
    """One stand-in device per batch, whose holdout and train rows are the
    batch, with the fields `labeling.holdout_accuracies` reads."""
    return [SimpleNamespace(device_id=k, holdout=b, train=b) for k, b in enumerate(batches)]


def cosine_similarity(g1, g2) -> float:
    """Cosine of the angle between two gradient vectors."""
    a, b = np.asarray(g1, dtype=np.float64), np.asarray(g2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine similarity undefined for zero-norm gradient")
    return float(np.dot(a, b) / (na * nb))


def _unpack(p: ModelParams):
    """Views into the flat vector: (W, b) or (W1, b1, W2, b2)."""
    d, c, h = p.dim_in, p.dim_out, p.hidden
    w = p.weights
    if h == 0:
        return w[: d * c].reshape(d, c), w[d * c :]
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * c
    return (
        w[:o1].reshape(d, h),
        w[o1:o2],
        w[o2:o3].reshape(h, c),
        w[o3:],
    )


def _logits(p: ModelParams, x: np.ndarray):
    """Raw class scores; for the tanh network also returns the hidden activations."""
    if p.hidden == 0:
        w, b = _unpack(p)
        return x @ w + b, None
    w1, b1, w2, b2 = _unpack(p)
    hidden = np.tanh(x @ w1 + b1)
    return hidden @ w2 + b2, hidden


def _check_features(p: ModelParams, features: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != p.dim_in:
        raise ValueError(
            f"feature matrix must be 2-D with {p.dim_in} columns, got shape {features.shape}"
        )
    return features


def forward(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix: row-wise softmax over the model's logits."""
    features = _check_features(params, features)
    if features.shape[0] == 0:
        return np.zeros((0, params.dim_out))
    z, _ = _logits(params, features)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ref_confidences(params: ModelParams, features: np.ndarray):
    """Per-sample (argmax class, max probability), ties to the lowest class id."""
    probs = forward(params, features)
    if probs.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    classes = probs.argmax(axis=1)
    return classes, probs.max(axis=1)


def ref_evaluate(params: ModelParams, batch) -> float:
    """Fraction of argmax predictions matching labels (ties -> lowest class id)."""
    if len(batch) == 0:
        raise ValueError("evaluate requires a nonempty batch")
    probs = forward(params, batch.features)
    preds = probs.argmax(axis=1)
    return float((preds == batch.labels).mean())


def ref_loss(params: ModelParams, batch: LabeledBatch) -> float:
    """Mean cross-entropy over the batch (log-softmax form for accuracy)."""
    if len(batch) == 0:
        raise ValueError("loss requires a nonempty batch")
    x = _check_features(params, batch.features)
    z, _ = _logits(params, x)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(len(batch)), batch.labels]
    return float(-picked.mean())


def max_cross(values: np.ndarray, c1, c2) -> float:
    """The largest similarity from a member of c1 (rows) to one of c2."""
    return float(values[np.ix_(c1, c2)].max())


def exhaustive_bipartition(values: np.ndarray, n: int):
    """(c1, c2) of indices: the bipartition with the smallest key (largest
    cross similarity from c1 to c2, size imbalance, c1 as a sorted tuple),
    found by trying every one."""
    best = None
    rest = range(1, n)
    # Index 0 stays in c1, so each unordered bipartition appears once.
    for r in range(0, n - 1):
        for extra in itertools.combinations(rest, r):
            c1 = (0,) + extra
            c2 = tuple(i for i in rest if i not in extra)
            key = (max_cross(values, c1, c2), abs(len(c1) - len(c2)), c1)
            if best is None or key < best[0]:
                best = (key, c1, c2)
    return best[1], best[2]


def kruskal_bipartition(values: np.ndarray, n: int):
    """(t, c1, c2) for a symmetric matrix, t the largest cross similarity of
    the split `exhaustive_bipartition` picks. Kruskal's algorithm joins
    pairs from the most similar down, and the last pair that joins two
    trees has similarity t: the maximum spacing (Kleinberg & Tardos,
    Algorithm Design, 2005, 4.7). The splits that reach t are the unions
    of the components of {v > t} that hold index 0 and not every index;
    the one with the smallest (size imbalance, c1 as a sorted tuple) is
    found by trying every subset of components."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    pairs = sorted(((values[i, j], i, j) for i, j in itertools.combinations(range(n), 2)),
                   reverse=True)
    trees = n
    for t, i, j in pairs:
        a, b = find(i), find(j)
        if a != b:
            root[a] = b
            trees -= 1
            if trees == 1:
                break
    root = list(range(n))
    for v, i, j in pairs:
        if v > t:
            root[find(i)] = find(j)
    groups = defaultdict(list)
    for i in range(n):
        groups[find(i)].append(i)
    first, *rest = sorted(groups.values())
    best = None
    for r in range(len(rest)):
        for extra in itertools.combinations(rest, r):
            c1 = tuple(sorted(itertools.chain(first, *extra)))
            key = (abs(2 * len(c1) - n), c1)
            if best is None or key < best:
                best = key
    c1 = best[1]
    return float(t), c1, tuple(i for i in range(n) if i not in c1)
