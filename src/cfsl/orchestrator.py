"""The per-round state machine tying training, clustering, labeling, and
the latency model together.

Each round: schedule devices per edge, train the survivors from their
cluster's model, run the labeling phase where triggered, aggregate per
cluster, test split conditions on a cadence, refresh the shared global
model from devices still in unsplit clusters, check for cloud-level
merges, then account the round's wall-clock time. Every step is
deterministic given the run seed.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .clustering import (
    ACTIVE,
    ClusterTree,
    bipartition,
    check_split_conditions,
    similarity_matrix,
)
from .config import ExperimentConfig
from .data import train_batches
from .errors import StateError
from .labeling import (
    holdout_accuracies,
    inject,
    labeling_accuracy,
    objective_value,
    pseudo_label,
    select_best_model,
)
from .models import (
    STACK_CHUNK,
    ModelParams,
    evaluate,
    gradient,
    init_params,
    loss,
    sgd_train,
)
from .network import rayleigh_fading, round_time, schedule_round
from .seeding import fading_seed, init_seed, training_seed

log = logging.getLogger(__name__)

# Relative stationarity thresholds used when the config leaves them unset.
RELATIVE_EPS1_FACTOR = 0.4
RELATIVE_EPS2_FACTOR = 1.6

# A device counts as fully pseudo-labeled at this pool fraction.
LABEL_DONE_FRACTION = 0.9

GLOBAL_MODEL_ID = -1


@dataclass(frozen=True)
class MetricsRow:
    round_no: int
    cumulative_time_s: float
    acc_min: float
    acc_mean: float
    acc_max: float
    labeling_accuracy_mean: float | None
    injected_fraction: float
    clusters: int
    objective: float
    drops: int
    mean_labeling_latency_s: float


def edge_aggregate(models: list, weights: list) -> ModelParams:
    """Weighted average of flat parameter vectors, weights normalized by
    their sum. Callers pass contributors in ascending id order so the
    accumulation is bit-reproducible."""
    if not models or len(models) != len(weights):
        raise ValueError("models and weights must be nonempty and aligned")
    w = np.array([float(x) for x in weights])
    if np.any(w <= 0):
        raise ValueError("aggregation weights must be positive")
    first = models[0]
    for m in models[1:]:
        if (m.dim_in, m.dim_out, m.hidden) != (first.dim_in, first.dim_out, first.hidden):
            raise ValueError("cannot aggregate models with different shapes")
    wn = w / w.sum()
    acc = np.zeros_like(first.weights)
    for wi, m in zip(wn, models):
        acc += wi * m.weights
    return first.with_weights(acc)


def _in_sorted_chunks(score, n: int, key) -> list:
    """score(indices) of the indices 0 .. n - 1, taken in chunks of
    STACK_CHUNK in order of key, as one list in index order."""
    order = sorted(range(n), key=key)
    out = [None] * n
    for i in range(0, n, STACK_CHUNK):
        chunk = order[i : i + STACK_CHUNK]
        for k, value in zip(chunk, score(chunk)):
            out[k] = value
    return out


# Types `jsonable` returns as they are.
_PLAIN = frozenset({int, str, bool, type(None)})
_INTS = frozenset({int})


def jsonable(obj):
    """Strict-JSON view of an event or config: numpy scalars and arrays
    become Python values, infinities the strings "inf" and "-inf".

    Leaves dispatch on the exact type: plain values and finite floats come
    back as they are, without a call per element of a container, and a
    list of plain ints is copied whole."""
    t = type(obj)
    if t in _PLAIN or (t is float and -math.inf < obj < math.inf):
        return obj
    if isinstance(obj, dict):
        return {
            k if type(k) in _PLAIN else jsonable(k): v if type(v) in _PLAIN else jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= _INTS:
            return list(obj)
        return [v if type(v) in _PLAIN else jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


class Simulation:
    """Deterministic multi-round run over a fixed population of devices."""

    def __init__(
        self,
        devices: list,
        radios: list,
        config: ExperimentConfig,
    ):
        """`config` is the effective config of the run (see
        `config.baseline_variant`); this reads its data dimensions, model,
        clustering, ssl, network and run sections. Every network setting
        comes from `config.network`; the edges are 0 .. topology.edges - 1
        and each radio names its own. Under `run.baseline = hfl-ssl`,
        devices label with the shared global model instead of specialized
        ones (the non-clustered semi-supervised baseline)."""
        if [d.device_id for d in devices] != list(range(len(devices))):
            raise ValueError("devices must be ordered by contiguous device_id from 0")
        if len(radios) != len(devices) or [r.device_id for r in radios] != [
            d.device_id for d in devices
        ]:
            raise ValueError("radios must align one-to-one with devices")
        n_edges = config.topology.edges
        unknown = {r.edge_id for r in radios} - set(range(n_edges))
        if unknown:
            raise ValueError(f"radios reference unknown edges {sorted(unknown)}")
        # Each edge's device ids, ascending, indexed by edge id.
        self.edge_members = [[r.device_id for r in radios if r.edge_id == e]
                             for e in range(n_edges)]
        for e, members in enumerate(self.edge_members):
            if not members:
                raise ValueError(f"edge {e} has no devices")
        # Sub-channels per edge; auto is half the edge's devices, rounded up.
        q = config.network.subchannels
        self.subchannels = [q if q is not None else math.ceil(len(m) / 2)
                            for m in self.edge_members]

        self.devices = list(devices)
        self.radios = list(radios)
        self.config = config
        self.use_global_model = config.run.baseline == "hfl-ssl"

        self.global_model = init_params(
            config.data.features, config.data.classes, config.model.hidden,
            seed=init_seed(config.run.seed),
        )
        self.payload_bits = self.global_model.size_bits
        self.tree = ClusterTree()
        for e, members in enumerate(self.edge_members):
            self.tree.add_root(
                e, members,
                self.global_model.with_weights(self.global_model.weights.copy()),
            )

        self.round_no = 0
        self.cumulative_time_s = 0.0
        self.metrics: list = []
        self.events: list = []
        self.loss_history = defaultdict(list)
        self.last_label_round: dict = {}
        # Holdout accuracy times coverage of each device's last chosen labeler.
        self.utilities: dict = {}
        self.label_crossing = {
            d.device_id: 0.0
            for d in self.devices
            if d.injected_fraction >= LABEL_DONE_FRACTION
        }
        self.termination_reason = None

    # ------------------------------------------------------------ helpers

    def _event(self, payload: dict):
        self.events.append(jsonable(payload))

    def _model_of(self, node):
        """The model the members of current leaf `node` run: the shared
        global model before their cluster ever split, else the cluster's
        own specialized model."""
        return node.model if self.tree.is_specialized(node) else self.global_model

    def global_hash(self) -> str:
        return hashlib.sha256(
            np.ascontiguousarray(self.global_model.weights).tobytes()
        ).hexdigest()

    def _candidate_models(self, r: int) -> dict:
        """{edge id: {model id: model}}: the models the devices of each edge
        may label with in round r."""
        if self.use_global_model:
            return {e: {GLOBAL_MODEL_ID: self.global_model}
                    for e in range(len(self.edge_members))}
        # A cluster's model reflects its own members' training only from the
        # second round after creation; before that it is a copy of its parent.
        nodes = [n for n in self.tree.specialized() if r - n.born >= 2]
        by_edge = {}
        for e, members in enumerate(self.edge_members):
            scoped = nodes
            if self.config.ssl.candidate_scope == "edge":
                # By members, not node.edge_id: a merge across edges has none.
                scoped = [n for n in nodes if not n.members.isdisjoint(members)]
            by_edge[e] = {n.cluster_id: n.model for n in scoped}
        return by_edge

    def _label_trigger(self, device_id: int, r: int) -> bool:
        dev = self.devices[device_id]
        if dev.unlabeled_remaining == 0:
            return False
        last = self.last_label_round.get(device_id)
        if last is not None and r - last < self.config.ssl.label_interval:
            return False
        if r < self.config.ssl.label_interval:
            return False
        if self.use_global_model:
            return True
        root = self.tree.root_of_edge(self.radios[device_id].edge_id)
        return not root.is_leaf

    def _aggregate(self, r: int, scope: str, cluster, members: list, trained: dict):
        """Sample-weighted average of the members' trained models, logged
        as an `aggregate` event with the normalized weights."""
        weights = [self.devices[k].labeled_size for k in members]
        model = edge_aggregate([trained[k] for k in members], weights)
        wn = np.array(weights, dtype=float)
        self._event({
            "type": "aggregate", "round": r, "scope": scope, "cluster": cluster,
            "contributors": list(members), "weights": (wn / wn.sum()).tolist(),
        })
        return model

    def _train(self, starts: dict, r: int) -> dict:
        """{device: model}: each device of `starts` trained locally in round
        r from its start model, all in one ragged stack (`sgd_train` runs
        them longest first)."""
        tr = self.config.model
        ids = list(starts)
        if not ids:
            return {}
        return dict(zip(ids, sgd_train(
            [starts[k] for k in ids], train_batches([self.devices[k] for k in ids]),
            tr.epochs, tr.batch_size, tr.learning_rate,
            [training_seed(self.config.run.seed, r, k) for k in ids],
        )))

    def _split_signals(self, node, members: list, r: int) -> dict:
        """{member: flat vector} in the order of `members`: the gradient of
        the cluster's model on each member's train batch, one stacked call
        per chunk of members taken in order of train size (so that equal
        lengths share a matmul), or with `use_weight_deltas` each member's
        weight change from local training."""
        if self.config.clustering.use_weight_deltas:
            after = self._train(dict.fromkeys(members, node.model), r)
            return {k: node.model.weights - after[k].weights for k in members}
        devices = [self.devices[k] for k in members]
        grads = _in_sorted_chunks(
            lambda js: gradient([node.model] * len(js), train_batches([devices[j] for j in js])),
            len(devices), key=lambda j: devices[j].train_size)
        return dict(zip(members, grads))

    # ------------------------------------------------------------ round

    def run_round(self) -> MetricsRow:
        if self.termination_reason is not None:
            raise StateError("run already terminated")
        r = self.round_no + 1
        tr, cl, net = self.config.model, self.config.clustering, self.config.network
        cadence = cl.enabled and r % cl.split_interval == 0

        fading = None
        if net.fading == "rayleigh":
            rng = np.random.default_rng(fading_seed(self.config.run.seed, r))
            fading = rayleigh_fading([d.device_id for d in self.devices], rng)

        leaf_at_training = {
            d.device_id: self.tree.cluster_of(d.device_id) for d in self.devices
        }

        # (1) scheduling per edge
        schedules = []
        for e, members in enumerate(self.edge_members):
            eligible = [k for k in members if leaf_at_training[k].status == ACTIVE]
            entry = schedule_round(
                net, self.subchannels[e], [self.radios[k] for k in eligible],
                {k: self.devices[k].labeled_size for k in eligible},
                self.payload_bits, tr.epochs, fading,
            )
            schedules.append(entry)
            self._event({
                "type": "schedule", "round": r, "edge": e,
                "selected": list(entry.selected), "dropped": list(entry.dropped),
                "deadline_s": entry.deadline_s, "beta": entry.beta,
                "est_times": {d: entry.est_times[d] for d in sorted(entry.est_times)},
            })
            if entry.selected and entry.idle:
                log.warning("edge %d: every scheduled device missed the deadline in round %d",
                            e, r)

        # (2) local training from each device's cluster model
        trained = self._train({
            k: self._model_of(leaf_at_training[k])
            for entry in schedules for k in entry.participating
        }, r)

        # (3) labeling phase
        if self.config.ssl.enabled:
            self._labeling_phase(r)

        # (4) aggregation per cluster (for an unsplit root this is the edge
        # aggregate; injected samples already count toward the weights)
        by_cluster = defaultdict(list)
        for k in sorted(trained):
            by_cluster[leaf_at_training[k].cluster_id].append(k)
        pre_split = [k for k in sorted(trained)
                     if not self.tree.is_specialized(leaf_at_training[k])]

        for cid in sorted(by_cluster):
            node = self.tree.node(cid)
            scope = "cluster" if self.tree.is_specialized(node) else "edge"
            node.model = self._aggregate(r, scope, cid, by_cluster[cid], trained)
        idle = [n.cluster_id for n in self.tree.active_leaves()
                if n.members and n.cluster_id not in by_cluster]
        if idle:
            log.warning("round %d: no device update arrived for clusters %s", r, idle)

        # (5) split checks on a cadence
        if cadence:
            self._split_checks(r)

        # (6) cloud refresh of the shared model from unsplit-cluster devices
        if pre_split:
            self.global_model = self._aggregate(r, "global", None, pre_split, trained)

        # (7) cloud similarity check over specialized models, on the same
        # cadence as splits so fresh clusters train before being compared
        if cadence:
            self._merge_check(r)

        # (8) latency accounting and metrics
        duration = round_time(schedules, self.payload_bits / net.cloud_rate_bps)
        drops = sum(len(entry.dropped) for entry in schedules)
        self.cumulative_time_s += duration

        for dev in self.devices:
            k = dev.device_id
            if k not in self.label_crossing and dev.injected_fraction >= LABEL_DONE_FRACTION:
                self.label_crossing[k] = self.cumulative_time_s

        specialized = len(self.tree.specialized())
        row = self._emit_metrics(r, drops, specialized)
        self._event({
            "type": "round", "round": r, "duration_s": duration,
            "cumulative_time_s": self.cumulative_time_s,
            "global_hash": self.global_hash(),
            "specialized": specialized,
            "tree": self.tree.snapshot(),
        })
        self.round_no = r
        return row

    def _labeling_phase(self, r: int):
        ssl = self.config.ssl
        candidates_of_edge = self._candidate_models(r)
        # The triggered devices with candidates, in device order.
        candidates_of = {}
        for k, radio in enumerate(self.radios):
            if candidates_of_edge[radio.edge_id] and self._label_trigger(k, r):
                candidates_of[k] = candidates_of_edge[radio.edge_id]
        # Holdout accuracies first, no injection changes them: one pass per
        # set of candidate ids over every device that has it.
        sharing = defaultdict(list)
        for k, candidates in candidates_of.items():
            sharing[tuple(candidates)].append(k)
        accuracy = {}
        for ids in sharing.values():
            accuracy.update(zip(ids, holdout_accuracies(
                [self.devices[k] for k in ids], candidates_of[ids[0]])))
        for k, candidates in candidates_of.items():
            dev = self.devices[k]
            idx, feats = dev.pending_features()
            mid, acc, cov, predictions = select_best_model(
                dev, candidates, ssl.phi, feats, accuracy[k])
            self.last_label_round[k] = r
            self.utilities[k] = acc * cov
            self._event({
                "type": "selection", "round": r, "device": k, "chosen_model": mid,
                "z": {c: int(c == mid) for c in sorted(candidates)},
                "val_accuracy": acc, "coverage": cov,
                # One inference pass over the pool on the device's CPU: logged
                # only, it ranks no candidate and adds no simulated time.
                "est_label_latency_s":
                    feats.shape[0] * ssl.inference_cycles_per_sample / self.radios[k].f_hz,
            })
            batch = pseudo_label(
                candidates[mid], feats, ssl.phi,
                device_id=k, pool_indices=idx, predictions=predictions,
            )
            added = inject(dev, batch)
            if added:
                self._event({
                    "type": "injection", "round": r, "device": k, "count": added,
                    "source_model": mid,
                    "mean_confidence": float(batch.confidences.mean()),
                    "pool_remaining": dev.unlabeled_remaining,
                })

    def _split_checks(self, r: int):
        for node in list(self.tree.active_leaves()):
            members = sorted(node.members)
            if not members:
                continue
            grads = self._split_signals(node, members, r)
            weights = {k: self.devices[k].labeled_size for k in members}
            norms = [float(np.linalg.norm(g)) for g in grads.values()]
            eps1, eps2 = self.config.clustering.eps1, self.config.clustering.eps2
            if eps1 is None:
                eps1 = RELATIVE_EPS1_FACTOR * float(np.mean(norms))
            if eps2 is None:
                eps2 = RELATIVE_EPS2_FACTOR * eps1
            if eps1 <= 0 or eps2 <= 0:
                # Every member gradient vanished; the cluster is done.
                self.tree.stop(node.cluster_id)
                self._event({"type": "stop", "round": r, "cluster": node.cluster_id,
                             "agg_norm": 0.0, "max_norm": 0.0})
                continue
            res = check_split_conditions(grads, weights, eps1, eps2)
            if res.split:
                if len(members) < 2:
                    log.warning("cluster %d: split conditions met with a single member, skipping",
                                node.cluster_id)
                    continue
                if any(n == 0 for n in norms):
                    log.warning("cluster %d: zero-norm member gradient, skipping split in round %d",
                                node.cluster_id, r)
                    continue
                c1, c2 = bipartition(similarity_matrix(grads))
                children = self.tree.split(node.cluster_id, (c1, c2), born=r)
                self._event({
                    "type": "split", "round": r, "cluster": node.cluster_id,
                    "children": list(children), "parts": [list(c1), list(c2)],
                    "agg_norm": res.agg_norm, "max_norm": res.max_norm,
                    "eps1": eps1, "eps2": eps2,
                })
            elif res.agg_norm < eps1:
                self.tree.stop(node.cluster_id)
                self._event({"type": "stop", "round": r, "cluster": node.cluster_id,
                             "agg_norm": res.agg_norm, "max_norm": res.max_norm})

    def _merge_check(self, r: int):
        spec_nodes = self.tree.specialized()
        if len(spec_nodes) <= 2:
            return
        centered = {}
        for n in spec_nodes:
            # A cluster split off this round still carries its parent's
            # exact weights; comparing it now would always re-merge it.
            if n.born == r:
                continue
            v = n.model.weights - self.global_model.weights
            if np.linalg.norm(v) == 0:
                log.warning("cluster %d: coincides with the global model, skipping merge check",
                            n.cluster_id)
                continue
            centered[n.cluster_id] = v
        if len(centered) < 2:
            return
        sim = similarity_matrix(centered)
        # Union-find over matrix positions, which ascend with cluster id; the
        # roots, in order, set the order of the merges and so their new ids.
        parent = list(range(len(sim.ids)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in combinations(range(len(sim.ids)), 2):
            if sim.values[i, j] > self.config.clustering.gamma_merge:
                parent[find(j)] = find(i)
        groups = defaultdict(list)
        for i in range(len(sim.ids)):
            groups[find(i)].append(i)
        for root in sorted(groups):
            if len(groups[root]) < 2:
                continue
            group = [sim.ids[i] for i in groups[root]]
            nodes = [self.tree.node(c) for c in group]
            weights = [
                sum(self.devices[k].labeled_size for k in n.members) for n in nodes
            ]
            merged_model = edge_aggregate([n.model for n in nodes], weights)
            acted = not self.config.clustering.merge_log_only
            event = {
                "type": "merge", "round": r, "clusters": group,
                "similarities": [[sim.ids[i], sim.ids[j], float(sim.values[i, j])]
                                 for i, j in combinations(groups[root], 2)],
                "acted": acted,
            }
            if acted:
                event["merged_into"] = self.tree.merge(group, merged_model, born=r)
            self._event(event)

    def _emit_metrics(self, r: int, drops: int, clusters: int) -> MetricsRow:
        # Test accuracy and train loss of each device under its own model,
        # the devices sorted by (model, batch length) so that the pairs of
        # one model and one length share a matmul.
        devices = self.devices
        nodes = [self.tree.cluster_of(d.device_id) for d in devices]
        models = [self._model_of(n) for n in nodes]
        group = [n.cluster_id if self.tree.is_specialized(n) else GLOBAL_MODEL_ID for n in nodes]
        accs = _in_sorted_chunks(
            lambda ks: evaluate([models[k] for k in ks], [devices[k].test for k in ks]),
            len(devices), key=lambda k: (group[k], len(devices[k].test)))
        losses = _in_sorted_chunks(
            lambda ks: loss([models[k] for k in ks], train_batches([devices[k] for k in ks])),
            len(devices), key=lambda k: (group[k], devices[k].train_size))
        device_losses = dict(zip((d.device_id for d in self.devices), losses))

        for node in self.tree.active_leaves():
            vals = [device_losses[k] for k in node.members]
            self.loss_history[node.cluster_id].append(float(np.mean(vals)))

        lab = [labeling_accuracy(d) for d in self.devices]
        present = [v for v in lab if v is not None]
        lab_mean = float(np.mean(present)) if present else None
        injected = float(np.mean([d.injected_fraction for d in self.devices]))
        objective = objective_value(device_losses, self.utilities, self.config.ssl.lam)
        latency = float(np.mean([
            self.label_crossing.get(d.device_id, self.cumulative_time_s)
            for d in self.devices
        ]))
        row = MetricsRow(
            round_no=r,
            cumulative_time_s=self.cumulative_time_s,
            acc_min=float(np.min(accs)),
            acc_mean=float(np.mean(accs)),
            acc_max=float(np.max(accs)),
            labeling_accuracy_mean=lab_mean,
            injected_fraction=injected,
            clusters=clusters,
            objective=float(objective),
            drops=drops,
            mean_labeling_latency_s=latency,
        )
        self.metrics.append(row)
        return row

    # ------------------------------------------------------------ run

    def check_termination(self):
        """Reason string when the run should stop after the current round."""
        if self.cumulative_time_s >= self.config.network.time_budget_s:
            return "time budget"
        active = self.tree.active_leaves()
        if not active:
            return "convergence"
        window = self.config.run.convergence_window
        converged = True
        for node in active:
            hist = self.loss_history[node.cluster_id]
            if len(hist) < window + 1:
                converged = False
                break
            base = hist[-(window + 1)]
            if (base - hist[-1]) / max(abs(base), 1e-12) >= self.config.run.convergence_eps:
                converged = False
                break
        if converged:
            return "convergence"
        if self.round_no >= self.config.run.rounds:
            return "round budget"
        return None

    def run(self) -> str:
        """Round loop until a budget or convergence fires; returns the reason."""
        if self.termination_reason is not None:
            raise StateError("run already terminated")
        if self.config.run.rounds == 0:
            self.termination_reason = "round budget"
        while self.termination_reason is None:
            self.run_round()
            self.termination_reason = self.check_termination()
        self._event({
            "type": "termination", "round": self.round_no,
            "reason": self.termination_reason,
            "cumulative_time_s": self.cumulative_time_s,
        })
        return self.termination_reason
