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

import numpy as np

from .clustering import (
    ACTIVE,
    STOPPED,
    ClusterTree,
    bipartition,
    _cosine,
    check_split_conditions,
    similarity_matrix,
)
from .config import ExperimentConfig
from .errors import StateError
from .labeling import (
    inject,
    labeling_accuracy,
    objective_value,
    pseudo_label,
    select_best_model,
)
from .models import (
    STACK_CHUNK,
    GradientUpdate,
    ModelParams,
    evaluate,
    gradient,
    init_params,
    loss,
    sgd_train,
)
from .network import edge_round_time, global_round_time, rayleigh_fading, schedule_round
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
    duration_s: float
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
        acc = acc + wi * m.weights
    return first.with_weights(acc)


def jsonable(obj):
    """Strict-JSON view of an event or config: numpy scalars and arrays
    become Python values, infinities the strings "inf" and "-inf"."""
    if isinstance(obj, dict):
        return {jsonable(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _chunks(groups: dict):
    """(group key, up to STACK_CHUNK of its device ids) for every group."""
    for key, ids in groups.items():
        for i in range(0, len(ids), STACK_CHUNK):
            yield key, ids[i : i + STACK_CHUNK]


class Simulation:
    """Deterministic multi-round run over a fixed population of devices."""

    def __init__(
        self,
        devices: list,
        radios: list,
        edges: list,
        channel,
        config: ExperimentConfig,
        use_global_model: bool = False,
    ):
        """`config` is the effective config of the run (see
        `config.baseline_variant`); this reads its data dimensions, model,
        clustering, ssl, network timing and run sections. With
        `use_global_model`, devices label with the shared global model
        instead of specialized ones (the non-clustered semi-supervised
        baseline)."""
        if [d.device_id for d in devices] != list(range(len(devices))):
            raise ValueError("devices must be ordered by contiguous device_id from 0")
        if len(radios) != len(devices) or [r.device_id for r in radios] != [
            d.device_id for d in devices
        ]:
            raise ValueError("radios must align one-to-one with devices")
        if not edges:
            raise ValueError("at least one edge is required")
        edge_ids = [e.edge_id for e in edges]
        if len(set(edge_ids)) != len(edge_ids):
            raise ValueError("edge ids must be unique")
        unknown = {r.edge_id for r in radios} - set(edge_ids)
        if unknown:
            raise ValueError(f"radios reference unknown edges {sorted(unknown)}")
        for eid in edge_ids:
            if not any(r.edge_id == eid for r in radios):
                raise ValueError(f"edge {eid} has no devices")

        self.devices = list(devices)
        self.radios = list(radios)
        self.edges = sorted(edges, key=lambda e: e.edge_id)
        self.channel = channel
        self.config = config
        self.use_global_model = use_global_model

        self.global_model = init_params(
            config.data.features, config.data.classes, config.model.hidden,
            seed=init_seed(config.run.seed),
        )
        self.payload_bits = self.global_model.size_bits
        self.tree = ClusterTree()
        self.node_birth: dict = {}
        for edge in self.edges:
            members = [r.device_id for r in self.radios if r.edge_id == edge.edge_id]
            root_id = self.tree.add_root(
                edge.edge_id, members,
                self.global_model.with_weights(self.global_model.weights.copy()),
            )
            self.node_birth[root_id] = 0

        self.round_no = 0
        self.cumulative_time_s = 0.0
        self.metrics: list = []
        self.events: list = []
        self.loss_history = defaultdict(list)
        self.last_label_round: dict = {}
        self.last_selection: dict = {}
        self.last_utilities: dict = {}
        self.label_crossing = {
            d.device_id: 0.0
            for d in self.devices
            if d.injected_fraction >= LABEL_DONE_FRACTION
        }
        self.termination_reason = None

    # ------------------------------------------------------------ helpers

    def _event(self, payload: dict):
        self.events.append(jsonable(payload))

    def _is_unsplit_root(self, node) -> bool:
        return node.parent is None and node.is_leaf and not self.tree.is_merge_product(node)

    def _model_of(self, node):
        """(model id, model) the members of `node` run: the shared global
        model (GLOBAL_MODEL_ID) before their cluster ever split, else the
        cluster's own specialized model."""
        if self._is_unsplit_root(node):
            return GLOBAL_MODEL_ID, self.global_model
        return node.cluster_id, node.model

    def global_hash(self) -> str:
        return hashlib.sha256(
            np.ascontiguousarray(self.global_model.weights).tobytes()
        ).hexdigest()

    def _candidate_models(self, r: int) -> dict:
        """{edge id: {model id: model}}: the models the devices of each edge
        may label with in round r."""
        if self.use_global_model:
            return {e.edge_id: {GLOBAL_MODEL_ID: self.global_model} for e in self.edges}
        # A cluster's model reflects its own members' training only from the
        # second round after creation; before that it is a copy of its parent.
        nodes = [
            n for n in self.tree.specialized()
            if r - self.node_birth.get(n.cluster_id, 0) >= 2
        ]
        by_edge = {}
        for edge in self.edges:
            scoped = nodes
            if self.config.ssl.candidate_scope == "edge":
                # By members, not node.edge_id: a merge across edges has none.
                edge_devices = self.tree.root_of_edge(edge.edge_id).members
                scoped = [n for n in nodes if not n.members.isdisjoint(edge_devices)]
            by_edge[edge.edge_id] = {n.cluster_id: n.model for n in scoped}
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
            "contributors": list(members), "weights": wn / wn.sum(),
        })
        return model

    def _similarity_gradient(self, node, device_id: int, r: int) -> GradientUpdate:
        batch = self.devices[device_id].train_batch()
        if self.config.clustering.use_weight_deltas:
            tr = self.config.model
            after = sgd_train(
                node.model, batch, tr.epochs, tr.batch_size, tr.learning_rate,
                training_seed(self.config.run.seed, r, device_id),
            )
            return GradientUpdate(node.model.weights - after.weights, len(batch))
        return gradient(node.model, batch)

    # ------------------------------------------------------------ round

    def run_round(self) -> MetricsRow:
        if self.termination_reason is not None:
            raise StateError("run already terminated")
        r = self.round_no + 1
        tr, cl = self.config.model, self.config.clustering
        cadence = cl.enabled and r % cl.split_interval == 0

        fading = None
        if self.config.network.fading == "rayleigh":
            rng = np.random.default_rng(fading_seed(self.config.run.seed, r))
            fading = rayleigh_fading([d.device_id for d in self.devices], rng)

        leaf_at_training = {
            d.device_id: self.tree.cluster_of(d.device_id) for d in self.devices
        }

        # (1) scheduling per edge
        schedules = {}
        for edge in self.edges:
            eligible = [
                radio
                for radio in self.radios
                if radio.edge_id == edge.edge_id
                and leaf_at_training[radio.device_id].status == ACTIVE
            ]
            workloads = {radio.device_id: self.devices[radio.device_id].labeled_size
                         for radio in eligible}
            entry = schedule_round(
                edge, eligible, workloads, self.channel, self.payload_bits,
                tr.epochs, self.config.network.cycles_per_sample, fading,
            )
            schedules[edge.edge_id] = entry
            self._event({
                "type": "schedule", "round": r, "edge": edge.edge_id,
                "selected": list(entry.selected), "dropped": list(entry.dropped),
                "deadline_s": entry.deadline_s, "beta": entry.beta,
                "est_times": {d: entry.est_times[d] for d in sorted(entry.est_times)},
            })
            if entry.selected and entry.idle:
                log.warning("edge %d: every scheduled device missed the deadline in round %d",
                            edge.edge_id, r)

        # (2) local training from the cluster's current model, stacked over
        # devices that share the start model and the train-set size
        groups, starts = defaultdict(list), {}
        for edge in self.edges:
            for k in schedules[edge.edge_id].participating:
                model_id, model = self._model_of(leaf_at_training[k])
                starts[model_id] = model
                groups[model_id, self.devices[k].train_size].append(k)
        trained = {}
        for (model_id, _), chunk in _chunks(groups):
            trained.update(zip(chunk, sgd_train(
                starts[model_id], [self.devices[k].train_batch() for k in chunk],
                tr.epochs, tr.batch_size, tr.learning_rate,
                [training_seed(self.config.run.seed, r, k) for k in chunk],
            )))

        # (3) labeling phase
        if self.config.ssl.enabled:
            self._labeling_phase(r)

        # (4) aggregation per cluster (for an unsplit root this is the edge
        # aggregate; injected samples already count toward the weights)
        by_cluster = defaultdict(list)
        for k in sorted(trained):
            by_cluster[leaf_at_training[k].cluster_id].append(k)
        pre_split = [k for k in sorted(trained) if self._is_unsplit_root(leaf_at_training[k])]

        for cid in sorted(by_cluster):
            node = self.tree.node(cid)
            scope = "edge" if self._is_unsplit_root(node) else "cluster"
            node.model = self._aggregate(r, scope, cid, by_cluster[cid], trained)
        for node in self.tree.active_leaves():
            if node.members and node.cluster_id not in by_cluster:
                log.warning("cluster %d: no device update arrived in round %d",
                            node.cluster_id, r)

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
        edge_times, cloud_times, idle = {}, {}, set()
        drops = 0
        for edge in self.edges:
            entry = schedules[edge.edge_id]
            t, is_idle = edge_round_time(entry, entry.est_times)
            edge_times[edge.edge_id] = t
            cloud_times[edge.edge_id] = self.payload_bits / edge.cloud_rate_bps
            if is_idle:
                idle.add(edge.edge_id)
            drops += len(entry.dropped)
        duration = global_round_time(edge_times, cloud_times, idle)
        self.cumulative_time_s += duration

        for dev in self.devices:
            k = dev.device_id
            if k not in self.label_crossing and dev.injected_fraction >= LABEL_DONE_FRACTION:
                self.label_crossing[k] = self.cumulative_time_s

        specialized = len(self.tree.specialized())
        row = self._emit_metrics(r, duration, drops, specialized)
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
        for dev in self.devices:
            k = dev.device_id
            if not self._label_trigger(k, r):
                continue
            candidates = candidates_of_edge[self.radios[k].edge_id]
            if not candidates:
                continue
            idx, feats = dev.pending_features()
            decision, scores, predictions = select_best_model(
                dev, candidates, ssl.phi, self.radios[k].f_hz,
                ssl.inference_cycles_per_sample, pool=feats,
            )
            self.last_label_round[k] = r
            self.last_selection[k] = decision
            self.last_utilities[k] = scores
            chosen = scores[decision.chosen_model_id]
            self._event({
                "type": "selection", "round": r, "device": k,
                "chosen_model": decision.chosen_model_id, "z": decision.z,
                "val_accuracy": chosen.val_accuracy, "coverage": chosen.coverage,
                "est_label_latency_s": chosen.est_label_latency,
            })
            batch = pseudo_label(
                candidates[decision.chosen_model_id], feats, ssl.phi,
                device_id=k, source_model_id=decision.chosen_model_id,
                round_no=r, pool_indices=idx, predictions=predictions,
            )
            added = inject(dev, batch)
            if added:
                self._event({
                    "type": "injection", "round": r, "device": k, "count": added,
                    "source_model": decision.chosen_model_id,
                    "mean_confidence": float(batch.confidences.mean()),
                    "pool_remaining": dev.unlabeled_remaining,
                })

    def _split_checks(self, r: int):
        for node in list(self.tree.active_leaves()):
            members = sorted(node.members)
            if not members:
                continue
            grads = {k: self._similarity_gradient(node, k, r) for k in members}
            weights = {k: self.devices[k].labeled_size for k in members}
            norms = [g.norm for g in grads.values()]
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
                children = self.tree.split(node.cluster_id, (c1, c2))
                for child in children:
                    self.node_birth[child] = r
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
        centered, norms = {}, {}
        for n in spec_nodes:
            # A cluster split off this round still carries its parent's
            # exact weights; comparing it now would always re-merge it.
            if self.node_birth.get(n.cluster_id, -1) == r:
                continue
            v = n.model.weights - self.global_model.weights
            norm = np.linalg.norm(v)
            if norm == 0:
                log.warning("cluster %d: coincides with the global model, skipping merge check",
                            n.cluster_id)
                continue
            centered[n.cluster_id], norms[n.cluster_id] = v, norm
        ids = sorted(centered)
        parent = {c: c for c in ids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        sims = {}
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                s = _cosine(centered[a], centered[b], norms[a], norms[b])
                sims[(a, b)] = s
                if s > self.config.clustering.gamma_merge:
                    parent[find(b)] = find(a)
        groups = defaultdict(list)
        for c in ids:
            groups[find(c)].append(c)
        for gid in sorted(groups):
            group = sorted(groups[gid])
            if len(group) < 2:
                continue
            nodes = [self.tree.node(c) for c in group]
            weights = [
                sum(self.devices[k].labeled_size for k in n.members) for n in nodes
            ]
            merged_model = edge_aggregate([n.model for n in nodes], weights)
            acted = not self.config.clustering.merge_log_only
            event = {
                "type": "merge", "round": r, "clusters": group,
                "similarities": [[a, b, sims[(a, b)]] for (a, b) in sims
                                 if a in group and b in group],
                "acted": acted,
            }
            if acted:
                new_id = self.tree.merge(group, merged_model)
                self.node_birth[new_id] = r
                if all(n.status == STOPPED for n in nodes):
                    self.tree.node(new_id).status = STOPPED
                event["merged_into"] = new_id
            self._event(event)

    def _emit_metrics(self, r: int, duration: float, drops: int, clusters: int) -> MetricsRow:
        # One stacked pass per chunk of devices that share the model and
        # their batch lengths. The values go back into device order, so the
        # means below sum them in the same order as before.
        groups, models = defaultdict(list), {}
        for dev in self.devices:
            model_id, model = self._model_of(self.tree.cluster_of(dev.device_id))
            models[model_id] = model
            groups[model_id, len(dev.test), dev.train_size].append(dev.device_id)
        acc_of, loss_of = {}, {}
        for (model_id, _, _), chunk in _chunks(groups):
            model = models[model_id]
            acc_of.update(zip(chunk, evaluate(model, [self.devices[k].test for k in chunk])))
            loss_of.update(zip(chunk, loss(model, [self.devices[k].train_batch() for k in chunk])))
        accs = [acc_of[dev.device_id] for dev in self.devices]
        device_losses = {dev.device_id: loss_of[dev.device_id] for dev in self.devices}

        for node in self.tree.active_leaves():
            vals = [device_losses[k] for k in node.members]
            self.loss_history[node.cluster_id].append(float(np.mean(vals)))

        lab = [labeling_accuracy(d) for d in self.devices]
        present = [v for v in lab if v is not None]
        lab_mean = float(np.mean(present)) if present else None
        injected = float(np.mean([d.injected_fraction for d in self.devices]))
        objective = objective_value(
            device_losses, self.last_selection, self.last_utilities, self.config.ssl.lam
        )
        latency = float(np.mean([
            self.label_crossing.get(d.device_id, self.cumulative_time_s)
            for d in self.devices
        ]))
        row = MetricsRow(
            round_no=r,
            duration_s=duration,
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
