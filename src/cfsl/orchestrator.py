"""The per-round state machine tying training, clustering, labeling, and
the latency model together.

Each round: schedule devices per edge, train the survivors from their
cluster's model, run the labeling phase where triggered, aggregate per
cluster, test split conditions on a cadence, refresh the shared global
model from devices still in unsplit clusters, check for cloud-level
merges, then account the round's wall-clock time. Every step is
deterministic given the run seed.

A round reads each device's counts from the population table
(`data.population`) and its leaf from `ClusterTree.leaf_of`, as arrays:
its bookkeeping takes no call per device, and selection, pseudo-labeling
and injection one each per selecting device. Every mean and aggregate
keeps the bits of the per-device loops that `tests/references.py` holds.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, compress, groupby

import numpy as np

from .clustering import (
    ClusterTree,
    bipartition,
    check_split_conditions,
    similarity_matrix,
)
from .config import ExperimentConfig
from .data import CORRECT, INJECTED, KNOWN, POOL, injected_fractions, labeled_sizes, population
from .errors import StateError
from .labeling import (
    holdout_accuracies,
    inject,
    objective_value,
    pseudo_label,
    select_best_model,
)
from .models import (
    ModelParams,
    evaluate,
    gradient,
    init_params,
    loss,
    pool_predictions,
    sgd_train,
)
from .network import path_gains, rayleigh_fading, round_time, schedule_round
from .seeding import TRAIN_STREAM, fading_seed, init_seed, streams

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
    accumulation, a running sum from zero, is bit-reproducible."""
    if not models or len(models) != len(weights):
        raise ValueError("models and weights must be nonempty and aligned")
    w = np.array(weights, dtype=float)
    if not np.all((w > 0) & (w < math.inf)):
        raise ValueError("aggregation weights must be finite and positive")
    first = models[0]
    if len({(m.dim_in, m.dim_out, m.hidden) for m in models}) > 1:
        raise ValueError("cannot aggregate models with different shapes")
    terms = np.zeros((len(models) + 1, first.weights.size))
    np.multiply((w / w.sum())[:, None], [m.weights for m in models], out=terms[1:])
    return first.with_weights(np.add.accumulate(terms)[-1])


# Types `jsonable` returns as they are; a float too, when finite.
_PLAIN = frozenset({int, str, bool, type(None)})


def _whole(values) -> bool:
    """Whether `jsonable` returns `values` as they are: all plain, or all
    floats of a finite sum (so none is infinite or NaN)."""
    types = set(map(type, values))
    return types <= _PLAIN or (types == {float} and -math.inf < sum(values) < math.inf)


def jsonable(obj):
    """Strict-JSON view of an event or config: numpy scalars and arrays
    become Python values, infinities the strings "inf" and "-inf".

    Leaves dispatch on the exact type: plain values and finite floats come
    back as they are, and a dict or list of such keys and values is copied
    whole, without a call per element."""
    t = type(obj)
    if t in _PLAIN or (t is float and -math.inf < obj < math.inf):
        return obj
    if isinstance(obj, dict):
        if _whole(obj.values()) and _whole(obj):
            return dict(obj)
        return {
            k if type(k) in _PLAIN else jsonable(k):
            v if type(v) in _PLAIN or type(v) is float and -math.inf < v < math.inf
            else jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        if _whole(obj):
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
        # The devices' counts, which each `inject` keeps up, and path gains.
        self.population = population(self.devices)
        self.gains = path_gains(self.radios, config.network)
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
        # When each device first had LABEL_DONE_FRACTION of its pool labeled.
        self.label_crossing = np.where(
            injected_fractions(self.population) >= LABEL_DONE_FRACTION, 0.0, np.nan)
        self.termination_reason = None

    # ------------------------------------------------------------ helpers

    def _event(self, payload: dict):
        self.events.append(jsonable(payload))

    def _leaf_models(self) -> dict:
        """{current leaf id: the model its members run}: the shared global
        model before their cluster ever split, else the cluster's own."""
        return {n.cluster_id: n.model if self.tree.is_specialized(n) else self.global_model
                for n in self.tree.leaves()}

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

    def _triggered(self, r: int, candidates_of_edge: dict) -> dict:
        """{edge: its devices that label in round r, ascending} of each edge
        that has candidates and labels: under hfl-ssl every edge, else one
        whose root has split. A device labels when rows of its pool are
        pending and it last labeled at least `label_interval` rounds ago; no
        device labels before round `label_interval`."""
        since = r - self.config.ssl.label_interval
        if since < 0:
            return {}
        pending = (self.population[POOL] > self.population[INJECTED]).tolist()
        recent = {k for k, last in self.last_label_round.items() if last > since}
        return {
            e: [k for k in members if pending[k] and k not in recent]
            for e, members in enumerate(self.edge_members)
            if candidates_of_edge[e]
            and (self.use_global_model or not self.tree.root_of_edge(e).is_leaf)
        }

    def _aggregate(self, r: int, scope: str, cluster, members: list, trained: dict, sizes):
        """The members' trained models averaged by their labeled `sizes`,
        logged as an `aggregate` event with the normalized weights."""
        weights = sizes[members]
        model = edge_aggregate([trained[k] for k in members], weights)
        wn = weights.astype(float)
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
            [starts[k] for k in ids], [self.devices[k].train_batch() for k in ids],
            tr.epochs, tr.batch_size, tr.learning_rate,
            streams([self.config.run.seed, TRAIN_STREAM, r], ids),
        )))

    def _split_signals(self, leaves: list, r: int) -> dict:
        """{cluster id: {member: flat vector}} of each nonempty leaf, its
        members ascending: the gradient of the cluster's model on each
        member's train batch, or with `use_weight_deltas` each member's
        weight change from local training. One `gradient` or `_train` call
        covers every leaf; leaves are disjoint, so no device comes twice."""
        pairs = [(node, k) for node in leaves for k in sorted(node.members)]
        if not pairs:
            return {}
        if self.config.clustering.use_weight_deltas:
            after = self._train({k: node.model for node, k in pairs}, r)
            signals = [node.model.weights - after[k].weights for node, k in pairs]
        else:
            signals = gradient([node.model for node, _ in pairs],
                               [self.devices[k].train_batch() for _, k in pairs])
        out = defaultdict(dict)
        for (node, k), signal in zip(pairs, signals):
            out[node.cluster_id][k] = signal
        return out

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
            fading = rayleigh_fading(len(self.devices), rng)

        # Each device's leaf as the round begins (the tree replaces the array).
        leaf = self.tree.leaf_of.tolist()
        models = self._leaf_models()
        active = {n.cluster_id for n in self.tree.active_leaves()}
        workloads = labeled_sizes(self.population).tolist()

        # (1) scheduling per edge
        schedules = []
        for e, members in enumerate(self.edge_members):
            eligible = [k for k in members if leaf[k] in active]
            entry = schedule_round(
                net, self.subchannels[e], [self.radios[k] for k in eligible], self.gains,
                workloads, self.payload_bits, tr.epochs, fading,
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
            k: models[leaf[k]] for entry in schedules for k in entry.participating
        }, r)

        # (3) labeling phase
        if self.config.ssl.enabled:
            self._labeling_phase(r)
        sizes = labeled_sizes(self.population)

        # (4) aggregation per cluster (for an unsplit root this is the edge
        # aggregate; injected samples already count toward the weights)
        ids = sorted(trained)
        by_cluster = {cid: list(ks) for cid, ks in
                      groupby(sorted(ids, key=leaf.__getitem__), key=leaf.__getitem__)}
        unsplit = {cid for cid in by_cluster if not self.tree.is_specialized(self.tree.node(cid))}
        pre_split = [k for k in ids if leaf[k] in unsplit]

        for cid, members in by_cluster.items():
            scope = "edge" if cid in unsplit else "cluster"
            self.tree.node(cid).model = self._aggregate(r, scope, cid, members, trained, sizes)
        idle = [n.cluster_id for n in self.tree.active_leaves()
                if n.members and n.cluster_id not in by_cluster]
        if idle:
            log.warning("round %d: no device update arrived for clusters %s", r, idle)

        # (5) split checks on a cadence
        if cadence:
            self._split_checks(r)

        # (6) cloud refresh of the shared model from unsplit-cluster devices
        if pre_split:
            self.global_model = self._aggregate(r, "global", None, pre_split, trained, sizes)

        # (7) cloud similarity check over specialized models, on the same
        # cadence as splits so fresh clusters train before being compared
        if cadence:
            self._merge_check(r)

        # (8) latency accounting and metrics
        duration = round_time(schedules, self.payload_bits / net.cloud_rate_bps)
        drops = sum(len(entry.dropped) for entry in schedules)
        self.cumulative_time_s += duration

        injected = injected_fractions(self.population)
        crossed = np.isnan(self.label_crossing) & (injected >= LABEL_DONE_FRACTION)
        self.label_crossing[crossed] = self.cumulative_time_s

        specialized = len(self.tree.specialized())
        row = self._emit_metrics(r, drops, specialized, injected)
        self._event({
            "type": "round", "round": r, "duration_s": duration,
            "cumulative_time_s": self.cumulative_time_s,
            "global_hash": self.global_hash(),
            "specialized": specialized,
        })
        # A new list of plain values: strict JSON as it is.
        self.events[-1]["tree"] = self.tree.snapshot()
        self.round_no = r
        return row

    def _labeling_phase(self, r: int):
        ssl = self.config.ssl
        candidates_of_edge = self._candidate_models(r)
        # The triggered devices of each set of candidate ids.
        sharing = defaultdict(list)
        for e, ks in self._triggered(r, candidates_of_edge).items():
            if ks:
                sharing[tuple(candidates_of_edge[e])] += ks
        # One holdout pass per set (no injection changes the accuracies),
        # and from it each device's best accuracy and contenders:
        # {device: (candidates, best accuracy, contender ids, contender
        # models, z template)}.
        plan = {}
        for ids, ks in sharing.items():
            ks.sort()
            candidates = candidates_of_edge[self.radios[ks[0]].edge_id]
            template = dict.fromkeys(sorted(ids), 0)
            accuracy = holdout_accuracies([self.devices[k] for k in ks], candidates)
            best = accuracy.max(axis=1)
            for k, acc, mask in zip(ks, best.tolist(), (accuracy == best[:, None]).tolist()):
                plan[k] = (candidates, acc, list(compress(ids, mask)),
                           list(compress(candidates.values(), mask)), template)
        # Every device's contenders over its pending pool in one pass, read
        # block by block as the loop below takes the devices in order: each
        # pool is scored before its device injects.
        order = sorted(plan)
        pending = {k: self.devices[k].pending_features() for k in order}
        scored = pool_predictions((plan[k][3], pending[k][1]) for k in order)
        for k, pool_pass in zip(order, scored):
            dev = self.devices[k]
            idx, feats = pending[k]
            candidates, acc, ids, _, template = plan[k]
            mid, cov, predictions = select_best_model(dev, ids, ssl.phi, pool_pass)
            self.last_label_round[k] = r
            self.utilities[k] = acc * cov
            self._event({
                "type": "selection", "round": r, "device": k, "chosen_model": mid,
                "z": {**template, mid: 1},
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
                    # The bits of `mean`, without its Python-level wrapper.
                    "mean_confidence": float(np.add.reduce(batch.confidences)) / added,
                    "pool_remaining": feats.shape[0] - added,
                })

    def _split_checks(self, r: int):
        # No leaf's model or train batch changes in the loop, so every
        # leaf's signals are taken first.
        leaves = [node for node in self.tree.active_leaves() if node.members]
        signals = self._split_signals(leaves, r)
        sizes = labeled_sizes(self.population)
        for node in leaves:
            grads = signals[node.cluster_id]
            members = list(grads)
            weights = dict(zip(members, sizes[members].tolist()))
            # Each norm as `np.linalg.norm` takes it: the root of a dot.
            v = np.array(list(grads.values()))
            norms = np.sqrt((v[:, None] @ v[:, :, None])[:, 0, 0])
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
                if norms.min() == 0:
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
        sizes = labeled_sizes(self.population)
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
            weights = [sizes[list(n.members)].sum() for n in nodes]
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

    def _device_scores(self) -> tuple:
        """(test accuracies, train losses) of the devices, in device order,
        each under its own model: one `evaluate` call over every test set
        and one `loss` call over every train batch."""
        by_leaf = self._leaf_models()
        models = [by_leaf[c] for c in self.tree.leaf_of.tolist()]
        return (evaluate(models, [d.test for d in self.devices]),
                loss(models, [d.train_batch() for d in self.devices]))

    def _emit_metrics(self, r: int, drops: int, clusters: int, injected: np.ndarray) -> MetricsRow:
        """The round's metrics row, given each device's `injected` fraction:
        every mean is `np.mean`'s over the devices' values in device order."""
        accs, losses = self._device_scores()
        by_device = np.array(losses)
        for node in self.tree.active_leaves():
            # The bits of `np.mean` over the members' losses, in member order.
            members = by_device[list(node.members)]
            self.loss_history[node.cluster_id].append(float(np.add.reduce(members) / members.size))

        pop = self.population
        known = pop[KNOWN] > 0
        # Exact counts: the correctly rounded quotient, as the bool mean gives.
        lab = pop[CORRECT][known] / pop[KNOWN][known]
        objective = objective_value(dict(enumerate(losses)), self.utilities,
                                    self.config.ssl.lam)
        crossing = self.label_crossing
        latency = np.where(np.isnan(crossing), self.cumulative_time_s, crossing)
        accs = np.array(accs)
        row = MetricsRow(
            round_no=r,
            cumulative_time_s=self.cumulative_time_s,
            acc_min=float(accs.min()),
            acc_mean=float(accs.mean()),
            acc_max=float(accs.max()),
            labeling_accuracy_mean=float(lab.mean()) if lab.size else None,
            injected_fraction=float(injected.mean()),
            clusters=clusters,
            objective=float(objective),
            drops=drops,
            mean_labeling_latency_s=float(latency.mean()),
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
