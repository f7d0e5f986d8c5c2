"""Spans around the public functions of each cfsl module, recorded from the
benchmark's side by rebinding those names; nothing under src/ changes.

A span is (name, start, end, parent): the parent is the span that was open
when the call began, so a layer's self time is its inclusive time minus the
inclusive time of its direct children. Calls with no traced children that
run per device per round (gradient steps, evaluations, cluster lookups) are
aggregated per (name, parent name) instead of kept one span per call; that
keeps memory flat and still gives exact counts and self times.

Spans stay in memory for one experiment; the worker collects them and
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, aggregated). Dotted attributes are methods.
PROBES = (
    ("cfsl.experiment", "build_simulation", "experiment.build_simulation", False),
    ("cfsl.orchestrator", "Simulation.run", "orchestrator.run", False),
    ("cfsl.orchestrator", "Simulation.run_round", "orchestrator.run_round", False),
)

LAYERS = PROBES + (
    ("cfsl.config", "parse_config", "config.parse_config", False),
    ("cfsl.experiment", "run_experiment", "experiment.run_experiment", False),
    ("cfsl.data", "make_task_universe", "data.make_task_universe", False),
    ("cfsl.data", "partition_devices", "data.partition_devices", False),
    ("cfsl.data", "DeviceDataset.train_batch", "data.train_batch", True),
    ("cfsl.data", "DeviceDataset.pending_features", "data.pending_features", True),
    ("cfsl.models", "sgd_train", "models.sgd_train", False),
    ("cfsl.models", "gradient", "models.gradient", True),
    ("cfsl.models", "evaluate", "models.evaluate", True),
    ("cfsl.models", "loss", "models.loss", True),
    ("cfsl.models", "confidences", "models.confidences", True),
    ("cfsl.network", "sample_radios", "network.sample_radios", False),
    ("cfsl.network", "schedule_round", "network.schedule_round", False),
    ("cfsl.clustering", "similarity_matrix", "clustering.similarity_matrix", False),
    ("cfsl.clustering", "check_split_conditions", "clustering.check_split_conditions", False),
    ("cfsl.clustering", "bipartition", "clustering.bipartition", False),
    ("cfsl.clustering", "ClusterTree.split", "clustering.tree.split", False),
    ("cfsl.clustering", "ClusterTree.cluster_of", "clustering.tree.cluster_of", True),
    ("cfsl.clustering", "ClusterTree.specialized", "clustering.tree.specialized", True),
    ("cfsl.clustering", "ClusterTree.snapshot", "clustering.tree.snapshot", False),
    ("cfsl.labeling", "select_best_model", "labeling.select_best_model", False),
    ("cfsl.labeling", "utility", "labeling.utility", False),
    ("cfsl.labeling", "pseudo_label", "labeling.pseudo_label", False),
    ("cfsl.labeling", "inject", "labeling.inject", False),
    ("cfsl.orchestrator", "edge_aggregate", "orchestrator.edge_aggregate", True),
)


def _rows(features) -> int:
    return int(features.shape[0])


def _count_train_batch(counts, args, kwargs, result):
    counts["data.train_batch.rows"] += len(result)


def _count_confidences(counts, args, kwargs, result):
    counts["models.confidences.rows"] += _rows(args[1])


def _count_bipartition(counts, args, kwargs, result):
    key = "clustering.bipartition.members_max"
    counts[key] = max(counts[key], len(args[0].ids))


def _count_pseudo_label(counts, args, kwargs, result):
    counts["labeling.pseudo_label.rows"] += _rows(args[1])
    counts["labeling.accepted"] += len(result)


def _count_inject(counts, args, kwargs, result):
    device, batch = args[0], args[1]
    truth = device.hidden_truth[batch.indices]
    known = truth >= 0
    counts["labeling.injected_known"] += int(known.sum())
    counts["labeling.injected_correct"] += int((batch.labels[known] == truth[known]).sum())


def _count_schedule(counts, args, kwargs, result):
    counts["network.selected"] += len(result.selected)
    counts["network.dropped"] += len(result.dropped)


COUNTERS = {
    "data.train_batch": _count_train_batch,
    "models.confidences": _count_confidences,
    "clustering.bipartition": _count_bipartition,
    "labeling.pseudo_label": _count_pseudo_label,
    "labeling.inject": _count_inject,
    "network.schedule_round": _count_schedule,
}


class Tracer:
    """Span recorder for one process. `install` rebinds functions in every
    loaded cfsl module; `reset` starts a new experiment's record."""

    def __init__(self):
        self.installed = set()
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # indices of open spans
        self.aggregated = defaultdict(lambda: [0, 0.0])  # (name, parent name) -> [calls, s]
        self.counts = Counter()

    def install(self, table):
        """Wrap every entry of `table` that is not wrapped yet."""
        for module_name, attr, name, aggregated in table:
            if name in self.installed:
                continue
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, aggregated))
            else:
                original = getattr(module, attr)
                wrapped = self._wrap(original, name, aggregated)
                # `from .x import f` copies the name into other modules.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "cfsl" or mod_name.startswith("cfsl."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
            self.installed.add(name)

    def _wrap(self, fn, name, aggregated):
        counter = COUNTERS.get(name)
        tracer = self
        clock = time.perf_counter

        if aggregated:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = tracer.stack
                parent = tracer.spans[stack[-1]][0] if stack else None
                t0 = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - t0
                slot = tracer.aggregated[(name, parent)]
                slot[0] += 1
                slot[1] += elapsed
                if counter is not None:
                    counter(tracer.counts, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                spans, stack = tracer.spans, tracer.stack
                span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if counter is not None:
                    counter(tracer.counts, args, kwargs, result)
                return result

        return traced

    def durations(self, name) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def layers(self) -> dict:
        """{name: {"calls", "s", "self_s"}} for the current experiment:
        inclusive seconds, and self seconds after removing direct children."""
        calls, incl, child = Counter(), defaultdict(float), defaultdict(float)
        for name, t0, t1, parent in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            if parent >= 0:
                child[self.spans[parent][0]] += t1 - t0
        for (name, parent), (n, s) in self.aggregated.items():
            calls[name] += n
            incl[name] += s
            if parent is not None:
                child[parent] += s
        return {
            name: {"calls": calls[name], "s": incl[name], "self_s": incl[name] - child[name]}
            for name in calls
        }

    def export(self) -> dict:
        """The current experiment's record in a JSON-ready form, times
        relative to its first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [[n, t0 - origin, t1 - origin, p] for n, t0, t1, p in self.spans],
            "aggregated": [[n, p, c, s] for (n, p), (c, s) in sorted(
                self.aggregated.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "counts": dict(self.counts),
        }
