"""Runs one benchmark workload in this process and prints its raw results as
one JSON line. run.py starts it in a fresh, single-threaded process with the
checkout's src/ on PYTHONPATH; run it through run.py, not directly.

Untimed mode (--trace 0) first builds the simulation SETUP_ONLY times, then
runs every replica once and keeps cycling through them while another
experiment fits in --seconds. Only the three probes in tracing.PROBES are
installed: one span per build, per run and per round. Traced mode (--trace 1)
runs replica 0 once with the probes only, as the baseline for the tracing
overhead, then every replica once more and replica 0 a second time with
every layer traced; the two traced runs of replica 0 must give identical
counts.

Host times are reported scaled to the reference speed (see reference.py)
and also raw.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from functools import wraps

from gate import check_artifacts, code_digest, load_json, write_json
from metrics import PER_LAYER
from reference import REFERENCE_S, kernel_seconds
from tracing import LAYERS, PROBES, Tracer
from workloads import WORKLOADS

SETUP_ONLY = 5
KERNEL_BEFORE_BUILD = 3


def nearest_rank(values, pct):
    """(value at the pct-th percentile by nearest rank, samples beyond it)."""
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


class Runner:
    def __init__(self, workload, seed: int, root: str):
        import cfsl.config
        import cfsl.experiment
        import cfsl.orchestrator

        # Look the entry points up on their modules at each call, so that
        # the tracer's rebinding takes effect.
        self.config = cfsl.config
        self.experiment = cfsl.experiment
        self.wl = workload
        self.seeds = [seed * workload.replicas + i for i in range(workload.replicas)]
        self.out_root = os.path.join(root, ".bench_out", workload.name)
        self.tracer = Tracer()
        self.tracer.install(PROBES)
        self.kernel = []  # reference kernel seconds during the current experiment
        simulation = cfsl.orchestrator.Simulation
        timed_round = simulation.run_round

        # Outside the round's span, so rounds are timed without the kernel.
        @wraps(timed_round)
        def run_round(sim):
            self.kernel.append(kernel_seconds())
            return timed_round(sim)

        simulation.run_round = run_round
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # Digests seen earlier for the same code and seed, in this run or a
        # previous one in this checkout; any difference fails the gate.
        self.code = code_digest([os.path.join(root, "src"), os.path.join(root, "bench")])
        self.seen_path = os.path.join(root, ".bench_out", "digests-seen.json")
        seen = load_json(self.seen_path, {})
        self.seen = seen.get(self.code, {}).get(workload.name, {})

    def out_dir(self, i: int) -> str:
        return os.path.join(self.out_root, f"replica{i}")

    def config_text(self, i: int) -> str:
        return self.wl.config.format(seed=self.seeds[i], out_dir=self.out_dir(i))

    def setup_only(self, i: int):
        """(raw seconds, scale) of one parse_config + build_simulation."""
        kernel = [kernel_seconds() for _ in range(KERNEL_BEFORE_BUILD)]
        t0 = time.perf_counter()
        self.experiment.build_simulation(self.config.parse_config(self.config_text(i)))
        return time.perf_counter() - t0, REFERENCE_S / statistics.median(kernel)

    def experiment_once(self, i: int):
        """One run_experiment of replica i: its record, or None when it fails
        the gate."""
        self.attempted += 1
        tracer = self.tracer
        tracer.reset()
        # Write into an empty directory, as a first run does. Renaming over a
        # file left by an earlier experiment makes ext4 start writing it to
        # disk, which put the shared disk's pace into write_s.
        shutil.rmtree(self.out_dir(i), ignore_errors=True)
        self.kernel = [kernel_seconds() for _ in range(KERNEL_BEFORE_BUILD)]
        t0 = time.perf_counter()
        try:
            cfg = self.config.parse_config(self.config_text(i))
            t1 = time.perf_counter()
            result = self.experiment.run_experiment(cfg)
            t2 = time.perf_counter()
            summary, problems = check_artifacts(
                result.metrics_path, result.events_path, result.sim.round_no, result.reason
            )
        except Exception:  # a raising run is a failed run; keep measuring the rest
            self.failed += 1
            self.problems.append(f"seed {self.seeds[i]}: raised\n{traceback.format_exc()}")
            return None
        key = str(self.seeds[i])
        first = self.seen.setdefault(key, summary["digests"])
        if summary["digests"] != first:
            problems.append("artifact digests differ from an earlier run of the same "
                            "code and seed")
        if problems:
            self.failed += 1
            self.problems.extend(f"seed {key}: {p}" for p in problems)
            return None
        build_s = sum(tracer.durations("experiment.build_simulation"))
        run_span = sum(tracer.durations("orchestrator.run"))
        return {
            "replica": i,
            "scale": REFERENCE_S / statistics.median(self.kernel),
            "setup_s": (t1 - t0) + build_s,
            "run_s": run_span - sum(self.kernel[KERNEL_BEFORE_BUILD:]),
            "write_s": (t2 - t1) - build_s - run_span,
            "rounds": tracer.durations("orchestrator.run_round"),
            "layers": tracer.layers(),
            "counts": dict(tracer.counts),
            **summary,
        }

    def save_seen(self):
        seen = load_json(self.seen_path, {})
        seen = {self.code: seen.get(self.code, {})}  # forget other code versions
        seen[self.code][self.wl.name] = self.seen
        write_json(self.seen_path, seen)

    def timed(self, seconds: int) -> dict:
        k = len(self.seeds)
        setups = [self.setup_only(j % k) for j in range(SETUP_ONLY)]
        records = []
        start = time.perf_counter()
        j = 0
        # Every replica once, then more only while another experiment of
        # average length still fits in the time box.
        while j < k or (time.perf_counter() - start) * (j + 1) / j <= seconds:
            rec = self.experiment_once(j % k)
            j += 1
            if rec is not None:
                records.append(rec)
        firsts = {}
        for rec in records:
            firsts.setdefault(rec["replica"], rec)
        if len(firsts) < k:
            return {"metrics": {}, "raw": {}, "info": {}}

        def host(scaled):
            # scaled=False gives the raw seconds, True the reference-speed ones.
            def s(rec, value):
                return value * rec["scale"] if scaled else value

            rounds = [s(r, d) for r in records for d in r["rounds"]]
            tail, beyond = nearest_rank(rounds, self.wl.tail_pct)
            setup = [raw * scale if scaled else raw for raw, scale in setups]
            return {
                "updates_per_s": statistics.median(
                    r["updates"] / s(r, r["run_s"]) for r in records),
                "round_s_p50": statistics.median(rounds),
                "round_s_tail": tail,
                "setup_s": statistics.median(setup + [s(r, r["setup_s"]) for r in records]),
                "write_s": statistics.median(s(r, r["write_s"]) for r in records),
            }, len(rounds), beyond

        metrics, n_rounds, beyond = host(scaled=True)
        per_replica = [firsts[i] for i in range(k)]
        metrics.update({
            "sim_time_s": statistics.fmean(r["sim_time_s"] for r in per_replica),
            "acc_mean_final": statistics.fmean(r["acc_mean_final"] for r in per_replica),
            "injected_fraction_final": statistics.fmean(
                r["injected_fraction_final"] for r in per_replica),
        })
        info = {
            "experiments": len(records),
            "rounds_timed": n_rounds,
            "tail_pct": self.wl.tail_pct,
            "rounds_beyond_tail": beyond,
            "setup_samples": len(setups) + len(records),
            "scale_to_reference": statistics.median(r["scale"] for r in records),
        }
        return {"metrics": metrics, "raw": host(scaled=False)[0], "info": info}

    def traced(self, out_path: str) -> dict:
        k = len(self.seeds)
        baseline = self.experiment_once(0)
        self.tracer.install(LAYERS)
        records, exports = [], []
        for i in list(range(k)) + [0]:
            rec = self.experiment_once(i)
            exports.append({"run_seed": self.seeds[i], **self.tracer.export()})
            records.append(rec)
        write_json(out_path, {"workload": self.wl.name, "experiments": exports})
        if baseline is None or any(r is None for r in records):
            return {"metrics": {}, "raw": {}, "info": {}}
        first, again = records[0], records[-1]
        if _counts(first) != _counts(again):
            self.failed += 1
            self.problems.append("per-layer counts differ between two traced runs of "
                                 f"seed {self.seeds[0]}")
            return {"metrics": {}, "raw": {}, "info": {}}

        calls, secs, counts = Counter(), Counter(), Counter()
        for rec in records[:k]:
            for name, layer in rec["layers"].items():
                calls[name] += layer["calls"]
                secs[name] += layer["s"] * rec["scale"]
                secs[f"{name}.self"] += layer["self_s"] * rec["scale"]
            for key, value in rec["counts"].items():
                if key.endswith("_max"):
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
            counts["experiment.events_bytes"] += rec["events_bytes"]
            counts["experiment.metrics_bytes"] += rec["metrics_bytes"]

        metrics = {}
        for name in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                metrics[name] = calls[layer]
            elif field == "s":
                metrics[name] = secs[layer]
            elif field == "self_s":
                metrics[name] = secs[f"{layer}.self"]
            else:
                metrics[name] = counts[name]
        base_ups = baseline["updates"] / (baseline["run_s"] * baseline["scale"])
        traced_ups = first["updates"] / (first["run_s"] * first["scale"])
        metrics.update({
            "clustering.split_ratio": ratio(calls["clustering.tree.split"],
                                            calls["clustering.check_split_conditions"]),
            "labeling.accept_ratio": ratio(counts["labeling.accepted"],
                                           counts["labeling.pseudo_label.rows"]),
            "labeling.correct_ratio": ratio(counts["labeling.injected_correct"],
                                            counts["labeling.injected_known"]),
            "network.drop_ratio": ratio(counts["network.dropped"], counts["network.selected"]),
            "trace.updates_per_s": traced_ups,
            "trace.overhead_updates_per_s": base_ups - traced_ups,
            "trace.overhead_share": 1.0 - traced_ups / base_ups,
        })
        info = {"experiments": self.attempted, "spans_file": os.path.relpath(out_path)}
        return {"metrics": metrics, "raw": {}, "info": info}


def _counts(rec) -> dict:
    """Everything in a traced record that must repeat exactly."""
    return {
        "calls": {name: layer["calls"] for name, layer in rec["layers"].items()},
        "counts": rec["counts"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)

    # The simulator warns on expected events (single-member split candidates,
    # clusters with no update); keep the benchmark's stderr for failures.
    logging.disable(logging.WARNING)
    import numpy

    runner = Runner(WORKLOADS[args.workload], args.seed, args.root)
    if args.trace:
        out = runner.traced(os.path.join(runner.out_root, "trace.json"))
    else:
        out = runner.timed(args.seconds)
    runner.save_seen()
    out.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "run_seeds": runner.seeds,
        "digests": {s: runner.seen.get(str(s)) for s in runner.seeds},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
