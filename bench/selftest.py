"""Self-test of the benchmark itself: python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the workloads and metrics the
benchmark reports, that the correctness gate rejects broken artifacts, and
that two traced runs of fedavg-128 give identical per-layer counts, and that
the layer each workload exists for is its largest cost. Takes about two
minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from gate import check_artifacts  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = """
[topology]
edges = 2
devices = 4
[run]
rounds = 3
out_dir = {out_dir}
"""


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match bench/workloads.py")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
          == {k: v[:2] for k, v in END_TO_END.items()},
          "BENCHMARK.json end_to_end matches bench/metrics.py")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json per_layer matches bench/metrics.py")


def _rewrite(path, transform):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(transform(text))


def gate_rejects_broken_artifacts():
    import logging

    from cfsl import parse_config, run_experiment

    logging.disable(logging.WARNING)
    out_dir = os.path.join(ROOT, ".bench_out", "selftest")
    result = run_experiment(parse_config(TINY.format(out_dir=out_dir)))
    args = (result.sim.round_no, result.reason)
    _, problems = check_artifacts(result.metrics_path, result.events_path, *args)
    check(problems == [], "gate passes a clean experiment")

    cases = {
        "NaN in events.jsonl": (result.events_path,
                                lambda t: t + '{"type": "x", "value": NaN}\n'),
        "Infinity in events.jsonl": (result.events_path,
                                     lambda t: t.replace('"round": 1,', '"round": Infinity,', 1)),
        "a missing metrics.csv row": (result.metrics_path,
                                      lambda t: "".join(t.splitlines(True)[:-1])),
        "a missing termination event": (result.events_path,
                                        lambda t: "".join(t.splitlines(True)[:-1])),
    }
    for name, (path, transform) in cases.items():
        backup = path + ".orig"
        shutil.copyfile(path, backup)
        _rewrite(path, transform)
        _, problems = check_artifacts(result.metrics_path, result.events_path, *args)
        os.replace(backup, path)
        check(problems != [], f"gate rejects {name}")


def traced(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    check(proc.returncode == 0, f"traced {workload} run exits 0")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    check(set(metrics) == set(PER_LAYER), f"traced {workload} run reports every per-layer metric")
    return {name: m["value"] for name, m in metrics.items()}


def traced_runs_repeat():
    first, second = traced("fedavg-128"), traced("fedavg-128")
    exact = [n for n, (unit, _) in PER_LAYER.items()
             if unit not in ("s", "1/s") and not n.startswith("trace.")]
    differing = [n for n in exact if first[n] != second[n]]
    check(differing == [], "two traced fedavg-128 runs give identical counts")
    check(largest_layer(first) == "models.sgd_train.s",
          "models.sgd_train.s is the largest layer cost on fedavg-128")
    check(all(first[n] == 0 for n in PER_LAYER if n.startswith("labeling.")),
          "labeling.* is zero on fedavg-128")
    check(first["clustering.bipartition.s"] == 0, "clustering.bipartition.s is zero on fedavg-128")


def largest_layer(metrics) -> str:
    """The `.s` metric with the most inclusive time, leaving out the
    orchestrator spans that contain every other layer."""
    layer_s = {n: v for n, v in metrics.items()
               if n.endswith(".s") and not n.startswith("orchestrator.")}
    return max(layer_s, key=layer_s.get)


def split_is_bipartition_bound():
    check(largest_layer(traced("split-512")) == "clustering.bipartition.s",
          "clustering.bipartition.s is the largest layer cost on split-512")


if __name__ == "__main__":
    benchmark_json()
    gate_rejects_broken_artifacts()
    traced_runs_repeat()
    split_is_bipartition_bound()
    print("selftest passed")
