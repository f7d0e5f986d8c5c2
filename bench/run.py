"""cfsl benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload fedavg-128 --seed 0 --seconds 20 --trace 0

Runs the workload in a fresh single-threaded child process (bench/worker.py,
with the checkout's src/ on PYTHONPATH), checks every experiment's artifacts,
prints the metrics with their units and time axes, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The exit code is 0 only
when every experiment passed the correctness gate. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from gate import load_json, write_json  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
RECORDED = os.path.join(BENCH, "digests.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; 101 is held out, see README.md)")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's artifact digests in bench/digests.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cfsl", "__init__.py")):
        print(f"bench: no cfsl sources under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {CHILD_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 1
    # ru_maxrss is in KiB on Linux; run.py has started no other child.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])

    metrics = {}
    table = PER_LAYER if args.trace else END_TO_END
    for name in table:
        if name == "peak_rss_mb" and raw["metrics"]:
            metrics[name] = peak_rss_mb
        elif name in raw["metrics"]:
            metrics[name] = raw["metrics"][name]
    correct = raw["failed"] == 0 and bool(metrics)

    wl = WORKLOADS[args.workload]
    info = raw["info"]
    print(f"cfsl benchmark: workload {wl.name}, seed {args.seed}, run seeds "
          f"{raw['run_seeds']}, {args.seconds}s, trace {args.trace}")
    print(f"environment: python {raw['python']}, numpy {raw['numpy']}, nproc {raw['nproc']}, "
          "single-threaded BLAS")
    if info:
        print("samples: " + ", ".join(f"{k} {v}" for k, v in sorted(info.items())))
    for problem in raw["problems"]:
        print(f"gate: FAILED {problem}")
    print(f"gate: {raw['attempted']} experiments attempted, {raw['failed']} failed")

    digests = [raw["digests"][str(s)] for s in raw["run_seeds"]]
    recorded = load_json(RECORDED, {})
    expected = recorded.get(wl.name, {}).get(str(args.seed))
    if expected is None:
        verdict = "unrecorded for this seed"
    elif expected == digests:
        verdict = "match bench/digests.json (simulated results unchanged)"
    else:
        verdict = "DIFFER from bench/digests.json (simulated results changed)"
    print(f"digests: {verdict}")
    if args.record_digests and correct:
        recorded.setdefault(wl.name, {})[str(args.seed)] = digests
        write_json(RECORDED, recorded)

    for name, value in metrics.items():
        axis = END_TO_END[name][2] if name in END_TO_END else ""
        raw_value = raw["raw"].get(name)
        raw_text = f"(raw {raw_value:.6g})" if raw_value is not None else ""
        print(f"  {name:36s} {value:>16.6g} {table[name][0]:8s} {axis:9s} {raw_text}")

    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
