"""Correctness gate for one experiment's artifacts, and the digest records
that show whether simulated results changed.

An experiment fails the gate when run_experiment raises (the worker catches
that), when events.jsonl is not strict JSON (NaN and Infinity are rejected),
when metrics.csv has a row count other than the rounds run, when the
termination event is missing, when a reported value is out of range, or when
its artifact digests differ from another run of the same code and seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def check_artifacts(metrics_path: str, events_path: str, rounds_run: int, reason: str):
    """(summary, problems) for one finished experiment.

    The summary holds the artifact digests and the simulated statistics the
    benchmark reports, all read back from the files themselves.
    """
    problems = []
    with open(metrics_path, "rb") as fh:
        metrics_raw = fh.read()
    with open(events_path, "rb") as fh:
        events_raw = fh.read()

    events = []
    for line_no, line in enumerate(events_raw.decode("utf-8").splitlines(), start=1):
        try:
            event = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"events.jsonl line {line_no}: not strict JSON ({exc})")
            continue
        if not isinstance(event, dict):
            problems.append(f"events.jsonl line {line_no}: not an object")
            continue
        events.append(event)

    rows = list(csv.DictReader(io.StringIO(metrics_raw.decode("utf-8"))))
    if len(rows) != rounds_run:
        problems.append(f"metrics.csv has {len(rows)} rows for {rounds_run} rounds")
    if [r.get("round") for r in rows] != [str(k) for k in range(1, len(rows) + 1)]:
        problems.append("metrics.csv rounds are not 1..n in order")

    terminations = [e for e in events if e.get("type") == "termination"]
    if len(terminations) != 1:
        problems.append(f"events.jsonl has {len(terminations)} termination events")
    elif terminations[0].get("reason") != reason or terminations[0].get("round") != rounds_run:
        problems.append("termination event disagrees with the run's result")

    previous_time = 0.0
    for r in rows:
        try:
            t = float(r["cumulative_time_s"])
            fractions = [float(r[c]) for c in ("acc_min", "acc_mean", "acc_max",
                                                "injected_fraction")]
        except (KeyError, ValueError) as exc:
            problems.append(f"metrics.csv round {r.get('round')}: unreadable value ({exc})")
            break
        if not math.isfinite(t) or t < previous_time:
            problems.append(f"metrics.csv round {r['round']}: cumulative_time_s {t} "
                            "is not finite and nondecreasing")
            break
        if not all(0.0 <= v <= 1.0 for v in fractions):
            problems.append(f"metrics.csv round {r['round']}: a fraction is outside [0, 1]")
            break
        previous_time = t

    summary = {
        "digests": {
            "metrics.csv": hashlib.sha256(metrics_raw).hexdigest(),
            "events.jsonl": hashlib.sha256(events_raw).hexdigest(),
        },
        "metrics_bytes": len(metrics_raw),
        "events_bytes": len(events_raw),
        "updates": sum(
            len(e["contributors"]) for e in events
            if e.get("type") == "aggregate" and e.get("scope") in ("edge", "cluster")
        ),
    }
    if rows and not problems:
        last = rows[-1]
        summary["sim_time_s"] = float(last["cumulative_time_s"])
        summary["acc_mean_final"] = float(last["acc_mean"])
        summary["injected_fraction_final"] = float(last["injected_fraction"])
    return summary, problems


def code_digest(paths) -> str:
    """sha256 over the content of every .py file under the given paths,
    visited in sorted order: two runs with equal digests ran the same code."""
    h = hashlib.sha256()
    for top in paths:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, top).encode("utf-8") + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def load_json(path: str, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def write_json(path: str, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
