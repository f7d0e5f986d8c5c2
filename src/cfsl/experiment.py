"""Experiment driver: builds a population from a config, runs it, and
writes metrics/event artifacts.

All artifacts are deterministic for a given config and seed: CSV text is
assembled in memory with fixed column order and repr() floats, JSON lines
use sorted keys, and files land via temp-file-plus-rename so readers
never see partial output. Wall-clock time is logged but kept out of
every artifact.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import time
from dataclasses import dataclass

from .config import ExperimentConfig, baseline_variant, override
from .data import csv_devices, make_task_universe, partition_devices
from .errors import ConfigError
from .network import sample_radios
from .orchestrator import Simulation, jsonable
from .seeding import sweep_seed

log = logging.getLogger(__name__)

# Frozen metrics schema. Downstream plot tooling keys on these names;
# only ever append.
METRIC_COLUMNS = (
    "baseline",
    "seed",
    "labeled_fraction",
    "phi",
    "round",
    "cumulative_time_s",
    "acc_min",
    "acc_mean",
    "acc_max",
    "labeling_accuracy_mean",
    "injected_fraction",
    "clusters",
    "objective",
    "drops",
    "mean_labeling_latency_s",
)

# Sweep axis: the config value it sets.
SWEEP_AXES = {"labeled_fraction": "data.labeled_fraction", "phi": "ssl.phi", "seed": "run.seed"}


@dataclass
class RunResult:
    baseline: str
    seed: int
    out_dir: str
    metrics_path: str
    events_path: str
    rows: list
    reason: str
    sim: Simulation


def _edge_assignment(n_devices: int, n_edges: int, scheme: str) -> list:
    if scheme == "round-robin":
        return [k % n_edges for k in range(n_devices)]
    # blocks: contiguous device ranges, remainder spread over the first edges
    base, rem = divmod(n_devices, n_edges)
    out = []
    for n in range(n_edges):
        out.extend([n] * (base + (1 if n < rem else 0)))
    return out


def build_simulation(cfg: ExperimentConfig) -> Simulation:
    """Materialize the full population of one run of the configured baseline."""
    cfg = baseline_variant(cfg)
    topo, d = cfg.topology, cfg.data
    data_seed_val = d.seed if d.seed is not None else cfg.run.seed

    if d.mode == "csv":
        devices = csv_devices(d, topo.devices, data_seed_val)
    else:
        universe = make_task_universe(d, data_seed_val)
        devices = partition_devices(universe, d, topo.devices, data_seed_val)

    edge_of = _edge_assignment(topo.devices, topo.edges, topo.edge_assignment)
    radios = sample_radios(edge_of, cfg.run.seed, cfg.network)
    return Simulation(devices, radios, cfg)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def _atomic_write(path: str, text: str):
    """Replace `path` with `text` through a temp file of this write's own in
    the same directory, so runs that share a directory never share a temp
    file. "x" creates it with the mode plain `open` gives; a failed write
    removes it and leaves the old file."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def metrics_rows(cfg: ExperimentConfig, sim: Simulation) -> list:
    """One row per round: the run's columns and every `MetricsRow` field,
    with `round_no` also as the `round` column. labeled_fraction is the
    run's effective one, 1.0 under cfl-fully-labeled."""
    run = {
        "baseline": cfg.run.baseline,
        "seed": cfg.run.seed,
        "labeled_fraction": float(sim.config.data.labeled_fraction),
        "phi": float(cfg.ssl.phi),
    }
    return [{**run, **vars(m), "round": m.round_no} for m in sim.metrics]


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run one configured experiment and write metrics.csv + events.jsonl."""
    t0 = time.monotonic()
    sim = build_simulation(cfg)
    reason = sim.run()
    rows = metrics_rows(cfg, sim)

    out_dir = cfg.run.out_dir
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    events_path = os.path.join(out_dir, "events.jsonl")

    _atomic_write(metrics_path, _csv_text(METRIC_COLUMNS, rows))

    header = {
        "type": "run_header",
        "baseline": cfg.run.baseline,
        "seed": cfg.run.seed,
        "config": jsonable(cfg.resolved()),
        "defaults_applied": sorted(cfg.defaults_applied),
    }
    lines = [json.dumps(ev, sort_keys=True, allow_nan=False) for ev in [header, *sim.events]]
    _atomic_write(events_path, "\n".join(lines) + "\n")

    log.info(
        "run %s seed=%d: %d rounds, stopped on %s, wall time %.3fs",
        cfg.run.baseline, cfg.run.seed, len(sim.metrics), reason,
        time.monotonic() - t0,
    )
    return RunResult(
        baseline=cfg.run.baseline,
        seed=cfg.run.seed,
        out_dir=out_dir,
        metrics_path=metrics_path,
        events_path=events_path,
        rows=rows,
        reason=reason,
        sim=sim,
    )


def _parse_axis_value(axis: str, raw):
    try:
        if axis == "seed":
            value = int(str(raw))
        else:
            value = float(str(raw))
    except ValueError:
        raise ConfigError("sweep.values", f"bad value {raw!r} for axis {axis}") from None
    return value


def sweep(cfg: ExperimentConfig, axis: str, values) -> dict:
    """Run one experiment per axis value under value-named subdirectories.

    Each run gets a seed derived from the base seed and "axis=value" (for
    the seed axis, the value itself), so runs stay decorrelated without
    hiding the derivation. Every value is checked like a file value,
    and a value that parses to one already given is rejected, before the
    first run starts. A failing run is recorded and the sweep
    continues; completed runs are concatenated into sweep_metrics.csv
    with an explicit axis column.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("sweep.axis", f"must be one of {', '.join(SWEEP_AXES)}")
    values = list(values)
    if not values:
        raise ConfigError("sweep.values", "need at least one value")

    base_out = cfg.run.out_dir
    runs = []
    for raw in values:
        value = _parse_axis_value(axis, raw)
        token = str(value)
        if any(token == t for t, _ in runs):
            raise ConfigError("sweep.values", f"{raw!r} repeats {axis}={token}")
        # On the seed axis both entries set run.seed, to the same value.
        runs.append((token, override(cfg, {
            SWEEP_AXES[axis]: value,
            "run.seed": sweep_seed(cfg.run.seed, axis, value),
            "run.out_dir": os.path.join(base_out, f"{axis}={token}"),
        })))

    combined = []
    completed = []
    failed = {}
    for token, sub in runs:
        try:
            result = run_experiment(sub)
        except Exception as exc:  # keep sweeping; report at the end
            log.error("sweep %s=%s failed: %s", axis, token, exc)
            failed[token] = f"{type(exc).__name__}: {exc}"
            continue
        completed.append(token)
        combined.extend({"axis": f"{axis}={token}", **row} for row in result.rows)

    os.makedirs(base_out, exist_ok=True)
    combined_path = os.path.join(base_out, "sweep_metrics.csv")
    _atomic_write(combined_path, _csv_text(("axis",) + METRIC_COLUMNS, combined))
    summary = {
        "axis": axis,
        "completed": completed,
        "failed": failed,
        "combined_path": combined_path,
    }
    _atomic_write(
        os.path.join(base_out, "sweep_summary.json"),
        json.dumps({k: summary[k] for k in ("axis", "completed", "failed")},
                   sort_keys=True, indent=2) + "\n",
    )
    return summary


# Plot figure: (grouping columns, averaged value columns).
FIGURES = {
    "accuracy": (("baseline", "labeled_fraction"), ("acc_min", "acc_mean", "acc_max")),
    "labeling-accuracy": (("baseline", "labeled_fraction", "phi"), ("labeling_accuracy_mean",)),
    "labeling-latency": (("baseline", "labeled_fraction", "phi"), ("mean_labeling_latency_s",)),
}


def _final_rows(metrics_path: str) -> list:
    with open(metrics_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        names = reader.fieldnames or []
        missing = [c for c in METRIC_COLUMNS if c not in names]
        if missing:
            raise ValueError(f"{metrics_path}: missing columns {', '.join(missing)}")
        rows = list(reader)
    final = {}
    for row in rows:
        key = (row["baseline"], row["seed"], row["labeled_fraction"], row["phi"])
        if key not in final or int(row["round"]) > int(final[key]["round"]):
            final[key] = row
    return list(final.values())


def _mean_of(rows, column):
    values = [float(r[column]) for r in rows if r[column] != ""]
    if not values:
        return None, 0
    return sum(values) / len(values), len(values)


def emit_plot_data(metrics_path: str, figure: str, out_path: str | None = None):
    """Reduce a metrics file to one plot-ready table.

    Uses each run's final round, then averages across runs sharing the
    grouping key (baseline and labeled fraction, plus phi for the
    labeling figures). n_runs counts the runs that contributed a value.
    Returns (path, rows).
    """
    if figure not in FIGURES:
        raise ConfigError("plot.figure", f"must be one of {', '.join(FIGURES)}")
    group_keys, value_cols = FIGURES[figure]
    finals = _final_rows(metrics_path)

    groups = {}
    for row in finals:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)

    out_rows = []
    for key in sorted(groups, key=lambda k: (k[0],) + tuple(float(x) for x in k[1:])):
        members = groups[key]
        row = dict(zip(group_keys, key))
        n_runs = len(members)
        for col in value_cols:
            mean, n_with = _mean_of(members, col)
            row[col] = mean
            n_runs = min(n_runs, n_with) if mean is not None else 0
        row["n_runs"] = n_runs
        out_rows.append(row)

    if out_path is None:
        stem = figure.replace("-", "_") + ".csv"
        out_path = os.path.join(os.path.dirname(metrics_path) or ".", stem)
    _atomic_write(out_path, _csv_text(group_keys + value_cols + ("n_runs",), out_rows))
    return out_path, out_rows
