"""Command line entry points: run, sweep, and plot.

Exit codes: 0 on success, 1 for configuration/usage errors, 2 for I/O
errors. Usage mistakes count as configuration errors so scripted callers
can tell a bad flag from a missing file.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import BASELINES, load_config, override
from .errors import ConfigError
from .experiment import FIGURES, SWEEP_AXES, emit_plot_data, run_experiment, sweep


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError("cli", message)


def _add_overrides(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.seed from the config")
    parser.add_argument("--out-dir", default=None,
                        help="override run.out_dir from the config")
    parser.add_argument("--baseline", choices=BASELINES, default=None,
                        help="override run.baseline from the config")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cfsl",
        description="Simulate clustered federated learning with device "
                    "self-labeling over a modeled wireless edge network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("config", help="path to the experiment config")
    _add_overrides(run_p)

    sweep_p = sub.add_parser("sweep", help="run one experiment per axis value")
    sweep_p.add_argument("config", help="path to the experiment config")
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 0.02,0.05,0.1")
    _add_overrides(sweep_p)

    plot_p = sub.add_parser("plot", help="reduce a metrics file to a plot table")
    plot_p.add_argument("metrics", help="path to a metrics.csv")
    plot_p.add_argument("--figure", required=True, choices=sorted(FIGURES))
    plot_p.add_argument("--out", default=None, help="output CSV path")

    return parser


def _apply_overrides(cfg, args):
    given = {"run.seed": args.seed, "run.out_dir": args.out_dir, "run.baseline": args.baseline}
    return override(cfg, {key: value for key, value in given.items() if value is not None})


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)

        if args.command == "plot":
            path, rows = emit_plot_data(args.metrics, args.figure, args.out)
            print(f"wrote {path} ({len(rows)} rows)")
            return 0

        cfg = _apply_overrides(load_config(args.config), args)

        if args.command == "run":
            result = run_experiment(cfg)
            print(
                f"{result.baseline} seed={result.seed}: "
                f"{len(result.rows)} rounds, stopped on {result.reason}"
            )
            print(f"metrics: {result.metrics_path}")
            print(f"events:  {result.events_path}")
            return 0

        values = [v for v in (t.strip() for t in args.values.split(",")) if v]
        summary = sweep(cfg, args.axis, values)
        print(
            f"sweep over {summary['axis']}: {len(summary['completed'])} completed, "
            f"{len(summary['failed'])} failed"
        )
        for token, err in summary["failed"].items():
            print(f"  {summary['axis']}={token}: {err}", file=sys.stderr)
        print(f"combined metrics: {summary['combined_path']}")
        return 0 if summary["completed"] else 1

    except OSError as exc:
        print(f"cfsl: i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cfsl: config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
