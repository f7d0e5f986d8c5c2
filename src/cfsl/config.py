"""Experiment configuration: sectioned key-value files, validated with
defaults applied and echoed.

The format is INI-style text: `[section]` headers with `key = value`
lines, `#`/`;` comments. Unknown sections or keys are rejected so typos
fail loudly; every error names the offending `section.key`.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from types import SimpleNamespace

from .data import labeled_split
from .errors import ConfigError

REQUIRED = object()

BASELINES = ("cfsl", "cfl-fully-labeled", "cfl-labeled-only", "hfl-ssl", "hfl-labeled-only")
FIGURES = ("accuracy", "labeling-accuracy", "labeling-latency")


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _opt_float(s: str):
    if s.strip().lower() == "none":
        return None
    return float(s)


def _auto_int(s: str):
    if s.strip().lower() == "auto":
        return None
    return int(s)


def _choice(*options):
    def parse(s: str) -> str:
        v = s.strip()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v

    return parse


@dataclass(frozen=True)
class Field:
    parse: callable
    default: object
    check: callable = None
    message: str = ""


def _pos(v):
    return v > 0


def _nonneg(v):
    return v >= 0


SCHEMA = {
    "topology": {
        "edges": Field(int, REQUIRED, lambda v: v >= 1, "must be >= 1"),
        "devices": Field(int, REQUIRED, lambda v: v >= 1, "must be >= 1"),
        "edge_assignment": Field(_choice("blocks", "round-robin"), "blocks"),
    },
    "data": {
        "mode": Field(_choice("label-permutation", "gaussian-clusters", "csv"),
                      "label-permutation"),
        "distributions": Field(int, 2, lambda v: v >= 1, "must be >= 1"),
        "classes": Field(int, 4, lambda v: v >= 2, "must be >= 2"),
        "features": Field(int, 8, lambda v: v >= 2, "must be >= 2"),
        "samples_per_device": Field(int, 200, lambda v: v >= 2, "must be >= 2"),
        "test_samples_per_device": Field(int, 40, lambda v: v >= 1, "must be >= 1"),
        "labeled_fraction": Field(float, 0.05, lambda v: 0 < v <= 1, "must be in (0, 1]"),
        "max_classes_per_device": Field(int, 2, lambda v: v >= 1, "must be >= 1"),
        "distribution_assignment": Field(_choice("round-robin", "random"), "round-robin"),
        "separation": Field(float, 4.0, _pos, "must be > 0"),
        "noise_scale": Field(float, 1.0, _pos, "must be > 0"),
        "holdout_fraction": Field(float, 0.2, lambda v: 0 <= v < 1, "must be in [0, 1)"),
        "seed": Field(_auto_int, None),
        "csv_path": Field(str, ""),
    },
    "model": {
        "family": Field(_choice("logistic", "mlp"), "logistic"),
        "hidden": Field(int, None, _nonneg, "must be >= 0"),
        "learning_rate": Field(float, 0.01, _pos, "must be > 0"),
        "epochs": Field(int, 5, lambda v: v >= 1, "must be >= 1"),
        "batch_size": Field(int, 32, lambda v: v >= 1, "must be >= 1"),
    },
    "clustering": {
        "enabled": Field(_bool, True),
        "eps1": Field(_opt_float, None, lambda v: v is None or v > 0, "must be > 0"),
        "eps2": Field(_opt_float, None, lambda v: v is None or v > 0, "must be > 0"),
        "split_interval": Field(int, 5, lambda v: v >= 1, "must be >= 1"),
        "gamma_merge": Field(float, 0.9, lambda v: -1 < v <= 1, "must be in (-1, 1]"),
        "merge_log_only": Field(_bool, False),
        "use_weight_deltas": Field(_bool, False),
    },
    "ssl": {
        "enabled": Field(_bool, True),
        "phi": Field(float, 0.8, lambda v: 0 <= v <= 1, "must be in [0, 1]"),
        "label_interval": Field(int, 10, lambda v: v >= 1, "must be >= 1"),
        "lambda": Field(float, 1.0, _nonneg, "must be >= 0"),
        "inference_cycles_per_sample": Field(float, 20.0, _pos, "must be > 0"),
        "candidate_scope": Field(_choice("cloud", "edge"), "cloud"),
    },
    "network": {
        "bandwidth_hz": Field(float, 10e6, _pos, "must be > 0"),
        "subchannels": Field(_auto_int, None, lambda v: v is None or v >= 1,
                             "must be >= 1 or auto"),
        "ref_gain_db": Field(float, -35.0),
        "ref_distance_m": Field(float, 2.0, _pos, "must be > 0"),
        "noise_w": Field(float, 1e-6, _pos, "must be > 0"),
        "cpu_min_hz": Field(float, 1e9, _pos, "must be > 0"),
        "cpu_max_hz": Field(float, 9e9, _pos, "must be > 0"),
        "power_min_dbm": Field(float, -10.0),
        "power_max_dbm": Field(float, 20.0),
        "distance_min_m": Field(float, 2.0, _pos, "must be > 0"),
        "distance_max_m": Field(float, 50.0, _pos, "must be > 0"),
        "cloud_rate_bps": Field(float, 1e8, _pos, "must be > 0"),
        "cycles_per_sample": Field(float, 20.0, _pos, "must be > 0"),
        "deadline_policy": Field(_choice("median", "fixed"), "median"),
        "deadline_kappa": Field(float, 2.0, _pos, "must be > 0"),
        "deadline_s": Field(_opt_float, None, lambda v: v is None or v > 0, "must be > 0"),
        "fading": Field(_choice("off", "rayleigh"), "off"),
        "time_budget_s": Field(float, math.inf, _pos, "must be > 0"),
    },
    "run": {
        "rounds": Field(int, REQUIRED, _nonneg, "must be >= 0"),
        "seed": Field(int, 0),
        "out_dir": Field(str, "out"),
        "baseline": Field(_choice(*BASELINES), "cfsl"),
        "convergence_eps": Field(float, 1e-4, _pos, "must be > 0"),
        "convergence_window": Field(int, 10, lambda v: v >= 1, "must be >= 1"),
    },
}


@dataclass
class ExperimentConfig:
    topology: SimpleNamespace
    data: SimpleNamespace
    model: SimpleNamespace
    clustering: SimpleNamespace
    ssl: SimpleNamespace
    network: SimpleNamespace
    run: SimpleNamespace
    defaults_applied: list

    def resolved(self) -> dict:
        """Every effective value, for the run-header echo. run.out_dir is
        omitted so runs differing only in output location stay
        byte-identical."""
        out = {}
        for section in SCHEMA:
            ns = getattr(self, section)
            out[section] = {
                key: getattr(ns, "lam" if key == "lambda" else key)
                for key in SCHEMA[section]
                if not (section == "run" and key == "out_dir")
            }
        return out


def _cross_checks(cfg: ExperimentConfig):
    topo, data, model, net = cfg.topology, cfg.data, cfg.model, cfg.network
    if topo.devices < topo.edges:
        raise ConfigError("topology.devices", "need at least one device per edge")

    if model.family == "logistic":
        if model.hidden is None:
            model.hidden = 0
        elif model.hidden != 0:
            raise ConfigError("model.hidden", "must be 0 for the logistic family")
    else:
        if model.hidden is None:
            model.hidden = 16
        elif model.hidden < 1:
            raise ConfigError("model.hidden", "must be >= 1 for the mlp family")

    if data.mode == "csv" and not data.csv_path:
        raise ConfigError("data.csv_path", "required when data.mode = csv")
    if data.mode != "csv":
        # The cfl-fully-labeled baseline trains with every sample labeled.
        fraction = 1.0 if cfg.run.baseline == "cfl-fully-labeled" else data.labeled_fraction
        width = min(data.max_classes_per_device, data.classes)
        n_labeled, n_hold = labeled_split(
            fraction, data.samples_per_device, width, data.holdout_fraction
        )
        if n_hold >= n_labeled:
            raise ConfigError(
                "data.holdout_fraction",
                f"holds out all {n_labeled} labeled samples of each device, "
                "leaving none to train on",
            )
    if data.mode == "label-permutation" and data.distributions > 2 and data.classes < 3:
        raise ConfigError("data.distributions",
                          "label-permutation with 2 classes supports at most 2 distributions")

    if net.cpu_min_hz > net.cpu_max_hz:
        raise ConfigError("network.cpu_min_hz", "exceeds cpu_max_hz")
    if net.power_min_dbm > net.power_max_dbm:
        raise ConfigError("network.power_min_dbm", "exceeds power_max_dbm")
    if net.distance_min_m > net.distance_max_m:
        raise ConfigError("network.distance_min_m", "exceeds distance_max_m")
    if net.deadline_policy == "fixed" and net.deadline_s is None:
        raise ConfigError("network.deadline_s", "required when deadline_policy = fixed")


def parse_config(text: str) -> ExperimentConfig:
    """Validate config text, apply defaults, and record which were applied."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config", f"unparsable config: {exc}") from None

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")

    sections = {}
    defaults_applied = []
    for section, fields in SCHEMA.items():
        ns = SimpleNamespace()
        for key, field in fields.items():
            attr = "lam" if key == "lambda" else key
            present = parser.has_option(section, key)
            if not present:
                if field.default is REQUIRED:
                    raise ConfigError(f"{section}.{key}", "required key is missing")
                setattr(ns, attr, field.default)
                defaults_applied.append(f"{section}.{key}")
                continue
            raw = parser.get(section, key)
            try:
                value = field.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}", f"bad value {raw!r} ({exc})") from None
            if field.check is not None and not field.check(value):
                raise ConfigError(f"{section}.{key}", f"{field.message} (got {raw!r})")
            setattr(ns, attr, value)
        sections[section] = ns

    cfg = ExperimentConfig(defaults_applied=defaults_applied, **sections)
    _cross_checks(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file. I/O errors propagate to the caller."""
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
