"""Experiment configuration: sectioned key-value files, validated with
defaults applied and echoed.

The format is INI-style text: `[section]` headers with `key = value`
lines, `#`/`;` comments. Unknown sections or keys are rejected so typos
fail loudly; every error names the offending `section.key`.

Each section is one frozen dataclass whose field metadata holds the
parser of the key's text and the check every value must pass, so the
schema, the defaults and the typed object come from one declaration. A
section runs its checks, choice keys' options included, whenever it is
built: from a file, by `override`, by `dataclasses.replace` or in code.
"""

from __future__ import annotations

import configparser
import math
from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields, replace

from .data import labeled_split
from .errors import ConfigError

REQUIRED = MISSING

BASELINES = ("cfsl", "cfl-fully-labeled", "cfl-labeled-only", "hfl-ssl", "hfl-labeled-only")


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


def _key(parse, default=REQUIRED, check=None, message="", name=None):
    """A config key: the parser of its text, its default (REQUIRED: none),
    the check every value must pass and, when it differs from the
    attribute's, its name in the file."""
    return field(default=default,
                 metadata={"parse": parse, "check": check, "message": message, "key": name})


def _choice(*options):
    """A key that takes one of `options`; the first is the default."""
    return _key(str.strip, options[0], lambda v: v in options,
                f"must be one of {', '.join(options)}")


def ini_key(f) -> str:
    """The name a section field has in the file."""
    return f.metadata["key"] or f.name


def _pos(v):
    return v > 0


def _nonneg(v):
    return v >= 0


class _Section:
    """Base of the config sections; `section` is the INI header."""

    section = ""

    def __post_init__(self):
        for f in fields(self):
            check, value = f.metadata["check"], getattr(self, f.name)
            if check is not None and not check(value):
                raise ConfigError(f"{self.section}.{ini_key(f)}",
                                  f"{f.metadata['message']} (got {value!r})")


@dataclass(frozen=True)
class TopologyConfig(_Section):
    section = "topology"
    edges: int = _key(int, REQUIRED, lambda v: v >= 1, "must be >= 1")
    devices: int = _key(int, REQUIRED, lambda v: v >= 1, "must be >= 1")
    edge_assignment: str = _choice("blocks", "round-robin")


@dataclass(frozen=True)
class DataConfig(_Section):
    section = "data"
    mode: str = _choice("label-permutation", "gaussian-clusters", "csv")
    distributions: int = _key(int, 2, lambda v: v >= 1, "must be >= 1")
    classes: int = _key(int, 4, lambda v: v >= 2, "must be >= 2")
    features: int = _key(int, 8, lambda v: v >= 2, "must be >= 2")
    samples_per_device: int = _key(int, 200, lambda v: v >= 2, "must be >= 2")
    test_samples_per_device: int = _key(int, 40, lambda v: v >= 1, "must be >= 1")
    labeled_fraction: float = _key(float, 0.05, lambda v: 0 < v <= 1, "must be in (0, 1]")
    max_classes_per_device: int = _key(int, 2, lambda v: v >= 1, "must be >= 1")
    distribution_assignment: str = _choice("round-robin", "random")
    separation: float = _key(float, 4.0, _pos, "must be > 0")
    noise_scale: float = _key(float, 1.0, _pos, "must be > 0")
    holdout_fraction: float = _key(float, 0.2, lambda v: 0 <= v < 1, "must be in [0, 1)")
    seed: int | None = _key(_auto_int, None, lambda v: v is None or v >= 0,
                            "must be >= 0 or auto")
    csv_path: str = _key(str, "")

    def __post_init__(self):
        # Here, not in _cross_checks, so that a section built in code is
        # checked too: make_task_universe and partition_devices trust it.
        super().__post_init__()
        if self.mode == "csv":
            if not self.csv_path:
                raise ConfigError("data.csv_path", "required when data.mode = csv")
            return
        if self.samples_per_device < self.max_classes_per_device:
            raise ConfigError("data.samples_per_device",
                              f"must be >= max_classes_per_device (got {self.samples_per_device} "
                              f"< {self.max_classes_per_device})")
        if self.mode == "label-permutation" and self.distributions > 2 and self.classes < 3:
            # A 2-class derangement is the swap; a third distribution would
            # repeat one of the first two.
            raise ConfigError("data.distributions",
                              "label-permutation with 2 classes supports at most 2 distributions")


@dataclass(frozen=True)
class ModelConfig(_Section):
    section = "model"
    family: str = _choice("logistic", "mlp")
    # parse_config defaults this by family: 0 for logistic, 16 for mlp.
    hidden: int = _key(int, 0, _nonneg, "must be >= 0")
    learning_rate: float = _key(float, 0.01, _pos, "must be > 0")
    epochs: int = _key(int, 5, lambda v: v >= 1, "must be >= 1")
    batch_size: int = _key(int, 32, lambda v: v >= 1, "must be >= 1")


@dataclass(frozen=True)
class ClusteringConfig(_Section):
    section = "clustering"
    enabled: bool = _key(_bool, True)
    eps1: float | None = _key(_opt_float, None, lambda v: v is None or v > 0, "must be > 0")
    eps2: float | None = _key(_opt_float, None, lambda v: v is None or v > 0, "must be > 0")
    split_interval: int = _key(int, 5, lambda v: v >= 1, "must be >= 1")
    gamma_merge: float = _key(float, 0.9, lambda v: -1 < v <= 1, "must be in (-1, 1]")
    merge_log_only: bool = _key(_bool, False)
    use_weight_deltas: bool = _key(_bool, False)


@dataclass(frozen=True)
class SSLConfig(_Section):
    section = "ssl"
    enabled: bool = _key(_bool, True)
    phi: float = _key(float, 0.8, lambda v: 0 <= v <= 1, "must be in [0, 1]")
    label_interval: int = _key(int, 10, lambda v: v >= 1, "must be >= 1")
    lam: float = _key(float, 1.0, _nonneg, "must be >= 0", name="lambda")
    inference_cycles_per_sample: float = _key(float, 20.0, _pos, "must be > 0")
    candidate_scope: str = _choice("cloud", "edge")


@dataclass(frozen=True)
class NetworkConfig(_Section):
    section = "network"
    bandwidth_hz: float = _key(float, 10e6, _pos, "must be > 0")
    subchannels: int | None = _key(_auto_int, None, lambda v: v is None or v >= 1,
                                   "must be >= 1 or auto")
    ref_gain_db: float = _key(float, -35.0)
    ref_distance_m: float = _key(float, 2.0, _pos, "must be > 0")
    noise_w: float = _key(float, 1e-6, _pos, "must be > 0")
    cpu_min_hz: float = _key(float, 1e9, _pos, "must be > 0")
    cpu_max_hz: float = _key(float, 9e9, _pos, "must be > 0")
    power_min_dbm: float = _key(float, -10.0)
    power_max_dbm: float = _key(float, 20.0)
    distance_min_m: float = _key(float, 2.0, _pos, "must be > 0")
    distance_max_m: float = _key(float, 50.0, _pos, "must be > 0")
    cloud_rate_bps: float = _key(float, 1e8, _pos, "must be > 0")
    cycles_per_sample: float = _key(float, 20.0, _pos, "must be > 0")
    deadline_policy: str = _choice("median", "fixed")
    deadline_kappa: float = _key(float, 2.0, _pos, "must be > 0")
    deadline_s: float | None = _key(_opt_float, None, lambda v: v is None or v > 0,
                                    "must be > 0")
    fading: str = _choice("off", "rayleigh")
    time_budget_s: float = _key(float, math.inf, _pos, "must be > 0")

    def __post_init__(self):
        # Here, not in _cross_checks, so that a section built in code is
        # checked too: the latency functions and sample_radios trust it.
        super().__post_init__()
        for low, high in (("cpu_min_hz", "cpu_max_hz"), ("power_min_dbm", "power_max_dbm"),
                          ("distance_min_m", "distance_max_m")):
            if getattr(self, low) > getattr(self, high):
                raise ConfigError(f"network.{low}", f"exceeds {high}")
        if self.deadline_policy == "fixed" and self.deadline_s is None:
            raise ConfigError("network.deadline_s", "required when deadline_policy = fixed")


@dataclass(frozen=True)
class RunConfig(_Section):
    section = "run"
    rounds: int = _key(int, REQUIRED, _nonneg, "must be >= 0")
    seed: int = _key(int, 0, _nonneg, "must be >= 0")
    out_dir: str = _key(str, "out")
    baseline: str = _choice(*BASELINES)
    convergence_eps: float = _key(float, 1e-4, _pos, "must be > 0")
    convergence_window: int = _key(int, 10, lambda v: v >= 1, "must be >= 1")


SECTIONS = (TopologyConfig, DataConfig, ModelConfig, ClusteringConfig, SSLConfig,
            NetworkConfig, RunConfig)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: one frozen section per INI header."""

    topology: TopologyConfig
    data: DataConfig
    model: ModelConfig
    clustering: ClusteringConfig
    ssl: SSLConfig
    network: NetworkConfig
    run: RunConfig
    # "section.key" of every key the file left out.
    defaults_applied: tuple = ()

    def resolved(self) -> dict:
        """Every configured value by section and key, for the run-header
        echo. run.out_dir is omitted so runs differing only in output
        location stay byte-identical."""
        return {
            cls.section: {
                ini_key(f): getattr(getattr(self, cls.section), f.name)
                for f in fields(cls)
                if not (cls is RunConfig and f.name == "out_dir")
            }
            for cls in SECTIONS
        }


def baseline_variant(cfg: ExperimentConfig) -> ExperimentConfig:
    """The effective config of the configured baseline.

    cfsl runs as configured. The two cfl variants disable self-labeling
    (fully-labeled additionally lifts the labeled fraction to 1); the two
    hfl variants disable cluster splitting. hfl-ssl's devices label with
    the shared global model instead of specialized ones, which
    `Simulation` reads from `run.baseline`.
    """
    b = cfg.run.baseline
    return replace(
        cfg,
        data=replace(cfg.data, labeled_fraction=(
            1.0 if b == "cfl-fully-labeled" else cfg.data.labeled_fraction)),
        clustering=replace(cfg.clustering,
                           enabled=cfg.clustering.enabled and not b.startswith("hfl")),
        ssl=replace(cfg.ssl, enabled=cfg.ssl.enabled and b in ("cfsl", "hfl-ssl")),
    )


def _cross_checks(cfg: ExperimentConfig):
    topo, data, model = cfg.topology, cfg.data, cfg.model
    if topo.devices < topo.edges:
        raise ConfigError("topology.devices", "need at least one device per edge")

    if model.family == "logistic" and model.hidden != 0:
        raise ConfigError("model.hidden", "must be 0 for the logistic family")
    if model.family == "mlp" and model.hidden < 1:
        raise ConfigError("model.hidden", "must be >= 1 for the mlp family")

    if data.mode != "csv":
        labeled_fraction = baseline_variant(cfg).data.labeled_fraction
        width = min(data.max_classes_per_device, data.classes)
        n_labeled, n_hold = labeled_split(
            labeled_fraction, data.samples_per_device, width, data.holdout_fraction
        )
        if n_hold >= n_labeled:
            raise ConfigError(
                "data.holdout_fraction",
                f"holds out all {n_labeled} labeled samples of each device, "
                "leaving none to train on",
            )


def parse_config(text: str) -> ExperimentConfig:
    """Validate config text, apply defaults, and record which were applied."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config", f"unparsable config: {exc}") from None

    known = {cls.section: {ini_key(f) for f in fields(cls)} for cls in SECTIONS}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(section, "unknown section")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")

    given = {}
    defaults_applied = []
    for cls in SECTIONS:
        values = given[cls.section] = {}
        for f in fields(cls):
            key = ini_key(f)
            where = f"{cls.section}.{key}"
            if not parser.has_option(cls.section, key):
                if f.default is REQUIRED:
                    raise ConfigError(where, "required key is missing")
                defaults_applied.append(where)
                continue
            raw = parser.get(cls.section, key)
            try:
                values[f.name] = f.metadata["parse"](raw)
            except ValueError as exc:
                raise ConfigError(where, f"bad value {raw!r} ({exc})") from None

    model = given["model"]
    if "hidden" not in model:
        model["hidden"] = 0 if model.get("family", ModelConfig.family) == "logistic" else 16

    cfg = ExperimentConfig(
        **{cls.section: cls(**given[cls.section]) for cls in SECTIONS},
        defaults_applied=tuple(defaults_applied),
    )
    _cross_checks(cfg)
    return cfg


def override(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    """`cfg` with `values` ({"section.attribute": value}) set, checked like
    values read from a file: the changed sections run their field checks
    and the result passes the cross-section checks. defaults_applied is
    kept; the run header lists the keys the file left out."""
    attrs = {cls.section: {f.name for f in fields(cls)} for cls in SECTIONS}
    changes = defaultdict(dict)
    for name, value in values.items():
        section, _, attr = name.partition(".")
        if attr not in attrs.get(section, ()):
            raise ConfigError(name, "not a section.attribute of the config")
        changes[section][attr] = value
    cfg = replace(cfg, **{s: replace(getattr(cfg, s), **c) for s, c in changes.items()})
    _cross_checks(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file. I/O errors propagate to the caller."""
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
