"""Deterministic simulator of clustered federated learning with device
self-labeling over a modeled wireless edge network.

The package exports the entry points; every other name is imported from
its own module (`cfsl.config`, `cfsl.orchestrator`, ...)."""

from .config import load_config, parse_config
from .experiment import emit_plot_data, run_experiment, sweep

__version__ = "0.1.0"

__all__ = [
    "emit_plot_data",
    "load_config",
    "parse_config",
    "run_experiment",
    "sweep",
]
