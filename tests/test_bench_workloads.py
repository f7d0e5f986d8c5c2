"""The benchmark's workload configs must parse and build under the current
config rules, so that a rule change that breaks a workload fails here and
not only when the benchmark runs.

bench/workloads.py only imports the standard library; it is loaded from its
file here, without installing anything. Its dataclass needs the module
registered in sys.modules while it runs.
"""

import importlib.util
import os
import sys

import pytest

from cfsl.config import parse_config
from cfsl.experiment import build_simulation

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_parses_and_builds(name, tmp_path):
    text = workloads.WORKLOADS[name].config.format(seed=0, out_dir=tmp_path / "out")
    cfg = parse_config(text)
    sim = build_simulation(cfg)
    assert len(sim.devices) == cfg.topology.devices
    assert not os.listdir(tmp_path)
