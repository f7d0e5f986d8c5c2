"""A guard on the Python cost of a round per device: the calls of the
package's own functions (code objects under src/cfsl), counted by cProfile
over a small self-labeling run with splits and merges, per device-round.
numpy's Python-level frames do not count, so the figure is the same under
every numpy version; a call count repeats exactly from run to run.

The round keeps its per-device bookkeeping in arrays (the population table
and `ClusterTree.leaf_of`), so that the bookkeeping takes no call per
device. The bound leaves about a third of headroom over the 33.2 calls
this config makes; before the arrays it made 77.0.
"""

import cProfile
import os

import cfsl
from cfsl.config import parse_config
from cfsl.experiment import run_experiment
from test_population_oracle import SPLIT_AND_MERGE

PACKAGE = os.path.dirname(os.path.abspath(cfsl.__file__))
BOUND = 45.0


def package_calls_per_device_round(text: str) -> float:
    cfg = parse_config(text)
    profile = cProfile.Profile()
    profile.enable()
    result = run_experiment(cfg)
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats()
                if not isinstance(entry.code, str)
                and os.path.dirname(os.path.abspath(entry.code.co_filename)) == PACKAGE)
    return calls / (len(result.rows) * cfg.topology.devices)


def test_package_calls_per_device_round_stay_bounded(tmp_path):
    per_device_round = package_calls_per_device_round(
        SPLIT_AND_MERGE + f"out_dir = {tmp_path}\n")
    assert 0 < per_device_round <= BOUND, per_device_round
