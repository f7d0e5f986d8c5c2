"""Seed derivation for every random component of a run.

All randomness flows from one master seed through named numpy SeedSequence
streams, so any component can be replayed in isolation (e.g. a reference
training loop re-deriving exactly the per-device training generators).
"""

from __future__ import annotations

import zlib

import numpy as np

# Stream tags. Never renumber: run reproducibility depends on them.
DATA_STREAM = 1
RADIO_STREAM = 2
INIT_STREAM = 3
TRAIN_STREAM = 4
FADING_STREAM = 5


def init_seed(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, INIT_STREAM])


def training_seed(seed: int, round_no: int, device_id: int) -> np.random.SeedSequence:
    """Per-(round, device) training stream; independent of scheduling order."""
    return np.random.SeedSequence([seed, TRAIN_STREAM, round_no, device_id])


def fading_seed(seed: int, round_no: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, FADING_STREAM, round_no])


def sweep_seed(base_seed: int, axis: str, value: str) -> int:
    """Derived per-run seed for a sweep: base seed plus CRC32 of "axis=value".

    The seed axis is the exception: its values ARE the run seeds.
    """
    if axis == "seed":
        return int(value)
    return base_seed + zlib.crc32(f"{axis}={value}".encode("utf-8"))
