"""Seed derivation for every random component of a run.

All randomness flows from one master seed through named numpy SeedSequence
streams, so any component can be replayed in isolation (e.g. a reference
training loop re-deriving exactly the per-device training generators).

A training stream is built per trained device and round, so
`training_seed` hands `SeedSequence` one uint32 word array and skips
numpy's int-by-int coercion of a list. The words are those numpy makes of
the list `[seed, TRAIN_STREAM, round_no, device_id]`: each int's
little-endian 32-bit words (one for 0) in list order. So both forms give
the same pool, for ints of 2^32 and above too.
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


def _words(n: int) -> list:
    """The little-endian 32-bit words of a non-negative int, as numpy splits
    a seed entry: one word for 0."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def training_seed(seed: int, round_no: int, device_id: int) -> np.random.SeedSequence:
    """Per-(round, device) training stream; independent of scheduling order.
    The stream of `SeedSequence([seed, TRAIN_STREAM, round_no, device_id])`."""
    return np.random.SeedSequence(np.array(
        [*_words(seed), TRAIN_STREAM, *_words(round_no), *_words(device_id)], dtype=np.uint32))


def fading_seed(seed: int, round_no: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, FADING_STREAM, round_no])


def sweep_seed(base_seed: int, axis: str, value: str) -> int:
    """Derived per-run seed for a sweep: base seed plus CRC32 of "axis=value".

    The seed axis is the exception: its values ARE the run seeds.
    """
    if axis == "seed":
        return int(value)
    return base_seed + zlib.crc32(f"{axis}={value}".encode("utf-8"))
