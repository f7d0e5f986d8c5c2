"""Seed derivation for every random component of a run.

All randomness flows from one master seed through named numpy SeedSequence
streams, so any component can be replayed in isolation (e.g. a reference
training loop re-deriving exactly the per-device training generators).

Per-device streams in one pass. A round trains its devices on the streams
of ``SeedSequence([seed, TRAIN_STREAM, round_no, k])``, and setup draws each
device's data and radio from ``SeedSequence([seed, stream, ..., k])``.
Building a ``SeedSequence`` and a ``PCG64`` per device is slow (CHANGES.md
has the timings), so ``stream_states`` re-implements both for all K devices
at once: numpy's ``SeedSequence`` entropy pool (each int of the list split
into little-endian 32-bit words, one for 0; the uint32 hashmix and mix of
a 4-word pool; ``generate_state(4, uint64)``) as uint32 arrays over the
devices, then ``PCG64``'s 128-bit seeding step with Python ints.
``streams`` sets one reused generator to each state in turn, with no
buffered 32-bit half. This relies on numpy's stream-compatibility policy
(NEP 19): ``SeedSequence`` and ``PCG64`` give the same output on every
numpy version. ``tests/test_seeding.py`` is the oracle: the states equal
``PCG64(SeedSequence([*prefix, k])).state``, and the draws equal those of
``default_rng``.
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

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def init_seed(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, INIT_STREAM])


def fading_seed(seed: int, round_no: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, FADING_STREAM, round_no])


def _words(n: int) -> list:
    """The little-endian 32-bit words of a non-negative int, as numpy splits
    a seed entry: one word for 0."""
    if n < 0:
        raise ValueError(f"seed entries must be non-negative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(start: int, mult: int, n: int) -> tuple:
    """numpy's running hash constant over n successive hashes, as (n, 1)
    uint32 columns: the value each hash xors with and, one multiplication
    on, the value it multiplies by."""
    c = [start]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """numpy's `hashmix` of uint32 values, broadcast against the constants."""
    out = values ^ xor
    out *= mult
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's `mix` of two uint32 arrays. Every product wraps inside an
    array: numpy scalars would warn of the overflow."""
    out = x * np.uint32(_MIX_MULT_L)
    out -= y * np.uint32(_MIX_MULT_R)
    out ^= out >> _XSHIFT
    return out


def _pool_states(entropy: np.ndarray) -> list:
    """The `generate_state(4, uint64)` words of SeedSequence over each
    column of (L, K) uint32 entropy, as K lists of 4 ints. Within one
    source word numpy's steps touch distinct pool words in turn, each with
    the next hash constant, so each source word is one broadcast step."""
    n, words = _POOL_SIZE, len(entropy)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, n * n + n * max(0, words - n))
    pool = np.zeros((n, entropy.shape[1]), dtype=np.uint32)
    pool[:words] = entropy[:n]
    pool = _hash(pool, xor[:n], mult[:n])
    at = n
    for src in range(n):
        dst = [i for i in range(n) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[at : at + n - 1], mult[at : at + n - 1]))
        at += n - 1
    for src in range(n, words):
        pool = _mix(pool, _hash(entropy[src], xor[at : at + n], mult[at : at + n]))
        at += n
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * n)
    state = _hash(pool[np.arange(2 * n) % n], xor, mult)
    # Word pairs, low word first, as numpy reads the uint64 state words.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").tolist()


def stream_states(prefix, ids) -> list:
    """For each device id k of `ids`, in order, the start state dict of
    `np.random.PCG64(np.random.SeedSequence([*prefix, k]))`, as its `state`
    property gives it (see the module docstring)."""
    head = [w for n in prefix for w in _words(int(n))]
    tails = [_words(int(k)) for k in ids]
    out = [None] * len(tails)
    # The ids of one word count share an entropy length, so one pool pass.
    for width in set(map(len, tails)):
        at = [j for j, tail in enumerate(tails) if len(tail) == width]
        entropy = np.array([head + tails[j] for j in at], dtype=np.uint32).T
        for j, (s_hi, s_lo, i_hi, i_lo) in zip(at, _pool_states(entropy)):
            # PCG64's seeding: inc = 2 * initseq + 1, then two LCG steps
            # from 0 with the initial state added between them.
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            out[j] = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
    return out


def streams(prefix, ids):
    """Yield, for each device id k of `ids` in turn, one reused Generator
    set to the start of `np.random.default_rng(np.random.SeedSequence([*prefix,
    k]))`. Each yield re-states the same object, so take a device's draws
    before the next one."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state in stream_states(prefix, ids):
        rng.bit_generator.state = state
        yield rng


def sweep_seed(base_seed: int, axis: str, value: str) -> int:
    """Derived per-run seed for a sweep: base seed plus CRC32 of "axis=value".

    The seed axis is the exception: its values ARE the run seeds.
    """
    if axis == "seed":
        return int(value)
    return base_seed + zlib.crc32(f"{axis}={value}".encode("utf-8"))
