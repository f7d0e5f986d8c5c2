"""The per-device stream derivation against numpy itself: `stream_states`
must give the state `PCG64(SeedSequence([*prefix, k]))` starts in, and the
generator `streams` re-states must draw what `default_rng` of that seed
sequence draws."""

import random

import numpy as np
import pytest

from cfsl.models import LabeledBatch, init_params, sgd_train
from cfsl.seeding import stream_states, streams


def numpy_states(prefix, ids) -> list:
    return [np.random.PCG64(np.random.SeedSequence([*prefix, k])).state for k in ids]


def test_states_equal_numpy_over_a_seeded_sweep():
    # Entries of 0 to 200 bits: a list of more than four 32-bit words runs
    # the entropy past numpy's 4-word pool, and the ids of one list differ
    # in word count.
    draw = random.Random(20261019)
    bits = (0, 1, 8, 31, 32, 33, 63, 64, 65, 100, 200)
    lengths = set()
    for _ in range(1200):
        prefix = [draw.getrandbits(draw.choice(bits)) for _ in range(draw.randrange(7))]
        ids = [draw.getrandbits(draw.choice(bits)) for _ in range(draw.randrange(6))]
        assert stream_states(prefix, ids) == numpy_states(prefix, ids), (prefix, ids)
        lengths.add(len(ids))
    assert 0 in lengths


def test_no_ids_give_no_states():
    assert stream_states([3, 4, 1], []) == []
    assert list(streams([3, 4, 1], [])) == []


def test_negative_entries_are_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        stream_states([-1, 4], [0])
    with pytest.raises(ValueError, match="non-negative"):
        stream_states([1, 4], [0, -2])


def device_draws(rng, rows: int) -> list:
    """A device's training shuffle of `rows` rows over three epochs, then
    setup-style draws: uniform, normal and choice with and without
    replacement."""
    table = np.broadcast_to(np.arange(rows) + 10, (3, rows)).copy()
    rng.permuted(table, axis=1, out=table)
    return [table, rng.uniform(-1.0, 2.0, size=3), rng.normal(size=2),
            rng.choice(9, size=4, replace=False), rng.choice([2, 5, 7], size=5)]


def test_reused_generator_draws_equal_default_rng():
    prefix = [7, 4, 2**32 + 3]
    ids = [5, 2**32 + 1, 0, 9, 2**40, 11]
    # A 1-row device draws nothing for its shuffle; a 2-row one draws three
    # 32-bit halves, so the next device's stream starts after a buffered half.
    rows = [1, 2, 6, 2, 40, 3]
    buffered = []
    for k, n, rng in zip(ids, rows, streams(prefix, ids), strict=True):
        want = device_draws(np.random.default_rng(np.random.SeedSequence([*prefix, k])), n)
        got = device_draws(rng, n)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)
        buffered.append(rng.bit_generator.state["has_uint32"])
    assert buffered[:-1].count(1) >= 2


def test_training_on_streams_equals_each_device_on_its_seed_sequence():
    rng = np.random.default_rng(3)
    p = init_params(3, 2, 4, seed=1)
    batches = [LabeledBatch(rng.normal(size=(n, 3)), rng.integers(0, 2, size=n))
               for n in (5, 1, 9, 2, 9)]
    prefix, ids = [11, 4, 2], [4, 0, 2**32 + 8, 3, 1]
    want = [sgd_train([p], [b], 3, 2, 0.1, [np.random.SeedSequence([*prefix, k])])[0]
            for b, k in zip(batches, ids)]
    got = sgd_train([p] * 5, batches, 3, 2, 0.1, streams(prefix, ids))
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.weights, b.weights)
    for wrong in (ids[:-1], ids + [6]):
        with pytest.raises(ValueError):
            sgd_train([p] * 5, batches, 3, 2, 0.1, streams(prefix, wrong))
