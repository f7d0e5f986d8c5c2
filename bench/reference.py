"""Reference kernel that scales host times to a fixed machine speed.

The benchmark runs on shared machines. On the 2-vCPU machine it was built
on, the speed of fixed code drifts by 10-25% over seconds to minutes, and a
20-second run inherits whatever phase it lands in.

The worker times this kernel before every round and before every build. It
scales each experiment's host times by REFERENCE_S / (median kernel time
during that experiment), so they read as seconds on a machine that runs the
kernel in REFERENCE_S. The kernel is fixed code that calls nothing in cfsl,
so no change to cfsl can change it: the scaling removes the machine's drift,
not the program's cost. Over 20 repeated fedavg-128 experiments on that
machine, the spread of their host time (quartile distance over median) fell
from 6.9% raw to 3.8% scaled. Raw seconds are printed next to the scaled
ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.002

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(64, 8))
_Y = _rng.integers(0, 4, size=64)
_W = _rng.normal(size=(8, 4))
_POOL = _rng.normal(size=(1000, 16))
_HEAD = _rng.normal(size=(16, 6))
_ROWS = np.arange(8)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def kernel_seconds() -> float:
    """Seconds for one pass of the kernel. It does two kinds of work:
    interpreter-bound softmax SGD steps on 8-row batches, like sgd_train, and
    array-bound confidences over a 1000-row pool, like labeling."""
    t0 = time.perf_counter()
    w = _W.copy()
    for _ in range(4):
        for i in range(0, 64, 8):
            xb = _X[i:i + 8]
            p = _softmax(xb @ w)
            p[_ROWS, _Y[i:i + 8]] -= 1.0
            w -= 0.1 * (xb.T @ p)
    for _ in range(6):
        _softmax(_POOL @ _HEAD).max(axis=1)
    return time.perf_counter() - t0
