"""A fixed routine timed between fedspan calls, as a yardstick of host speed.

The benchmark's host runs its core at speeds up to 1.8x apart, switching
every few seconds to every few minutes, and sometimes stays slow for a whole
run. ``Reference.run`` does a fixed amount of work in the style of fedspan's
inner loops (a Python loop of small numpy operations on a 2048x32 table:
gather, small matrix products, softmax, scatter update) and returns its CPU
time. The timing metrics divide fedspan's CPU time by the mean time of this
routine in the same run, so they read in reference units, which the host's
speed moves far less than seconds. Nothing here depends on fedspan, so a
change to fedspan cannot change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 60


class Reference:
    """The routine's inputs, built once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.random((2048, 32))
        self._w1 = rng.random((32, 16))
        self._w2 = rng.random((16, 16))
        self._ids = rng.integers(0, 2048, size=40)
        self.seconds: list[float] = []

    def run(self) -> float:
        """Run the routine once; record and return its CPU time."""
        table, w1, w2, ids = self._table, self._w1, self._w2, self._ids
        t0 = time.process_time()
        for _ in range(ITERATIONS):
            x = table[ids]
            scores = np.tanh(x @ w1) @ w2
            p = np.exp(scores - scores.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            table[ids[:8]] -= 1e-9 * p[:8, :1]
        seconds = time.process_time() - t0
        self.seconds.append(seconds)
        return seconds

    def take(self) -> list[float]:
        """The routine's times since the last take."""
        out, self.seconds = self.seconds, []
        return out
