"""Pure metric arithmetic for the benchmark: the clock, percentiles, tails,
pooled rates, span self times, straggler idle share, repeat ratios and
payload traffic.

Nothing here imports numpy or fedspan, so the functions can be tested on
hand-made inputs.
"""

from __future__ import annotations

import math
import time
from statistics import mean, median  # noqa: F401  (re-exported for the benchmark)
from typing import Iterable, Sequence

# The clock of every timing metric: the process's CPU time, not wall time.
# On a shared virtual machine the hypervisor takes the CPU away for seconds
# at a time (steal time); wall time counts those gaps and CPU time does not.
# The timed code is one sequential caller with one BLAS thread, so its CPU
# time is its wall time less the gaps. Wall times go to the details file.
clock = time.process_time

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile from 50 to 99 whose nearest rank leaves at
    least ``TAIL_MIN_BEYOND`` of ``n`` samples strictly beyond it.

    Returns 100 (the maximum) when no such percentile exists, which is the
    case for fewer than ``2 * TAIL_MIN_BEYOND`` samples.
    """
    for p in range(99, 49, -1):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return p
    return 100


def tail(values: Sequence[float]) -> tuple[float, int, int]:
    """(value, percentile, sample count) of the tail of ``values``."""
    p = tail_percentile(len(values))
    return percentile(values, p), p, len(values)


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each span given as (start, end, parent index).

    A span's self time is its duration minus the time covered by its direct
    children. Children of one parent never overlap (calls are sequential),
    so their durations add up. Parent index -1 marks a root.
    """
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def straggler_idle_share(rounds: Iterable[Sequence[float]]) -> float:
    """Share of client time spent waiting for the slowest client of each
    round, were the clients of a round run side by side.

    ``rounds`` holds the client durations of each round. A round with one
    client has no idle time.
    """
    idle = 0.0
    capacity = 0.0
    for durations in rounds:
        if not durations:
            continue
        slowest = max(durations)
        idle += sum(slowest - d for d in durations)
        capacity += slowest * len(durations)
    return idle / capacity if capacity > 0 else 0.0


def pooled_rate(calls: Sequence[tuple[int, float]]) -> float:
    """Items per second over all (items, seconds) calls together."""
    seconds = sum(s for _, s in calls)
    if seconds <= 0.0:
        raise ValueError("no timed calls")
    return sum(n for n, _ in calls) / seconds


def unique_ratio(keys: Sequence) -> float:
    """Distinct inputs over calls; 1.0 means no call repeated an input."""
    if not keys:
        return 0.0
    return len(set(keys)) / len(keys)


def bytes_per_round(uploads: Iterable[tuple[int, int]]) -> float:
    """Mean over rounds of the summed upload lengths, from (round, bytes)."""
    totals: dict[int, int] = {}
    for round_index, size in uploads:
        totals[round_index] = totals.get(round_index, 0) + size
    if not totals:
        raise ValueError("no uploads")
    return sum(totals.values()) / len(totals)


def payload_overhead_ratio(total_bytes: int, total_floats: int) -> float:
    """Encoded bytes over the 4 bytes per float the vectors alone need."""
    if total_floats <= 0:
        raise ValueError("no floats")
    return total_bytes / (4.0 * total_floats)
