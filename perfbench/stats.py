"""Pure helpers of the benchmark: percentiles, self time, calibration.

Stdlib only, so the orchestrator can use them without importing the
program under test.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Iterable, Mapping, Sequence

#: a percentile is reported only when at least this many samples lie beyond it
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile of ``n``."""
    return n - max(1, math.ceil(p / 100.0 * n))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile with at least 10 samples beyond it.

    Raises ``ValueError`` when the sample is too small for ``p``: the p99
    of fewer than 1,000 samples would rest on fewer than ten points.
    """
    n = len(values)
    if samples_beyond(n, p) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{p:g} of {n} samples leaves fewer than {MIN_TAIL_SAMPLES} beyond it"
        )
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted(values)[rank - 1]


def min_samples_for(p: float) -> int:
    """Smallest sample count whose ``p``-th percentile has 10 samples beyond."""
    n = MIN_TAIL_SAMPLES + 1
    while samples_beyond(n, p) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Mapping]) -> dict[str, float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` are dicts with ``span_id``, ``parent_id``, ``start_s`` and
    ``end_s`` (the service's span wire format).  Children are clipped to
    the parent's interval, so a child that outlives its parent (an async
    task, or a worker span on another process's clock) removes only the
    part that overlaps, and overlapping siblings are not counted twice.
    """
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.get("parent_id") or "")
        if parent is None or parent is s:
            continue
        lo = max(s["start_s"], parent["start_s"])
        hi = min(s["end_s"], parent["end_s"])
        children.setdefault(parent["span_id"], []).append((lo, hi))
    return {
        sid: max(0.0, s["end_s"] - s["start_s"]) - _covered(children.get(sid, ()))
        for sid, s in by_id.items()
    }


def self_time_by_name(spans: Sequence[Mapping]) -> dict[str, float]:
    """Sum :func:`self_times` over spans of the same name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["span_id"]]
    return out


class Checks:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)
        return ok


def calibrate(iterations: int = 1_000_000) -> float:
    """Seconds a fixed pure-Python loop takes: a host-speed probe.

    Reported next to the measurements so host drift can be told apart
    from a change in the program; it never normalises them.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed
