"""The paper's three metrics (§5.1).

* **Average dissipated energy** — total dissipated energy per node divided
  by the number of distinct events received by sinks ("the average work
  done by a node in delivering useful information").
* **Average delay** — mean one-way latency between an event's generation
  at its source and its (first) reception at each sink.
* **Distinct-event delivery ratio** — distinct events received over
  events originally sent, averaged over sinks.

The collector implements the :class:`~repro.diffusion.agent.DeliverySink`
protocol; agents feed it generation and delivery callbacks.  Events
generated during warmup are excluded from every metric, and the runner
snapshots energy meters at the warmup boundary so energy is measured over
the same window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..diffusion.messages import DataItem

__all__ = ["MetricsCollector", "RunMetrics"]


def _mean(values: list[float]) -> float:
    """Mean with a plain left-to-right float sum.

    Built-in ``sum()`` compensates float rounding since CPython 3.12, so
    its bits depend on the interpreter; this loop gives the pre-3.12
    bits on every version, which keeps RunMetrics reproducible.
    """
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


class MetricsCollector:
    """Accumulates per-run deliveries and delays."""

    def __init__(self, warmup_end: float) -> None:
        self.warmup_end = warmup_end
        #: events generated after warmup, per interest
        self.sent: dict[int, int] = {}
        #: distinct post-warmup events delivered, per (interest, sink)
        self.delivered: dict[tuple[int, int], set[tuple[int, int]]] = {}
        #: one-way delays of all counted deliveries
        self.delays: list[float] = []
        #: arrival times of all counted deliveries (for timelines)
        self.delivery_times: list[float] = []

    # ------------------------------------------------------------------
    # DeliverySink protocol
    # ------------------------------------------------------------------
    def on_generated(self, interest_id: int, item: DataItem) -> None:
        if item.gen_time < self.warmup_end:
            return
        self.sent[interest_id] = self.sent.get(interest_id, 0) + 1

    def on_delivered(
        self, interest_id: int, sink_id: int, item: DataItem, time: float
    ) -> None:
        if item.gen_time < self.warmup_end:
            return
        bucket = self.delivered.setdefault((interest_id, sink_id), set())
        if item.key in bucket:
            return
        bucket.add(item.key)
        self.delays.append(time - item.gen_time)
        self.delivery_times.append(time)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def total_distinct_delivered(self) -> int:
        return sum(len(b) for b in self.delivered.values())

    def delivery_ratio(self) -> float:
        """Mean over interests of distinct-received / sent."""
        ratios = []
        for interest_id, sent in self.sent.items():
            if sent == 0:
                continue
            got = sum(
                len(b) for (iid, _sink), b in self.delivered.items() if iid == interest_id
            )
            ratios.append(got / sent)
        if not ratios:
            return 0.0
        return _mean(ratios)

    def average_delay(self) -> Optional[float]:
        if not self.delays:
            return None
        return _mean(self.delays)

    def time_to_half_delivery(self) -> Optional[float]:
        """Sim time by which half of all counted deliveries had arrived.

        ``delivery_times`` is append-ordered (arrival order), so this is
        the ceil(n/2)-th arrival — an event-exact quantile, independent of
        any sampling cadence, hence bit-identical across serial/parallel
        sweeps and observability settings.
        """
        times = self.delivery_times
        if not times:
            return None
        return times[(len(times) + 1) // 2 - 1]


@dataclass(frozen=True)
class RunMetrics:
    """Final metrics of one run (plus diagnostics)."""

    scheme: str
    n_nodes: int
    seed: int
    #: J / node / received distinct event (the fig (a) panels)
    avg_dissipated_energy: float
    #: seconds / received distinct event (the fig (b) panels)
    avg_delay: float
    #: distinct received / sent (the fig (c) panels)
    delivery_ratio: float
    #: raw inputs, for aggregation and debugging
    total_energy_j: float
    distinct_delivered: int
    events_sent: int
    mean_degree: float
    counters: dict = field(default_factory=dict)
    #: post-warmup communication energy by message class (J); sums to
    #: total_energy_j within 1e-9 (the "idle" bucket is included when the
    #: run charged idle listening)
    energy_by_class: dict = field(default_factory=dict)
    #: sim time of the first node death (failure-driver epoch), or None if
    #: every node stayed up; event-exact, not sampled
    time_to_first_death: Optional[float] = None
    #: sim time of the ceil(n/2)-th counted delivery, or None if nothing
    #: was delivered; event-exact, not sampled
    time_to_half_delivery: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.delivery_ratio <= 1.0 + 1e-9:
            raise ValueError(f"delivery ratio out of range: {self.delivery_ratio}")
        if self.avg_dissipated_energy < 0 or self.total_energy_j < 0:
            raise ValueError("negative energy")
        for name in ("time_to_first_death", "time_to_half_delivery"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"negative {name}: {value}")
