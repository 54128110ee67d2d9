"""Radio energy accounting.

Reproduces the paper's modified ns-2 energy model, calibrated to the
Sensoria WINS NG radio [Kaiser]:

* transmit:  660 mW
* receive:   395 mW   (also charged for promiscuous overhearing — every
  in-range radio pays reception cost, as in ns-2)
* idle:       35 mW   ("about 10% of receive, about 5% of transmit")

The model accumulates time-in-state; energy is derived on demand.  The
paper's *average dissipated energy* metric is dominated by communication
energy (see DESIGN.md §4): with idle charged over the full run, the idle
floor (35 mW x N x T) is identical across schemes and would flatten the
comparison, so the experiment harness reports tx+rx by default and exposes
``include_idle`` for the full number.

Every charge additionally carries a **message class** (``"interest"``,
``"exploratory"``, ``"data"``, ``"aggregate"``, ``"reinforcement"``, ...;
see :data:`MESSAGE_CLASSES`) so a run's energy decomposes by protocol
phase — the breakdown the original diffusion and LEACH evaluations report.
The same increment feeds both the total and its class bucket, so class
totals sum to ``tx_time`` / ``rx_time`` up to float summation order
(within 1e-9 over any realistic run); the auditor
(:class:`repro.obs.audit.EnergyAttributionChecker`) verifies the identity
on every audited run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyParams", "EnergyMeter", "MESSAGE_CLASSES", "UNCLASSIFIED"]

#: the message classes energy charges are attributed to (wire classes of
#: the diffusion messages, plus the MAC's ACKs and a catch-all)
MESSAGE_CLASSES = (
    "interest",
    "exploratory",
    "data",        # single-item aggregates (unmerged readings)
    "aggregate",   # multi-item aggregates (merged readings)
    "reinforcement",
    "negative",
    "cost",        # greedy incremental-cost advertisements
    "ack",
    "other",
)

#: class used when a frame's payload does not declare a wire class
UNCLASSIFIED = "other"


@dataclass(frozen=True)
class EnergyParams:
    """Per-state radio power draw in watts (paper defaults)."""

    tx_power_w: float = 0.660
    rx_power_w: float = 0.395
    idle_power_w: float = 0.035

    def __post_init__(self) -> None:
        for name in ("tx_power_w", "rx_power_w", "idle_power_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class EnergyMeter:
    """Accumulates radio time-in-state for one node.

    The radio layer calls :meth:`note_tx` / :meth:`note_rx` with frame air
    times.  Idle time is everything else: a node's radio is either
    transmitting, receiving (possibly a corrupted frame — energy is spent
    either way), or idle-listening.  Concurrent overlapping receptions are
    merged with a proper interval union, so receive time never exceeds
    wall-clock time and out-of-order receptions are neither double- nor
    under-charged.
    """

    __slots__ = (
        "params",
        "tx_time",
        "rx_time",
        "_rx_intervals",
        "_rx_last",
        "tx_count",
        "rx_count",
        "tx_time_by_class",
        "rx_time_by_class",
    )

    def __init__(self, params: EnergyParams) -> None:
        self.params = params
        self.tx_time = 0.0
        self.rx_time = 0.0
        #: sorted charged receive intervals as a flat edge list
        #: [s0, e0, s1, e1, ...] — disjoint or touching (the fast path
        #: appends without coalescing; the slow-path merge coalesces).
        #: The common in-order case only ever touches the last edge, so
        #: the merge stays O(1) on the hot path.
        self._rx_intervals: list[float] = []
        #: cached rightmost charged edge (== _rx_intervals[-1]), kept as
        #: a float attribute so the hot path skips the list indexing
        self._rx_last = float("-inf")
        self.tx_count = 0
        self.rx_count = 0
        #: per-message-class time-in-state (sums to tx_time / rx_time)
        self.tx_time_by_class: dict[str, float] = {}
        self.rx_time_by_class: dict[str, float] = {}

    def note_tx(self, duration: float, cls: str = UNCLASSIFIED) -> None:
        """Charge one transmission of ``duration`` seconds to class ``cls``."""
        if duration < 0:
            raise ValueError("negative duration")
        self.tx_time += duration
        self.tx_count += 1
        by_class = self.tx_time_by_class
        try:
            by_class[cls] += duration
        except KeyError:
            by_class[cls] = duration

    def note_rx(self, start: float, duration: float, cls: str = UNCLASSIFIED) -> None:
        """Charge a reception starting at ``start`` lasting ``duration``.

        Only the part of ``[start, start + duration]`` not already covered
        by earlier charges is billed (to class ``cls``), so total receive
        time stays physical no matter how receptions overlap or in which
        order they are reported.
        """
        if duration < 0:
            raise ValueError("negative duration")
        end = start + duration
        last = self._rx_last
        if start >= last:
            # Fast path: at or past the rightmost charged edge.
            # ``Channel._fanout_start`` (net/radio.py) inlines this branch
            # for every in-order reception; keep the two in step.
            if end <= start:
                return
            edges = self._rx_intervals
            edges.append(start)
            edges.append(end)
            self._rx_last = end
            charged = end - start
        elif start >= self._rx_intervals[-2]:
            # Overlaps only the rightmost interval — what time-ordered
            # arrival starts (the simulator's only pattern) produce on a
            # collision.  Charging ``end - last`` here keeps the
            # arithmetic identical to the historical watermark meter, so
            # in-order runs stay bit-for-bit reproducible.
            if end <= last:
                return  # entirely inside the already-charged interval
            charged = end - last
            self._rx_intervals[-1] = end
            self._rx_last = end
        else:
            charged = self._merge_interval(start, end)
            self._rx_last = self._rx_intervals[-1]
            if charged <= 0.0:
                return  # entirely inside already-charged intervals
        self.rx_time += charged
        self.rx_count += 1
        by_class = self.rx_time_by_class
        try:
            by_class[cls] += charged
        except KeyError:
            by_class[cls] = charged

    def _merge_interval(self, start: float, end: float) -> float:
        """Insert ``[start, end]`` into the charged set; return new coverage.

        Out-of-line slow path, only reached when a reception starts before
        the rightmost already-charged edge (out-of-order reporting) — rare
        enough that an O(n) rebuild beats clever splicing.
        """
        edges = self._rx_intervals
        pairs = [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2)]
        covered = 0.0
        # pairs are disjoint or touching, so clips never double-count
        for s, e in pairs:
            lo, hi = max(s, start), min(e, end)
            if hi > lo:
                covered += hi - lo
        new_cov = (end - start) - covered
        pairs.append((start, end))
        pairs.sort()
        merged_s, merged_e = pairs[0]
        rebuilt: list[float] = []
        for s, e in pairs[1:]:
            if s <= merged_e:  # overlapping or touching: coalesce
                if e > merged_e:
                    merged_e = e
            else:
                rebuilt.append(merged_s)
                rebuilt.append(merged_e)
                merged_s, merged_e = s, e
        rebuilt.append(merged_s)
        rebuilt.append(merged_e)
        edges[:] = rebuilt
        return new_cov

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def class_times(self) -> dict[str, tuple[float, float]]:
        """Per-class ``(tx_time, rx_time)`` snapshot (copies, safe to keep)."""
        classes = set(self.tx_time_by_class) | set(self.rx_time_by_class)
        return {
            cls: (self.tx_time_by_class.get(cls, 0.0), self.rx_time_by_class.get(cls, 0.0))
            for cls in classes
        }

    def energy_by_class_j(self) -> dict[str, float]:
        """Communication energy decomposed by message class (joules)."""
        txp, rxp = self.params.tx_power_w, self.params.rx_power_w
        out: dict[str, float] = {}
        for cls, t in self.tx_time_by_class.items():
            out[cls] = out.get(cls, 0.0) + txp * t
        for cls, t in self.rx_time_by_class.items():
            out[cls] = out.get(cls, 0.0) + rxp * t
        return out

    def idle_time(self, total_time: float) -> float:
        """Idle-listening time over a run of ``total_time`` seconds."""
        busy = self.tx_time + self.rx_time
        return max(0.0, total_time - busy)

    def communication_energy_j(self) -> float:
        """Energy spent transmitting and receiving (the comparison metric)."""
        return (
            self.params.tx_power_w * self.tx_time
            + self.params.rx_power_w * self.rx_time
        )

    def total_energy_j(self, total_time: float) -> float:
        """Full dissipated energy including idle listening."""
        return (
            self.communication_energy_j()
            + self.params.idle_power_w * self.idle_time(total_time)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EnergyMeter tx={self.tx_time:.4f}s({self.tx_count}) "
            f"rx={self.rx_time:.4f}s({self.rx_count})>"
        )
