"""Wireless PHY: shared channel, propagation models, collisions, energy.

Baseline model (matching the ns-2 setup the paper used):

* **Disc propagation** — a transmission is heard by every *up* node within
  ``range_m`` (40 m default); nothing beyond.  Propagation delay is a small
  constant (distances are ~100 m, so ~0.3 us; we use 1 us).
* **Fixed transmit power** — no power control; "we measure energy as
  equivalent to hops" (paper §4.1) holds because every hop costs the same.
* **Half duplex** — a radio cannot receive while transmitting.
* **Collisions, no capture** — two frames overlapping in time at a receiver
  corrupt each other there (this includes hidden-terminal collisions, which
  is what degrades the opportunistic scheme's low-latency paths at high
  density).
* **Promiscuous energy** — every in-range radio pays receive energy for
  every frame, corrupted or not, exactly like a real listening radio.

Propagation and corruption are pluggable behind
:class:`~repro.net.channel.ChannelModel` (``Channel(..., model=...)``):
the default :class:`~repro.net.channel.DiscModel` keeps the baseline
above bit-identically, while :class:`~repro.net.channel.PathlossModel`
replaces the disc with a log-distance link budget and all-or-nothing
collisions with an SINR capture test over per-receiver, per-band running
interference sums (see DESIGN.md §14 for the math and the equivalence
argument).

The :class:`Channel` owns topology (positions, precomputed neighbor index
arrays — and, for capture models, per-pair receive powers — via a uniform
grid) and the :class:`Radio` instances; radios are driven by the MAC
layer above.

Two kernels share these semantics (``Channel(kernel=...)``):

* ``"scalar"`` (default for bare construction) — the reference
  implementation, walked in Python.  Each broadcast is serviced by two
  scheduled fan-out loops over its receivers, one at arrival start and
  one at arrival end.  Under a non-capture model (the disc, or pathloss
  with capture off) the loops keep collision state in per-radio integer
  counters, with no per-receiver object or method call; capture models
  walk per-receiver :class:`_Arrival` objects through
  :meth:`Radio.arrival_start` / :meth:`Radio.arrival_end`.
* ``"vector"`` — per-node state lives in numpy columns
  (:class:`~repro.net.state.NodeState`) and each broadcast services its
  whole neighborhood with two *cohort* events whose bookkeeping (energy,
  carrier sense, collisions) is fancy-indexed array math.

:func:`~repro.experiments.runner.build_world` defaults to
``kernel="auto"``, which picks by network size
(:data:`~repro.experiments.runner.VECTOR_KERNEL_MIN_NODES`).  RunMetrics
and timelines are bit-identical between the kernels; the equivalence
property test (``tests/property/test_kernel_equivalence.py``) enforces
it.

A clean frame is handed to :attr:`Radio.deliver` only at its addressed
receiver (every receiver for a broadcast).  Overhearers still pay
receive energy and still count in ``radio.rx``, ``radio.rx_class`` and
``phy.rx`` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..sim import Simulator, Tracer
from .channel import ChannelModel, DiscModel
from .energy import EnergyMeter
from .packet import BROADCAST, Frame
from .state import (
    C_ACTIVE,
    C_BUSY_UNTIL,
    C_CLEAN,
    C_OVERLAP,
    C_RX_COUNT,
    C_RX_LAST,
    C_RX_PREV,
    C_RX_TIME,
    C_TX_UNTIL,
    NodeState,
)

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["RadioParams", "Channel", "Radio", "VectorRadio"]


@dataclass(frozen=True)
class RadioParams:
    """PHY constants (paper defaults: 40 m range, 1.6 Mbps)."""

    range_m: float = 40.0
    bitrate_bps: float = 1.6e6
    propagation_delay_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.range_m <= 0 or self.bitrate_bps <= 0 or self.propagation_delay_s < 0:
            raise ValueError("invalid radio parameters")

    def air_time(self, size_bytes: int) -> float:
        """Seconds the channel is occupied by a frame of ``size_bytes``."""
        return size_bytes * 8.0 / self.bitrate_bps


class _Arrival:
    """One in-flight frame at one receiver (scalar kernel, capture models).

    ``rx_mw``/``band``/``smax`` carry the receiver's SINR bookkeeping.
    """

    __slots__ = ("frame", "cls", "start", "end", "corrupted", "rx_mw", "band", "smax")

    def __init__(
        self,
        frame: Frame,
        cls: str,
        start: float,
        end: float,
        rx_mw: float = 0.0,
        band: int = 0,
    ) -> None:
        self.frame = frame
        #: frame.msg_class, stashed once per fan-out (hot-path alias)
        self.cls = cls
        self.start = start
        self.end = end
        self.corrupted = False
        #: linear received power at this receiver
        self.rx_mw = rx_mw
        #: frequency band of the frame (``src % n_bands``)
        self.band = band
        #: max same-band power sum seen during this arrival's airtime
        self.smax = 0.0


def _fanout_start_capture(arrivals: list) -> None:
    """Begin reception of one frame at every in-range receiver (capture)."""
    for receiver, arrival in arrivals:
        receiver.arrival_start(arrival)


def _fanout_end_capture(arrivals: list) -> None:
    """Finish reception of one frame at every in-range receiver (capture)."""
    for receiver, arrival in arrivals:
        receiver.arrival_end(arrival)


class _Fanout:
    """One in-flight frame at a whole neighborhood (scalar, non-capture).

    ``recv`` are the radios up at transmit time, in ascending node id.
    ``Channel._fanout_start`` fills ``marks``, aligned with ``recv``:
    ``None`` for a receiver that was down at arrival start, ``-1`` for
    an arrival corrupted at start, and otherwise the receiver's overlap
    count at start — the arrival is still clean at its end iff that
    count has not moved.
    """

    __slots__ = ("frame", "cls", "start", "end", "recv", "marks")

    def __init__(self, frame: Frame, cls: str, start: float, end: float, recv: list) -> None:
        self.frame = frame
        self.cls = cls
        self.start = start
        self.end = end
        self.recv = recv
        self.marks: list = []


class _Cohort:
    """One in-flight frame at a whole neighborhood (vector kernel).

    ``rows`` are the receivers alive at transmit time; ``started`` and
    ``corrupted_at_start`` are filled in by ``Channel._cohort_start``
    (receivers still alive at arrival, and their halfduplex/overlap
    corruption state) for ``_cohort_end`` to finish against.

    ``rx_mw``/``band``/``smax`` only carry state under a capture-mode
    channel model (the per-receiver SINR bookkeeping arrays mirroring
    ``_Arrival``'s scalars).
    """

    __slots__ = (
        "frame",
        "cls",
        "start",
        "end",
        "rows",
        "started",
        "corrupted_at_start",
        "rx_mw",
        "band",
        "smax",
    )

    def __init__(
        self,
        frame: Frame,
        cls: str,
        start: float,
        end: float,
        rows: np.ndarray,
        rx_mw: Optional[np.ndarray] = None,
        band: int = 0,
    ) -> None:
        self.frame = frame
        self.cls = cls
        self.start = start
        self.end = end
        self.rows = rows
        self.started: Optional[np.ndarray] = None
        self.corrupted_at_start: Optional[np.ndarray] = None
        #: per-receiver linear rx power, aligned with ``rows``/``started``
        self.rx_mw = rx_mw
        self.band = band
        #: per-receiver max same-band power sum over the airtime
        self.smax: Optional[np.ndarray] = None


class Channel:
    """The shared wireless medium: positions, neighborhoods, delivery."""

    def __init__(
        self,
        sim: Simulator,
        tracer: Tracer,
        params: RadioParams,
        kernel: str = "scalar",
        model: Optional[ChannelModel] = None,
    ) -> None:
        if kernel not in ("scalar", "vector"):
            raise ValueError(f"unknown channel kernel {kernel!r}")
        self.sim = sim
        self.tracer = tracer
        self.params = params
        self.kernel = kernel
        #: propagation/corruption strategy (default: the paper's disc)
        self.model: ChannelModel = model if model is not None else DiscModel(params.range_m)
        #: SINR-capture mode (pathloss with capture on); hot-path alias
        self._capture = self.model.capture
        self._n_bands = self.model.n_bands
        self._noise_mw = self.model.noise_mw
        self._thr = self.model.thr
        #: in-flight capture-mode cohorts (vector kernel SINR bookkeeping)
        self._active_cohorts: list[_Cohort] = []
        #: SoA node state (vector kernel only; rows assigned at register)
        self.state: Optional[NodeState] = NodeState() if kernel == "vector" else None
        if self.state is not None and self._capture:
            self.state.ensure_interf(self._n_bands)
        self.radios: dict[int, Radio] = {}
        #: radios by row (row = registration order == NodeState row)
        self._row_radio: list["Radio"] = []
        self._row_of: dict[int, int] = {}
        #: per-row neighbor rows, presorted by neighbor node id
        self._nbr_rows: Optional[list[np.ndarray]] = None
        #: per-row linear rx power at each neighbor, aligned with
        #: ``_nbr_rows`` (capture models only; None otherwise)
        self._nbr_rxmw: Optional[list[np.ndarray]] = None
        #: lazily materialized Radio lists for the neighbors() API
        self._nbr_radios: dict[int, list["Radio"]] = {}
        #: lazily materialized per-neighbor rx powers as builtin floats
        self._nbr_rx_list: dict[int, list[float]] = {}
        self._frame_bytes = tracer.registry.histogram(
            "radio.frame_bytes", buckets=(10, 36, 64, 128, 256, 512)
        )
        # Per-message-class tx/rx frame counts.  Cardinality is bounded by
        # MESSAGE_CLASSES (~9).  The hot path pays a plain dict increment
        # per frame; flush_class_counters() materializes the totals into
        # labeled registry counters at end of run (a labeled-counter inc
        # per frame is measurable at PHY fan-out rates).
        self._tx_class_counts: dict[str, int] = {}
        self._rx_class_counts: dict[str, int] = {}

    def flush_class_counters(self) -> None:
        """Publish per-class frame counts as labeled registry counters.

        Creates/updates ``radio.tx_class{cls=...}`` and
        ``radio.rx_class{cls=...}``.  Idempotent: each call tops the
        counters up to the accumulated totals, so calling it again after
        more traffic (or twice at end of run) never double-counts.
        """
        counter = self.tracer.registry.counter
        for name, counts in (
            ("radio.tx_class", self._tx_class_counts),
            ("radio.rx_class", self._rx_class_counts),
        ):
            for cls in sorted(counts):
                c = counter(name, cls=cls)
                n = counts[cls]
                if n > c.value:
                    c.inc(n - c.value)

    def register(self, radio: "Radio") -> None:
        if radio.node_id in self.radios:
            raise ValueError(f"duplicate node id {radio.node_id}")
        row = getattr(radio, "_row", None)
        if row is not None and row != len(self._row_radio):
            raise ValueError(
                f"radio row {row} out of registration order "
                f"(expected {len(self._row_radio)})"
            )
        self.radios[radio.node_id] = radio
        self._row_of[radio.node_id] = len(self._row_radio)
        self._row_radio.append(radio)
        self._nbr_rows = None  # invalidate cache
        self._nbr_rxmw = None
        self._nbr_radios.clear()
        self._nbr_rx_list.clear()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def neighbors(self, node_id: int) -> list["Radio"]:
        """Radios within range of ``node_id`` (excluding itself).

        Materialized lazily from the row-index cache, in ascending
        neighbor node-id order, and memoized — the scalar transmit path
        hits this per frame.
        """
        cached = self._nbr_radios.get(node_id)
        if cached is None:
            rows = self.neighbor_rows(node_id)
            radios = self._row_radio
            cached = [radios[r] for r in rows]
            self._nbr_radios[node_id] = cached
        return cached

    def neighbor_rows(self, node_id: int) -> np.ndarray:
        """Rows within range of ``node_id``, presorted by node id."""
        if self._nbr_rows is None:
            self._build_neighbor_cache()
        assert self._nbr_rows is not None
        return self._nbr_rows[self._row_of[node_id]]

    def _neighbor_rx(self, node_id: int) -> list[float]:
        """Per-neighbor linear rx powers as builtin floats (memoized).

        Aligned with :meth:`neighbors`; scalar-kernel capture fan-outs
        read these so numpy scalars never enter per-arrival arithmetic.
        """
        cached = self._nbr_rx_list.get(node_id)
        if cached is None:
            if self._nbr_rows is None:
                self._build_neighbor_cache()
            assert self._nbr_rxmw is not None
            cached = [float(v) for v in self._nbr_rxmw[self._row_of[node_id]]]
            self._nbr_rx_list[node_id] = cached
        return cached

    def _build_neighbor_cache(self) -> None:
        """Grid-bucketed neighbor computation: O(N * degree).

        The cache is a list of presorted ``np.intp`` row arrays (shared
        with the SoA state in the vector kernel — reachability is then a
        single fancy-index); distances are float64, bitwise the same
        tests the per-object implementation applied.  Link eligibility
        comes from the channel model; capture models additionally yield
        a per-pair linear rx-power array aligned with each row array, so
        both kernels read identical link powers (the SINR test is then
        pure per-receiver arithmetic).
        """
        n = len(self._row_radio)
        st = self.state
        if st is not None:
            xs, ys = st.x[:n], st.y[:n]
        else:
            xs = np.array([r.x for r in self._row_radio])
            ys = np.array([r.y for r in self._row_radio])
        ids = np.array([r.node_id for r in self._row_radio], dtype=np.int64)
        model = self.model
        cell = model.grid_cell_m
        cx = np.floor_divide(xs, cell).astype(np.int64)
        cy = np.floor_divide(ys, cell).astype(np.int64)
        grid: dict[tuple[int, int], list[int]] = {}
        for row in range(n):
            grid.setdefault((int(cx[row]), int(cy[row])), []).append(row)
        want_rx = self._capture
        result: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        result_rx: list[np.ndarray] = [None] * n if want_rx else None  # type: ignore[assignment]
        empty = np.empty(0, dtype=np.intp)
        empty_f = np.empty(0)
        for (gx, gy), rows_here in grid.items():
            cand_lists = [
                got
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                if (got := grid.get((gx + dx, gy + dy))) is not None
            ]
            cand = np.concatenate([np.asarray(c, dtype=np.intp) for c in cand_lists])
            # presort once per cell so every row's mask comes out id-ordered
            cand = cand[np.argsort(ids[cand], kind="stable")]
            candx, candy = xs[cand], ys[cand]
            for row in rows_here:
                ddx = candx - xs[row]
                ddy = candy - ys[row]
                eligible, rx = model.link(ddx * ddx + ddy * ddy)
                keep = eligible & (cand != row)
                near = cand[keep]
                result[row] = near if near.size else empty
                if want_rx:
                    result_rx[row] = rx[keep] if near.size else empty_f
        self._nbr_rows = result
        self._nbr_rxmw = result_rx

    def distance(self, a: int, b: int) -> float:
        ra, rb = self.radios[a], self.radios[b]
        return math.hypot(ra.x - rb.x, ra.y - rb.y)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def transmit(self, sender: "Radio", frame: Frame) -> float:
        """Put ``frame`` on the air from ``sender``; returns air time.

        Delivery (or corruption) at each in-range receiver is scheduled on
        the simulator; the caller (MAC) is responsible for its own
        end-of-transmission bookkeeping.

        All receivers hear the frame at the same two instants (start and
        end of reception), so the whole neighborhood is serviced by *two*
        scheduled cohort events, not two events per receiver.  The scalar
        kernel schedules its fan-out loops over the list of receivers up
        at transmit time (a :class:`_Fanout`, or ``(receiver, arrival)``
        pairs under a capture model); the vector kernel schedules a
        :class:`_Cohort` over SoA rows.  Receivers are visited in
        ascending node-id order inside each fan-out in both kernels (same
        timestamps, same tie-order), so runs stay bit-identical across
        kernels.  Each cohort entry counts one logical event per receiver
        toward ``Simulator.events_processed``.
        """
        params = self.params
        duration = params.air_time(frame.size)
        prop = params.propagation_delay_s
        sim = self.sim
        now = sim.now
        tracer = self.tracer
        tracer.count("radio.tx")
        tracer.count("radio.tx_bytes", frame.size)
        self._frame_bytes.observe(frame.size)
        cls = frame.msg_class
        counts = self._tx_class_counts
        try:
            counts[cls] += 1
        except KeyError:
            counts[cls] = 1
        if tracer.wants("phy.tx"):
            tracer.record(
                "phy.tx",
                frame=frame.frame_id,
                src=sender.node_id,
                dst=frame.dst,
                size=frame.size,
                kind=frame.kind,
                cls=cls,
            )
        sender.energy.note_tx(duration, cls)
        end_of_tx = now + duration
        start = now + prop
        end = start + duration
        st = self.state
        if st is not None:
            row = sender._row  # type: ignore[attr-defined]
            hot = st.hot
            if end_of_tx > hot[row, C_TX_UNTIL]:
                hot[row, C_TX_UNTIL] = end_of_tx
            if self._nbr_rows is None:
                self._build_neighbor_cache()
            nbr = self._nbr_rows[row]  # type: ignore[index]
            if st.n_down:
                up = st.up[nbr]
                recv = nbr if up.all() else nbr[up]
            else:
                recv = nbr
            if recv.size:
                n = int(recv.size)
                if self._capture:
                    rx = self._nbr_rxmw[row]  # type: ignore[index]
                    if recv.size != nbr.size:
                        rx = rx[up]
                    cohort = _Cohort(
                        frame, cls, start, end, recv,
                        rx_mw=rx, band=sender.node_id % self._n_bands,
                    )
                    start_h, end_h = self._cohort_start_capture, self._cohort_end_capture
                else:
                    cohort = _Cohort(frame, cls, start, end, recv)
                    start_h, end_h = self._cohort_start, self._cohort_end
                sim.schedule_cohort_at(start, n, start_h, cohort)
                # NB: now + (prop + duration), not (now + prop) + duration —
                # the end event's timestamp must match the historical float
                # exactly (it differs from arrival.end by an ULP on some
                # inputs, and event timestamps feed tie-breaking and MAC
                # timing).
                sim.schedule_cohort_at(now + (prop + duration), n, end_h, cohort)
            return duration
        if end_of_tx > sender.tx_until:
            sender.tx_until = end_of_tx
        if self._capture:
            band = sender.node_id % self._n_bands
            arrivals = [
                (receiver, _Arrival(frame, cls, start, end, rx_mw, band))
                for receiver, rx_mw in zip(
                    self.neighbors(sender.node_id), self._neighbor_rx(sender.node_id)
                )
                if receiver.up
            ]
            if arrivals:
                n = len(arrivals)
                sim.schedule_cohort_at(start, n, _fanout_start_capture, arrivals)
                # NB: see the vector branch — same ULP caveat.
                sim.schedule_cohort_at(
                    now + (prop + duration), n, _fanout_end_capture, arrivals
                )
            return duration
        recv = [receiver for receiver in self.neighbors(sender.node_id) if receiver.up]
        if recv:
            n = len(recv)
            fanout = _Fanout(frame, cls, start, end, recv)
            sim.schedule_cohort_at(start, n, self._fanout_start, fanout)
            # NB: see the vector branch — same ULP caveat.
            sim.schedule_cohort_at(now + (prop + duration), n, self._fanout_end, fanout)
        return duration

    # ------------------------------------------------------------------
    # scalar fan-out (kernel="scalar", non-capture models)
    # ------------------------------------------------------------------
    def _fanout_start(self, f: _Fanout) -> None:
        """Begin reception of one frame at every receiver, in one loop.

        Per receiver that is up: extend its carrier-sense horizon, charge
        promiscuous receive energy, and settle corruption at start.  A
        receiver that is transmitting loses the frame to half duplex.  A
        receiver with other arrivals in flight corrupts every still-clean
        one of them (one collision each) and, unless already lost to half
        duplex, this one (one more).  Collision state lives in three
        per-radio integers — arrivals in flight, clean arrivals in
        flight, overlaps so far — the scalar twin of the vector kernel's
        ``C_ACTIVE``/``C_CLEAN`` columns.  Counters are added once per
        fan-out.

        The energy charge inlines :meth:`EnergyMeter.note_rx`'s in-order
        fast path with its exact arithmetic (``start + duration`` is the
        charged edge, not ``end``); any other case calls ``note_rx``.
        """
        start = f.start
        end = f.end
        cls = f.cls
        duration = end - start
        edge = start + duration  # note_rx's end of the charged interval
        charged = edge - start
        inline = edge > start
        pair = (start, edge)
        now = self.sim.now  # == start
        add_mark = f.marks.append
        n_half = n_coll = 0
        for r in f.recv:
            if not r.up:
                add_mark(None)  # radio off: nothing heard, nothing spent
                continue
            if end > r.busy_until:
                r.busy_until = end
            m = r.energy
            if inline and start >= m._rx_last:
                m._rx_intervals.extend(pair)
                m._rx_last = edge
                m.rx_time += charged
                m.rx_count += 1
                by_class = m.rx_time_by_class
                try:
                    by_class[cls] += charged
                except KeyError:
                    by_class[cls] = charged
            else:
                m.note_rx(start, duration, cls)
            half = now < r.tx_until
            if half:
                n_half += 1  # half duplex: lost while we transmit
            if r._n_active:
                n_coll += r._n_clean if half else r._n_clean + 1
                r._n_clean = 0
                r._n_overlaps += 1
                r._n_active += 1
                add_mark(-1)
            elif half:
                r._n_active = 1
                add_mark(-1)
            else:
                r._n_active = r._n_clean = 1
                add_mark(r._n_overlaps)
        if n_half:
            self.tracer.count("radio.halfduplex_loss", n_half)
        if n_coll:
            self.tracer.count("radio.collision", n_coll)

    def _fanout_end(self, f: _Fanout) -> None:
        """Finish reception: settle corruption, count, deliver clean frames.

        An arrival clean at start stays clean iff no overlap happened at
        its receiver since (the receiver's overlap count equals the
        mark).  A clean arrival at a receiver that is down gets nothing;
        at one that started transmitting mid-reception it is a half-duplex
        loss.  The transmitting check uses the event clock (``sim.now``),
        like the vector kernel.
        """
        now = self.sim.now
        ok = []
        keep = ok.append
        n_half = 0
        for r, mark in zip(f.recv, f.marks):
            if mark is None:
                continue
            r._n_active -= 1
            if mark != r._n_overlaps:
                continue  # corrupted at start, or overlapped since
            r._n_clean -= 1
            if not r.up:
                continue
            if now < r.tx_until:
                # Started transmitting mid-reception (zero-backoff ACKs).
                n_half += 1
                continue
            keep(r)
        if n_half:
            self.tracer.count("radio.halfduplex_loss", n_half)
        if ok:
            self._deliver_clean(f.frame, f.cls, ok)

    def _deliver_clean(self, frame: Frame, cls: str, ok: list) -> None:
        """Count clean receptions at ``ok`` and deliver to the addressee.

        ``ok`` are the receiving radios in ascending node id.  Every one
        counts in ``radio.rx``, the per-class rx counts and a ``phy.rx``
        record; only the addressed receiver (all of them for a broadcast)
        is handed the frame.
        """
        tracer = self.tracer
        n_ok = len(ok)
        tracer.count("radio.rx", n_ok)
        counts = self._rx_class_counts
        try:
            counts[cls] += n_ok
        except KeyError:
            counts[cls] = n_ok
        dst = frame.dst
        if tracer.wants("phy.rx"):
            fid, src = frame.frame_id, frame.src
            for radio in ok:
                tracer.record("phy.rx", frame=fid, node=radio.node_id, src=src)
                if dst == BROADCAST or radio.node_id == dst:
                    deliver = radio.deliver
                    if deliver is not None:
                        deliver(frame)
        elif dst == BROADCAST:
            for radio in ok:
                deliver = radio.deliver
                if deliver is not None:
                    deliver(frame)
        else:
            for radio in ok:
                if radio.node_id == dst:
                    deliver = radio.deliver
                    if deliver is not None:
                        deliver(frame)
                    break

    # ------------------------------------------------------------------
    # vectorized fan-out (kernel="vector")
    # ------------------------------------------------------------------
    def _cohort_start(self, c: _Cohort) -> None:
        """Begin reception at every cohort receiver, in one array pass.

        Per-receiver scalar semantics reproduced exactly: busy-until
        extension, promiscuous energy charge, half-duplex loss while
        transmitting, and pairwise collision corruption — a receiver with
        other in-flight arrivals corrupts every still-clean one of them
        (one collision count each) plus, unless already lost to half
        duplex, this arrival (one more).  The ``C_CLEAN``/``C_OVERLAP``
        columns carry exactly enough state to settle corruption at cohort
        end without per-arrival objects.

        numpy *call count* (not element count) dominates at realistic
        neighborhood sizes, so the handler works on a single gathered
        ``(k, 9)`` block and probes the rare conditions (any receiver
        down / transmitting / mid-arrival / mid-charge) with cheap
        ``max()`` reductions before building any boolean mask.  The
        common cohort — everyone up, idle and quiet — costs about a
        dozen numpy calls regardless of degree.
        """
        st = self.state
        assert st is not None
        rows = c.rows
        if st.n_down:
            alive = st.up[rows]
            started = rows if alive.all() else rows[alive]
            c.started = started
            if started.size == 0:
                return
        else:
            started = rows
            c.started = started
        g = st.hot[started]
        now = self.sim.now  # == c.start
        start = c.start
        end = c.end
        # carrier-sense horizon
        bu = g[:, C_BUSY_UNTIL]
        np.maximum(bu, end, out=bu)
        # promiscuous energy charge
        rl = g[:, C_RX_LAST]
        if start >= rl.max():
            # Every receiver is on the meter fast path (no rx overlap):
            # identical per-node arithmetic, one scalar subtraction.
            # Adjacent columns are written in fused slices (RX_LAST |
            # RX_PREV, RX_TIME | RX_COUNT) to halve the ufunc dispatches.
            charged = end - start
            g[:, C_RX_LAST : C_RX_PREV + 1] = (end, start)
            g[:, C_RX_TIME : C_RX_COUNT + 1] += (charged, 1.0)
            st.class_col(st.rx_cls, c.cls)[started] += charged
        else:
            self._charge_overlapped(st, started, g, start, end, c.cls)
        tracer = self.tracer
        # half duplex: anyone still transmitting at arrival start?
        txu = g[:, C_TX_UNTIL]
        halfdup = None
        if now < txu.max():
            halfdup = now < txu
            tracer.count("radio.halfduplex_loss", int(halfdup.sum()))
        # collisions: anyone with another arrival in flight?
        ac = g[:, C_ACTIVE]
        ca = g[:, C_CLEAN]
        if ac.max() > 0.0:
            overlapping = ac > 0.0
            n_coll = int(ca[overlapping].sum())
            if halfdup is None:
                n_coll += int(overlapping.sum())
            else:
                n_coll += int((overlapping & ~halfdup).sum())
            if n_coll:
                tracer.count("radio.collision", n_coll)
            ca[overlapping] = 0.0
            g[:, C_OVERLAP][overlapping] = now
            if halfdup is None:
                ca[~overlapping] += 1.0
                c.corrupted_at_start = overlapping
            else:
                ca[~(overlapping | halfdup)] += 1.0
                c.corrupted_at_start = overlapping | halfdup
            ac += 1.0
        elif halfdup is None:
            # Common cohort: fused in-flight/clean increment.
            g[:, C_ACTIVE : C_CLEAN + 1] += 1.0
            c.corrupted_at_start = None  # nobody corrupted at start
        else:
            ca[~halfdup] += 1.0
            c.corrupted_at_start = halfdup
            ac += 1.0
        st.hot[started] = g

    @staticmethod
    def _charge_overlapped(
        st: NodeState,
        started: np.ndarray,
        g: np.ndarray,
        start: float,
        end: float,
        cls: str,
    ) -> None:
        """Energy charge when some receiver has an overlapping rx charge.

        Mirrors :meth:`repro.net.state.MeterView.note_rx` per row: *fast*
        rows charge the whole interval, *mid* rows (arrival starts inside
        the previously charged interval) charge only the extension beyond
        the last charged edge.  Out-of-order charges raise — cohorts are
        serviced in event-time order, so the meter's slow path is
        unreachable.
        """
        rl = g[:, C_RX_LAST]
        fast = start >= rl
        charged = np.empty(rl.size)
        charged[fast] = end - start
        mid = ~fast
        rp = g[:, C_RX_PREV]
        if not (start >= rp[mid]).all():
            raise RuntimeError(
                "out-of-order rx charge in cohort "
                "(start precedes a previously charged interval)"
            )
        charged[mid] = end - rl[mid]
        rp[fast] = start
        np.maximum(rl, end, out=rl)
        pos = charged > 0.0
        col = st.class_col(st.rx_cls, cls)
        if pos.all():
            g[:, C_RX_TIME] += charged
            g[:, C_RX_COUNT] += 1.0
            col[started] += charged
        else:
            g[:, C_RX_TIME][pos] += charged[pos]
            g[:, C_RX_COUNT][pos] += 1.0
            col[started[pos]] += charged[pos]

    def _cohort_end(self, c: _Cohort) -> None:
        """Finish reception: settle corruption, deliver clean frames.

        An arrival was corrupted mid-flight iff some overlap happened at
        this receiver at or after the arrival's start (events fire in
        time order, so ``C_OVERLAP >= c.start`` can only come from an
        overlap the arrival was active for — a same-instant overlap
        before our start implies other arrivals were still active and we
        were corrupted at start anyway).  The transmitting check uses the
        event timestamp (``sim.now``), not ``c.end``: the end event is
        scheduled at ``tx + (prop + duration)``, which can differ from
        ``start + duration`` by one ULP, and the scalar path compares
        against the event clock.

        Same call-count discipline as ``_cohort_start``: one gather, one
        scatter, ``max()`` probes before masks, and ``None`` standing for
        all-clean / all-up / none-transmitting so the common cohort never
        materializes a boolean array.  Deliveries run after the scatter,
        in ascending node-id order (cohort rows are presorted), matching
        the scalar fan-out's visit order.
        """
        started = c.started
        if started is None or started.size == 0:
            return
        st = self.state
        assert st is not None
        g = st.hot[started]
        start = c.start
        cas = c.corrupted_at_start
        lo = g[:, C_OVERLAP]
        if cas is None and lo.max() < start:
            clean = None  # every arrival survived
        else:
            corrupted = (lo >= start) if cas is None else cas | (lo >= start)
            clean = ~corrupted
        if clean is None:
            # Common cohort: fused in-flight/clean decrement.
            g[:, C_ACTIVE : C_CLEAN + 1] -= 1.0
        else:
            g[:, C_ACTIVE] -= 1.0
            if not clean.any():
                st.hot[started] = g
                return
            g[:, C_CLEAN][clean] -= 1.0
        now = self.sim.now
        txu = g[:, C_TX_UNTIL]
        transmitting = (now < txu) if now < txu.max() else None
        st.hot[started] = g
        live = clean
        if st.n_down:
            up = st.up[started]
            live = up if live is None else live & up
        tracer = self.tracer
        if transmitting is None:
            ok = live
        else:
            half = transmitting if live is None else live & transmitting
            n_half = int(half.sum())
            if n_half:
                # Started transmitting mid-reception (zero-backoff ACKs).
                tracer.count("radio.halfduplex_loss", n_half)
            ok = ~transmitting if live is None else live & ~transmitting
        if ok is None:
            ok_rows = started
        else:
            if not ok.any():
                return
            ok_rows = started[ok]
        radios = self._row_radio
        self._deliver_clean(c.frame, c.cls, [radios[r] for r in ok_rows.tolist()])

    # ------------------------------------------------------------------
    # vectorized fan-out, SINR capture mode (pathloss channel)
    # ------------------------------------------------------------------
    def _cohort_start_capture(self, c: _Cohort) -> None:
        """Capture-mode cohort start: energy/busy as usual, then SINR state.

        Shares the disc handler's liveness filter, carrier-sense
        extension, promiscuous charge, and half-duplex accounting, but
        instead of the collision columns it advances the per-receiver,
        per-band running interference sums (``NodeState.interf``): add
        this frame's rx power at every started receiver, then raise the
        ``smax`` watermark of every other in-flight same-band cohort at
        the receivers the two share.  The sums only increase at starts,
        so each cohort's ``smax`` is exactly the max instantaneous
        same-band power over its airtime — the same scalars the scalar
        kernel's per-arrival bookkeeping computes, cell for cell.
        """
        st = self.state
        assert st is not None
        rows = c.rows
        if st.n_down:
            alive = st.up[rows]
            if alive.all():
                started = rows
            else:
                started = rows[alive]
                c.rx_mw = c.rx_mw[alive]  # type: ignore[index]
            c.started = started
            if started.size == 0:
                return
        else:
            started = rows
            c.started = started
        g = st.hot[started]
        now = self.sim.now  # == c.start
        start = c.start
        end = c.end
        bu = g[:, C_BUSY_UNTIL]
        np.maximum(bu, end, out=bu)
        rl = g[:, C_RX_LAST]
        if start >= rl.max():
            charged = end - start
            g[:, C_RX_LAST : C_RX_PREV + 1] = (end, start)
            g[:, C_RX_TIME : C_RX_COUNT + 1] += (charged, 1.0)
            st.class_col(st.rx_cls, c.cls)[started] += charged
        else:
            self._charge_overlapped(st, started, g, start, end, c.cls)
        txu = g[:, C_TX_UNTIL]
        if now < txu.max():
            halfdup = now < txu
            self.tracer.count("radio.halfduplex_loss", int(halfdup.sum()))
            c.corrupted_at_start = halfdup
        else:
            c.corrupted_at_start = None
        st.hot[started] = g
        band = c.band
        col = st.interf[:, band]  # type: ignore[index]
        s = col[started] + c.rx_mw
        col[started] = s
        c.smax = s
        for other in self._active_cohorts:
            if other.band != band:
                continue
            _, ia, ib = np.intersect1d(
                other.started, started, assume_unique=True, return_indices=True
            )
            if ia.size:
                other.smax[ia] = np.maximum(other.smax[ia], s[ib])
        self._active_cohorts.append(c)

    def _cohort_end_capture(self, c: _Cohort) -> None:
        """Capture-mode cohort end: retire interference, SINR-test, deliver.

        Mirrors the scalar ``Radio.arrival_end`` check order per
        receiver — half-duplex-at-start, liveness, transmitting-now
        (counts ``radio.halfduplex_loss``), then the SINR test
        ``rx >= thr * (noise + (smax - rx))`` (failures count
        ``radio.sinr_loss``) — with the identical elementwise float64
        arithmetic, so metrics stay bit-identical across kernels.
        """
        started = c.started
        if started is None or started.size == 0:
            return
        st = self.state
        assert st is not None
        self._active_cohorts.remove(c)
        col = st.interf[:, c.band]  # type: ignore[index]
        col[started] = col[started] - c.rx_mw
        cas = c.corrupted_at_start
        ok = None if cas is None else ~cas
        if st.n_down:
            up = st.up[started]
            if not up.all():
                ok = up if ok is None else ok & up
        tracer = self.tracer
        now = self.sim.now
        txu = st.hot[started, C_TX_UNTIL]
        if now < txu.max():
            transmitting = now < txu
            half = transmitting if ok is None else ok & transmitting
            n_half = int(half.sum())
            if n_half:
                # Started transmitting mid-reception (zero-backoff ACKs).
                tracer.count("radio.halfduplex_loss", n_half)
            ok = ~transmitting if ok is None else ok & ~transmitting
        if ok is None:
            cand_rows, rx, smax = started, c.rx_mw, c.smax
        else:
            if not ok.any():
                return
            cand_rows = started[ok]
            rx = c.rx_mw[ok]  # type: ignore[index]
            smax = c.smax[ok]
        good = rx >= self._thr * (self._noise_mw + (smax - rx))
        if good.all():
            ok_rows = cand_rows
        else:
            tracer.count("radio.sinr_loss", int((~good).sum()))
            if not good.any():
                return
            ok_rows = cand_rows[good]
        radios = self._row_radio
        self._deliver_clean(c.frame, c.cls, [radios[r] for r in ok_rows.tolist()])


class Radio:
    """One node's radio: reception state, carrier sense, energy.

    Reception is driven by the channel's fan-out loops, which read and
    write this radio's slots directly (see :meth:`Channel._fanout_start`);
    under a non-capture model the receive energy of an in-order arrival
    is charged inline with :class:`~repro.net.energy.EnergyMeter`'s own
    arithmetic, so ``energy`` must be an ``EnergyMeter``.
    """

    __slots__ = (
        "node_id",
        "x",
        "y",
        "channel",
        "energy",
        "tracer",
        "sim",
        "tx_until",
        "busy_until",
        "_active",
        "_n_active",
        "_n_clean",
        "_n_overlaps",
        "deliver",
        "up",
        "_rx_class_counts",
        "_interf",
    )

    def __init__(
        self,
        node_id: int,
        x: float,
        y: float,
        channel: Channel,
        energy: EnergyMeter,
    ) -> None:
        self.node_id = node_id
        self.x = x
        self.y = y
        self.channel = channel
        self.energy = energy
        self.tracer = channel.tracer
        self.sim = channel.sim
        #: end of our own current transmission (half-duplex bookkeeping)
        self.tx_until = 0.0
        #: carrier-sense horizon: medium considered busy until this time
        self.busy_until = 0.0
        #: in-flight arrivals (capture models)
        self._active: list[_Arrival] = []
        #: collision state under non-capture models: arrivals in flight,
        #: how many of them are still clean, and overlaps seen so far
        self._n_active = 0
        self._n_clean = 0
        self._n_overlaps = 0
        #: callback(frame) installed by the MAC; called for each clean
        #: reception addressed to this node (or broadcast).  A clean
        #: unicast or ACK overheard by a non-addressee is charged and
        #: counted but never delivered.
        self.deliver: Optional[Callable[[Frame], None]] = None
        #: liveness flag, pushed by the owning node on fail/recover.
        #: A plain attribute on purpose: it is read per receiver per
        #: frame (the transmit fan-out and both arrival loops), where a
        #: property + callback indirection is measurable.
        self.up = True
        #: the channel's shared per-class rx count dict (hot-path alias)
        self._rx_class_counts = channel._rx_class_counts
        #: per-band running interference sums (scalar kernel, capture
        #: models; the vector kernel keeps these in NodeState)
        self._interf = [0.0] * channel._n_bands if channel._capture else None
        channel.register(self)

    # ------------------------------------------------------------------
    @property
    def transmitting(self) -> bool:
        return self.sim.now < self.tx_until

    def medium_busy(self) -> bool:
        """Carrier sense: energy on the channel or our own transmission."""
        return self.sim.now < self.busy_until or self.transmitting

    def start_tx(self, frame: Frame) -> float:
        """Transmit ``frame``; returns its air time."""
        if not self.up:
            raise RuntimeError(f"node {self.node_id} is down; cannot transmit")
        return self.channel.transmit(self, frame)

    # ------------------------------------------------------------------
    # reception path under a capture model (driven by Channel events)
    # ------------------------------------------------------------------
    def arrival_start(self, arrival: _Arrival) -> None:
        """Begin one arrival: energy, half duplex, SINR bookkeeping."""
        if not self.up:
            arrival.corrupted = True  # radio off: nothing heard, nothing spent
            return
        end = arrival.end
        if end > self.busy_until:
            self.busy_until = end
        self.energy.note_rx(arrival.start, end - arrival.start, arrival.cls)
        if self.transmitting:
            # Half duplex: we miss frames that arrive while we transmit.
            arrival.corrupted = True
            self.tracer.count("radio.halfduplex_loss")
        # SINR capture: no pairwise corruption — advance this band's
        # running power sum and raise the watermark of every same-band
        # arrival in flight (sums only grow at starts, so tracking the
        # max here is exact).  A half-duplex-lost frame still radiates.
        band = arrival.band
        interf = self._interf
        s = interf[band] + arrival.rx_mw
        interf[band] = s
        for other in self._active:
            if other.band == band and s > other.smax:
                other.smax = s
        arrival.smax = s
        self._active.append(arrival)

    def arrival_end(self, arrival: _Arrival) -> None:
        """Finish one arrival: retire its power, SINR-test, deliver."""
        try:
            self._active.remove(arrival)
        except ValueError:
            return  # arrival was never started (node was down)
        self._interf[arrival.band] -= arrival.rx_mw
        if arrival.corrupted or not self.up:
            return
        if self.transmitting:
            # Started transmitting mid-reception (should be rare given
            # carrier sense, but possible with zero-backoff ACKs).
            self.tracer.count("radio.halfduplex_loss")
            return
        ch = self.channel
        if arrival.rx_mw < ch._thr * (ch._noise_mw + (arrival.smax - arrival.rx_mw)):
            self.tracer.count("radio.sinr_loss")
            return
        ch._deliver_clean(arrival.frame, arrival.cls, [self])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Radio {self.node_id} at ({self.x:.1f},{self.y:.1f})>"


class VectorRadio(Radio):
    """Radio whose mutable state lives in the channel's SoA columns.

    ``up`` / ``tx_until`` / ``busy_until`` become properties over
    ``NodeState`` row ``_row`` (the class attributes shadow the parent's
    slot descriptors), so the MAC and failure layers keep their exact
    Radio API while cohort fan-outs read the same cells via fancy
    indexing.  Getters convert to built-in ``bool``/``float`` — numpy
    scalars must never reach simulator timestamps or JSON artifacts.

    The row is allocated by the owning :class:`~repro.net.node.Node`
    (meter view and radio share it) before ``Radio.__init__`` runs, so
    the parent constructor's state writes already land in the arrays.
    """

    __slots__ = ("_st", "_row")

    def __init__(
        self,
        node_id: int,
        x: float,
        y: float,
        channel: Channel,
        energy,
        row: int,
    ) -> None:
        if channel.state is None:
            raise ValueError("VectorRadio requires a vector-kernel channel")
        self._st = channel.state
        self._row = row
        super().__init__(node_id, x, y, channel, energy)

    @property
    def up(self) -> bool:  # type: ignore[override]
        return bool(self._st.up[self._row])

    @up.setter
    def up(self, value: bool) -> None:
        # Routed through set_up so the channel's no-failures fast path
        # (skip liveness masks while n_down == 0) stays exact.
        self._st.set_up(self._row, bool(value))

    @property
    def tx_until(self) -> float:  # type: ignore[override]
        return float(self._st.hot[self._row, C_TX_UNTIL])

    @tx_until.setter
    def tx_until(self, value: float) -> None:
        self._st.hot[self._row, C_TX_UNTIL] = value

    @property
    def busy_until(self) -> float:  # type: ignore[override]
        return float(self._st.hot[self._row, C_BUSY_UNTIL])

    @busy_until.setter
    def busy_until(self, value: float) -> None:
        self._st.hot[self._row, C_BUSY_UNTIL] = value
