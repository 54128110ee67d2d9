"""Per-layer timing for the traced run: wrappers around each layer's calls.

The wrappers live in the benchmark, not in ``src/``: :func:`install`
replaces the layer entry points on their classes and modules with timed
pass-throughs before any world is built.  Each call pushes a frame on
one stack; on return its duration is added to its span's total, and
its duration minus the time of the wrapped calls it made to its self
time.  Simulation calls are strictly nested, so this stack form is exact
and keeps no per-call records (a fig5 pass makes tens of millions).

A wrapped call costs time of its own, partly inside its clock window and
partly outside it, where it would land in the caller's self time.  A
fig5 pass makes about 15 million wrapped calls, so that cost is seconds.
:func:`measure_call_cost` times both parts on an empty call once, and
the recorder subtracts them per call: from the call's own span, from its
caller's self time, and from every enclosing span's total.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable

#: span name -> [calls, total seconds, self seconds]
Accumulators = dict[str, list]


class Recorder:
    """Stack-based span accounting for synchronously nested calls.

    ``call_cost`` is ``(inner, outer)``: the seconds one wrapped call adds
    inside its own clock window and outside it (see
    :func:`measure_call_cost`); both are subtracted from what is recorded.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 call_cost: tuple[float, float] = (0.0, 0.0)) -> None:
        self.clock = clock
        self.inner_s, self.outer_s = call_cost
        self.spans: Accumulators = {}
        #: per open frame: the time of its wrapped children, their
        #: outside-window cost included (the bottom frame is the root) ...
        self._kids: list[float] = [0.0]
        #: ... and the wrapper cost nested anywhere inside it
        self._cost: list[float] = [0.0]

    def _acc(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def timed(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call counts toward span ``name``."""
        acc = self._acc(name)
        kids, cost, clock = self._kids, self._cost, self.clock
        inner, outer = self.inner_s, self.outer_s

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            kids.append(0.0)
            cost.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = cost.pop()
                acc[0] += 1
                acc[1] += dt - nested - inner
                acc[2] += dt - kids.pop() - inner
                kids[-1] += dt + outer
                cost[-1] += nested + inner + outer

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Time a block of benchmark code as span ``name`` (rare: no cost subtracted)."""
        acc = self._acc(name)
        self._kids.append(0.0)
        self._cost.append(0.0)
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            nested = self._cost.pop()
            acc[0] += 1
            acc[1] += dt - nested
            acc[2] += dt - self._kids.pop()
            self._kids[-1] += dt
            self._cost[-1] += nested

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a timed one."""
        setattr(owner, attr, self.timed(name, getattr(owner, attr)))

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, *prefixes: str) -> float:
        """Self time summed over spans named ``prefix`` or ``prefix.*``."""
        return sum(
            acc[2]
            for name, acc in self.spans.items()
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        )


def _empty(_arg: Any) -> None:
    return None


def measure_call_cost(calls: int = 20_000, repeats: int = 7,
                      clock: Callable[[], float] = time.perf_counter) -> tuple[float, float]:
    """Seconds one wrapped call adds ``(inside its window, outside it)``.

    A loop of wrapped empty calls is timed against the same loop of plain
    calls: the empty call's own self time is the inside part, and what the
    loop's self time exceeds the plain loop by is the outside part.  So a
    corrected caller keeps the cost of a plain call, as it has unwrapped.
    Medians over ``repeats`` rounds, since the host is shared.
    """
    inner, outer = [], []
    for _ in range(repeats):
        rec = Recorder(clock)
        wrapped = rec.timed("cal.call", _empty)

        def loop(fn: Callable) -> None:
            for _ in range(calls):
                fn(None)

        t0 = clock()
        loop(_empty)
        plain = clock() - t0
        rec.timed("cal.loop", loop)(wrapped)
        inner.append(rec.self_s("cal.call") / calls)
        outer.append((rec.self_s("cal.loop") - plain) / calls)
    return statistics.median(inner), statistics.median(outer)


def _methods(cls: type) -> list[str]:
    """Plain functions defined on ``cls`` itself (no dunders, no properties)."""
    return [
        attr
        for attr, value in vars(cls).items()
        if callable(value) and not attr.startswith("__") and not isinstance(value, type)
        and not isinstance(value, (staticmethod, classmethod))
    ]


#: the MAC's entry points: called from other layers, or scheduled on the
#: simulator.  Its internal helpers run inside these and count as their
#: self time, which spares millions of wrapped calls.
MAC_ENTRY_POINTS = (
    "send", "fail", "_on_phy_receive", "_sense_and_transmit", "_backoff_now",
    "_tx_done", "_on_ack_timeout", "_transmit_ack",
)


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the per-layer table reports.

    ``rec`` should carry the cost from :func:`measure_call_cost`.  Must
    run before any world is built: hot paths bind methods when
    their objects are wired (``radio.deliver = mac._on_phy_receive``).
    """
    from repro.aggregation import aggregator
    from repro.core.greedy import GreedyAgent
    from repro.diffusion.agent import DiffusionAgent
    from repro.experiments import runner, store
    from repro.net.energy import EnergyMeter
    from repro.net.mac import CsmaMac
    from repro.net.radio import Channel, Radio
    from repro.sim.engine import Simulator
    from repro.sim.trace import Tracer

    rec.patch(Simulator, "run", "engine.run")
    # no program counter counts these calls (several call sites add n > 1),
    # so they are wrapped too; their wrapper cost is subtracted like any other
    rec.patch(Tracer, "count", "trace.count")
    rec.patch(Channel, "transmit", "radio.transmit")
    for attr in ("arrival_start", "arrival_end"):
        rec.patch(Radio, attr, f"radio.arrival.{attr}")
    for attr in MAC_ENTRY_POINTS:
        rec.patch(CsmaMac, attr, f"mac.{attr.lstrip('_')}")
    for attr in ("note_tx", "note_rx"):
        rec.patch(EnergyMeter, attr, f"energy.{attr}")
    rec.patch(DiffusionAgent, "on_message", "diffusion.on_message")
    for attr in _methods(GreedyAgent):
        rec.patch(GreedyAgent, attr, f"core.greedy.{attr.lstrip('_')}")
    rec.patch(aggregator.AggregationBuffer, "flush", "aggregation.flush")
    rec.patch(aggregator, "greedy_weighted_set_cover", "aggregation.setcover")
    rec.patch(runner, "cached_field", "field.cached_field")
    rec.patch(runner, "build_world", "runner.build_world")
    rec.patch(runner, "run_observed", "runner.run_observed")
    rec.patch(store.RunStore, "get", "store.get")
    rec.patch(store.RunStore, "put", "store.put")
    rec.patch(store, "run_key", "store.run_key")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(rec: Recorder, counters: dict[str, int], events: int, cancelled: int,
                field_hits: int, field_misses: int) -> dict[str, float]:
    """The simulation part of the per-layer table (names as in README.md).

    ``counters`` are the program's own exact counts summed over the
    pass's runs (``RunMetrics.counters``); ``events``/``cancelled`` are
    the simulator's totals.
    """
    c = counters.get
    mac_attempts = c("mac.tx", 0)
    arrival_calls = sum(
        acc[0] for name, acc in rec.spans.items() if name.startswith("radio.arrival.")
    )
    return {
        "engine.run_s": rec.total_s("engine.run"),
        "engine.self_s": rec.self_s("engine"),
        "engine.events": events,
        "engine.cancelled_ratio": _ratio(cancelled, events + cancelled),
        "trace.count.calls": rec.calls("trace.count"),
        "trace.count.self_s": rec.self_s("trace.count"),
        "radio.transmit.calls": rec.calls("radio.transmit"),
        "radio.transmit.self_s": rec.self_s("radio.transmit"),
        "radio.arrival.calls": arrival_calls,
        "radio.arrival.self_s": rec.self_s("radio.arrival"),
        "radio.rx": c("radio.rx", 0),
        "radio.collision": c("radio.collision", 0),
        "radio.collision_ratio": _ratio(
            c("radio.collision", 0), c("radio.rx", 0) + c("radio.collision", 0)
        ),
        "mac.send.calls": rec.calls("mac.send"),
        "mac.self_s": rec.self_s("mac"),
        "mac.tx": mac_attempts,
        "mac.retry": c("mac.retry", 0),
        "mac.drop_retry": c("mac.drop_retry", 0),
        "mac.acked_ratio": _ratio(c("mac.acked", 0), mac_attempts),
        "energy.note.calls": rec.calls("energy.note_tx") + rec.calls("energy.note_rx"),
        "energy.self_s": rec.self_s("energy"),
        "diffusion.on_message.calls": rec.calls("diffusion.on_message"),
        "diffusion.self_s": rec.self_s("diffusion"),
        "core.greedy.self_s": rec.self_s("core.greedy"),
        "aggregation.flush.calls": rec.calls("aggregation.flush"),
        "aggregation.setcover.calls": rec.calls("aggregation.setcover"),
        "aggregation.self_s": rec.self_s("aggregation"),
        "field.build_s": rec.total_s("field.cached_field"),
        "field.cache_hits": field_hits,
        "field.cache_misses": field_misses,
        "runner.build_world.self_s": rec.self_s("runner.build_world"),
        "runner.reduce_s": rec.self_s("runner.run_observed"),
        "figures.plan_s": rec.total_s("figures.plan"),
        "figures.assemble_s": rec.total_s("figures.assemble"),
        "store.put.calls": rec.calls("store.put"),
        "store.put_s": rec.self_s("store.put"),
        "store.get.calls": rec.calls("store.get"),
        "store.get_s": rec.self_s("store.get"),
        "store.run_key_s": rec.self_s("store.run_key"),
    }
