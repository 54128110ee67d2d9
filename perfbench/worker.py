"""One pass of the density-sweep workload, in a fresh interpreter.

    python3 perfbench/worker.py --seed 1 --store DIR [--warm-store DIR] [--trace]

``run.py`` starts this with ``src/`` on ``PYTHONPATH``.  The worker
imports the program, opens a fresh run store and prints ``READY``; the
spawn-to-READY time is one ``setup_s`` sample.
With ``--setup-only`` it stops there.  Otherwise it runs the pass and
prints one JSON line: the cold-job and warm-job times, the pass's wall
time, its checks, a digest of every RunMetrics, and (``--trace``) the
per-layer table.

A pass is one cold job: each run of the fig5 plan is probed in the store
(a miss), run, and persisted, and the runs are then assembled into the
figure.  Its wall time is the pass's ``wall_s``.

Warm jobs re-request the result from ``--warm-store``, the store an
earlier pass of the same seed filled: every run is answered from that
store (run key, store probe, decode), and the figure is assembled and
serialized as the service's result route serves it.  Each answer must
equal this pass's cold result, runs and figure both; that check is not
timed.  Warm jobs are interleaved with the cold runs, ``WARM_PER_RUN``
after each, so their samples spread over the whole pass: a window of a
second or two at its end would catch one moment of a shared host's
speed, which swings by half within seconds.  Their time is left out of
``wall_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time

from repro.experiments import figures, runner
from repro.experiments.config import smoke
from repro.experiments.persistence import figure_payload
from repro.experiments.store import RunStore
from repro.experiments.sweeps import cell_seed, run_configs
from stats import Checks

#: warm requests after each cold run: 98 per pass, about 0.7 s
WARM_PER_RUN = 7


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def density_plan(seed: int) -> figures.FigurePlan:
    """The fig5 smoke plan (7 densities x 2 schemes), its cell seeds drawn from ``seed``.

    Both schemes of a density keep sharing one seed (the paired design);
    ``seed`` 0 gives exactly ``figure_plan("fig5", smoke())``.
    """
    base = figures.figure_plan("fig5", smoke())
    if base.plan and smoke().trials != 1:
        raise RuntimeError("density-sweep assumes one trial per cell")
    return dataclasses.replace(
        base,
        plan=tuple(
            (label, x, dataclasses.replace(cfg, seed=cell_seed(seed, x, 0)))
            for label, x, cfg in base.plan
        ),
    )


def cells_filled(fig) -> bool:
    return len(fig.cells) > 0 and all(
        c.n_runs >= 1
        and all(math.isfinite(v) for v in (c.energy, c.delay, c.ratio))
        for c in fig.cells
    )


def run_pass(seed: int, store: RunStore, rec=None, warm_store: RunStore | None = None) -> dict:
    span = rec.span if rec is not None else (lambda _name: contextlib.nullcontext())
    checks = Checks()
    warm_s: list[float] = []
    warm_block_s = 0.0
    #: per warm request, whether every run was a store hit; the distinct answers
    warm_hits: list[bool] = []
    warm_answers: set[tuple[str, str]] = set()
    runs: list[dict] = []
    metrics: list = []
    counters: dict[str, int] = {}
    field_hits = field_misses = 0

    t_pass = time.perf_counter()
    with span("figures.plan"):
        fplan = density_plan(seed)
        configs = fplan.configs()

    def payload(results) -> str:
        """The figure as the service's result route serves it."""
        with span("figures.assemble"):
            fig = figures.figure_from_results(fplan, results)
        return canonical(figure_payload(fig))

    def warm_requests() -> float:
        t_block = time.perf_counter()
        for _ in range(WARM_PER_RUN):
            hits = warm_store.stats.hits
            t0 = time.perf_counter()
            results = run_configs(configs, store=warm_store)
            warm = payload(results)
            warm_s.append(time.perf_counter() - t0)
            warm_hits.append(warm_store.stats.hits - hits == len(configs))
            warm_answers.add((warm, canonical([dataclasses.asdict(r) for r in results])))
        return time.perf_counter() - t_block

    # the cold job: every run is probed (a miss), run and persisted, and the
    # result assembled -- the whole request computed against an empty store
    for cfg in configs:
        probe = store.get(cfg)
        try:
            observed = runner.run_observed(cfg)
        except Exception as exc:  # noqa: BLE001 - a failed run is a failed operation
            checks.op(False, f"run {cfg.scheme}@{cfg.n_nodes} raised {exc!r}")
            continue
        store.put(cfg, observed.metrics)
        m = observed.metrics
        stored = store.get(cfg)
        checks.op(
            probe is None
            and stored is not None
            and canonical(dataclasses.asdict(stored)) == canonical(dataclasses.asdict(m)),
            f"run {cfg.scheme}@{cfg.n_nodes} did not round-trip through the store",
        )
        metrics.append(m)
        for key, value in m.counters.items():
            counters[key] = counters.get(key, 0) + value
        if observed.field_cache_hit:
            field_hits += 1
        else:
            field_misses += 1
        runs.append(
            {
                "scheme": cfg.scheme,
                "n_nodes": cfg.n_nodes,
                "events": observed.events_processed,
                "cancelled": observed.cancelled_skipped,
                "metrics_digest": hashlib.sha256(
                    canonical(dataclasses.asdict(m)).encode()
                ).hexdigest(),
            }
        )
        if warm_store is not None:
            warm_block_s += warm_requests()

    cold_payload = payload(metrics) if len(metrics) == len(configs) else None
    wall_s = time.perf_counter() - t_pass - warm_block_s
    if cold_payload is not None:
        fig = figures.figure_from_results(fplan, metrics)
        checks.op(cells_filled(fig), "a figure cell is empty or not finite")
    cold_answer = (cold_payload, canonical([dataclasses.asdict(r) for r in metrics]))
    for hit in warm_hits:
        checks.op(
            hit and warm_answers == {cold_answer},
            "a warm request missed the store or differed from the cold result",
        )
    if rec is not None:
        checks.op(
            rec.calls("radio.transmit") == counters.get("radio.tx", 0),
            "traced Channel.transmit calls differ from the radio.tx counter",
        )

    out = {
        "wall_s": wall_s,
        "cold_s": [wall_s] if cold_payload is not None else [],
        "warm_s": warm_s,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "errors": checks.errors,
        "runs": runs,
        "digest": hashlib.sha256("".join(r["metrics_digest"] for r in runs).encode()).hexdigest(),
    }
    if rec is not None:
        from layers import layer_table

        out["layers"] = layer_table(
            rec,
            counters,
            events=sum(r["events"] for r in runs),
            cancelled=sum(r["cancelled"] for r in runs),
            field_hits=field_hits,
            field_misses=field_misses,
        )
        out["call_cost_ns"] = [1e9 * rec.inner_s, 1e9 * rec.outer_s]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--store", required=True, help="empty directory for the run store")
    ap.add_argument("--warm-store", help="a store an earlier pass of this seed filled")
    ap.add_argument("--trace", action="store_true", help="time each layer's calls")
    ap.add_argument("--setup-only", action="store_true", help="exit once set up")
    args = ap.parse_args(argv)

    store = RunStore(args.store)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    rec = None
    if args.trace:
        from layers import Recorder, install, measure_call_cost

        rec = Recorder(call_cost=measure_call_cost())
        install(rec)
    warm_store = RunStore(args.warm_store) if args.warm_store else None
    print(canonical(run_pass(args.seed, store, rec, warm_store)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
