"""The canonical sweep benchmark: ``repro bench`` and ``BENCH_sweep.json``.

This is the repo's perf trajectory.  Every PR that touches the sweep
pipeline re-runs the *same* deterministic workload — a miniature density
study (densities x schemes x paired trials, short runs) — and commits the
resulting ``BENCH_sweep.json`` so wall-time, event throughput, scheduler
churn, and field-cache effectiveness accumulate per PR and regressions
show up as diffs.

The workloads are fixed on purpose: comparability beats coverage here.
Each :data:`WORKLOADS` profile exercises every layer the sweeps pay for —
world building (with the field cache), the event kernel, the PHY
fan-out, the MAC, the diffusion schemes — while staying bounded:
``canonical`` (the headline) and its CI-smoke variant ``quick`` cover
the paper's density band; ``large`` and ``large-quick`` run thousands of
nodes on an 800 m field.

When ``workers`` is given, the same configs also run through the
hardened parallel executor and the results are checked for exact
equality against the serial pass (``parallel.identical`` in the JSON) —
the determinism contract, asserted on every benchmark run.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

from ..diffusion.agent import DiffusionParams
from ..net.channel import ChannelSpec
from ..net.fieldcache import default_field_cache
from .config import ExperimentConfig
from .runner import run_observed
from .sweeps import cell_seed, run_configs

__all__ = [
    "BENCH_VERSION",
    "WORKLOADS",
    "CANONICAL_WORKLOAD",
    "QUICK_WORKLOAD",
    "bench_configs",
    "run_bench",
    "save_bench",
    "format_bench",
]

BENCH_VERSION = 1

#: named bench workloads (do not change casually: each profile is a
#: comparison axis across PRs; bump BENCH_VERSION if one must move).
#:
#: * ``canonical`` — the headline: the paper's density band, both
#:   schemes, paired trials.
#: * ``quick`` — CI-smoke variant of canonical (~10x cheaper).
#: * ``large`` — the scale profile: 2 000–5 000 nodes on an 800 m field
#:   (mean radio degree ~16..39), single scheme/trial, short runs.  It
#:   also feeds the large-field density figure.
#: * ``large-quick`` — CI-smoke variant of large (one 2 000-node run).
#: * ``pathloss`` — canonical geometry under the pathloss/SINR channel
#:   (default :class:`~repro.net.channel.ChannelSpec` pathloss block):
#:   the capture bookkeeping's perf axis.
#: * ``pathloss-quick`` — CI-smoke variant of pathloss.
WORKLOADS: dict[str, dict] = {
    "canonical": {
        "densities": (50, 150, 250),
        "schemes": ("opportunistic", "greedy"),
        "trials": 2,
        "duration": 30.0,
        "warmup": 12.0,
        "exploratory_interval": 10.0,
    },
    "quick": {
        "densities": (50, 100),
        "schemes": ("opportunistic", "greedy"),
        "trials": 1,
        "duration": 15.0,
        "warmup": 6.0,
        "exploratory_interval": 6.0,
    },
    "large": {
        "densities": (2000, 3500, 5000),
        "schemes": ("greedy",),
        "trials": 1,
        "duration": 10.0,
        "warmup": 4.0,
        "exploratory_interval": 6.0,
        "field_size": 800.0,
    },
    "large-quick": {
        "densities": (2000,),
        "schemes": ("greedy",),
        "trials": 1,
        "duration": 6.0,
        "warmup": 3.0,
        "exploratory_interval": 6.0,
        "field_size": 800.0,
    },
    "pathloss": {
        "densities": (50, 150, 250),
        "schemes": ("opportunistic", "greedy"),
        "trials": 2,
        "duration": 30.0,
        "warmup": 12.0,
        "exploratory_interval": 10.0,
        "channel": "pathloss",
    },
    "pathloss-quick": {
        "densities": (50, 100),
        "schemes": ("opportunistic", "greedy"),
        "trials": 1,
        "duration": 15.0,
        "warmup": 6.0,
        "exploratory_interval": 6.0,
        "channel": "pathloss",
    },
}

#: legacy aliases (pre-profile API)
CANONICAL_WORKLOAD = WORKLOADS["canonical"]
QUICK_WORKLOAD = WORKLOADS["quick"]


def _resolve_profile(quick: bool, profile: Optional[str]) -> str:
    if profile is None:
        return "quick" if quick else "canonical"
    if profile not in WORKLOADS:
        raise ValueError(
            f"unknown bench profile {profile!r} (have {sorted(WORKLOADS)})"
        )
    return profile


def bench_configs(
    quick: bool = False, profile: Optional[str] = None
) -> list[ExperimentConfig]:
    """The deterministic config list for one bench workload (paired seeds).

    ``profile`` names a :data:`WORKLOADS` entry; the legacy ``quick``
    flag (profile ``"quick"`` vs ``"canonical"``) is honoured when no
    profile is given.
    """
    w = WORKLOADS[_resolve_profile(quick, profile)]
    diffusion = DiffusionParams(exploratory_interval=w["exploratory_interval"])
    field_size = w.get("field_size", 200.0)
    # Only non-disc workloads set the channel kwarg: disc configs must
    # keep the default block so their store keys match pre-channel runs.
    extra: dict = {}
    if w.get("channel") == "pathloss":
        extra["channel"] = ChannelSpec(model="pathloss")
    configs = []
    for n in w["densities"]:
        for trial in range(w["trials"]):
            seed = cell_seed(0, n, trial)
            for scheme in w["schemes"]:
                configs.append(
                    ExperimentConfig(
                        scheme=scheme,
                        n_nodes=n,
                        seed=seed,
                        duration=w["duration"],
                        warmup=w["warmup"],
                        field_size=field_size,
                        diffusion=diffusion,
                        **extra,
                    )
                )
    return configs


def run_bench(
    quick: bool = False,
    workers: int = 0,
    timeline: bool = False,
    profile: Optional[str] = None,
    spans: bool = False,
) -> dict:
    """Run one bench workload and assemble the perf payload.

    The serial pass is the timed headline (it is what the cache and the
    kernel fast paths speed up); the optional parallel pass measures the
    executor and proves parallel == serial bit-for-bit.  ``timeline``
    runs the same workload with the standard probe timeline attached —
    the probe-overhead gate.  ``spans`` wraps every run in
    request-tracing spans the way the service daemon does (one ``run``
    span + one ``worker.execute`` child per config, recorded into a
    bounded :class:`~repro.obs.spans.SpanStore`) — the span-overhead
    gate.  ``tools/check_bench.py`` compares entries only against
    baselines with the same ``(profile, timeline, spans)`` triple.
    """
    from ..obs import ObsOptions
    from ..obs.manifest import _environment
    from ..obs.spans import SpanStore

    profile = _resolve_profile(quick, profile)
    cache = default_field_cache()
    cache.clear()
    configs = bench_configs(profile=profile)
    obs = ObsOptions(timeline=True) if timeline else None
    span_store = SpanStore() if spans else None

    def _observe(cfg):
        if span_store is None:
            return run_observed(cfg, obs)
        run_span = span_store.start(
            "run", scheme=cfg.scheme, n_nodes=cfg.n_nodes, seed=cfg.seed
        )
        exec_span = span_store.start("worker.execute", parent=run_span)
        out = run_observed(cfg, obs)
        exec_span.end()
        run_span.end()
        return out

    per_run = []
    t0 = time.perf_counter()
    observed = [_observe(cfg) for cfg in configs]
    wall = time.perf_counter() - t0

    total_events = sum(o.events_processed for o in observed)
    total_cancelled = sum(o.cancelled_skipped for o in observed)
    for cfg, o in zip(configs, observed):
        per_run.append(
            {
                "scheme": cfg.scheme,
                "n_nodes": cfg.n_nodes,
                "seed": cfg.seed,
                "wall_time_s": round(o.wall_time_s, 4),
                "events_processed": o.events_processed,
                "cancelled_skipped": o.cancelled_skipped,
                "field_cache_hit": o.field_cache_hit,
                "avg_dissipated_energy": o.metrics.avg_dissipated_energy,
                "delivery_ratio": o.metrics.delivery_ratio,
            }
        )

    w = WORKLOADS[profile]
    payload: dict = {
        "bench_version": BENCH_VERSION,
        "kind": "bench",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "profile": profile,
        "quick": profile == "quick",  # legacy flag, kept for old tooling
        "timeline": timeline,
        "spans": spans,
        "workload": {k: list(v) if isinstance(v, tuple) else v for k, v in w.items()},
        "n_runs": len(configs),
        "wall_time_s": round(wall, 3),
        "runs_per_sec": round(len(configs) / wall, 4) if wall > 0 else 0.0,
        "events_processed": total_events,
        "events_per_sec": round(total_events / wall, 1) if wall > 0 else 0.0,
        "cancelled_skipped": total_cancelled,
        "cancelled_churn": round(total_cancelled / total_events, 6) if total_events else 0.0,
        "field_cache": cache.stats(),
        "environment": _environment(),
    }
    if timeline:
        payload["timeline_samples"] = sum(
            o.timeline.n_samples for o in observed if o.timeline is not None
        )
    if span_store is not None:
        payload["span_stats"] = span_store.stats()

    if workers and workers > 1:
        t1 = time.perf_counter()
        parallel_results = run_configs(configs, workers=workers)
        parallel_wall = time.perf_counter() - t1
        identical = [o.metrics for o in observed] == parallel_results
        payload["parallel"] = {
            "workers": workers,
            "wall_time_s": round(parallel_wall, 3),
            "speedup_vs_serial": round(wall / parallel_wall, 3) if parallel_wall > 0 else 0.0,
            "identical": identical,
        }

    payload["per_run"] = per_run
    return payload


def save_bench(payload: dict, path: Union[str, Path]) -> Path:
    """Append one bench result to the trajectory file at ``path``.

    The file accumulates a ``bench-trajectory``: one entry per benchmark
    run, so throughput history is a committed artifact and regressions
    show up as diffs (``tools/check_bench.py`` gates on the last entry).
    A legacy single-payload file is converted in place, keeping the old
    result as the trajectory's first entry.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = None
        if isinstance(existing, dict):
            if existing.get("kind") == "bench-trajectory":
                entries = list(existing.get("entries", []))
            elif existing.get("kind") == "bench":  # legacy single payload
                entries = [existing]
    entries.append(payload)
    wrapped = {
        "kind": "bench-trajectory",
        "bench_version": BENCH_VERSION,
        "entries": entries,
    }
    path.write_text(json.dumps(wrapped, indent=2, sort_keys=True) + "\n")
    return path


def format_bench(payload: dict) -> str:
    """Human-readable bench summary (the CLI's output)."""
    cache = payload["field_cache"]
    tl = ", timelines on" if payload.get("timeline") else ""
    tl += ", spans on" if payload.get("spans") else ""
    profile = payload.get("profile") or ("quick" if payload.get("quick") else "canonical")
    lines = [
        f"repro bench ({profile} workload{tl}, "
        f"{payload['n_runs']} runs)",
        f"wall time        {payload['wall_time_s']:.3f} s "
        f"({payload['runs_per_sec']:.2f} runs/s)",
        f"events           {payload['events_processed']:,} "
        f"({payload['events_per_sec']:,.0f} events/s)",
        f"cancelled churn  {payload['cancelled_skipped']:,} "
        f"({100 * payload['cancelled_churn']:.2f}% of events)",
        f"field cache      {cache['hits']} hits / {cache['misses']} misses "
        f"(hit rate {100 * cache['hit_rate']:.0f}%)",
    ]
    par = payload.get("parallel")
    if par:
        status = "identical to serial" if par["identical"] else "MISMATCH vs serial!"
        lines.append(
            f"parallel         {par['wall_time_s']:.3f} s with {par['workers']} workers "
            f"({par['speedup_vs_serial']:.2f}x, {status})"
        )
    return "\n".join(lines)
