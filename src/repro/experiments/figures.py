"""One harness function per evaluation figure (figs 5-10 + the GIT/SPT
related-work table).  Each returns a :class:`FigureResult` whose rows are
the same series the paper plots: for every sweep value and scheme, the
three panel metrics — (a) average dissipated energy, (b) average delay,
(c) distinct-event delivery ratio.

See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for measured
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..diffusion.agent import DiffusionParams
from ..net.channel import ChannelSpec
from ..trees.models import savings_study
from .config import (
    DENSITY_SWEEP,
    SINK_SWEEP,
    SOURCE_SWEEP,
    ExperimentConfig,
    FailureModel,
    Profile,
)
from .sweeps import (
    COMPARISON_SCHEMES,
    CellSummary,
    StoreArg,
    cell_seed,
    paired_plan,
    run_configs,
    summarize_paired,
)

__all__ = [
    "FigureResult",
    "FigurePlan",
    "figure_plan",
    "figure_from_results",
    "run_figure_plan",
    "figure_cell_config",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure_large_density",
    "figure_channel_density",
    "LARGE_DENSITY_SWEEP",
    "git_vs_spt_table",
    "FIGURES",
]

#: the beyond-paper density sweep (large-field study; see WORKLOADS["large"])
LARGE_DENSITY_SWEEP = (2000, 3500, 5000)


@dataclass(frozen=True)
class FigureResult:
    """All cells of one figure, plus presentation metadata."""

    figure_id: str
    title: str
    x_label: str
    cells: tuple[CellSummary, ...]

    def xs(self) -> list[float]:
        return sorted({c.x for c in self.cells})

    def series(self, scheme: str) -> list[CellSummary]:
        return sorted((c for c in self.cells if c.scheme == scheme), key=lambda c: c.x)

    def cell(self, scheme: str, x: float) -> CellSummary:
        for c in self.cells:
            if c.scheme == scheme and c.x == x:
                return c
        raise KeyError((scheme, x))

    def energy_savings(self, x: float) -> float:
        """Fractional energy savings of greedy over opportunistic at x."""
        opp = self.cell("opportunistic", x)
        greedy = self.cell("greedy", x)
        if opp.energy == 0:
            return 0.0
        return 1.0 - greedy.energy / opp.energy

    def max_energy_savings(self) -> float:
        return max(self.energy_savings(x) for x in self.xs())


@dataclass(frozen=True)
class FigurePlan:
    """The deterministic run plan of one figure, before execution.

    Splitting plan construction (:func:`figure_plan`) from execution
    (:func:`run_figure_plan`) lets any executor — the in-process sweep
    machinery or the :mod:`repro.service` job queue — run the exact same
    configs and reassemble a bit-identical :class:`FigureResult` via
    :func:`figure_from_results`.
    """

    figure_id: str
    title: str
    x_label: str
    #: ordered ``(cell label, sweep value, config)`` triples
    plan: tuple[tuple[str, object, ExperimentConfig], ...]

    def configs(self) -> list[ExperimentConfig]:
        return [cfg for _label, _x, cfg in self.plan]


def _base(profile: Profile, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        scheme="greedy",
        n_nodes=50,
        seed=0,
        duration=profile.duration,
        warmup=profile.warmup,
        diffusion=profile.diffusion,
    )
    return replace(cfg, **overrides) if overrides else cfg


#: per-figure (title template, x_label, default sweep, sweep field, base
#: builder).  ``{n}`` in a title is the fixed node count of the
#: source/sink sweeps; base builders take ``(profile, n_nodes)``.
_FIG_DEFS: dict = {
    "fig5": (
        "Greedy vs opportunistic aggregation across density",
        "nodes", DENSITY_SWEEP, "n_nodes",
        lambda profile, n: _base(profile),
    ),
    "fig6": (
        "Impact of node failures (20% down, rotating epochs)",
        "nodes", DENSITY_SWEEP, "n_nodes",
        lambda profile, n: _base(
            profile, failures=FailureModel(fraction=0.2, epoch=profile.failure_epoch)
        ),
    ),
    "fig7": (
        "Impact of random source placement",
        "nodes", DENSITY_SWEEP, "n_nodes",
        lambda profile, n: _base(profile, source_placement="random"),
    ),
    "fig8": (
        "Impact of the number of sinks ({n} nodes)",
        "sinks", SINK_SWEEP, "n_sinks",
        lambda profile, n: _base(profile, n_nodes=n),
    ),
    "fig9": (
        "Impact of the number of sources ({n} nodes)",
        "sources", SOURCE_SWEEP, "n_sources",
        lambda profile, n: _base(profile, n_nodes=n),
    ),
    "fig10": (
        "Impact of linear aggregation ({n} nodes)",
        "sources", SOURCE_SWEEP, "n_sources",
        lambda profile, n: _base(profile, n_nodes=n, aggregation="linear"),
    ),
    "large-density": (
        "Density vs delivered data at scale (800 m field)",
        "nodes", LARGE_DENSITY_SWEEP, "n_nodes",
        lambda profile, n: _large_base(profile),
    ),
}


def _spec(
    figure_id: str,
    profile: Profile,
    channel: Optional[ChannelSpec] = None,
    n_nodes: int = 350,
    xs: Optional[Sequence] = None,
):
    """Resolve one figure's ``(title, x_label, xs, labels, make_config)``."""
    if figure_id == "channel-density":
        spec = CHANNEL_STUDY_SPEC if channel is None else channel
        if spec.model != "pathloss":
            raise ValueError("the channel-density study needs a pathloss spec")
        base = _base(profile)
        labels = tuple(
            f"{scheme}@{chan}"
            for chan in ("disc", "pathloss")
            for scheme in COMPARISON_SCHEMES
        )

        def make_channel_config(label: str, x, seed: int) -> ExperimentConfig:
            scheme, _, chan = label.partition("@")
            ch = ChannelSpec() if chan == "disc" else spec
            return replace(base, scheme=scheme, seed=seed, n_nodes=x, channel=ch)

        return (
            "Density sweep under disc vs pathloss/SINR channels",
            "nodes",
            DENSITY_SWEEP if xs is None else xs,
            labels,
            make_channel_config,
        )
    if figure_id not in _FIG_DEFS:
        raise KeyError(f"unknown figure {figure_id!r} (have {sorted(FIGURES)})")
    title, x_label, default_xs, sweep_field, base_fn = _FIG_DEFS[figure_id]
    base = base_fn(profile, n_nodes)
    if channel is not None:
        base = replace(base, channel=channel)

    def make_config(scheme: str, x, seed: int) -> ExperimentConfig:
        return replace(base, scheme=scheme, seed=seed, **{sweep_field: x})

    return (
        title.format(n=n_nodes),
        x_label,
        default_xs if xs is None else xs,
        COMPARISON_SCHEMES,
        make_config,
    )


def figure_plan(
    figure_id: str,
    profile: Profile,
    trials: Optional[int] = None,
    channel: Optional[ChannelSpec] = None,
    n_nodes: int = 350,
    xs: Optional[Sequence] = None,
) -> FigurePlan:
    """Build one figure's deterministic :class:`FigurePlan`.

    The plan enumerates exactly the ``(cell label, x, config)`` triples
    the in-process harness would run — same bases, same paired seeds —
    so executing its configs elsewhere and reassembling with
    :func:`figure_from_results` reproduces the figure bit for bit.
    ``n_nodes`` fixes the field of the source/sink sweeps (figs 8-10);
    ``xs`` overrides the default sweep values.
    """
    title, x_label, xs, labels, make_config = _spec(
        figure_id, profile, channel=channel, n_nodes=n_nodes, xs=xs
    )
    plan = paired_plan(profile, xs, make_config, trials=trials, schemes=labels)
    return FigurePlan(figure_id, title, x_label, tuple(plan))


def figure_from_results(fplan: FigurePlan, results: Sequence) -> FigureResult:
    """Assemble a :class:`FigureResult` from a plan's run outcomes.

    ``results`` is the order-preserving outcome list for
    ``fplan.plan`` (``RunMetrics``, or ``RunFailure`` placeholders for
    runs that failed — those cells summarize their survivors).
    """
    cells = summarize_paired(fplan.plan, results)
    return FigureResult(fplan.figure_id, fplan.title, fplan.x_label, tuple(cells))


def run_figure_plan(
    fplan: FigurePlan,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
) -> FigureResult:
    """Execute a :class:`FigurePlan` in process (the classic path)."""
    results = run_configs(
        fplan.configs(), workers=workers, progress=progress, store=store
    )
    return figure_from_results(fplan, results)


def _run(
    figure_id: str,
    profile: Profile,
    xs: Sequence,
    trials: Optional[int],
    workers: int,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
    n_nodes: int = 350,
) -> FigureResult:
    fplan = figure_plan(
        figure_id, profile, trials=trials, channel=channel, n_nodes=n_nodes, xs=xs
    )
    return run_figure_plan(fplan, workers=workers, progress=progress, store=store)


def figure5(
    profile: Profile,
    densities: Sequence[int] = DENSITY_SWEEP,
    trials: Optional[int] = None,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
) -> FigureResult:
    """Fig 5: greedy vs opportunistic across network density (the headline
    comparison: 5 corner sources, 1 corner sink, perfect aggregation)."""
    return _run(
        "fig5", profile, densities, trials, workers, progress, store, channel=channel
    )


def figure6(
    profile: Profile,
    densities: Sequence[int] = DENSITY_SWEEP,
    trials: Optional[int] = None,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
) -> FigureResult:
    """Fig 6: same sweep under rotating 20% node failures (§5.3)."""
    return _run(
        "fig6", profile, densities, trials, workers, progress, store, channel=channel
    )


def figure7(
    profile: Profile,
    densities: Sequence[int] = DENSITY_SWEEP,
    trials: Optional[int] = None,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
) -> FigureResult:
    """Fig 7: random source placement (§5.4: savings shrink to ~30%)."""
    return _run(
        "fig7", profile, densities, trials, workers, progress, store, channel=channel
    )


def figure8(
    profile: Profile,
    sink_counts: Sequence[int] = SINK_SWEEP,
    n_nodes: int = 350,
    trials: Optional[int] = None,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
) -> FigureResult:
    """Fig 8: 1-5 sinks on the 350-node field (first at the corner, rest
    scattered)."""
    return _run(
        "fig8", profile, sink_counts, trials, workers, progress, store,
        channel=channel, n_nodes=n_nodes,
    )


def figure9(
    profile: Profile,
    source_counts: Sequence[int] = SOURCE_SWEEP,
    n_nodes: int = 350,
    trials: Optional[int] = None,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
) -> FigureResult:
    """Fig 9: 2-14 corner sources on the 350-node field."""
    return _run(
        "fig9", profile, source_counts, trials, workers, progress, store,
        channel=channel, n_nodes=n_nodes,
    )


def figure10(
    profile: Profile,
    source_counts: Sequence[int] = SOURCE_SWEEP,
    n_nodes: int = 350,
    trials: Optional[int] = None,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
) -> FigureResult:
    """Fig 10: fig 9's sweep under *linear* aggregation (header savings
    only) — the inefficient-aggregation sensitivity study."""
    return _run(
        "fig10", profile, source_counts, trials, workers, progress, store,
        channel=channel, n_nodes=n_nodes,
    )


def _large_base(profile: Profile) -> ExperimentConfig:
    """Base config of the large-field study.

    Geometry and run length come from the ``large`` bench workload
    (:data:`repro.experiments.bench.WORKLOADS`) rather than the figure
    profile — thousands of nodes at the paper's 30-second durations would
    take hours, and keeping the figure on the bench workload makes its
    cells directly comparable to committed ``BENCH_sweep.json`` entries.
    The profile still supplies the trial count.
    """
    from .bench import WORKLOADS

    w = WORKLOADS["large"]
    return _base(
        profile,
        n_nodes=w["densities"][0],
        duration=w["duration"],
        warmup=w["warmup"],
        field_size=w["field_size"],
        diffusion=DiffusionParams(exploratory_interval=w["exploratory_interval"]),
    )


def figure_large_density(
    profile: Profile,
    densities: Sequence[int] = LARGE_DENSITY_SWEEP,
    trials: Optional[int] = None,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
) -> FigureResult:
    """Beyond-paper scale study: density vs delivered data on an 800 m
    field (2 000–5 000 nodes, mean radio degree ~16..39).

    Extends the paper's fig-5 question — does aggregation keep paying as
    the network densifies? — past the 350-node band the paper measured,
    into thousands of nodes per run.
    """
    return _run(
        "large-density", profile, densities, trials, workers, progress, store,
        channel=channel,
    )


#: the pathloss spec the channel-density figure compares against disc
#: (defaults: same nominal ~40 m reach, SINR capture on, one band)
CHANNEL_STUDY_SPEC = ChannelSpec(model="pathloss")


def figure_channel_density(
    profile: Profile,
    densities: Sequence[int] = DENSITY_SWEEP,
    trials: Optional[int] = None,
    workers: int = 0,
    progress=None,
    store: StoreArg = None,
    channel: Optional[ChannelSpec] = None,
) -> FigureResult:
    """Channel-axis study: fig 5's density sweep on disc vs pathloss.

    Re-runs the headline density comparison under both channel models
    with *paired seeds across channels*: :func:`cell_seed` ignores the
    scheme label and geometry is always drawn on the nominal disc range,
    so for a given (density, trial) all four series — both schemes on
    both channels — share the exact same field, sources, and sink.  The
    observed deltas are therefore pure channel effects (SINR capture
    resolving overlaps vs disc corruption), not field resampling noise.

    Cell labels are ``<scheme>@<channel>`` (e.g. ``greedy@pathloss``).
    ``channel`` overrides the pathloss side's spec
    (:data:`CHANNEL_STUDY_SPEC` by default; must be a pathloss spec).
    """
    return _run(
        "channel-density", profile, densities, trials, workers, progress, store,
        channel=channel,
    )


def figure_cell_config(
    figure_id: str,
    profile: Profile,
    scheme: str,
    x,
    trial: int = 0,
) -> ExperimentConfig:
    """Rebuild the exact config of one ``(scheme, x, trial)`` figure cell.

    Mirrors how each ``figureN`` harness derives its base config and how
    :func:`~repro.experiments.sweeps.paired_sweep` seeds each trial, so
    ``repro timeline <figure-manifest> --cell greedy@150`` can re-run one
    cell bit-identically.  Figure manifests persist cell ``x`` as a
    float; integral values are coerced back to int before seeding because
    ``cell_seed`` hashes the *formatted* x (``"cell:150:0"`` and
    ``"cell:150.0:0"`` are different streams).

    For the channel-density figure, ``scheme`` is a ``<scheme>@<channel>``
    cell label (e.g. ``greedy@pathloss``); the pathloss side rebuilds with
    :data:`CHANNEL_STUDY_SPEC` (custom specs passed to
    :func:`figure_channel_density` do not round-trip through a label).
    """
    if figure_id not in FIGURES:
        raise KeyError(f"unknown figure {figure_id!r} (have {sorted(FIGURES)})")
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if figure_id == "channel-density":
        _, _, chan = scheme.partition("@")
        if chan not in ("disc", "pathloss"):
            raise ValueError(
                f"channel-density cells are labeled <scheme>@<channel>, got {chan!r}"
            )
    _title, _x_label, _xs, _labels, make_config = _spec(figure_id, profile)
    return make_config(scheme, x, cell_seed(0, x, trial))


def git_vs_spt_table(
    n_nodes: Sequence[int] = (100, 200, 350),
    n_sources: int = 5,
    trials: int = 10,
    seed: int = 7,
) -> list[dict]:
    """Related-work table (§1/§5.4): GIT-over-SPT transmission savings
    under the abstract event-radius / random-sources models versus the
    paper's corner placement."""
    rows = []
    for placement in ("event-radius", "random-sources", "corner"):
        for n in n_nodes:
            rows.append(savings_study(placement, n, n_sources, trials, seed))
    return rows


FIGURES = {
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "large-density": figure_large_density,
    "channel-density": figure_channel_density,
}
