"""Pluggable channel models: ``disc`` and log-distance ``pathloss``/SINR.

The paper's entire density result rests on a fixed 40 m disc radio
(:mod:`repro.net.radio`).  This module extracts that assumption behind a
small strategy interface so the same simulator — the PHY fan-out, the
MAC, energy attribution, timelines — can run under a realistic channel:

* :class:`DiscModel` — today's semantics, bit-identical: a frame is
  heard by every up node within ``range_m`` and any overlap at a
  receiver corrupts all frames involved (no capture).
* :class:`PathlossModel` — log-distance pathloss with a configurable
  exponent, noise floor, and receive sensitivity; frame corruption is
  decided by an SINR test with a capture threshold instead of
  all-or-nothing collisions, and frames can be spread over multiple
  frequency bands (``band = src_id % n_bands``; only same-band frames
  interfere, while every in-reach receiver still pays promiscuous
  receive energy — a wideband listening front end).

Math (units in dB/dBm, powers converted once to linear mW):

* received power: ``rx_dBm(d) = tx_power_dbm - PL(d)`` with the
  log-distance model ``PL(d) = reference_loss_db +
  10 * pathloss_exponent * log10(max(d, 1 m))`` (reference distance
  1 m; the 1 m floor also bounds near-field powers);
* link eligibility: a receiver hears a sender iff
  ``rx_dBm >= rx_sensitivity_dbm`` (and ``d <= max_range_m`` when set —
  the hard cutoff uses the *squared* distance test so a degenerate
  pathloss config reproduces the disc neighbor sets bit-identically);
* capture: a frame is decodable iff
  ``rx_mw >= thr * (noise_mw + (smax - rx_mw))`` where ``thr`` is the
  linear capture threshold and ``smax`` is the maximum over the frame's
  airtime of the receiver's same-band running power sum (its own power
  included).  The running sum only increases at arrival starts, so
  tracking the max at starts is exact (DESIGN.md §14).

The *spec* (:class:`ChannelSpec`) is a frozen, JSON-friendly dataclass
that lives inside :class:`~repro.experiments.config.ExperimentConfig`
and therefore inside the store content hash and every provenance
manifest; the *model* (:func:`model_from_spec`) is the runtime strategy
:class:`~repro.net.radio.Channel` executes.  Channel choice never
touches field generation or any RNG stream: geometry is drawn on the
nominal disc ``range_m`` so disc and pathloss runs of one seed share the
exact same field, sources, and sinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "CHANNEL_MODELS",
    "ChannelSpec",
    "ChannelModel",
    "DiscModel",
    "PathlossModel",
    "model_from_spec",
]

#: the selectable channel models (the CLI's ``--channel`` choices)
CHANNEL_MODELS = ("disc", "pathloss")


@dataclass(frozen=True)
class ChannelSpec:
    """The channel block of an experiment config (hash- and JSON-stable).

    Defaults are chosen so the pathloss reach roughly matches the
    paper's 40 m disc: a 0 dBm transmitter over ``PL(d) = 40 +
    30 log10(d)`` reaches the -88 dBm sensitivity at
    ``10^(48/30) ≈ 39.81 m`` — same nominal connectivity, but with
    SINR capture resolving overlaps instead of corrupting everything.
    Keep ``rx_sensitivity_dbm >= noise_floor_dbm +
    capture_threshold_db`` (with capture on): links below that margin
    are eligible but can never decode even in silence, wasting receive
    energy forever.
    """

    model: str = "disc"
    #: transmit power (dBm); fixed per run — the paper has no power control
    tx_power_dbm: float = 0.0
    #: log-distance exponent ``n`` (2 = free space, 3-4 = indoor/ground)
    pathloss_exponent: float = 3.0
    #: pathloss at the 1 m reference distance (dB)
    reference_loss_db: float = 40.0
    #: thermal + ambient noise power (dBm)
    noise_floor_dbm: float = -100.0
    #: weakest decodable received power (dBm); defines link eligibility
    rx_sensitivity_dbm: float = -88.0
    #: SINR needed to decode under interference (dB)
    capture_threshold_db: float = 10.0
    #: SINR capture on/off; off = disc-style all-or-nothing within reach
    capture: bool = True
    #: optional hard reach cutoff in meters (squared-distance test)
    max_range_m: Optional[float] = None
    #: frequency bands; frames on different bands never interfere
    n_bands: int = 1

    def __post_init__(self) -> None:
        if self.model not in CHANNEL_MODELS:
            raise ValueError(
                f"channel model must be one of {CHANNEL_MODELS}, got {self.model!r}"
            )
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss exponent must be positive")
        if self.n_bands < 1:
            raise ValueError("need at least one frequency band")
        if self.model == "disc" and self.n_bands != 1:
            raise ValueError("the disc model is single-band (n_bands must be 1)")
        if self.max_range_m is not None and self.max_range_m <= 0:
            raise ValueError("max_range_m must be positive when set")

    @staticmethod
    def degenerate_disc(range_m: float = 40.0) -> "ChannelSpec":
        """A pathloss spec that reproduces the disc channel bit-identically.

        Sensitivity is set far below any reachable power, so eligibility
        collapses to the ``max_range_m`` squared-distance cutoff — the
        disc neighbor test verbatim — and ``capture=False`` reuses the
        disc corruption logic wholesale.  The equivalence property test
        (``tests/property/test_channel_equivalence.py``) pins this.
        """
        return ChannelSpec(
            model="pathloss",
            rx_sensitivity_dbm=-500.0,
            capture=False,
            max_range_m=range_m,
        )


class ChannelModel:
    """Runtime strategy contract behind :class:`~repro.net.radio.Channel`.

    A model supplies, per sender-receiver pair, link *eligibility* and
    (for capture models) linear received power; the Channel owns all
    event scheduling, energy charging, and corruption bookkeeping.  A
    conforming model must be:

    * **pure** — ``link()`` is a function of squared distances only, so
      the channel's neighbor/rx-power cache is deterministic and
      RNG-free;
    * **stateless** — it never sees per-event state; anything per-frame
      (interference sums, SINR tests) lives in the Channel, so a model
      only decides who hears whom and at what power;
    * **energy-neutral** — eligibility decides who pays promiscuous
      receive energy; decode failures (collision or SINR) still charge
      the receiver, exactly like the disc baseline.
    """

    #: model name (matches a :data:`CHANNEL_MODELS` entry)
    kind: str = "abstract"
    #: whether corruption is settled by the SINR capture test
    capture: bool = False
    #: frequency bands (interference is per band)
    n_bands: int = 1
    #: nominal connectivity radius in meters (mean-degree reporting)
    reach_m: float = 0.0
    #: neighbor-grid bucket size (must cover the eligibility radius)
    grid_cell_m: float = 1.0
    #: linear noise floor (mW) and capture threshold, for the SINR test
    noise_mw: float = 0.0
    thr: float = 0.0

    def link(self, d2: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-pair link computation from squared distances (meters²).

        Returns ``(eligible, rx_mw)``: a boolean mask of receivers that
        hear the sender, and their linear received powers (``None`` for
        non-capture models — power is then irrelevant).
        """
        raise NotImplementedError


class DiscModel(ChannelModel):
    """The paper's PHY: everyone within ``range_m`` hears, nobody beyond.

    ``link`` applies the squared-distance test byte-for-byte as the
    pre-refactor neighbor cache did, so disc runs are bit-identical to
    the hard-coded implementation this interface replaced.
    """

    kind = "disc"

    def __init__(self, range_m: float) -> None:
        if range_m <= 0:
            raise ValueError("disc range must be positive")
        self.reach_m = range_m
        self.grid_cell_m = range_m
        self._range_sq = range_m ** 2

    def link(self, d2: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        return d2 <= self._range_sq, None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiscModel range={self.reach_m:g}m>"


class PathlossModel(ChannelModel):
    """Log-distance pathloss with rx sensitivity and SINR capture."""

    kind = "pathloss"

    def __init__(self, spec: ChannelSpec) -> None:
        if spec.model != "pathloss":
            raise ValueError(f"not a pathloss spec: {spec.model!r}")
        self.spec = spec
        self.capture = spec.capture
        self.n_bands = spec.n_bands
        self.noise_mw = 10.0 ** (spec.noise_floor_dbm / 10.0)
        self.thr = 10.0 ** (spec.capture_threshold_db / 10.0)
        # Link budget -> nominal reach: rx(d) == sensitivity at
        # d = 10^(budget / 10n); the 1 m pathloss floor makes any
        # positive budget reach at least 1 m, a negative budget nothing.
        budget = spec.tx_power_dbm - spec.reference_loss_db - spec.rx_sensitivity_dbm
        if budget < 0:
            reach = 0.0
        else:
            reach = max(1.0, 10.0 ** (budget / (10.0 * spec.pathloss_exponent)))
        if spec.max_range_m is not None:
            reach = min(reach, spec.max_range_m)
        self.reach_m = reach
        # Grid cells must cover the eligibility radius; the epsilon pad
        # absorbs the ~1-ulp slack between the analytic reach and the
        # rounded log10 eligibility test.
        self.grid_cell_m = max(reach, 1.0) + 1e-9
        self._max_range_sq = (
            None if spec.max_range_m is None else spec.max_range_m ** 2
        )

    def rx_dbm(self, distance_m: float) -> float:
        """Received power (dBm) at one distance (scalar convenience)."""
        s = self.spec
        d = max(float(distance_m), 1.0)
        return s.tx_power_dbm - (
            s.reference_loss_db + 10.0 * s.pathloss_exponent * math.log10(d)
        )

    def link(self, d2: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        s = self.spec
        d = np.sqrt(d2)
        rx_dbm = s.tx_power_dbm - (
            s.reference_loss_db
            + 10.0 * s.pathloss_exponent * np.log10(np.maximum(d, 1.0))
        )
        eligible = rx_dbm >= s.rx_sensitivity_dbm
        if self._max_range_sq is not None:
            # Squared-distance cutoff: identical to the disc test, which
            # is what makes ChannelSpec.degenerate_disc() exact.
            eligible &= d2 <= self._max_range_sq
        return eligible, 10.0 ** (rx_dbm / 10.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.spec
        return (
            f"<PathlossModel n={s.pathloss_exponent:g} reach={self.reach_m:.2f}m "
            f"capture={'on' if self.capture else 'off'} bands={self.n_bands}>"
        )


def model_from_spec(spec: Optional[ChannelSpec], range_m: float) -> ChannelModel:
    """Build the runtime model for a config's channel block.

    ``range_m`` is the config's nominal disc range — the disc model's
    radius, and never consulted by pathloss (whose reach comes from its
    own link budget / ``max_range_m``).
    """
    if spec is None or spec.model == "disc":
        return DiscModel(range_m)
    return PathlossModel(spec)
