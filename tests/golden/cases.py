"""Golden RunMetrics: the configs, their exact encoding, and the writer.

``run_metrics.json`` next to this file holds the exact
:class:`~repro.experiments.metrics.RunMetrics` of every config in
:data:`CASES`, with every float written as ``float.hex`` so equality is
bit-for-bit, under ``"cases"``.  ``"python"`` names the CPython minor
version that wrote it: float results are only pinned on that version
(``sum()`` over floats, for one, became compensated in 3.12; the metrics
no longer use it, but other last-bit differences are not ruled out).
``test_run_metrics.py`` re-runs the configs and compares.

An intentional behaviour change regenerates the fixture in the same
diff, so the change shows up as a reviewed edit of the JSON::

    PYTHONPATH=src python -m tests.golden.cases --write
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.diffusion.agent import DiffusionParams
from repro.experiments.config import ExperimentConfig, FailureModel
from repro.experiments.metrics import RunMetrics
from repro.experiments.runner import run_experiment
from repro.net.channel import ChannelSpec

FIXTURE = Path(__file__).with_name("run_metrics.json")

#: the running interpreter's minor version, as the fixture records it
PYTHON = "%d.%d" % sys.version_info[:2]

#: shortened protocol clock so each run stays well under a second
_DIFFUSION = DiffusionParams(exploratory_interval=5.0)


def _cfg(scheme: str, n_nodes: int, seed: int, **over) -> ExperimentConfig:
    return ExperimentConfig(
        scheme=scheme, n_nodes=n_nodes, seed=seed, duration=12.0, warmup=5.0,
        diffusion=_DIFFUSION, **over,
    )


#: name -> config; together they cover both schemes, disc and pathloss
#: (with and without capture), failures, random sources, linear
#: aggregation and several sinks
CASES: dict[str, ExperimentConfig] = {
    "greedy-disc-60": _cfg("greedy", 60, 1),
    "opportunistic-disc-60": _cfg("opportunistic", 60, 2),
    "greedy-disc-150": _cfg("greedy", 150, 3),
    "opportunistic-disc-150": _cfg("opportunistic", 150, 4),
    "greedy-pathloss-100": _cfg("greedy", 100, 5, channel=ChannelSpec(model="pathloss")),
    "opportunistic-pathloss-nocapture-100": _cfg(
        "opportunistic", 100, 6, channel=ChannelSpec(model="pathloss", capture=False)
    ),
    "greedy-failures-100": _cfg(
        "greedy", 100, 7, failures=FailureModel(fraction=0.1, epoch=6.0)
    ),
    "opportunistic-random-sources-100": _cfg(
        "opportunistic", 100, 8, source_placement="random"
    ),
    "greedy-linear-100": _cfg("greedy", 100, 9, aggregation="linear"),
    "greedy-3-sinks-100": _cfg("greedy", 100, 10, n_sinks=3),
}


def encode(value):
    """JSON-ready image of ``value`` with every float as ``float.hex``."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} in a golden fixture")


def encode_metrics(metrics: RunMetrics) -> dict:
    return encode(dataclasses.asdict(metrics))


def compute(name: str) -> dict:
    return encode_metrics(run_experiment(CASES[name]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {FIXTURE.name} from the current code")
    args = parser.parse_args(argv)
    got = {name: compute(name) for name in CASES}
    if args.write:
        fixture = {"python": PYTHON, "cases": got}
        FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} cases to {FIXTURE}")
        return 0
    fixture = json.loads(FIXTURE.read_text())
    if fixture["python"] != PYTHON:
        print(f"note: fixture written by Python {fixture['python']}, running {PYTHON}")
    want = fixture["cases"]
    bad = sorted(name for name in CASES if want.get(name) != got[name])
    for name in bad:
        print(f"MISMATCH {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
