"""Committed golden RunMetrics must reproduce exactly.

The channel-equivalence suite compares implementations with each
other; this pins them all to values recorded once, so a change that
moves every implementation together still fails here.  Regenerate
with ``PYTHONPATH=src python -m tests.golden.cases --write`` only for an
intentional behaviour change.

The values are compared only on the CPython minor version that wrote
the fixture: the metrics avoid ``sum()`` over floats (compensated
since 3.12), but other last-bit differences between versions are not
ruled out, and a tolerance would hide the very drift this test exists
to catch.

The observability test runs a few of the same configs with the auditor
and the probe timeline attached: instruments must not change a run.
"""

import dataclasses
import json

import pytest

from repro.experiments.runner import run_observed
from repro.obs import ObsOptions
from tests.golden.cases import CASES, FIXTURE, PYTHON, compute

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.skipif(
    GOLDEN["python"] != PYTHON,
    reason=f"golden fixture was written by Python {GOLDEN['python']}; "
    f"float results may differ in the last bits on Python {PYTHON}",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_run_metrics_match_golden(name):
    assert compute(name) == GOLDEN["cases"][name]


@pytest.mark.parametrize(
    "name",
    ["greedy-pathloss-100", "opportunistic-pathloss-nocapture-100", "greedy-failures-100"],
)
def test_audit_and_timeline_do_not_change_metrics(name):
    cfg = CASES[name]
    plain = run_observed(cfg)
    observed = run_observed(cfg, ObsOptions(audit=True, timeline=True))
    assert dataclasses.asdict(observed.metrics) == dataclasses.asdict(plain.metrics)
    assert observed.audit["ok"], observed.audit["findings"]
