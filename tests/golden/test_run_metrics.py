"""Committed golden RunMetrics must reproduce exactly.

The kernel- and channel-equivalence suites compare implementations with
each other; this pins them all to values recorded once, so a change
that moves every implementation together still fails here.  Regenerate
with ``PYTHONPATH=src python -m tests.golden.cases --write`` only for an
intentional behaviour change.

The values are compared only on the CPython minor version that wrote
the fixture: other versions may round float sums differently (``sum()``
over floats is compensated since 3.12), and a tolerance would hide the
very drift this test exists to catch.
"""

import json

import pytest

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
