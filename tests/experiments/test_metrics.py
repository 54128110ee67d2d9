"""Unit tests for the §5.1 metrics collector."""

import pytest

from repro.diffusion.messages import DataItem
from repro.experiments.metrics import MetricsCollector, RunMetrics


def item(src, seq, t):
    return DataItem(src, seq, t)


class TestCollector:
    def test_counts_post_warmup_generation(self):
        m = MetricsCollector(warmup_end=10.0)
        m.on_generated(1, item(0, 1, 5.0))   # warmup: ignored
        m.on_generated(1, item(0, 2, 11.0))
        m.on_generated(1, item(0, 3, 12.0))
        assert m.sent == {1: 2}

    def test_delivery_dedup_per_sink(self):
        m = MetricsCollector(warmup_end=0.0)
        it = item(0, 1, 1.0)
        m.on_generated(1, it)
        m.on_delivered(1, 9, it, 2.0)
        m.on_delivered(1, 9, it, 3.0)  # duplicate at same sink
        assert m.total_distinct_delivered() == 1
        assert m.delays == [1.0]

    def test_two_sinks_count_separately(self):
        m = MetricsCollector(warmup_end=0.0)
        it = item(0, 1, 1.0)
        m.on_generated(1, it)
        m.on_generated(2, it)
        m.on_delivered(1, 8, it, 2.0)
        m.on_delivered(2, 9, it, 2.5)
        assert m.total_distinct_delivered() == 2

    def test_warmup_deliveries_excluded(self):
        m = MetricsCollector(warmup_end=10.0)
        it = item(0, 1, 5.0)  # generated during warmup
        m.on_delivered(1, 9, it, 12.0)
        assert m.total_distinct_delivered() == 0

    def test_delivery_ratio(self):
        m = MetricsCollector(warmup_end=0.0)
        for seq in range(1, 5):
            m.on_generated(1, item(0, seq, 1.0))
        m.on_delivered(1, 9, item(0, 1, 1.0), 2.0)
        m.on_delivered(1, 9, item(0, 2, 1.0), 2.0)
        assert m.delivery_ratio() == pytest.approx(0.5)

    def test_delivery_ratio_mean_over_interests(self):
        m = MetricsCollector(warmup_end=0.0)
        m.on_generated(1, item(0, 1, 1.0))
        m.on_generated(2, item(0, 1, 1.0))
        m.on_delivered(1, 8, item(0, 1, 1.0), 2.0)
        # interest 1 fully delivered, interest 2 not at all.
        assert m.delivery_ratio() == pytest.approx(0.5)

    def test_empty_collector(self):
        m = MetricsCollector(warmup_end=0.0)
        assert m.delivery_ratio() == 0.0
        assert m.average_delay() is None
        assert m.total_distinct_delivered() == 0

    def test_average_delay(self):
        m = MetricsCollector(warmup_end=0.0)
        m.on_generated(1, item(0, 1, 1.0))
        m.on_generated(1, item(0, 2, 2.0))
        m.on_delivered(1, 9, item(0, 1, 1.0), 2.0)
        m.on_delivered(1, 9, item(0, 2, 2.0), 4.0)
        assert m.average_delay() == pytest.approx(1.5)

    def test_average_delay_sums_left_to_right(self):
        # A compensated sum (built-in sum() on CPython >= 3.12) gives 0.5.
        m = MetricsCollector(warmup_end=0.0)
        m.delays = [1.0, 1e100, 1.0, -1e100]
        assert m.average_delay() == 0.0

    def test_delivery_ratio_sums_left_to_right(self):
        # Ratios 1, 1e-16, 1e-16: left to right the tiny ratios vanish
        # against 1.0 and the mean is exactly 1/3; a compensated sum
        # keeps them and rounds the mean up to 0.3333333333333334.
        m = MetricsCollector(warmup_end=0.0)
        m.sent = {1: 1, 2: 10**16, 3: 10**16}
        m.delivered = {(iid, 9): {(0, 1)} for iid in m.sent}
        assert m.delivery_ratio() == 1.0 / 3.0


class TestRunMetrics:
    def _base(self, **kw):
        args = dict(
            scheme="greedy",
            n_nodes=50,
            seed=1,
            avg_dissipated_energy=0.001,
            avg_delay=0.5,
            delivery_ratio=0.95,
            total_energy_j=5.0,
            distinct_delivered=100,
            events_sent=105,
            mean_degree=6.0,
        )
        args.update(kw)
        return RunMetrics(**args)

    def test_valid(self):
        m = self._base()
        assert m.delivery_ratio == 0.95

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self._base(delivery_ratio=1.5)
        with pytest.raises(ValueError):
            self._base(delivery_ratio=-0.1)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            self._base(avg_dissipated_energy=-1.0)
