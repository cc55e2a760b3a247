"""The rules the benchmark's metrics rest on, on synthetic data."""

import math

import pytest

import stats


class TestPercentileRule:
    def test_target_holds_when_the_sample_supports_it(self):
        assert stats.supported_percentile(1000) == pytest.approx(0.99)
        assert stats.supported_percentile(5000) == pytest.approx(0.99)

    def test_small_samples_drop_to_ten_beyond(self):
        assert stats.supported_percentile(500) == pytest.approx(0.98)
        assert stats.supported_percentile(200) == pytest.approx(0.95)

    def test_no_tail_without_ten_beyond(self):
        assert stats.supported_percentile(10) is None
        assert stats.tail_stats(range(10)).q is None

    @pytest.mark.parametrize("n", [11, 57, 200, 999, 1000, 4321])
    def test_at_least_ten_samples_lie_beyond_the_tail(self, n):
        tail = stats.tail_stats([float(i) for i in range(n)])
        beyond = sum(1 for i in range(n) if i > tail.tail)
        assert beyond >= stats.MIN_BEYOND
        assert tail.n == n

    def test_failures_enter_the_tail_as_infinite(self):
        samples = [1.0] * 985 + [math.inf] * 15
        tail = stats.tail_stats(samples)
        assert tail.q == pytest.approx(0.99)
        assert tail.tail == math.inf
        assert tail.p50 == 1.0


def _phase(rate, tail_ms, backlog=0, generator_ok=True, limit_ms=100.0):
    return stats.PhaseVerdict(
        rate=rate, tail_ms=tail_ms, limit_ms=limit_ms, backlog=backlog,
        backlog_limit=stats.backlog_limit(rate, limit_ms, 2),
        generator_ok=generator_ok,
    )


class TestMaxRateRule:
    def test_backlog_limit_is_littles_law_at_the_limit(self):
        assert stats.backlog_limit(50.0, 400.0, 2) == 20
        assert stats.backlog_limit(1.0, 100.0, 2) == 2

    def test_highest_passing_rate(self):
        phases = [_phase(20, 30.0), _phase(50, 80.0), _phase(90, 150.0)]
        assert stats.max_rate(phases) == 50

    def test_growing_backlog_misses_even_under_the_limit(self):
        phases = [_phase(20, 30.0), _phase(50, 60.0, backlog=6)]
        assert phases[1].backlog_limit == 5
        assert stats.max_rate(phases) == 20

    def test_a_lagging_generator_invalidates_the_phase(self):
        phases = [_phase(20, 30.0), _phase(50, 60.0, generator_ok=False)]
        assert stats.max_rate(phases) == 20

    def test_failed_requests_count_as_misses(self):
        lat = [5.0] * 980 + [math.inf] * 20
        tail = stats.tail_stats(lat)
        assert stats.max_rate([_phase(20, tail.tail)]) == 0.0

    def test_no_passing_rate_is_zero(self):
        assert stats.max_rate([_phase(20, 500.0)]) == 0.0


class TestSelfTime:
    def test_nested_tree_reconciles_to_the_wall(self):
        spans = [
            stats.Span("run", "runner", 0.0, 10.0),
            stats.Span("get", "store", 1.0, 4.0, parent=0),
            stats.Span("decode", "serialize", 2.0, 3.0, parent=1),
            stats.Span("solve", "sim", 5.0, 9.0, parent=0),
        ]
        per_layer, residual = stats.self_times(spans, 0.0, 12.0)
        assert per_layer == pytest.approx(
            {"runner": 3.0, "store": 2.0, "serialize": 1.0, "sim": 4.0}
        )
        assert residual == pytest.approx(2.0)
        assert sum(per_layer.values()) + residual == pytest.approx(12.0)

    def test_same_layer_children_stay_in_the_layer(self):
        spans = [
            stats.Span("get", "store", 0.0, 4.0),
            stats.Span("key", "store", 0.5, 1.0, parent=0),
        ]
        per_layer, residual = stats.self_times(spans, 0.0, 4.0)
        assert per_layer == pytest.approx({"store": 4.0})
        assert residual == pytest.approx(0.0)

    def test_overlapping_siblings_are_not_counted_twice(self):
        spans = [
            stats.Span("a", "http", 0.0, 4.0),
            stats.Span("b", "http", 2.0, 6.0),
        ]
        per_layer, residual = stats.self_times(spans, 0.0, 8.0)
        assert per_layer == pytest.approx({"http": 6.0})
        assert residual == pytest.approx(2.0)

    def test_spans_outside_the_wall_are_clipped(self):
        spans = [stats.Span("a", "store", -1.0, 1.0)]
        per_layer, residual = stats.self_times(spans, 0.0, 2.0)
        assert per_layer == pytest.approx({"store": 1.0})
        assert residual == pytest.approx(1.0)


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / q2)
