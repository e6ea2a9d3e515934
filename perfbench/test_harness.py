"""Self-tests of the benchmark harness (pure helpers, no encryption)."""

import numpy as np
import pytest

from perfbench.harness import (
    MIN_BEYOND,
    Outcomes,
    Span,
    arrival_schedule,
    self_times,
    tail,
    within_floor,
)
from perfbench.layers import Recorder


class TestTailPercentile:
    def test_leaves_exactly_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        found = tail(samples)
        assert found.value == 90
        assert found.percentile == pytest.approx(90.0)
        assert found.samples == 100
        assert sum(s > found.value for s in samples) == MIN_BEYOND

    def test_order_of_samples_does_not_matter(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=57).tolist()
        assert tail(samples) == tail(sorted(samples, reverse=True))

    def test_smallest_sample_with_a_tail_above_the_median(self):
        samples = list(range(1, 2 * MIN_BEYOND + 2))  # 1..21
        found = tail(samples)
        assert found.value == 11
        assert found.percentile == pytest.approx(100.0 * 11 / 21)

    def test_a_percentile_at_or_below_the_median_is_no_tail(self):
        assert tail(list(range(2 * MIN_BEYOND))) is None  # would be p50
        assert tail(list(range(18))) is None  # would be p44
        assert tail([1.0] * MIN_BEYOND) is None
        assert tail([]) is None


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [
            Span("root", 0.0, 10.0),
            Span("a", 1.0, 4.0, parent=0),
            Span("a.leaf", 2.0, 3.0, parent=1),
            Span("b", 5.0, 9.0, parent=0),
        ]
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            Span("root", 0.0, 10.0),
            Span("x", 1.0, 6.0, parent=0),
            Span("y", 4.0, 8.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_recorder_links_parents_and_request_ids(self):
        ticks = iter(range(100))
        recorder = Recorder(clock=lambda: float(next(ticks)))
        inner = recorder.wrap("inner", lambda: None)
        outer = recorder.wrap("outer", lambda: inner())
        recorder.request = "req-7"
        outer()
        outer_span, inner_span = recorder.spans
        assert inner_span.parent == 0 and outer_span.parent is None
        assert inner_span.request == outer_span.request == "req-7"
        assert self_times(recorder.spans) == pytest.approx([2.0, 1.0])


class TestFailedShare:
    def test_counts_every_failure_and_mark_against_attempts(self):
        outcomes = Outcomes()
        for _ in range(6):
            outcomes.ok()
        outcomes.fail("AdmissionError", 2)
        outcomes.fail("BelowPrecisionFloor")
        outcomes.mark("LowPrecision")
        assert outcomes.attempted == 10
        assert outcomes.failed == 3
        assert outcomes.failed_share == pytest.approx(0.4)
        summary = outcomes.as_dict()
        assert summary["errors"] == {"AdmissionError": 2, "BelowPrecisionFloor": 1}
        assert summary["marks"] == {"LowPrecision": 1}
        assert summary["failed_share"] == pytest.approx(0.4)

    def test_merge_adds_counts_and_tags(self):
        total = Outcomes()
        total.fail("AdmissionError")
        part = Outcomes()
        part.ok()
        part.fail("AdmissionError")
        part.fail("TimeoutExpired")
        part.mark("Shed", 3)
        total.merge(part)
        assert (total.attempted, total.failed) == (7, 3)
        assert total.errors == {"AdmissionError": 2, "TimeoutExpired": 1}
        assert total.marks == {"Shed": 3}

    def test_nothing_attempted_is_no_failure(self):
        assert Outcomes().failed_share == 0.0


class _Network:
    """Stands in for OrionNetwork: the cleartext forward is the identity."""

    forward_cleartext = staticmethod(lambda image: image)
    precision_bits = staticmethod(
        lambda out, clear: float(-np.log2(max(np.mean(np.abs(out - clear)), 1e-300)))
    )


class TestPrecisionFloor:
    clear = np.random.default_rng(0).normal(0.0, 3.0, 10)

    def test_all_zero_negated_and_doubled_outputs_fail(self):
        assert not within_floor(np.zeros_like(self.clear), self.clear)
        assert not within_floor(-self.clear, self.clear)
        assert not within_floor(2.0 * self.clear, self.clear)
        small = self.clear / 100.0
        assert not within_floor(np.zeros_like(small), small)

    def test_an_output_near_the_cleartext_passes(self):
        noise = np.random.default_rng(1).normal(0.0, 0.01, self.clear.shape)
        assert within_floor(self.clear + noise, self.clear)

    def test_each_output_is_recorded_once(self):
        from perfbench.workloads import BELOW_FLOOR, LOW_PRECISION, _check_precision

        large = self.clear * 10.0
        images = [self.clear, self.clear, large]
        outputs = [np.zeros_like(self.clear), self.clear + 1e-3, large + 0.25]
        outcomes, bits = Outcomes(), []
        _check_precision(_Network(), images, outputs, outcomes, bits)
        assert len(bits) == 3 and bits[2] < 4.0
        assert outcomes.attempted == 3 and outcomes.failed == 1
        assert outcomes.errors == {BELOW_FLOOR: 1}
        assert outcomes.marks == {LOW_PRECISION: 1}
        assert outcomes.failed_share == pytest.approx(2 / 3)


class TestIncompleteRuns:
    def _record(self, **fields):
        record = {
            "setup_s": [1.0],
            "peak_rss_mb": 100.0,
            "precision_bits": [],
            "samples_ms": [],
            "outcomes": Outcomes().as_dict(),
            "checks": {"compilations_since_load == 0": True},
        }
        record.update(fields)
        return record

    def test_a_serving_run_that_served_nothing_fails(self):
        from perfbench.run import summarize

        errors = Outcomes()
        errors.fail("RuntimeError", 4)
        full, result, _, _ = summarize("deep-boot", self._record(outcomes=errors.as_dict()))
        assert result == {"correct": False, "attempted": 4, "failed": 4, "metrics": {}}
        assert full["outcomes"]["errors"] == {"RuntimeError": 4, "NothingServed": 1}

    def test_a_compile_that_raised_fails_the_run(self):
        from perfbench.run import summarize

        record = self._record(compile_s={"resnet20": 1.0, "resnet110": 5.0})
        full, result, _, _ = summarize("resnet-compile", record)
        assert result["correct"] is False and result["metrics"] == {}
        assert "CompileFailed" in full["outcomes"]["errors"]

    def test_a_raised_error_makes_the_run_incorrect(self):
        from perfbench.run import _checks_pass

        outcomes = Outcomes()
        outcomes.ok()
        outcomes.fail("AdmissionError")
        record = self._record(outcomes=outcomes.as_dict())
        assert _checks_pass(record)
        outcomes.fail("RuntimeError")
        assert not _checks_pass(self._record(outcomes=outcomes.as_dict()))


class TestArrivalSchedule:
    def test_same_seed_same_schedule(self):
        assert np.array_equal(arrival_schedule(4, 8, 5.0), arrival_schedule(4, 8, 5.0))

    def test_seed_and_rate_change_the_schedule(self):
        base = arrival_schedule(4, 8, 5.0)
        assert not np.array_equal(base, arrival_schedule(5, 8, 5.0))
        assert not np.array_equal(base[:10], arrival_schedule(4, 32, 5.0)[:10])

    def test_offers_the_nominal_count_in_order_within_the_window(self):
        offsets = arrival_schedule(0, 32, 4.0)
        assert len(offsets) == 128
        assert np.all(np.diff(offsets) >= 0)
        assert offsets[0] >= 0.0 and offsets[-1] < 4.0


class TestLiveness:
    def test_a_child_past_its_deadline_becomes_a_tagged_failure(self):
        from perfbench.run import _failed, run_child

        error = run_child("deep-boot", seed=0, seconds=1.0, trace=0, deadline=0.2)
        assert error["error"] == "TimeoutExpired"
        full, result = _failed("deep-boot", error)
        assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        assert full["outcomes"]["errors"] == {"TimeoutExpired": 1}
