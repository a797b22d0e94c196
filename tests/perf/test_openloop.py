"""Open-loop arrivals and CO-free accounting: the arithmetic, pinned.

``replay_open_loop`` is pure virtual-queue bookkeeping, so its answers
are checkable by hand; the schedule generators are pinned for
determinism and long-run rate.  Everything here is wall-clock-free.
"""

import random

import pytest

from repro.perf.openloop import (
    ArrivalSpec,
    arrival_offsets,
    arrival_offsets_window,
    parse_arrival,
    replay_closed_run,
    replay_open_loop,
)
from repro.perf.trajectory import calibration_spin


# -- parse_arrival -------------------------------------------------------------


class TestParseArrival:
    def test_closed(self):
        spec = parse_arrival("closed")
        assert spec.kind == "closed" and not spec.is_open
        assert spec.describe() == "closed"

    def test_poisson_auto(self):
        spec = parse_arrival("poisson")
        assert spec.kind == "poisson" and spec.rate is None
        assert spec.describe() == "poisson:auto"

    def test_poisson_with_rate(self):
        spec = parse_arrival("poisson:250")
        assert spec.rate == 250.0
        assert spec.describe() == "poisson:250"

    def test_burst_with_rate_and_size(self):
        spec = parse_arrival("burst:100,4")
        assert spec.kind == "burst" and spec.rate == 100.0 and spec.burst == 4
        assert spec.describe() == "burst:100x4"

    def test_spec_passes_through(self):
        spec = ArrivalSpec(kind="poisson", rate=10.0)
        assert parse_arrival(spec) is spec

    @pytest.mark.parametrize("bad", [
        "open", "closed:5", "poisson:0", "poisson:100,8", "burst:10,-1",
        "poisson:nan", "burst:inf,2", "poisson:-inf",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_arrival(bad)


# -- schedules -----------------------------------------------------------------


class TestSchedules:
    def test_poisson_is_seed_deterministic(self):
        spec = ArrivalSpec(kind="poisson")
        a = arrival_offsets(spec, 100.0, 50, random.Random(7))
        b = arrival_offsets(spec, 100.0, 50, random.Random(7))
        c = arrival_offsets(spec, 100.0, 50, random.Random(8))
        assert a == b != c
        assert a == sorted(a) and all(t > 0 for t in a)

    def test_poisson_long_run_rate(self):
        spec = ArrivalSpec(kind="poisson")
        offsets = arrival_offsets(spec, 200.0, 4000, random.Random(3))
        # 4000 arrivals at 200/s should span ~20s; 3-sigma ~ 5%
        assert offsets[-1] == pytest.approx(20.0, rel=0.1)

    def test_burst_groups_share_an_instant(self):
        spec = ArrivalSpec(kind="burst", burst=4)
        offsets = arrival_offsets(spec, 100.0, 10, random.Random(1))
        assert offsets[0:4] == [0.0] * 4
        assert offsets[4:8] == [0.04] * 4     # gap = burst/rate
        assert offsets[8:10] == [0.08] * 2    # trailing partial group

    def test_window_respects_duration(self):
        spec = ArrivalSpec(kind="poisson")
        offsets = arrival_offsets_window(spec, 500.0, 2.0, random.Random(5))
        assert all(0.0 < t < 2.0 for t in offsets)
        assert len(offsets) == pytest.approx(1000, rel=0.15)

    def test_window_burst_counts_whole_groups(self):
        spec = ArrivalSpec(kind="burst", burst=8)
        offsets = arrival_offsets_window(spec, 80.0, 1.0, random.Random(5))
        assert len(offsets) % 8 == 0
        assert all(t < 1.0 for t in offsets)

    def test_closed_has_no_schedule(self):
        with pytest.raises(ValueError):
            arrival_offsets(ArrivalSpec(kind="closed"), 10.0, 5, random.Random(0))

    def test_nan_rate_has_no_schedule(self):
        # a rate handed straight to the generator, past ArrivalSpec
        with pytest.raises(ValueError):
            arrival_offsets(
                ArrivalSpec(kind="poisson"), float("nan"), 5, random.Random(0)
            )


# -- replay accounting ---------------------------------------------------------


class TestReplayAccounting:
    def test_no_backlog_latency_equals_service(self):
        # arrivals far apart: every op starts on schedule
        result = replay_open_loop([0.010, 0.010, 0.010], [0.0, 1.0, 2.0])
        assert result.histogram.count == 3
        assert result.histogram.max == pytest.approx(0.010)
        assert result.histogram.min == pytest.approx(0.010)
        assert result.service_histogram.sum == pytest.approx(0.030)

    def test_backlog_charges_queueing_delay(self):
        # all three due at t=0; the virtual queue serialises them
        result = replay_open_loop([0.010, 0.010, 0.010], [0.0, 0.0, 0.0])
        # latencies: 10ms, 20ms, 30ms
        assert result.histogram.min == pytest.approx(0.010)
        assert result.histogram.max == pytest.approx(0.030)
        assert result.histogram.sum == pytest.approx(0.060)

    def test_one_stall_poisons_the_tail(self):
        # The coordinated-omission shape: one 1s stall, then fast ops
        # that were already due.  Closed-loop would record one slow
        # sample; open-loop charges the backlog to every queued op.
        service = [1.0] + [0.001] * 9
        schedule = [0.01 * i for i in range(10)]
        result = replay_open_loop(service, schedule)
        slow = sum(
            count for bound, count in zip(
                result.histogram.bounds + (float("inf"),),
                result.histogram.bucket_counts,
            ) if bound > 0.5
        )
        assert slow == 10  # every operation saw ~1s, not just the first

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            replay_open_loop([0.1], [0.0, 1.0])

    def test_service_histogram_strips_queueing(self):
        result = replay_open_loop([0.010, 0.010], [0.0, 0.0])
        assert result.histogram.max == pytest.approx(0.020)
        assert result.service_histogram.max == pytest.approx(0.010)
        assert result.service_histogram.count == 2


class TestReplayClosedRun:
    def test_auto_rate_offers_the_closed_runs_own_rate(self):
        # 4 ops over 4 s: an auto burst of 2 arrives at t=0 and t=2
        result = replay_closed_run(
            ArrivalSpec(kind="burst", burst=2), [0.5] * 4, 4.0, random.Random(1)
        )
        assert result.histogram.sum == pytest.approx(0.5 + 1.0 + 0.5 + 1.0)

    def test_an_explicit_rate_wins(self):
        spec = ArrivalSpec(kind="burst", rate=100.0, burst=2)
        result = replay_closed_run(spec, [0.5] * 4, 4.0, random.Random(1))
        # groups 20 ms apart: the second pair queues behind the first
        assert result.histogram.max == pytest.approx(2.0 - 0.02)

    def test_same_stream_same_view(self):
        service = [0.001 * (i % 7 + 1) for i in range(50)]
        spec = ArrivalSpec(kind="poisson")
        one, two = (
            replay_closed_run(spec, service, 0.5, random.Random(9))
            for _ in range(2)
        )
        assert one.histogram.bucket_counts == two.histogram.bucket_counts


# -- the other resident of repro.perf -------------------------------------------


def test_calibration_spin_import_path():
    # bench/run.py imports calibration_spin from exactly this path
    assert calibration_spin() > 0
