"""Unit tests for the discrete-event engine."""

import pytest

from repro.net.simulator import PeriodicProcess, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run_until(5.0)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        fired = []
        for tag in "abcde":
            sim.schedule(1.0, fired.append, tag)
        sim.run_until(1.0)
        assert fired == list("abcde")

    def test_same_time_events_scheduled_at_now_fire_after_queued_ones(self, sim):
        fired = []

        def spawn():
            fired.append("a")
            sim.schedule(0.0, fired.append, "a+0")
            sim.schedule_at(sim.now, fired.append, "a@now")

        sim.schedule(1.0, spawn)
        sim.schedule(1.0, fired.append, "b")
        sim.schedule_at(1.0, fired.append, "c")
        sim.schedule(2.0, fired.append, "later")
        sim.run_until(2.0)
        assert fired == ["a", "b", "c", "a+0", "a@now", "later"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [2.5]
        assert sim.now == 10.0

    def test_run_until_is_inclusive(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run_until(5.0)
        assert fired == ["edge"]

    def test_events_beyond_horizon_stay_queued(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run_until(5.0)
        assert fired == []
        sim.run_until(10.0)
        assert fired == ["late"]

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(1.0)
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run_until(4.0)
        assert seen == [4.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_the_past_rejected(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_callback_args_passed_through(self, sim):
        out = []
        sim.schedule(1.0, lambda a, b: out.append((a, b)), 1, "x")
        sim.run_until(1.0)
        assert out == [(1, "x")]

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def outer():
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert fired == ["inner"]

    def test_run_duration_helper(self, sim):
        sim.run(2.0)
        assert sim.now == 2.0
        sim.run(3.0)
        assert sim.now == 5.0

    def test_events_processed_counter(self, sim):
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.events_processed == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run_until(2.0)
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run_until(2.0)

    def test_cancelled_events_are_skipped_in_order(self, sim):
        fired = []
        events = {tag: sim.schedule(1.0, fired.append, tag) for tag in "abcd"}

        def cancel_d():
            fired.append("x")
            events["d"].cancel()

        events["b"].cancel()
        sim.schedule_at(0.5, cancel_d)
        sim.run_until(1.0)
        assert fired == ["x", "a", "c"]
        assert sim.events_processed == 3
        assert sim.pending_events() == 0

    def test_pending_events_tracks_the_queue(self, sim):
        assert sim.pending_events() == 0
        sim.schedule(1.0, lambda: None)
        late = sim.schedule(3.0, lambda: None)
        proc = sim.every(2.0, lambda: None)
        assert sim.pending_events() == 3
        sim.run_until(1.0)
        assert sim.pending_events() == 2
        late.cancel()
        assert sim.pending_events() == 1
        sim.run_until(2.0)
        assert sim.pending_events() == 1       # the periodic rescheduled
        proc.stop()
        assert sim.pending_events() == 0

    def test_pending_events_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        drop.cancel()
        assert sim.pending_events() == 1
        assert keep.cancelled is False


class TestPeriodic:
    def test_periodic_fires_at_interval(self, sim):
        times = []
        sim.every(1.0, lambda: times.append(sim.now))
        sim.run_until(3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_initial_delay(self, sim):
        times = []
        sim.every(1.0, lambda: times.append(sim.now), initial_delay=0.25)
        sim.run_until(2.5)
        assert times == pytest.approx([0.25, 1.25, 2.25])

    def test_stop_halts_future_firings(self, sim):
        times = []
        proc = sim.every(1.0, lambda: times.append(sim.now))
        sim.run_until(2.0)
        proc.stop()
        sim.run_until(5.0)
        assert times == [1.0, 2.0]

    def test_callback_can_stop_itself(self, sim):
        times = []
        proc = None

        def tick():
            times.append(sim.now)
            if len(times) == 2:
                proc.stop()

        proc = PeriodicProcess(sim, 1.0, tick).start()
        sim.run_until(10.0)
        assert times == [1.0, 2.0]

    def test_interval_change_takes_effect_at_next_reschedule(self, sim):
        times = []
        proc = sim.every(1.0, lambda: times.append(sim.now))
        sim.run_until(1.0)
        # The next firing (2.0) was already queued with the old interval;
        # the new interval applies from that firing onward.
        proc.interval = 2.0
        sim.run_until(5.0)
        assert times == [1.0, 2.0, 4.0]

    def test_nonpositive_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_jitter_stays_near_interval(self, sim):
        times = []
        sim.every(1.0, lambda: times.append(sim.now), jitter=0.1)
        sim.run_until(20.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(0.8 <= g <= 1.2 for g in gaps)
        assert len(times) >= 17


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=7)
        b = Simulator(seed=7)
        assert [a.rng.random() for _ in range(10)] == \
               [b.rng.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = Simulator(seed=7)
        b = Simulator(seed=8)
        assert [a.rng.random() for _ in range(5)] != \
               [b.rng.random() for _ in range(5)]

    def test_not_reentrant(self, sim):
        def recurse():
            sim.run_until(10.0)

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)
