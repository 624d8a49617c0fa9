"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventEngine, PastEventError


class TestOrdering:
    def test_time_order(self):
        e = EventEngine()
        seen = []
        e.schedule(30, lambda now: seen.append((now, "c")))
        e.schedule(10, lambda now: seen.append((now, "a")))
        e.schedule(20, lambda now: seen.append((now, "b")))
        e.run()
        assert seen == [(10, "a"), (20, "b"), (30, "c")]

    def test_same_cycle_fifo(self):
        e = EventEngine()
        seen = []
        for tag in "abc":
            e.schedule(5, lambda now, t=tag: seen.append(t))
        e.run()
        assert seen == ["a", "b", "c"]

    def test_past_events_clamped_to_now(self):
        e = EventEngine()
        seen = []

        def first(now):
            e.schedule(now - 100, lambda t: seen.append(t))

        e.schedule(50, first)
        e.run()
        assert seen == [50]
        assert e.now == 50

    def test_clamped_events_counted(self):
        e = EventEngine()
        e.schedule(50, lambda now: e.schedule(now - 1, lambda t: None))
        e.schedule(50, lambda now: e.schedule(now - 30, lambda t: None))
        e.run()
        assert e.clamped_events == 2

    def test_same_cycle_schedule_is_not_a_clamp(self):
        e = EventEngine()
        e.schedule(50, lambda now: e.schedule(now, lambda t: None))
        e.schedule(10, lambda now: None)
        e.run()
        assert e.clamped_events == 0

    def test_strict_mode_raises_on_past_schedule(self):
        e = EventEngine(strict=True)
        boom = []

        def first(now):
            try:
                e.schedule(now - 1, lambda t: None)
            except PastEventError as exc:
                boom.append(exc)

        e.schedule(5, first)
        e.run()
        assert len(boom) == 1

    def test_strict_mode_counts_clamp_before_raising(self):
        # The counter is the causality-violation record: a strict-mode
        # rejection must still be counted, even when the caller swallows
        # the exception — otherwise the run reports itself clean.
        e = EventEngine(strict=True)
        rejected = []

        def first(now):
            for back in (1, 30):
                try:
                    e.schedule(now - back, lambda t: None)
                except PastEventError as exc:
                    rejected.append(exc)

        e.schedule(50, first)
        e.run()
        assert len(rejected) == 2
        assert e.clamped_events == 2

    def test_strict_mode_allows_present_and_future(self):
        e = EventEngine(strict=True)
        seen = []
        e.schedule(5, lambda now: e.schedule(now, lambda t: seen.append(t)))
        e.schedule(5, lambda now: e.schedule(now + 3, lambda t: seen.append(t)))
        e.run()
        assert seen == [5, 8]

    def test_now_never_decreases(self):
        e = EventEngine()
        trace = []
        e.schedule(10, lambda now: trace.append(e.now))
        e.schedule(10, lambda now: e.schedule(5, lambda t: trace.append(e.now)))
        e.run()
        assert trace == sorted(trace)


class TestControl:
    def test_run_returns_when_empty(self):
        e = EventEngine()
        e.run()
        assert (e.now, e.events_processed) == (0, 0)

    def test_stop_requested_stops(self):
        e = EventEngine()
        count = []

        def tick(now):
            count.append(now)
            if len(count) == 3:
                e.stop_requested = True

        for i in range(10):
            e.schedule(i, tick)
        e.run()
        assert count == [0, 1, 2]
        assert e.events_processed == 3
        # the other 7 stay queued for the next run
        e.stop_requested = False
        e.run()
        assert count == list(range(10))

    def test_max_events_raises(self):
        e = EventEngine()

        def respawn(now):
            e.schedule(now + 1, respawn)

        e.schedule(0, respawn)
        with pytest.raises(RuntimeError):
            e.run(max_events=50)

    def test_self_rescheduling_chain_runs_every_event_once(self):
        e = EventEngine()
        ticks = []

        def tick(now):
            ticks.append(now)
            if len(ticks) < 10_000:
                e.schedule(now + 1, tick)

        e.schedule(0, tick)
        e.run()
        assert ticks == list(range(10_000))
        assert e.events_processed == 10_000

    def test_events_with_args(self):
        e = EventEngine()
        seen = []
        e.schedule(1, lambda now, a, b: seen.append((a, b)), "x", 2)
        e.run()
        assert seen == [("x", 2)]


class TestLanes:
    """The controller's decision slots and completion deques."""

    def make(self, seen, channels=2):
        e = EventEngine()
        e.attach_channels(
            channels,
            lambda now, ch: seen.append((now, "point", ch)),
            lambda now, req: seen.append((now, "deliver", req)),
        )
        return e

    def test_same_cycle_sources_run_in_schedule_order(self):
        # Heap, decision slot and completion lane share one sequence
        # counter, so a same-cycle tie goes to whichever was armed first.
        seen = []
        e = self.make(seen)
        e.complete(1, 10, "r")
        e.schedule(10, lambda now: seen.append((now, "heap", None)))
        e.kick(0, 10)
        e.run()
        assert seen == [(10, "deliver", "r"), (10, "heap", None), (10, "point", 0)]
        assert e.events_processed == 3

    def test_earlier_cycle_wins_across_lanes(self):
        seen = []
        e = self.make(seen)
        e.kick(1, 30)
        e.complete(0, 20, "a")
        e.complete(0, 25, "b")
        e.schedule(5, lambda now: None)
        e.run()
        assert [s[0] for s in seen] == [20, 25, 30]
