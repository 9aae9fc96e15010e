"""Unit and property tests for the DES engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    Interrupt,
    PeriodicTask,
    SimulationError,
    Simulator,
    Timeout,
    wait_all,
)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_runs_callback_at_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_with_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]

    def test_schedule_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_fifo_order_for_simultaneous_events(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(1.0, seen.append, i)
        sim.run()
        assert seen == list(range(10))

    def test_cancel_prevents_execution(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, seen.append, "no")
        handle.cancel()
        sim.run()
        assert seen == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0
        assert sim.now == 10.0

    def test_run_until_advances_clock_even_if_queue_empty(self):
        sim = Simulator()
        assert sim.run(until=42.0) == 42.0

    def test_events_beyond_until_survive(self):
        sim = Simulator()
        seen = []
        sim.schedule(100.0, seen.append, "late")
        sim.run(until=10.0)
        assert seen == []
        sim.run()
        assert seen == ["late"]

    def test_peek_returns_next_time(self):
        sim = Simulator()
        sim.schedule(7.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        assert sim.peek() == 3.0

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule(3.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        h.cancel()
        assert sim.peek() == 7.0

    def test_peek_empty_queue(self):
        assert Simulator().peek() is None

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_execution_order_is_time_sorted(self, delays):
        sim = Simulator()
        order = []
        for d in delays:
            sim.schedule(d, order.append, d)
        sim.run()
        assert order == sorted(delays)
        # same-time entries keep submission order
        for a, b in zip(order, order[1:]):
            assert a <= b

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_clock_is_monotone(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)


class TestSimEvent:
    def test_succeed_delivers_value_to_callback(self):
        sim = Simulator()
        ev = sim.event("e")
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_callback_after_trigger_still_fires(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("v")
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == ["v"]

    def test_double_succeed_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_fail_marks_error(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("boom"))
        assert ev.is_error
        assert isinstance(ev.value, ValueError)

    def test_wait_all_collects_values_in_order(self):
        sim = Simulator()
        evs = [sim.event(str(i)) for i in range(3)]
        combined = wait_all(sim, evs)
        got = []
        combined.add_callback(lambda e: got.append(e.value))
        evs[2].succeed("c")
        evs[0].succeed("a")
        evs[1].succeed("b")
        sim.run()
        assert got == [["a", "b", "c"]]

    def test_wait_all_empty(self):
        sim = Simulator()
        combined = wait_all(sim, [])
        assert combined.triggered
        assert combined.value == []

    def test_wait_all_propagates_failure(self):
        sim = Simulator()
        evs = [sim.event(), sim.event()]
        combined = wait_all(sim, evs)
        got = []
        combined.add_callback(lambda e: got.append(e.is_error))
        evs[0].fail(RuntimeError("x"))
        sim.run()
        assert got == [True]


class TestProcess:
    def test_timeout_advances_process(self):
        sim = Simulator()
        log = []

        def proc():
            yield sim.timeout(2.0)
            log.append(sim.now)
            yield sim.timeout(3.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [2.0, 5.0]

    def test_process_return_value_in_done_event(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return "result"

        p = sim.process(proc())
        sim.run()
        assert p.done_event.triggered
        assert p.done_event.value == "result"
        assert not p.alive

    def test_process_waits_on_event(self):
        sim = Simulator()
        ev = sim.event()
        log = []

        def proc():
            v = yield ev
            log.append((sim.now, v))

        sim.process(proc())
        sim.schedule(4.0, lambda: ev.succeed("go"))
        sim.run()
        assert log == [(4.0, "go")]

    def test_process_waits_on_other_process(self):
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(3.0)
            return "child-val"

        def parent():
            c = sim.process(child())
            v = yield c
            log.append((sim.now, v))

        sim.process(parent())
        sim.run()
        assert log == [(3.0, "child-val")]

    def test_failed_event_raises_in_process(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def proc():
            try:
                yield ev
            except ValueError as e:
                caught.append(str(e))

        sim.process(proc())
        sim.schedule(1.0, lambda: ev.fail(ValueError("bad")))
        sim.run()
        assert caught == ["bad"]

    def test_interrupt_during_timeout(self):
        sim = Simulator()
        log = []

        def proc():
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                log.append((sim.now, i.cause))

        p = sim.process(proc())
        sim.schedule(5.0, p.interrupt, "wakeup")
        sim.run()
        assert log == [(5.0, "wakeup")]

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        sim.run()
        p.interrupt()  # must not raise
        sim.run()

    def test_uncaught_interrupt_terminates_process(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        p = sim.process(proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert not p.alive

    def test_yield_non_waitable_fails(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(SimulationError, match="non-waitable"):
            sim.run()

    def test_requires_generator(self):
        with pytest.raises(SimulationError):
            Simulator().process(lambda: None)  # type: ignore[arg-type]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-0.1)


class TestPeriodicTask:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        sim.periodic(2.0, lambda: ticks.append(sim.now))
        sim.run(until=10.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_start_delay(self):
        sim = Simulator()
        ticks = []
        sim.periodic(2.0, lambda: ticks.append(sim.now), start_delay=0.5)
        sim.run(until=5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_cancel_stops_future_ticks(self):
        sim = Simulator()
        ticks = []
        task = sim.periodic(1.0, lambda: ticks.append(sim.now))
        sim.schedule(3.5, task.cancel)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert task.cancelled

    def test_truthy_return_stops_task(self):
        sim = Simulator()
        ticks = []

        def fn():
            ticks.append(sim.now)
            return len(ticks) >= 3

        task = sim.periodic(1.0, fn)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert task.cancelled
        assert task.ticks == 3

    def test_zero_period_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0.0, lambda: None)


class TestWaitAllWithProcesses:
    def test_fan_out_fan_in(self):
        """A coordinator waits for N child processes via wait_all."""
        sim = Simulator()
        results = []

        def child(delay, value):
            yield sim.timeout(delay)
            return value

        def coordinator():
            children = [sim.process(child(d, d)) for d in (3.0, 1.0, 2.0)]
            values = yield wait_all(sim, [c.done_event for c in children])
            results.append((sim.now, values))

        sim.process(coordinator())
        sim.run()
        # completes when the slowest child does, values in launch order
        assert results == [(3.0, [3.0, 1.0, 2.0])]

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_completion_time_is_max_delay(self, delays):
        sim = Simulator()
        done_at = []

        def child(d):
            yield sim.timeout(d)

        def coordinator():
            procs = [sim.process(child(d)) for d in delays]
            yield wait_all(sim, [p.done_event for p in procs])
            done_at.append(sim.now)

        sim.process(coordinator())
        sim.run()
        assert done_at[0] == pytest.approx(max(delays))

    def test_nested_process_waits(self):
        """Grandparent waits for parent which waits for child."""
        sim = Simulator()
        order = []

        def child():
            yield sim.timeout(1.0)
            order.append("child")
            return "c"

        def parent():
            v = yield sim.process(child())
            order.append("parent")
            return v + "p"

        def grandparent():
            v = yield sim.process(parent())
            order.append("grandparent")
            return v + "g"

        g = sim.process(grandparent())
        sim.run()
        assert order == ["child", "parent", "grandparent"]
        assert g.done_event.value == "cpg"
