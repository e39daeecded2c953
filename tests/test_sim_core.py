"""Tests for the simulation core: clock, event queue, engine, latency."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.events import EventQueue
from repro.sim.latency import (
    ConstantLatency,
    UniformLatency,
    ZeroLatency,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_forward(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_backwards_rejected(self):
        clock = SimClock(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_advance_to_same_time_allowed(self):
        clock = SimClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_tick(self):
        clock = SimClock()
        clock.tick()
        clock.tick(0.5)
        assert clock.now == 1.5

    def test_negative_tick_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().tick(-1.0)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(2.0, lambda: "late")
        q.push(1.0, lambda: "early")
        assert q.pop().time == 1.0
        assert q.pop().time == 2.0

    def test_fifo_within_same_time(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("first"))
        q.push(1.0, lambda: order.append("second"))
        q.pop().action()
        q.pop().action()
        assert order == ["first", "second"]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_len_counts_live_events(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        q.cancel(event)
        assert len(q) == 1

    def test_cancel_idempotent(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 0

    def test_cancelled_events_skipped_on_pop(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(first)
        assert q.pop().time == 2.0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(3.0, lambda: None)
        q.cancel(first)
        assert q.peek_time() == 3.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, lambda: None)
        assert q

    def test_drain_returns_in_order(self):
        q = EventQueue()
        for t in (3.0, 1.0, 2.0):
            q.push(t, lambda: None)
        times = [e.time for e in q.drain()]
        assert times == [1.0, 2.0, 3.0]
        assert not q

    def test_cancel_after_pop_keeps_live_count_sane(self):
        # A late cancel of an already-popped event must not decrement
        # the live counter below the number of queued events.
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        popped = q.pop()
        assert popped is first
        q.cancel(first)
        assert len(q) == 1
        assert bool(q)
        assert q.pop().time == 2.0
        assert len(q) == 0
        assert not q

    def test_cancel_after_pop_on_empty_queue(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.pop()
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 0
        assert not q
        # The queue is still usable afterwards.
        q.push(3.0, lambda: None)
        assert len(q) == 1


class TestEventEngine:
    def test_runs_in_time_order(self):
        engine = EventEngine()
        order = []
        engine.schedule_at(5.0, lambda: order.append("b"))
        engine.schedule_at(1.0, lambda: order.append("a"))
        assert engine.run() == 2
        assert order == ["a", "b"]
        assert engine.now == 5.0

    def test_schedule_in_relative(self):
        engine = EventEngine()
        engine.schedule_in(2.0, lambda: None)
        engine.run()
        assert engine.now == 2.0

    def test_schedule_in_past_rejected(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventEngine().schedule_in(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventEngine().schedule_in(float("nan"), lambda: None)

    def test_callbacks_can_schedule_more(self):
        engine = EventEngine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                engine.schedule_in(1.0, lambda: chain(n + 1))

        engine.schedule_at(0.0, lambda: chain(0))
        engine.run()
        assert seen == [0, 1, 2, 3]
        assert engine.now == 3.0

    def test_run_until_executes_only_due_events(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(5.0, lambda: fired.append(5))
        executed = engine.run_until(2.0)
        assert executed == 1
        assert fired == [1]
        assert engine.now == 2.0
        assert engine.pending == 1

    def test_run_max_events(self):
        engine = EventEngine()
        for t in range(5):
            engine.schedule_at(float(t), lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.pending == 2

    def test_cancel_scheduled_event(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule_at(1.0, lambda: fired.append("x"))
        engine.cancel(handle)
        engine.run()
        assert fired == []

    def test_executed_counter(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.run()
        assert engine.executed == 1

    def test_run_until_empty_queue_settles_clock(self):
        engine = EventEngine()
        assert engine.run_until(5.0) == 0
        assert engine.now == 5.0
        assert engine.pending == 0

    def test_run_until_does_not_rewind_clock(self):
        engine = EventEngine()
        engine.schedule_at(4.0, lambda: None)
        engine.run()
        assert engine.run_until(2.0) == 0
        assert engine.now == 4.0

    def test_run_max_events_zero_is_a_noop(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        assert engine.run(max_events=0) == 0
        assert engine.pending == 1
        assert engine.executed == 0
        assert engine.now == 0.0

    def test_cancel_already_executed_event_is_harmless(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule_at(1.0, lambda: fired.append("x"))
        engine.schedule_at(2.0, lambda: fired.append("y"))
        engine.run(max_events=1)
        engine.cancel(handle)  # handle already popped and executed
        engine.cancel(handle)  # idempotent
        assert engine.pending == 1
        assert engine.run() == 1
        assert fired == ["x", "y"]

    def test_run_until_with_action_cancelling_due_event(self):
        # An executing event cancels another event that is still due
        # within the horizon: the loop must neither execute it nor
        # count it, and the executed total must reflect reality.
        engine = EventEngine()
        fired = []
        victim = engine.schedule_at(2.0, lambda: fired.append("victim"))
        engine.schedule_at(1.0, lambda: engine.cancel(victim))
        executed = engine.run_until(3.0)
        assert executed == 1
        assert fired == []
        assert engine.pending == 0
        assert engine.now == 3.0

    def test_run_until_counts_only_real_executions(self):
        engine = EventEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        keep = engine.schedule_at(5.0, lambda: fired.append(5))
        assert engine.run_until(4.0) == 1
        assert engine.executed == 1
        engine.cancel(keep)
        assert engine.run_until(6.0) == 0
        assert engine.executed == 1
        assert fired == [1]


class TestLatencyModels:
    def test_zero_latency(self, rng):
        assert ZeroLatency().sample(1, 2, rng) == 0.0

    def test_constant_latency(self, rng):
        model = ConstantLatency(2.5)
        assert model.sample(1, 2, rng) == 2.5
        assert model.sample(9, 7, rng) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)

    def test_uniform_latency_in_range(self, rng):
        model = UniformLatency(1.0, 3.0)
        samples = [model.sample(0, 1, rng) for _ in range(200)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert max(samples) - min(samples) > 0.5

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ConfigurationError):
            UniformLatency(-1.0, 1.0)
