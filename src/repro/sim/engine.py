"""Event-driven simulation engine.

A thin deterministic discrete-event loop: callbacks are scheduled at
absolute or relative virtual times and executed in ``(time, insertion)``
order. The engine owns the clock; callbacks may schedule further events
but must never fire in the past.

The cycle driver (:mod:`repro.sim.cycle`) does *not* use this engine —
gossip warm-up is synchronous for speed — and neither does the
latency-aware dissemination driver
(:mod:`repro.dissemination.event_executor`), which keeps only this
ordering rule over its messages in flight; the asynchronous gossip
driver (:mod:`repro.sim.async_driver`) and several tests do.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.common.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue

__all__ = ["EventEngine"]


class EventEngine:
    """Discrete-event loop over an :class:`EventQueue` and a :class:`SimClock`.

    >>> engine = EventEngine()
    >>> order = []
    >>> _ = engine.schedule_at(5.0, lambda: order.append("b"))
    >>> _ = engine.schedule_at(1.0, lambda: order.append("a"))
    >>> engine.run()
    2
    >>> order
    ['a', 'b']
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._queue = EventQueue()
        self._executed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of live scheduled events."""
        return len(self._queue)

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def schedule_at(self, time: float, action: Callable[[], Any]) -> Event:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule in the past: now={self.clock.now}, at={time}"
            )
        return self._queue.push(time, action)

    def schedule_in(self, delay: float, action: Callable[[], Any]) -> Event:
        """Schedule ``action`` after a non-negative ``delay``."""
        if not delay >= 0:  # also rejects NaN, which is not < 0
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self.clock.now + delay, action)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (idempotent)."""
        self._queue.cancel(event)

    def step(self) -> bool:
        """Execute the single earliest event. Return ``False`` when idle."""
        event = self._queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.action()
        self._executed += 1
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        executed = 0
        while max_events is None or executed < max_events:
            if not self.step():
                break
            executed += 1
        return executed

    def run_until(self, time: float) -> int:
        """Run every event with timestamp <= ``time``; settle clock at ``time``.

        Returns the number of events executed by this call.

        ``step()`` is the single source of truth for the loop: the peek
        only bounds the horizon, and an iteration counts as executed
        only if ``step()`` actually fired an event. (A peeked event can
        disappear before its pop — e.g. cancelled by a hook between
        iterations — and must then neither advance the counter nor let
        the loop pop an event beyond the horizon.)
        """
        executed = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > time:
                break
            if not self.step():
                break
            executed += 1
        self.clock.advance_to(max(time, self.clock.now))
        return executed
