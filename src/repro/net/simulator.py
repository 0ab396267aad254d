"""Deterministic discrete-event simulation engine.

The engine is intentionally small: an event heap, a clock, and a seeded
random source.  Everything in the reproduction (vehicle dynamics ticks,
beacon transmissions, channel deliveries, attack processes) is scheduled
through one :class:`Simulator` instance so that a single seed reproduces an
entire experiment bit-for-bit.

Design notes
------------
* The heap holds ``(time, seq, event)`` tuples, so ordering is a C-level
  tuple comparison.  ``seq`` is unique, so the :class:`Event` itself is
  never compared: events at the same timestamp fire in insertion order,
  and scheduling order breaks ties deterministically.
* Cancellation is O(1): events carry a ``cancelled`` flag and are skipped
  when popped (lazy deletion).
* Periodic processes are self-rescheduling events created by
  :meth:`Simulator.every`.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs import registry as obs


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback.

    The simulator queues each event as a ``(time, seq, event)`` heap
    entry; ``(time, seq)`` is the deterministic total order, and the
    event itself (callback, arguments) never takes part in ordering.
    """

    time: float
    seq: int
    callback: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Safe to call multiple times."""
        self.cancelled = True


class PeriodicProcess:
    """Handle for a repeating callback created by :meth:`Simulator.every`."""

    def __init__(self, sim: "Simulator", interval: float, callback: Callable[[], Any],
                 jitter: float = 0.0) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._stopped = False
        self._event: Optional[Event] = None

    @property
    def interval(self) -> float:
        return self._interval

    @interval.setter
    def interval(self, value: float) -> None:
        if value <= 0:
            raise SimulationError(f"periodic interval must be positive, got {value}")
        self._interval = value

    def start(self, initial_delay: Optional[float] = None) -> "PeriodicProcess":
        delay = self._interval if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._fire)
        return self

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if self._stopped:  # callback may have stopped us
            return
        delay = self._interval
        if self._jitter > 0:
            delay += self._sim.rng.uniform(-self._jitter, self._jitter)
            delay = max(delay, 1e-9)
        self._event = self._sim.schedule(delay, self._fire)


class Simulator:
    """Discrete-event simulator with a deterministic clock and RNG.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  All stochastic
        components (channel fading, MAC backoff, attack timing) must draw
        from :attr:`rng` so experiments are reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.rng = random.Random(seed)
        self.seed = seed
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self._now:.6f}")
        seq = next(self._seq)
        event = Event(time, seq, callback, args)   # positional: hot path
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def every(self, interval: float, callback: Callable[[], Any],
              initial_delay: Optional[float] = None, jitter: float = 0.0) -> PeriodicProcess:
        """Create and start a periodic process firing every ``interval`` seconds."""
        return PeriodicProcess(self, interval, callback, jitter=jitter).start(initial_delay)

    def run_until(self, t_end: float) -> None:
        """Process events until the clock reaches ``t_end`` (inclusive).

        The loop is the simulation's hottest path, so observability is
        tiered: the event counter and the loop-level ``sim.run`` timer
        are always on (one increment per call), while per-callback
        timing -- one clock read per event, attributed to the callback's
        qualified name -- only runs under ``obs.set_profiling(True)``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        processed_before = self._events_processed
        wall_start = time.perf_counter()
        profiling = obs.profiling_enabled()
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue and queue[0][0] <= t_end:
                event = heappop(queue)[2]
                if event.cancelled:
                    continue
                self._now = event.time
                self._events_processed += 1
                if profiling:
                    t0 = time.perf_counter()
                    event.callback(*event.args)
                    name = getattr(event.callback, "__qualname__",
                                   type(event.callback).__name__)
                    obs.observe(f"sim.cb.{name}", time.perf_counter() - t0)
                else:
                    event.callback(*event.args)
            self._now = max(self._now, t_end)
        finally:
            self._running = False
            obs.inc("sim.events", self._events_processed - processed_before)
            obs.observe("sim.run", time.perf_counter() - wall_start)

    def run(self, duration: float) -> None:
        """Process events for ``duration`` seconds of simulated time."""
        self.run_until(self._now + duration)

    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events; useful in tests."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)
