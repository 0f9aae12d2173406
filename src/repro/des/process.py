"""Process model: a simulated machine with a busy CPU.

A :class:`Process` wraps a simulator handle and models a single-threaded
CPU: work charged with :meth:`charge` extends the time at which the
process can next act, and :meth:`run_after_cpu` schedules a callback for
when both a delay has elapsed *and* the CPU is free.  This is how the DES
reproduces the paper's observation that crypto and database work — not
just network hops — bound throughput.

Crashing a process makes it drop all future callbacks, which is exactly
the crash-failure model of the paper's view-change and rotating-leader
experiments.

Every callback is posted to the simulator as one handle-free heap entry
(:meth:`Simulator.post`) wrapping a bound ``partial`` of
:meth:`Process._if_alive` — no per-event closure and no label.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.des.simulator import SimulationError, Simulator


class Process:
    """One simulated machine: an id, a CPU, and an alive flag."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self._name = name
        self._cpu_free_at = 0.0
        self._alive = True
        self._cpu_busy_total = 0.0

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def name(self) -> str:
        return self._name

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def cpu_busy_total(self) -> float:
        """Total CPU seconds this process has consumed."""
        return self._cpu_busy_total

    @property
    def cpu_free_at(self) -> float:
        """Absolute time at which all charged CPU work completes."""
        return max(self._cpu_free_at, self._sim.now)

    @property
    def now(self) -> float:
        return self._sim.now

    def crash(self) -> None:
        """Crash-stop: every subsequently firing callback becomes a no-op."""
        self._alive = False

    def recover(self) -> None:
        """Bring a crashed process back (used by churn experiments)."""
        self._alive = True
        self._cpu_free_at = max(self._cpu_free_at, self._sim.now)

    def charge(self, cpu_seconds: float) -> float:
        """Consume CPU time; returns the absolute time the work finishes.

        Work is serialised: if the CPU is already busy until T, new work
        occupies [T, T + cpu_seconds].
        """
        if cpu_seconds < 0:
            raise ValueError(f"cpu_seconds cannot be negative: {cpu_seconds}")
        start = max(self._cpu_free_at, self._sim.now)
        self._cpu_free_at = start + cpu_seconds
        self._cpu_busy_total += cpu_seconds
        return self._cpu_free_at

    def run_after_cpu(
        self, cpu_seconds: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Charge CPU work and run ``callback(*args)`` when it completes
        (if alive)."""
        done_at = self.charge(cpu_seconds)
        now = self._sim.now
        self._sim.post(now + (done_at - now), partial(self._if_alive, callback, *args))

    def run_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time`` if still alive."""
        now = self._sim.now
        if time < now:
            raise SimulationError(f"cannot run into the past (time={time}, now={now})")
        self._sim.post(now + (time - now), partial(self._if_alive, callback, *args))

    def run_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds if still alive."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._sim.post(self._sim.now + delay, partial(self._if_alive, callback, *args))

    def _if_alive(self, callback: Callable[..., None], *args: Any) -> None:
        if self._alive:
            callback(*args)
