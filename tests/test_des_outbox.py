"""The per-message event path: handle-free posting and the send outbox.

``Simulator.post`` entries carry no cancel handle and must interleave
with ``schedule`` entries exactly by (time, seq).  ``DESContext.send``
coalesces deferred sends into one outbox event only when one event per
send would have fired back to back; these tests pin that the coalesced
path delivers, counts and crashes exactly like one event per send.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.common.config import ClusterConfig, ExperimentConfig, NetworkProfile
from repro.des.process import Process
from repro.des.simulator import Simulator
from repro.harness.des_runtime import DESCluster, DESContext
from repro.harness.failures import Strategy, make_byzantine
from repro.network.simnet import SimNetwork

N = 4


class TestPostAndSchedule:
    def test_equal_times_fire_in_seq_order(self):
        sim = Simulator()
        order: list[str] = []
        for i in range(3):
            sim.post(1.0, lambda i=i: order.append(f"post{i}"))
            sim.schedule(1.0, lambda i=i: order.append(f"sched{i}"))
        sim.post(0.5, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "post0", "sched0", "post1", "sched1", "post2", "sched2"]
        assert sim.scheduled == 7
        assert sim.events_processed == 7

    def test_step_fires_posted_entries(self):
        sim = Simulator()
        fired: list[float] = []
        sim.post(2.0, lambda: fired.append(sim.now))
        sim.schedule(1.0, lambda: fired.append(sim.now))
        assert sim.step() and sim.step()
        assert not sim.step()
        assert fired == [1.0, 2.0]

    def test_posted_entry_behind_the_clock_is_rejected_when_popped(self):
        from repro.des.simulator import SimulationError

        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        sim.post(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run()

    @staticmethod
    def _storm(live: str) -> tuple[list[int], list[int], int]:
        """Cancel 400 timers among 100 live entries posted or scheduled."""
        sim = Simulator()
        fired: list[int] = []
        pending: list[int] = []
        for i in range(100):
            if live == "post":
                sim.post(10.0 + i, lambda i=i: fired.append(i))
            else:
                sim.schedule(10.0 + i, lambda i=i: fired.append(i))
        doomed = [sim.schedule(50.0, lambda: fired.append(-1)) for _ in range(400)]
        for event in doomed:
            event.cancel()
            pending.append(sim.pending)
        sim.run()
        return fired, pending, sim.events_processed

    def test_cancelled_schedules_are_skipped_and_compacted(self):
        fired, pending, processed = self._storm("post")
        assert fired == list(range(100))
        assert processed == 100
        # The >50% sweep ran: tombstones did not all stay queued.
        assert min(pending) < 500
        # Posted live entries change neither the sweep nor the counts.
        assert (fired, pending, processed) == self._storm("schedule")


def _node(sim: Simulator, src: int = 0, n: int = N) -> tuple[DESContext, SimNetwork, list]:
    """One DESContext on a jitter-free network; returns the delivery log."""
    network = SimNetwork(sim, NetworkProfile(jitter=0.0))
    log: list[tuple[int, float, int, Any]] = []
    for dst in range(n):
        network.register(dst, lambda s, p, dst=dst: log.append((dst, sim.now, s, p)))
    process = Process(sim, f"replica-{src}")
    return DESContext(process, network, src, n), network, log


def _one_event_per_send(ctx: DESContext, dst: int, payload: Any) -> None:
    """The reference: every deferred send is its own posted event."""
    process = ctx._process
    ready_at = process.cpu_free_at
    if ready_at <= process.now:
        ctx._network.send(ctx._id, dst, payload)
    else:
        process.run_at(ready_at, ctx._network.send, ctx._id, dst, payload)


class TestOutbox:
    def _busy_broadcasts(self, send_fn) -> tuple[list, int, int]:
        sim = Simulator()
        ctx, _network, log = _node(sim)

        def act() -> None:
            ctx.charge(0.003)
            for payload in ("a", "b"):
                for dst in range(N):
                    send_fn(ctx, dst, payload)
            ctx.charge(0.001)
            send_fn(ctx, 1, "c")

        sim.schedule(0.1, act)
        sim.run()
        return log, sim.events_processed, sim.scheduled

    def test_broadcast_matches_one_event_per_send(self):
        coalesced, processed, pushed = self._busy_broadcasts(DESContext.send)
        reference, ref_processed, ref_pushed = self._busy_broadcasts(_one_event_per_send)
        assert coalesced == reference
        assert [(dst, p) for dst, _t, _s, p in coalesced if dst == 1] == [
            (1, "a"),
            (1, "b"),
            (1, "c"),
        ]
        assert processed == ref_processed
        # Two outboxes (the 8 broadcast sends, then "c") replace 9 events.
        assert ref_pushed - pushed == 9 - 2

    def test_event_between_sends_splits_the_outbox(self):
        sim = Simulator()
        ctx, network, _log = _node(sim)
        order: list[tuple[float, str]] = []
        real_send = network.send

        def logged_send(src: int, dst: int, payload: Any) -> None:
            order.append((sim.now, payload))
            real_send(src, dst, payload)

        network.send = logged_send  # type: ignore[method-assign]

        def act() -> None:
            ctx.charge(0.002)
            departs = ctx._process.cpu_free_at
            ctx.send(1, "first")
            before = sim.scheduled
            ctx.send(2, "joins")
            assert sim.scheduled == before  # coalesced
            sim.schedule(departs - sim.now, lambda: order.append((sim.now, "timer")))
            ctx.send(3, "after-timer")
            assert sim.scheduled == before + 2  # timer + a new outbox

        sim.schedule(0.1, act)
        sim.run()
        assert [label for _t, label in order] == ["first", "joins", "timer", "after-timer"]
        assert len({t for t, _label in order}) == 1

    def test_crash_drops_whole_outbox_but_credits_it(self):
        sim = Simulator()
        ctx, _network, log = _node(sim)
        process = ctx._process

        def act() -> None:
            ctx.charge(0.005)
            ctx.broadcast("doomed")
            process.crash()

        sim.schedule(0.1, act)
        sim.schedule(1.0, process.recover)
        sim.run()
        assert log == []
        # act + one event per deferred send + recover, as without the outbox.
        assert sim.events_processed == 1 + N + 1
        # After recovery a new send goes out; the dropped outbox does not.
        sim.schedule(0.0, lambda: ctx.send(2, "fresh"))
        sim.run()
        assert [p for _dst, _t, _s, p in log] == ["fresh"]

    def test_intercepted_send_goes_through_the_outbox(self):
        experiment = ExperimentConfig(cluster=ClusterConfig.for_f(1), seed=3)
        cluster = DESCluster(experiment, crypto_mode="null")
        intercepted: list[int] = []

        class PassThrough(Strategy):
            def outbound(self, now, dst, payload, send):
                intercepted.append(dst)
                send(dst, payload)

        make_byzantine(cluster, 0, PassThrough())
        ctx = cluster.replicas[0].ctx
        sim = cluster.sim
        pushed: list[int] = []

        def act() -> None:
            ctx.charge(0.002)
            before = sim.scheduled
            ctx.broadcast("ping")
            pushed.append(sim.scheduled - before)

        delivered: list[int] = []
        for dst in range(N):
            cluster.network.register(dst, lambda s, p, dst=dst: delivered.append(dst))
        sim.schedule(0.1, act)
        sim.run(until=1.0)
        assert intercepted == list(range(N))
        assert pushed == [1]
        assert sorted(delivered) == list(range(N))


WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

#: Heap pushes (``Simulator.scheduled``) at seed 1: one entry per
#: message, not one per message plus a deferred-send event.
SCHEDULED_BUDGET = {"hub-f1": 3_227, "fanout-f10": 96_000, "churn-real": 100_000}
#: Logical events at seed 1 — the count the budget must not move.
EVENTS = {"hub-f1": 3_049, "fanout-f10": 107_047, "churn-real": 131_717}


@pytest.fixture(scope="module")
def benchmark_workloads():
    name = "_repo_benchmark_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload", sorted(SCHEDULED_BUDGET))
def test_benchmark_heap_pushes_within_budget(benchmark_workloads, workload):
    outcome, built = benchmark_workloads.run_once(
        benchmark_workloads.WORKLOADS[workload], 1
    )
    assert outcome.violations == []
    assert outcome.events == EVENTS[workload]
    assert built.cluster.sim.scheduled <= SCHEDULED_BUDGET[workload]
