"""Process-parallel sharded simulation with a deterministic lookahead merge.

PR 7's :class:`~repro.shard.ShardedCluster` advances all G consensus
groups in ONE simulator, so a sharded run — the shape that demonstrates
Marlin's linearity at scale — gets zero multi-core benefit.  This module
runs each group's :class:`~repro.des.simulator.Simulator` in its own
spawn worker process and advances them in conservative lookahead windows
(Chandy-Misra): every worker may freely simulate to ``t + L``, where
``L`` is the minimum cross-shard latency, because no event from another
shard can arrive sooner.  At each window barrier the parent collects the
workers' outbound cross-shard events, merges them in canonical
``(time, shard, seq)`` order, and hands each worker its inbox for the
next window.

Determinism is the load-bearing property: a parallel run is
**byte-identical** to the serial :class:`~repro.shard.ShardedCluster` —
same per-group event counts, same commit-trace SHAs, same
``journeys_blob``.  Three facts make that possible:

* groups never exchange simulator events in the PR 7 topology (client
  routing is resolved before injection and each group owns a private
  :class:`~repro.network.simnet.SimNetwork`), so the only runtime
  coupling in the serial engine was the *shared jitter RNG* — removed by
  giving every group its own :func:`~repro.network.simnet.shard_net_rng`
  stream in both engines;
* the crypto service is a pure function of the cluster shape (the key
  registry is seeded), so each worker rebuilds an identical service
  instead of sharing one;
* every read-out that crosses groups (commit trace, journeys, merged
  latency samples, metrics registries) is assembled in shard order from
  per-group pieces, exactly as the serial engine does.

One telemetry caveat: the ``crypto_qc_cache_*`` counters describe the
engine, not the simulation — serial runs share one QC-verification cache
across all groups (an amortisation the parallel engine cannot reproduce
without sharing memory), so those counters' hit/miss split differs
between engines while their sum, and every simulation read-out, matches.

The cross-shard event bus is real plumbing — events emitted via
:meth:`GroupPort.emit` travel through the barrier merge and are applied
by a handler resolved from a dotted name — but the standard sharded
workload has no cross-shard edges, so its effective lookahead is
infinite and the whole run is one window.  Pass an explicit
``lookahead`` to force barriers (the equivalence tests do, proving the
windowed path changes nothing).

Speedup requires multi-core hardware: on a single core the workers time-
slice and the barrier overhead is pure cost.  See EXPERIMENTS.md
("Parallel DES") for the measured numbers and the framing of the >=2x
multi-core claim.
"""

from __future__ import annotations

import importlib
import multiprocessing
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.common.config import ExperimentConfig
from repro.common.errors import ConfigError, ReproError
from repro.des.simulator import Simulator
from repro.harness.des_runtime import DESCluster
from repro.network.simnet import shard_net_rng
from repro.shard.config import ShardConfig

__all__ = [
    "GroupPort",
    "ParallelShardedCluster",
]

#: Floor for the auto-derived lookahead window, guarding against a
#: zero-latency network profile producing zero-width windows.
_MIN_LOOKAHEAD = 1e-3


class ParallelSimulationError(ReproError):
    """The parallel engine detected a broken invariant (worker crash,
    lookahead violation, or a cross-shard event into the past)."""


# ---------------------------------------------------------------------------
# Worker-side machinery.  Everything below _WorkerSpec runs inside the
# spawn worker for jobs > 1, and inline (same code path) for jobs == 1.


@dataclass
class _WorkerSpec:
    """Everything one worker needs to rebuild its groups; must pickle."""

    experiment: ExperimentConfig
    shard: ShardConfig
    protocol: str
    crypto_mode: str
    pipeline: Any | None
    #: Shard ids hosted by this worker, ascending.
    shard_ids: tuple[int, ...]
    #: Per-hosted-shard client token ids (aligned with ``shard_ids``).
    client_ids: tuple[tuple[int, ...], ...]
    token_weight: int
    request_size: int | None
    reply_size: int | None
    target: str
    warmup: float
    mode: str
    client_config: Any | None
    start_at: float
    journey_seed: int
    journey_rate: float
    audit: bool
    metrics: bool
    bus_handler: str | None
    lookahead: float | None


class GroupPort:
    """A bus handler's view of one hosted group.

    Handlers receive the port plus ``(src_shard, payload)``; they may
    inspect the group's cluster and :meth:`emit` further cross-shard
    events, which travel through the next window barrier.
    """

    def __init__(self, host: "_WorkerHost", group: Any) -> None:
        self._host = host
        self.group = group
        self.shard_id = group.shard_id

    @property
    def sim(self) -> Simulator:
        return self.group.cluster.sim

    @property
    def cluster(self) -> DESCluster:
        return self.group.cluster

    def emit(self, dst_shard: int, payload: Any, delay: float = 0.0) -> None:
        """Send ``payload`` to ``dst_shard``'s handler on the bus.

        Arrival is ``now + max(delay, lookahead)`` — the conservative
        window contract: no cross-shard event may arrive sooner than one
        lookahead after it was sent, which is exactly what lets every
        worker simulate a full window without hearing from its peers.
        """
        self._host.emit(self.shard_id, dst_shard, payload, delay)


def _resolve_handler(dotted: str) -> Callable[..., None]:
    """Import ``module:function`` (or ``module.function``) to a callable."""
    if ":" in dotted:
        module_name, attr = dotted.split(":", 1)
    else:
        module_name, _, attr = dotted.rpartition(".")
    if not module_name:
        raise ConfigError(f"bus handler {dotted!r} is not a dotted path")
    module = importlib.import_module(module_name)
    handler = getattr(module, attr, None)
    if not callable(handler):
        raise ConfigError(f"bus handler {dotted!r} did not resolve to a callable")
    return handler


class _WorkerHost:
    """Hosts one worker's groups: builds them, advances them window by
    window, and packages the per-group results at teardown."""

    def __init__(self, spec: _WorkerSpec) -> None:
        from repro.harness.workload import ClosedLoopClients
        from repro.obs.journey import JourneyRecorder
        from repro.obs.observer import RunObservability
        from repro.shard.cluster import ShardGroup, make_misroute_guard

        self.spec = spec
        experiment = spec.experiment
        cluster_cfg = experiment.cluster
        router = spec.shard.make_router()
        # One crypto service per worker, shared by its groups: the key
        # registry is a pure function of (n, quorum, seed), so every
        # worker's copy is identical to the serial engine's single one.
        crypto = DESCluster._make_crypto(
            spec.crypto_mode, cluster_cfg.num_replicas, cluster_cfg.quorum
        )
        journey = (
            JourneyRecorder(spec.journey_seed, spec.journey_rate)
            if spec.journey_rate > 0.0
            else None
        )
        if journey is not None and not journey.enabled:
            journey = None
        self.journey = journey
        self.groups: list[Any] = []
        self.pools: dict[int, Any] = {}
        self.ports: dict[int, GroupPort] = {}
        self._outbox: list[tuple[float, int, int, int, Any]] = []
        self._emit_seq: dict[int, int] = {}
        self._handler = (
            _resolve_handler(spec.bus_handler) if spec.bus_handler else None
        )
        for shard_id, sub_ids in zip(spec.shard_ids, spec.client_ids):
            sim = Simulator(seed=experiment.seed)
            observability = (
                RunObservability(
                    trace=False,
                    metrics=spec.metrics,
                    audit=spec.audit,
                    journey=journey,
                )
                if spec.audit or spec.metrics or journey is not None
                else None
            )
            group = ShardGroup(shard_id=shard_id, cluster=None)  # type: ignore[arg-type]
            group.cluster = DESCluster(
                experiment,
                protocol=spec.protocol,
                crypto_mode=spec.crypto_mode,
                observability=observability,
                pipeline=spec.pipeline,
                sim=sim,
                crypto=crypto,
                inbound_filter=(
                    make_misroute_guard(router, shard_id, group)
                    if spec.shard.reject_misrouted
                    else None
                ),
                net_rng=shard_net_rng(experiment.seed, shard_id),
            )
            group.observability = observability
            pool = None
            if sub_ids:
                pool = ClosedLoopClients(
                    group.cluster,
                    num_clients=len(sub_ids) * spec.token_weight,
                    request_size=spec.request_size,
                    reply_size=spec.reply_size,
                    token_weight=spec.token_weight,
                    target=spec.target,
                    warmup=spec.warmup,
                    mode=spec.mode,
                    client_config=spec.client_config,
                    client_ids=list(sub_ids),
                    shard=shard_id,
                )
            group.cluster.start()
            if pool is not None:
                sim.schedule_at(spec.start_at, pool.start)
            self.groups.append(group)
            self.pools[shard_id] = pool
            self.ports[shard_id] = GroupPort(self, group)
            self._emit_seq[shard_id] = 0

    # ------------------------------------------------------------- the bus

    def emit(self, src_shard: int, dst_shard: int, payload: Any, delay: float) -> None:
        if self._handler is None:
            raise ConfigError(
                "cross-shard emit without a bus handler; pass bus_handler= "
                "to ParallelShardedCluster"
            )
        lookahead = self.spec.lookahead
        if lookahead is None:
            raise ConfigError("cross-shard emit requires a finite lookahead")
        if delay < lookahead:
            delay = lookahead
        sim = self.ports[src_shard].sim
        seq = self._emit_seq[src_shard]
        self._emit_seq[src_shard] = seq + 1
        self._outbox.append((sim.now + delay, src_shard, seq, dst_shard, payload))

    def _apply(self, port: GroupPort, src_shard: int, payload: Any) -> None:
        handler = self._handler
        if handler is not None:
            handler(port, src_shard, payload)

    # ------------------------------------------------------------- control

    def advance(
        self, until: float, inbox: list[tuple[float, int, int, int, Any]]
    ) -> list[tuple[float, int, int, int, Any]]:
        """Inject ``inbox``, run every hosted group to ``until``, and
        return the cross-shard events emitted during the window."""
        for arrival, src_shard, _seq, dst_shard, payload in inbox:
            port = self.ports[dst_shard]
            if arrival < port.sim.now:
                raise ParallelSimulationError(
                    f"cross-shard event at t={arrival} arrived after shard "
                    f"{dst_shard} reached t={port.sim.now}: lookahead violated"
                )
            port.sim.schedule_at(
                arrival, partial(self._apply, port, src_shard, payload), "xshard"
            )
        for group in self.groups:
            group.cluster.sim.run(until=until)
        out = self._outbox
        self._outbox = []
        return out

    def finish(self) -> dict[str, Any]:
        """Safety-check every group and package its read-outs."""
        spec = self.spec
        groups: list[dict[str, Any]] = []
        for group in self.groups:
            group.cluster.assert_safety()
            pool = self.pools[group.shard_id]
            observability = group.observability
            groups.append(
                {
                    "shard": group.shard_id,
                    "events": group.cluster.sim.events_processed,
                    "commit_trace": group.cluster.commit_trace(),
                    "blocks": max(
                        replica.stats["blocks_committed"]
                        for replica in group.cluster.replicas
                    ),
                    "ops": group.cluster.total_ops_committed(),
                    "misrouted_ops": group.misrouted_ops,
                    "misrouted_messages": group.misrouted_messages,
                    "num_clients": pool.num_clients if pool is not None else 0,
                    "pool_ops": pool.throughput.ops if pool is not None else 0,
                    "latency_samples": (
                        list(pool.latency.samples) if pool is not None else []
                    ),
                    "audit_report": (
                        observability.audit_report()
                        if spec.audit and observability is not None
                        else None
                    ),
                    "registry": (
                        observability.registry
                        if spec.metrics and observability is not None
                        else None
                    ),
                }
            )
        return {
            "groups": groups,
            "journey_events": (
                dict(self.journey._events) if self.journey is not None else {}
            ),
        }


def _worker_main(conn: Any, spec: _WorkerSpec) -> None:
    """Spawn-worker entry point: serve barrier requests over the pipe."""
    try:
        host = _WorkerHost(spec)
        while True:
            message = conn.recv()
            op = message[0]
            if op == "advance":
                conn.send(("ok", host.advance(message[1], message[2])))
            elif op == "finish":
                conn.send(("result", host.finish()))
            elif op == "exit":
                break
            else:  # pragma: no cover - protocol bug
                raise ParallelSimulationError(f"unknown op {op!r}")
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class _LocalConn:
    """In-process stand-in for a worker pipe (the ``jobs == 1`` path).

    Runs the identical :class:`_WorkerHost` code, so the decomposed
    engine computes the same answer whether or not processes are used.
    """

    def __init__(self, spec: _WorkerSpec) -> None:
        self._host = _WorkerHost(spec)
        self._replies: list[tuple[str, Any]] = []

    def send(self, message: tuple) -> None:
        op = message[0]
        if op == "advance":
            self._replies.append(("ok", self._host.advance(message[1], message[2])))
        elif op == "finish":
            self._replies.append(("result", self._host.finish()))
        elif op == "exit":
            pass
        else:  # pragma: no cover - protocol bug
            raise ParallelSimulationError(f"unknown op {op!r}")

    def recv(self) -> tuple[str, Any]:
        return self._replies.pop(0)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Parent-side engine


@dataclass
class GroupResult:
    """Read-outs of one consensus group after a parallel run."""

    shard_id: int
    events_processed: int
    commit_trace: list[list[Any]]
    blocks_committed: int
    ops_committed: int
    misrouted_ops: int
    misrouted_messages: int
    num_clients: int
    pool_ops: int
    latency_samples: list[tuple[float, float, int]]
    audit_report: dict[str, Any] | None = None
    registry: Any | None = field(default=None, repr=False)


class ParallelShardedCluster:
    """G independent consensus groups across ``jobs`` worker processes.

    Construction mirrors :class:`~repro.shard.ShardedCluster`; the run
    itself happens in :meth:`run_workload`, because worker processes
    cannot be handed live callbacks — the workload shape ships to them
    as data and the groups are built worker-side.  After the run the
    instance holds per-group :class:`GroupResult` records and offers the
    same read-outs as the serial engine (``commit_trace``,
    ``metrics_snapshot``, ``audit_reports``, ...), assembled in shard
    order so they are byte-identical to a serial run.

    ``jobs == 1`` hosts every group in-process through the same code
    path (no pickling), which is the reference the equivalence tests
    compare ``jobs == 4`` against.
    """

    def __init__(
        self,
        experiment: ExperimentConfig,
        shard: ShardConfig | None = None,
        protocol: str = "marlin",
        crypto_mode: str = "null",
        pipeline: Any | None = None,
        jobs: int = 1,
        lookahead: float | None = None,
        journey: Any | None = None,
        audit: bool = False,
        metrics: bool = False,
        bus_handler: str | None = None,
        bus_seed: tuple[tuple[float, int, int, Any], ...] = (),
    ) -> None:
        self.experiment = experiment
        self.shard = shard if shard is not None else ShardConfig()
        if self.shard.shards < 2:
            raise ConfigError(
                "the parallel engine decomposes per consensus group; "
                "shard.shards must be >= 2 (an unsharded run has nothing "
                "to parallelise)"
            )
        if jobs < 1:
            raise ConfigError(f"des_jobs must be >= 1, got {jobs}")
        if lookahead is not None and lookahead <= 0:
            raise ConfigError(f"lookahead must be positive, got {lookahead}")
        self.protocol = protocol
        self.crypto_mode = crypto_mode
        self.pipeline = pipeline
        self.jobs = min(jobs, self.shard.shards)
        self.journey = journey if journey is not None and journey.enabled else None
        self.audit = audit
        self.metrics = metrics
        self.bus_handler = bus_handler
        self.bus_seed = tuple(bus_seed)
        if self.bus_seed and bus_handler is None:
            raise ConfigError("bus_seed without a bus_handler would never be applied")
        self.router = self.shard.make_router()
        self.lookahead = lookahead
        if lookahead is None and bus_handler is not None:
            # Conservative default: the minimum cross-shard latency is
            # one network hop in this topology.
            self.lookahead = max(
                experiment.network.one_way_latency, _MIN_LOOKAHEAD
            )
        self.group_results: list[GroupResult] = []
        self.windows_run = 0
        self._finished = False

    # ------------------------------------------------------------- running

    def run_workload(
        self,
        num_clients: int,
        sim_time: float,
        request_size: int | None = None,
        reply_size: int | None = None,
        token_weight: int = 1,
        target: str = "leader",
        warmup: float = 0.0,
        mode: str = "hub",
        client_config: Any | None = None,
        start_at: float = 0.01,
    ) -> None:
        """Run the standard sharded closed-loop workload to ``sim_time``.

        Client partitioning matches
        :class:`~repro.harness.workload.ShardedClosedLoopClients` token
        for token: global ids start at ``num_replicas + 1`` and the
        shared router assigns each to exactly one group.
        """
        if self._finished:
            raise ConfigError("this engine already ran; build a fresh one")
        if num_clients < 1:
            raise ConfigError("need at least one client")
        if token_weight < 1:
            raise ConfigError("token_weight must be >= 1")
        num_replicas = self.experiment.cluster.num_replicas
        num_tokens = max(1, num_clients // token_weight)
        base = num_replicas + 1
        client_ids = [base + i for i in range(num_tokens)]
        partition = self.router.partition_clients(client_ids)
        self.num_clients = num_clients

        jobs = self.jobs
        assignments: list[list[int]] = [[] for _ in range(jobs)]
        for shard_id in range(self.shard.shards):
            assignments[shard_id % jobs].append(shard_id)
        specs = [
            _WorkerSpec(
                experiment=self.experiment,
                shard=self.shard,
                protocol=self.protocol,
                crypto_mode=self.crypto_mode,
                pipeline=self.pipeline,
                shard_ids=tuple(hosted),
                client_ids=tuple(tuple(partition[gid]) for gid in hosted),
                token_weight=token_weight,
                request_size=request_size,
                reply_size=reply_size,
                target=target,
                warmup=warmup,
                mode=mode,
                client_config=client_config,
                start_at=start_at,
                journey_seed=self.journey.seed if self.journey is not None else 0,
                journey_rate=self.journey.rate if self.journey is not None else 0.0,
                audit=self.audit,
                metrics=self.metrics,
                bus_handler=self.bus_handler,
                lookahead=self.lookahead,
            )
            for hosted in assignments
        ]
        shard_to_worker = {
            shard_id: worker
            for worker, hosted in enumerate(assignments)
            for shard_id in hosted
        }

        processes: list[Any] = []
        conns: list[Any] = []
        try:
            if jobs == 1:
                conns = [_LocalConn(specs[0])]
            else:
                ctx = multiprocessing.get_context("spawn")
                for spec in specs:
                    parent_conn, child_conn = ctx.Pipe()
                    process = ctx.Process(
                        target=_worker_main, args=(child_conn, spec), daemon=True
                    )
                    process.start()
                    child_conn.close()
                    processes.append(process)
                    conns.append(parent_conn)
            self._drive(conns, shard_to_worker, sim_time)
        finally:
            for conn in conns:
                try:
                    conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
            for process in processes:
                process.join(timeout=60)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join()

    def _drive(
        self,
        conns: list[Any],
        shard_to_worker: dict[int, int],
        sim_time: float,
    ) -> None:
        """The barrier loop: advance all workers window by window."""
        lookahead = self.lookahead
        inboxes: list[list[tuple[float, int, int, int, Any]]] = [
            [] for _ in conns
        ]
        # Bus seeds are injected in the first window; they carry
        # synthetic source shard -1 and their list position as the seq.
        for index, (when, src_shard, dst_shard, payload) in enumerate(self.bus_seed):
            inboxes[shard_to_worker[dst_shard]].append(
                (when, src_shard, index, dst_shard, payload)
            )
        for inbox in inboxes:
            inbox.sort(key=lambda item: (item[0], item[1], item[2]))
        now = 0.0
        while True:
            until = sim_time if lookahead is None else min(sim_time, now + lookahead)
            for worker, conn in enumerate(conns):
                conn.send(("advance", until, inboxes[worker]))
            outbox: list[tuple[float, int, int, int, Any]] = []
            for conn in conns:
                kind, data = conn.recv()
                if kind == "error":
                    raise ParallelSimulationError(f"worker failed:\n{data}")
                outbox.extend(data)
            self.windows_run += 1
            inboxes = [[] for _ in conns]
            # Canonical (time, shard, seq) merge: every worker sees its
            # next-window inbox in one globally agreed order, so the
            # injection sequence — and therefore each group's event
            # numbering — is independent of worker packing.
            outbox.sort(key=lambda item: (item[0], item[1], item[2]))
            for event in outbox:
                if event[0] >= sim_time:
                    continue  # beyond the horizon; the serial engine
                    # would schedule it and never run it
                inboxes[shard_to_worker[event[3]]].append(event)
            now = until
            if now >= sim_time:
                break
        results: list[dict[str, Any]] = []
        for conn in conns:
            conn.send(("finish",))
            kind, data = conn.recv()
            if kind == "error":
                raise ParallelSimulationError(f"worker failed:\n{data}")
            results.append(data)
        self._ingest(results)

    def _ingest(self, results: list[dict[str, Any]]) -> None:
        by_shard: dict[int, GroupResult] = {}
        for payload in results:
            for raw in payload["groups"]:
                by_shard[raw["shard"]] = GroupResult(
                    shard_id=raw["shard"],
                    events_processed=raw["events"],
                    commit_trace=raw["commit_trace"],
                    blocks_committed=raw["blocks"],
                    ops_committed=raw["ops"],
                    misrouted_ops=raw["misrouted_ops"],
                    misrouted_messages=raw["misrouted_messages"],
                    num_clients=raw["num_clients"],
                    pool_ops=raw["pool_ops"],
                    latency_samples=raw["latency_samples"],
                    audit_report=raw["audit_report"],
                    registry=raw["registry"],
                )
            if self.journey is not None:
                self.journey._events.update(payload["journey_events"])
        self.group_results = [by_shard[gid] for gid in sorted(by_shard)]
        self._finished = True

    # ------------------------------------------------------------ readouts

    def _require_finished(self) -> None:
        if not self._finished:
            raise ConfigError("run_workload() has not completed yet")

    @property
    def shards(self) -> int:
        return self.shard.shards

    def assert_safety(self) -> None:
        """Safety was asserted worker-side before results shipped."""
        self._require_finished()

    def commit_trace(self) -> list[list[Any]]:
        """Flattened commit history, identical to the serial engine's."""
        self._require_finished()
        trace: list[list[Any]] = []
        for result in self.group_results:
            for row in result.commit_trace:
                trace.append([result.shard_id, *row])
        return trace

    def per_group_events(self) -> dict[int, int]:
        """Events processed by each group's simulator."""
        self._require_finished()
        return {
            result.shard_id: result.events_processed
            for result in self.group_results
        }

    def total_ops_committed(self) -> int:
        self._require_finished()
        return sum(result.ops_committed for result in self.group_results)

    @property
    def misrouted_rejected(self) -> int:
        self._require_finished()
        return sum(result.misrouted_ops for result in self.group_results)

    @property
    def blocks_committed(self) -> int:
        self._require_finished()
        return sum(result.blocks_committed for result in self.group_results)

    def per_shard_tps(self, duration: float) -> list[float]:
        self._require_finished()
        if duration <= 0:
            return [0.0 for _ in self.group_results]
        return [result.pool_ops / duration for result in self.group_results]

    def merged_latency(self, window_start: float = 0.0) -> Any:
        """All groups' weighted samples in one recorder, shard order."""
        from repro.harness.metrics import LatencyRecorder

        self._require_finished()
        merged = LatencyRecorder(window_start=window_start)
        for result in self.group_results:
            merged.samples.extend(
                tuple(sample) for sample in result.latency_samples
            )
        return merged

    def metrics_snapshot(self) -> dict[str, Any]:
        """Same shape as :meth:`ShardedCluster.metrics_snapshot`."""
        from repro.obs.metrics import MetricsRegistry

        self._require_finished()
        shards: dict[str, Any] = {}
        combined = MetricsRegistry()
        for result in self.group_results:
            registry = result.registry
            if registry is None:
                continue
            shards[str(result.shard_id)] = registry.snapshot()
            combined.merge_from(registry, shard=result.shard_id)
        return {
            "shards": shards,
            "cluster": combined.aggregate(drop_labels=("shard", "replica")).snapshot(),
        }

    def audit_reports(self) -> list[dict[str, Any]]:
        self._require_finished()
        return [
            result.audit_report
            for result in self.group_results
            if result.audit_report is not None
        ]

    def audit_violations(self) -> int:
        return sum(
            len(report.get("violations", [])) for report in self.audit_reports()
        )

