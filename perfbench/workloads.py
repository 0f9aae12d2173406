"""The benchmark's three deterministic-DES workloads.

Every workload is a closed loop (each client waits for its ``f + 1``
matching replies before it submits again) running Marlin in the paper's
environment: 40 ms one-way latency, 200 Mbps links, 1 Gbps NICs, the
``null`` crypto service with the paper's CPU cost model.  Clusters are
built only from the public :mod:`repro.api` types.

* ``hub-f1`` — n = 4, 2,048 hub clients at token weight 1, failure-free
  timeouts.  The per-op path: many committed ops per simulator event, so
  host time goes to codec, hub, batching, ledger and latency recording.
* ``fanout-f10`` — n = 31 (the paper's largest f), 64 hub clients.  The
  per-message path: about ten events per op, so host time goes to the
  simulator, network model, protocol handlers and crypto service.
* ``churn-real`` — n = 4, 256 real clients (sessions, retransmits,
  f + 1 reply certificates) under the ``crash-churn`` adversary: silence
  windows, then the leader crashes at 7 s.  ``base_timeout`` is 0.5 s and
  the flight recorder and online auditor are armed, so the client layer,
  view change, observer hooks and oracle all run.

:func:`run_once` builds one workload at one seed, simulates it, judges
it with the history-based oracle and returns a :class:`RunOutcome`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.api import (
    ADVERSARY_SCENARIOS,
    DEFAULT_MAX_BATCH,
    LATENCY_CAP,
    ClientConfig,
    ClosedLoopClients,
    ClusterConfig,
    DESCluster,
    ExperimentConfig,
    NetworkProfile,
    RunObservability,
    SafetyChecker,
    apply_adversary,
)
from repro.common.encoding import encode
from repro.common.errors import SafetyViolation

#: Failure-free view timer: far above any block interval, so the stable
#: leader is never deposed mid-measurement (the paper's throughput runs).
FAILURE_FREE_TIMEOUT = 120.0

#: A p99.9 needs at least this many samples beyond it.
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    f: int
    clients: int
    #: "hub" (aggregate client model) or "real" (protocol clients).
    mode: str
    sim_time: float
    warmup: float
    base_timeout: float = FAILURE_FREE_TIMEOUT
    #: Registered adversary scenario name, or None for failure-free.
    adversary: str | None = None
    #: Arm the flight recorder and online auditor.
    audit: bool = False
    #: Hold the run to the oracle's progress rule.
    check_progress: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hub-f1", f=1, clients=2048, mode="hub", sim_time=14.0, warmup=2.0),
        Workload("fanout-f10", f=10, clients=64, mode="hub", sim_time=60.0, warmup=4.0),
        Workload(
            "churn-real",
            f=1,
            clients=256,
            mode="real",
            sim_time=18.0,
            warmup=3.0,
            base_timeout=0.5,
            adversary="crash-churn",
            audit=True,
            check_progress=True,
        ),
    )
}


@dataclass
class Built:
    """A built, not yet started, workload."""

    workload: Workload
    cluster: DESCluster
    pool: ClosedLoopClients
    observability: RunObservability | None
    #: Reply payloads delivered to clients, kept for the reply oracle.
    replies: list[Any]


def build(
    workload: Workload, seed: int, observability: RunObservability | None = None
) -> Built:
    """Build the cluster, adversary, reply tap and client population."""
    experiment = ExperimentConfig(
        cluster=ClusterConfig.for_f(
            workload.f,
            batch_size=DEFAULT_MAX_BATCH,
            base_timeout=workload.base_timeout,
            max_timeout=max(60.0, 2.0 * workload.base_timeout),
        ),
        network=NetworkProfile.paper_testbed(),
        seed=seed,
    )
    if observability is None and workload.audit:
        observability = RunObservability(
            trace=False, flight=True, audit=True, metrics=False
        )
    cluster = DESCluster(
        experiment, protocol="marlin", crypto_mode="null", observability=observability
    )
    if workload.adversary is not None:
        apply_adversary(
            cluster, ADVERSARY_SCENARIOS[workload.adversary].adversary, seed=seed
        )
    replies: list[Any] = []
    keep = replies.append

    def reply_tap(envelope: Any) -> None:
        name = type(envelope.payload).__name__
        if name == "ReplyBatch" or name == "ClientReply":
            keep(envelope.payload)

    cluster.network.add_tap(reply_tap)
    pool = ClosedLoopClients(
        cluster,
        num_clients=workload.clients,
        token_weight=1,
        target="leader",
        warmup=workload.warmup,
        mode=workload.mode,
        client_config=ClientConfig(mode="real") if workload.mode == "real" else None,
    )
    return Built(workload, cluster, pool, observability, replies)


@dataclass
class RunOutcome:
    """One simulated and judged run."""

    workload: str
    seed: int
    #: Identity: a change that claims to keep behaviour keeps these.
    events: int
    trace_sha256: str
    #: Host seconds to simulate and judge (the oracle included).
    wall_s: float
    committed_ops: int
    violations: list[str]
    #: Modelled (simulated-system) readouts.
    sim: dict[str, float]

    @property
    def wall_us_per_op(self) -> float:
        return self.wall_s * 1e6 / self.committed_ops

    def identity(self) -> tuple:
        return (self.events, self.trace_sha256, tuple(sorted(self.sim.items())))


def judge(built: Built) -> list[str]:
    """Run the oracle; returns one line per violation (empty = safe)."""
    workload, cluster = built.workload, built.cluster
    found: list[str] = []
    try:
        cluster.assert_safety()
    except SafetyViolation as exc:
        found.append(f"commit-auditor: {exc}")
    checker = SafetyChecker(cluster.experiment.cluster.num_replicas)
    report = checker.check_cluster(
        cluster,
        built.observability,
        check_progress=workload.check_progress,
        end_time=workload.sim_time,
    )
    found.extend(f"{v['kind']}: {v['detail']}" for v in report.violations)
    found.extend(
        f"{v['kind']}: {v['detail']}"
        for v in checker.check_replies(_reply_records(built.replies))
    )
    return found


def _reply_records(replies: list[Any]):
    """``(client, sequence, replica, result_digest)`` per delivered reply."""
    for reply in replies:
        if type(reply).__name__ == "ReplyBatch":
            replica = reply.replica
            for (client, seq), digest in zip(reply.op_keys, reply.result_digests):
                yield client, seq, replica, digest
        else:
            yield reply.client_id, reply.sequence, reply.replica, reply.result_digest


def _outstanding_since(built: Built) -> list[float]:
    """Submit times of the requests still unacknowledged at the end.

    The workload keeps no public per-request submit clock, so this reads
    the hub's and the sessions' own bookkeeping; if that ever moves, no
    request counts as outstanding and the other failure terms still count.
    """
    pool = built.pool
    if built.workload.mode == "hub":
        return list(getattr(pool, "_submit_time", {}).values())
    end = built.workload.sim_time
    times: list[float] = []
    for endpoint in getattr(pool, "_endpoints", ()):
        session = endpoint.session
        submitted = getattr(session, "_submitted_at", {})
        times.extend(submitted.get(seq, end) for seq in session.inflight)
    return times


def modelled(built: Built) -> dict[str, float]:
    """The simulated system's end-to-end readouts for one run."""
    workload, pool = built.workload, built.pool
    latency = pool.latency
    samples = latency.samples
    acked = latency.count
    real = workload.mode == "real"
    shed = pool.shed if real else 0
    mismatched = pool.reply_mismatches if real else 0
    outstanding = _outstanding_since(built)
    late = sum(w for _when, lat, w in samples if lat > LATENCY_CAP)
    stale = sum(1 for t in outstanding if workload.sim_time - t > LATENCY_CAP)
    attempted = acked + len(outstanding) + shed
    failed = late + stale + shed + mismatched
    acks = sorted(when for when, _lat, _w in samples)
    points = [workload.warmup, *acks, workload.sim_time]
    unavail = max(b - a for a, b in zip(points, points[1:]))
    # Rate between the first and the last acknowledgement: a closed loop
    # acknowledges in waves, so ops per fixed window would only count
    # whole waves.  The first instant's ops are the rate's starting line.
    tput = 0.0
    if acks and acks[-1] > acks[0]:
        opening = sum(w for when, _lat, w in samples if when == acks[0])
        tput = (acked - opening) / (acks[-1] - acks[0])
    return {
        "sim_tput_ops_s": tput,
        "sim_lat_p50_ms": latency.p50() * 1e3,
        "sim_lat_p999_ms": latency.p999() * 1e3,
        "sim_unavail_s": unavail,
        "ops_ok_ratio": (attempted - failed) / max(attempted, 1),
        "samples": acked,
        "attempted": attempted,
        "failed": failed,
    }


def simulate(built: Built) -> None:
    cluster = built.cluster
    cluster.start()
    cluster.sim.schedule(0.01, built.pool.start)
    cluster.run(until=built.workload.sim_time)


def commit_trace_sha(cluster: DESCluster) -> str:
    return hashlib.sha256(encode(cluster.commit_trace())).hexdigest()


def run_once(
    workload: Workload,
    seed: int,
    before_timing: Callable[[Built], None] | None = None,
) -> tuple[RunOutcome, Built]:
    """Build, simulate and judge one run; only simulate + judge is timed."""
    built = build(workload, seed)
    if before_timing is not None:
        before_timing(built)
    start = time.perf_counter()
    try:
        simulate(built)
    except SafetyViolation as exc:
        # The commit auditor also trips eagerly, mid-run.
        violations = [f"commit-auditor (mid-run): {exc}"]
    else:
        violations = judge(built)
    wall = time.perf_counter() - start
    cluster = built.cluster
    sim = modelled(built)
    if sim["samples"] * (1.0 - 0.999) < TAIL_SAMPLES:
        violations.append(
            f"{sim['samples']} latency samples leave fewer than {TAIL_SAMPLES} "
            f"beyond p99.9"
        )
    outcome = RunOutcome(
        workload=workload.name,
        seed=seed,
        events=cluster.sim.events_processed,
        trace_sha256=commit_trace_sha(cluster),
        wall_s=wall,
        committed_ops=cluster.total_ops_committed(),
        violations=violations,
        sim=sim,
    )
    return outcome, built
