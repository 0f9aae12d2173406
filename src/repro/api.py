"""repro.api — the stable public facade.

Everything a paper-reproduction script, notebook or CI job should need
lives here under names that will not churn:

* :class:`Scenario` — the keyword-only experiment description every
  entry point below consumes.
* :func:`load_point` / :func:`throughput_curve` / :func:`peak_throughput`
  / :func:`latency_breakdown` — the Fig. 10 throughput/latency
  methodology, all thin uses of :func:`run_scenario` (which also hands
  back the finished cluster).
* :func:`traced_run` — a short, fully observed run for trace export.
* Re-exports of the configuration, runtime, and observability types the
  above produce and consume.

The run functions live in :mod:`repro.harness.scenarios`; import them
from here::

    from repro.api import Scenario, load_point

    result = load_point(Scenario(protocol="marlin", f=1, clients=4096))
    print(result.as_row())
"""

from __future__ import annotations

from repro.adversary import (
    ADVERSARY_SCENARIOS,
    AdversaryConfig,
    AdversaryScenario,
    BehaviorSpec,
    CampaignResult,
    CellResult,
    SafetyChecker,
    SafetyReport,
    apply_adversary,
    behavior_kinds,
    run_campaign,
)
from repro.client import ClientConfig, ClientSession, ReplyCertificate
from repro.client.router import ShardRouter
from repro.common.config import (
    ClusterConfig,
    ExperimentConfig,
    MachineProfile,
    NetworkProfile,
)
from repro.consensus.pipeline import PipelineConfig
from repro.harness.audit import (
    AuditReport,
    ComplexitySweep,
    audited_run,
    complexity_sweep,
)
from repro.harness.des_runtime import DESCluster
from repro.harness.metrics import RunResult
from repro.harness.scenarios import (
    DEFAULT_MAX_BATCH,
    LATENCY_CAP,
    NormalCaseCost,
    Scenario,
    ViewChangeCost,
    ViewChangeResult,
    default_client_sweep,
    latency_breakdown,
    load_point,
    measure_normal_case_cost,
    measure_view_change_cost,
    peak_at_latency_cap,
    peak_throughput,
    rotating_leader_throughput,
    run_scenario,
    throughput_curve,
    traced_run,
    view_change_latency,
)
from repro.harness.parallel import ResultCache, SweepExecutor, code_fingerprint
from repro.harness.workload import ClosedLoopClients, ShardedClosedLoopClients
from repro.obs.complexity import ComplexityObservatory, SlopeFit
from repro.obs.flight import FlightRecorder, read_blackbox
from repro.obs.journey import JourneyRecorder
from repro.obs.observer import RunObservability
from repro.runtime.cluster import LocalClient, LocalCluster
from repro.runtime.node import Node
from repro.shard import ShardConfig, ShardedCluster, ShardedLocalCluster

__all__ = [
    "ADVERSARY_SCENARIOS",
    "AdversaryConfig",
    "AdversaryScenario",
    "AuditReport",
    "BehaviorSpec",
    "CampaignResult",
    "CellResult",
    "ClientConfig",
    "ClientSession",
    "ClosedLoopClients",
    "ClusterConfig",
    "ComplexityObservatory",
    "ComplexitySweep",
    "DEFAULT_MAX_BATCH",
    "DESCluster",
    "ExperimentConfig",
    "FlightRecorder",
    "JourneyRecorder",
    "LATENCY_CAP",
    "LocalClient",
    "LocalCluster",
    "MachineProfile",
    "NetworkProfile",
    "Node",
    "NormalCaseCost",
    "PipelineConfig",
    "ReplyCertificate",
    "ResultCache",
    "RunObservability",
    "RunResult",
    "SafetyChecker",
    "SafetyReport",
    "Scenario",
    "ShardConfig",
    "ShardRouter",
    "ShardedClosedLoopClients",
    "ShardedCluster",
    "ShardedLocalCluster",
    "SlopeFit",
    "SweepExecutor",
    "ViewChangeCost",
    "ViewChangeResult",
    "apply_adversary",
    "audited_run",
    "behavior_kinds",
    "code_fingerprint",
    "complexity_sweep",
    "default_client_sweep",
    "latency_breakdown",
    "load_point",
    "measure_normal_case_cost",
    "measure_view_change_cost",
    "peak_at_latency_cap",
    "peak_throughput",
    "read_blackbox",
    "restart_replica",
    "rotating_leader_throughput",
    "run_campaign",
    "run_scenario",
    "throughput_curve",
    "traced_run",
    "trigger_state_transfer",
    "view_change_latency",
]


# ---------------------------------------------------------------------------
# Recovery surface (asyncio runtime)


async def restart_replica(cluster: LocalCluster, replica_id: int) -> Node:
    """Crash-recover one replica of a :class:`LocalCluster` from disk.

    Facade over :meth:`LocalCluster.restart` so scripted churn scenarios
    never import ``repro.runtime.node`` internals.  Requires the cluster
    to have been built with ``data_dirs``.
    """
    return await cluster.restart(replica_id)


def trigger_state_transfer(cluster: LocalCluster, replica_id: int) -> None:
    """Make one replica fetch a checkpoint + chain suffix from its peers.

    The replica asks the cluster for the latest stable checkpoint and
    replays forward — the path a node far behind the commit frontier
    (e.g. after a long partition) uses to catch up without full WAL
    replay.
    """
    cluster.nodes[replica_id].request_state_transfer()
