"""The sharded runtime: routing, determinism, misroute rejection, api.

Covers the multi-group subsystem end to end: the client-layer
:class:`ShardRouter`, :class:`ShardConfig`/:class:`Scenario` topology
validation, the shared-simulator :class:`ShardedCluster` (including the
per-group misroute guards), cross-shard workloads through the facade and
the parallel sweep engine (byte-identical traces regardless of ``jobs``),
and the asyncio :class:`ShardedLocalCluster`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import Scenario, SweepExecutor, load_point
from repro.client.config import ClientConfig
from repro.client.router import ShardRouter
from repro.client.session import ClientSession
from repro.client.tracker import LeaderTracker
from repro.common.config import ClusterConfig, ExperimentConfig
from repro.common.errors import ConfigError
from repro.consensus.messages import ClientRequest
from repro.harness.workload import ClosedLoopClients, ShardedClosedLoopClients
from repro.shard import ShardConfig, ShardedCluster, ShardedLocalCluster


def run(coro):
    return asyncio.run(coro)


def _experiment(seed: int = 3) -> ExperimentConfig:
    cluster = ClusterConfig.for_f(1, base_timeout=120.0, max_timeout=240.0)
    return ExperimentConfig(cluster=cluster, seed=seed)


# ---------------------------------------------------------------------------
# ShardRouter


class TestShardRouter:
    def test_deterministic_across_instances(self):
        a = ShardRouter(8, seed=5)
        b = ShardRouter(8, seed=5)
        keys = [ShardRouter.key_of_client(i) for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_seed_repartitions(self):
        a = ShardRouter(8, seed=0)
        b = ShardRouter(8, seed=1)
        placements_a = [a.shard_of_client(i) for i in range(200)]
        placements_b = [b.shard_of_client(i) for i in range(200)]
        assert placements_a != placements_b

    def test_hash_scheme_covers_every_shard(self):
        router = ShardRouter(4)
        hit = {router.shard_of_client(i) for i in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_modulo_scheme_is_transparent(self):
        router = ShardRouter(4, scheme="modulo")
        assert [router.shard_of_client(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_single_shard_short_circuit(self):
        router = ShardRouter(1)
        assert router.shard_of_client(12345) == 0

    def test_partition_preserves_order_and_totality(self):
        router = ShardRouter(3)
        ids = list(range(50))
        groups = router.partition_clients(ids)
        assert sorted(sum(groups, [])) == ids
        for shard_id, members in enumerate(groups):
            assert members == sorted(members)
            assert all(router.shard_of_client(c) == shard_id for c in members)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ShardRouter(0)
        with pytest.raises(ConfigError):
            ShardRouter(2, scheme="rendezvous")


class TestShardConfig:
    def test_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="ShardConfig.shards"):
            ShardConfig(shards=0)
        with pytest.raises(ConfigError, match="ShardConfig.router"):
            ShardConfig(router="rendezvous")

    def test_make_router_matches_config(self):
        router = ShardConfig(shards=4, router="modulo", router_seed=2).make_router()
        assert (router.shards, router.scheme, router.seed) == (4, "modulo", 2)


# ---------------------------------------------------------------------------
# Scenario topology surface


class TestScenarioTopology:
    def test_shards_sugar(self):
        assert Scenario(shards=4).resolved_shard() == ShardConfig(shards=4)
        explicit = ShardConfig(shards=2, router="modulo")
        assert Scenario(shard=explicit).resolved_shard() is explicit

    def test_contradictory_shard_fields_rejected(self):
        with pytest.raises(ConfigError, match="Scenario.shards"):
            Scenario(shard=ShardConfig(shards=2), shards=4)

    def test_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="Scenario.protocol"):
            Scenario(protocol="raft")
        with pytest.raises(ConfigError, match="Scenario.sim_time"):
            Scenario(sim_time=1.0, warmup=2.0)
        with pytest.raises(ConfigError, match="Scenario.shards"):
            Scenario(shards=0)

    def test_explicit_cluster_is_authoritative(self):
        cluster = ClusterConfig.for_f(2)
        assert Scenario(cluster=cluster).cluster is cluster
        assert Scenario(cluster=cluster, f=2).f == 2
        with pytest.raises(ConfigError, match="Scenario.f"):
            Scenario(cluster=cluster, f=3)

    def test_with_overrides_replaces_and_revalidates(self):
        base = Scenario(protocol="marlin", clients=64)
        wide = base.with_overrides(f=2, shards=4)
        assert (wide.f, wide.shards, wide.clients) == (2, 4, 64)
        assert base.shards == 1  # frozen original untouched
        with pytest.raises(ConfigError, match="Scenario.f"):
            base.with_overrides(f=0)

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="sharrds"):
            Scenario().with_overrides(sharrds=2)


# ---------------------------------------------------------------------------
# ShardedCluster (DES)


class TestShardedCluster:
    def test_groups_share_simulator_and_crypto(self):
        sharded = ShardedCluster(_experiment(), shard=ShardConfig(shards=3))
        assert len(sharded.groups) == 3
        for group in sharded.groups:
            assert group.cluster.sim is sharded.sim
            assert group.cluster.crypto is sharded.crypto
        # Private networks: endpoint registrations never collide.
        nets = {id(group.cluster.network) for group in sharded.groups}
        assert len(nets) == 3

    def test_every_group_commits_under_routed_load(self):
        sharded = ShardedCluster(_experiment(), shard=ShardConfig(shards=2))
        pool = ShardedClosedLoopClients(sharded, num_clients=128, token_weight=4)
        sharded.start()
        pool.start()
        sharded.run(until=6.0)
        sharded.assert_safety()
        per_shard = sharded.ops_committed_per_shard()
        assert all(ops > 0 for ops in per_shard)
        assert sharded.total_ops_committed() == sum(per_shard)
        assert sharded.misrouted_rejected == 0
        assert pool.completed_ops > 0

    def test_commit_trace_is_reproducible(self):
        def trace():
            sharded = ShardedCluster(_experiment(seed=7), shard=ShardConfig(shards=2))
            pool = ShardedClosedLoopClients(sharded, num_clients=64, token_weight=2)
            sharded.start()
            sharded.sim.schedule(0.01, pool.start)
            sharded.run(until=5.0)
            return sharded.commit_trace()

        first, second = trace(), trace()
        assert first == second
        assert first, "the run must commit something for the comparison to bite"
        shards_seen = {row[0] for row in first}
        assert shards_seen == {0, 1}

    def test_misrouted_request_rejected_not_committed(self):
        sharded = ShardedCluster(_experiment(), shard=ShardConfig(shards=2))
        router = sharded.router
        foreign = next(c for c in range(100, 200) if router.shard_of_client(c) == 1)
        native = next(c for c in range(100, 200) if router.shard_of_client(c) == 0)
        committed_ids: set[int] = set()
        for replica in sharded.groups[0].cluster.replicas:
            replica.commit_listeners.append(
                lambda block, when: committed_ids.update(
                    op.client_id for op in block.operations
                )
            )
        group0_net = sharded.groups[0].cluster.network
        sender = 500
        group0_net.register(sender, lambda src, payload: None)
        sharded.start()

        def inject() -> None:
            # Both requests hit shard 0's leader; only the native one may
            # commit there.
            for client_id in (foreign, native):
                group0_net.send(
                    sender,
                    0,
                    ClientRequest(client_id=client_id, sequence=1, payload=b"op", weight=3),
                )

        sharded.sim.schedule(0.05, inject)
        sharded.run(until=5.0)
        sharded.assert_safety()
        assert native in committed_ids
        assert foreign not in committed_ids
        assert sharded.groups[0].misrouted_ops == 3  # weighted, never silent
        assert sharded.groups[1].misrouted_ops == 0
        assert sharded.misrouted_rejected == 3

    def test_guard_can_be_disabled(self):
        sharded = ShardedCluster(
            _experiment(), shard=ShardConfig(shards=2, reject_misrouted=False)
        )
        assert all(
            group.cluster._inbound_filter is None for group in sharded.groups
        )

    def test_per_group_audit(self):
        sharded = ShardedCluster(_experiment(), shard=ShardConfig(shards=2), audit=True)
        pool = ShardedClosedLoopClients(sharded, num_clients=64, token_weight=2)
        sharded.start()
        pool.start()
        sharded.run(until=4.0)
        reports = sharded.audit_reports()
        assert len(reports) == 2
        assert all(report["ok"] for report in reports)
        assert sharded.audit_violations() == 0


# ---------------------------------------------------------------------------
# Workload plumbing


class TestWorkloadClientIds:
    def test_default_ids_unchanged(self):
        from repro.harness.des_runtime import DESCluster

        cluster = DESCluster(_experiment(), crypto_mode="null")
        pool = ClosedLoopClients(cluster, num_clients=8, token_weight=2)
        assert pool.client_ids == [0, 1, 2, 3]

    def test_explicit_ids_must_match_tokens(self):
        from repro.harness.des_runtime import DESCluster

        cluster = DESCluster(_experiment(), crypto_mode="null")
        with pytest.raises(ConfigError, match="client_ids"):
            ClosedLoopClients(
                cluster, num_clients=8, token_weight=2, client_ids=[10, 11, 12]
            )

    def test_sharded_pool_partitions_by_router(self):
        sharded = ShardedCluster(_experiment(), shard=ShardConfig(shards=2))
        pool = ShardedClosedLoopClients(sharded, num_clients=32, token_weight=2)
        for shard_id, sub in enumerate(pool.pools):
            if sub is None:
                continue
            assert all(
                sharded.router.shard_of_client(c) == shard_id for c in sub.client_ids
            )
        populated = [sub for sub in pool.pools if sub is not None]
        assert sum(len(sub.client_ids) for sub in populated) == pool.num_tokens


# ---------------------------------------------------------------------------
# Facade + sweep engine


SHARD_SCENARIO = Scenario(
    protocol="marlin",
    f=1,
    sim_time=4.0,
    warmup=1.5,
    request_size=64,
    reply_size=64,
    seed=3,
    crypto="null",
    pipeline=None,
    shard=ShardConfig(shards=2),
)


class TestShardedFacade:
    def test_load_point_reports_aggregate(self):
        result = load_point(
            Scenario(shards=2, clients=128, sim_time=5.0, warmup=1.5, seed=3)
        )
        assert result.shards == 2
        assert result.per_shard_tps is not None and len(result.per_shard_tps) == 2
        assert result.throughput_tps == pytest.approx(sum(result.per_shard_tps))
        assert result.throughput_tps > 0

    def test_observability_incompatible_with_sharding(self):
        from repro.obs.observer import RunObservability

        with pytest.raises(ConfigError, match="shard"):
            load_point(
                Scenario(shards=2, clients=64, sim_time=4.0, warmup=1.0),
                observability=RunObservability(),
            )

    def test_sharded_traces_identical_regardless_of_jobs(self):
        tasks = [SHARD_SCENARIO.with_overrides(clients=clients) for clients in (64, 128)]
        with SweepExecutor(jobs=1) as executor:
            inline = executor._run_raw(tasks)
        with SweepExecutor(jobs=2) as executor:
            fanned = executor._run_raw(tasks)
        # Byte-identity across process fan-out: RunResult fields and the
        # SHA-256 over the [shard, replica, height, digest, time] trace.
        assert fanned == inline
        assert all(v["trace_sha256"] for v in inline)
        assert all(v["result"]["shards"] == 2 for v in inline)

    def test_sharded_points_cache_roundtrip(self, tmp_path):
        from repro.api import ResultCache

        counts = [64]
        cache = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            cold = executor.run_curve(SHARD_SCENARIO, counts, 1e9)
        warm_cache = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=warm_cache) as executor:
            warm = executor.run_curve(SHARD_SCENARIO, counts, 1e9)
        assert (warm_cache.hits, warm_cache.misses) == (1, 0)
        assert warm == cold
        assert warm[0].shards == 2


# ---------------------------------------------------------------------------
# Shard-aware client sessions


class TestShardAwareSession:
    class _Ctx:
        now = 0.0

        def send(self, dst, payload):  # pragma: no cover - plumbing stub
            pass

        def set_timer(self, name, delay, callback):
            pass

        def cancel_timer(self, name):
            pass

    def test_session_learns_its_shard_from_the_router(self):
        router = ShardRouter(4)
        client_id = 37
        session = ClientSession(
            client_id, self._Ctx(), ClientConfig(mode="real"), 4, 1, router=router
        )
        assert session.shard == router.shard_of_client(client_id)
        assert session.tracker.shard == session.shard

    def test_session_refuses_foreign_binding(self):
        router = ShardRouter(4)
        client_id = 37
        wrong = (router.shard_of_client(client_id) + 1) % 4
        with pytest.raises(ValueError, match="routes to shard"):
            ClientSession(
                client_id, self._Ctx(), ClientConfig(mode="real"), 4, 1,
                router=router, shard=wrong,
            )

    def test_tracker_default_is_unsharded(self):
        assert LeaderTracker(4).shard is None


# ---------------------------------------------------------------------------
# ShardedLocalCluster (asyncio)


class TestShardedLocalCluster:
    def test_routed_submission_commits_on_owner_only(self):
        async def scenario():
            sharded = ShardedLocalCluster(f=1, shard=ShardConfig(shards=2), seed=9)
            # One key setup for both groups.
            assert sharded.groups[1].crypto is sharded.groups[0].crypto
            async with sharded:
                client_id = 7
                owner = sharded.shard_of(client_id)
                other = 1 - owner
                await sharded.submit(b"payload", client_id=client_id)
                await sharded.wait_for_height(1, timeout=30.0, shard_id=owner)
                assert max(sharded.committed_heights()[owner]) >= 1
                assert max(sharded.committed_heights()[other]) == 0
                with pytest.raises(ConfigError, match="misrouted"):
                    await sharded.submit(b"payload", client_id=client_id, shard_id=other)

        run(scenario())


# ---------------------------------------------------------------------------
# Recovery surface through the facade


class TestRecoverySurface:
    def test_restart_replica_via_api(self, tmp_path):
        from repro.api import restart_replica
        from repro.runtime.cluster import LocalCluster

        async def scenario():
            dirs = [str(tmp_path / f"n{i}") for i in range(4)]
            cluster = LocalCluster(f=1, data_dirs=dirs, base_timeout=0.3)
            async with cluster:
                await cluster.submit(b"before-crash")
                await cluster.wait_for_height(1)
                cluster.crash(3)
                node = await restart_replica(cluster, 3)
                assert node is cluster.nodes[3]
                await cluster.wait_for_height(1)

        run(scenario())

    def test_trigger_state_transfer_via_api(self, tmp_path):
        from repro.api import trigger_state_transfer
        from repro.runtime.app import KVStateMachine
        from repro.runtime.cluster import LocalCluster

        async def scenario():
            dirs = [str(tmp_path / f"n{i}") for i in range(4)]
            cluster = LocalCluster(f=1, data_dirs=dirs, batch_size=4)
            async with cluster:
                for i in range(6):
                    await cluster.submit(
                        KVStateMachine.encode_set(b"k%d" % i, b"v%d" % i)
                    )
                await cluster.wait_for_height(2, timeout=15)
                trigger_state_transfer(cluster, 3)
                await asyncio.sleep(0.1)
                # The node asked its peers for a snapshot; liveness holds.
                for i in range(6):
                    await cluster.submit(
                        KVStateMachine.encode_set(b"p%d" % i, b"v%d" % i)
                    )
                await cluster.wait_for_height(3, timeout=15)

        run(scenario())
