"""Closed-loop clients, metrics, and op conservation."""

from __future__ import annotations

import pytest

from repro.common.config import ClusterConfig, ExperimentConfig, NetworkProfile
from repro.common.errors import ConfigError
from repro.common.utils import chunked, format_bytes, mean, percentile
from repro.consensus.messages import ReplyBatch
from repro.harness.des_runtime import DESCluster
from repro.harness.metrics import LatencyRecorder, RunResult, ThroughputMeter
from repro.harness.workload import ClosedLoopClients, OpenLoopClients


class TestLatencyRecorder:
    def test_mean_weighted(self):
        rec = LatencyRecorder()
        rec.record(1.0, 0.1, weight=1)
        rec.record(2.0, 0.3, weight=3)
        assert rec.mean() == pytest.approx(0.25)
        assert rec.count == 4

    def test_window_filters(self):
        rec = LatencyRecorder(window_start=5.0, window_end=10.0)
        rec.record(1.0, 0.1)
        rec.record(6.0, 0.2)
        rec.record(11.0, 0.3)
        assert rec.count == 1
        assert rec.mean() == pytest.approx(0.2)

    def test_percentiles(self):
        rec = LatencyRecorder()
        for i in range(100):
            rec.record(1.0, i / 100.0)
        assert rec.p50() == pytest.approx(0.5, abs=0.02)
        assert rec.p99() >= 0.97

    def test_empty(self):
        rec = LatencyRecorder()
        assert rec.mean() == 0.0 and rec.p50() == 0.0


class TestThroughputMeter:
    def test_rate_over_window(self):
        meter = ThroughputMeter()
        meter.record(1.0, 100)
        meter.record(3.0, 100)
        assert meter.throughput() == pytest.approx(100.0)
        assert meter.throughput(duration=4.0) == pytest.approx(50.0)

    def test_window_excludes_warmup(self):
        meter = ThroughputMeter(window_start=2.0)
        meter.record(1.0, 999)
        meter.record(3.0, 10)
        assert meter.ops == 10

    def test_empty(self):
        assert ThroughputMeter().throughput() == 0.0


class TestUtils:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile([], 50) == 0.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_mean_empty(self):
        assert mean([]) == 0.0

    def test_chunked(self):
        assert [list(c) for c in chunked([1, 2, 3, 4, 5], 2)] == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            list(chunked([1], 0))

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KiB"

    def test_run_result_row(self):
        row = RunResult(
            clients=100,
            throughput_tps=12345.0,
            mean_latency=0.1,
            p50_latency=0.1,
            p99_latency=0.2,
            blocks_committed=10,
            sim_time=5.0,
        ).as_row()
        assert "12.35" in row and "100" in row


class TestClosedLoopClients:
    def _cluster(self, **kwargs):
        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(1, batch_size=100),
            network=NetworkProfile.lan(),
            seed=3,
        )
        return DESCluster(experiment, protocol="marlin", crypto_mode="null", **kwargs)

    def test_in_flight_never_exceeds_population(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=10, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=2.0)
        outstanding = len(pool._submit_time)
        assert outstanding <= pool.num_tokens
        assert pool.completed_ops > 0

    def test_token_weight_scales_ops(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=40, token_weight=10)
        assert pool.num_tokens == 4
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=2.0)
        assert pool.completed_ops % 10 == 0
        assert pool.completed_ops > 0

    def test_acks_require_f_plus_one(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=4, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=1.0)
        # Latency samples only exist for ops with >= f+1 replica replies.
        assert pool.latency.count == pool.completed_ops

    def test_noop_workload(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=8, token_weight=1, request_size=0, reply_size=0)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=2.0)
        assert pool.completed_ops > 0

    def test_invalid_parameters(self):
        cluster = self._cluster()
        with pytest.raises(ConfigError):
            ClosedLoopClients(cluster, num_clients=0)
        with pytest.raises(ConfigError):
            ClosedLoopClients(cluster, num_clients=4, target="nowhere")

    def test_summary_keys(self):
        cluster = self._cluster()
        pool = ClosedLoopClients(cluster, num_clients=4, token_weight=1)
        cluster.start()
        cluster.sim.schedule(0.01, pool.start)
        cluster.run(until=1.0)
        summary = pool.summary()
        assert set(summary) == {"throughput_tps", "mean_latency", "p50_latency", "p99_latency"}
        assert summary["mean_latency"] > 0


def reference_on_message(pool: ClosedLoopClients, payload: ReplyBatch) -> None:
    """The hub intake as a plain per-key loop: every key of a batch whose
    ops were all acknowledged already takes the ``continue``."""
    now = pool.cluster.sim.now
    fresh = []
    for key in payload.op_keys:
        submitted = pool._submit_time.get(key)
        if submitted is None:
            continue
        mask = pool._acks.get(key, 0) | (1 << payload.replica)
        if mask.bit_count() < pool.f + 1:
            pool._acks[key] = mask
            continue
        del pool._submit_time[key]
        pool._acks.pop(key, None)
        pool.latency.record(now, now - submitted, weight=pool.token_weight)
        fresh.append(pool._new_op(key[0]))
    if fresh:
        pool.throughput.record(now, pool.token_weight * len(fresh))
    pool._submit(fresh)


def reply(replica: int, *keys: tuple[int, int]) -> ReplyBatch:
    return ReplyBatch(
        replica=replica, block_digest=b"", op_keys=keys, num_ops=len(keys), reply_size=0
    )


class TestHubIntake:
    """Late reply batches (every op already acknowledged by f + 1
    replies) are skipped whole; the outcome must equal the per-key loop."""

    def _pool(self, cls=ClosedLoopClients, **kwargs):
        experiment = ExperimentConfig(
            cluster=ClusterConfig.for_f(1, batch_size=100), network=NetworkProfile.lan(), seed=3
        )
        cluster = DESCluster(experiment, protocol="marlin", crypto_mode="null")
        pool = cls(cluster, token_weight=2, warmup=0.1, **kwargs)
        submitted = []

        def submit(ops):  # like ClosedLoopClients._submit, an empty list sends nothing
            if ops:
                submitted.append([(op.client_id, op.sequence, op.payload, op.weight) for op in ops])

        pool._submit = submit
        return cluster, pool, submitted

    def test_late_and_mixed_batches_match_the_per_key_loop(self):
        first = [(c, 0) for c in range(4)]
        batches = [
            reply(0, *first),
            reply(1, *first),  # f + 1 = 2 replies: all four ops acknowledged
            reply(2, *first),  # late: every key already acknowledged
            reply(3, *first),  # late
            reply(2, (0, 0), (0, 1), (5, 0), (1, 1)),  # mixed: two fresh keys
            reply(3, (1, 0), (0, 1), (2, 0)),  # mixed: acknowledges (0, 1)
            reply(0, (0, 0), (0, 1), (1, 0)),  # late again
        ]
        runs = []
        for intake in (ClosedLoopClients._on_message, None):
            cluster, pool, submitted = self._pool(num_clients=8)
            pool.start()
            cluster.sim.run(until=0.5)
            for batch in batches:
                if intake is None:
                    reference_on_message(pool, batch)
                else:
                    intake(pool, 0, batch)
            runs.append(
                (
                    pool._acks,
                    pool._submit_time,
                    pool._next_seq,
                    pool.latency.samples,
                    vars(pool.throughput),
                    submitted,
                )
            )
        fused, reference = runs
        assert fused == reference
        acks, _, _, samples, throughput, submitted = fused
        assert acks == {(1, 1): 1 << 2}
        assert len(samples) == 5 and throughput["ops"] == 10
        assert [len(batch) for batch in submitted] == [4, 4, 1]

    def test_open_loop_skips_late_batches(self):
        cluster, pool, _ = self._pool(cls=OpenLoopClients, rate_tps=1000.0)
        cluster.sim.run(until=0.5)
        pool._submit_time.update({(1_000_000, 0): 0.2, (1_000_000, 1): 0.3})
        late = reply(0, (1_000_000, 7), (1_000_000, 8))
        pool._on_message(0, late)
        assert pool._acks == {} and pool.acknowledged_ops == 0
        pool._on_message(1, reply(1, (1_000_000, 7), (1_000_000, 1)))
        assert pool._acks == {(1_000_000, 1): 1 << 1}
        pool._on_message(2, reply(2, (1_000_000, 1), (1_000_000, 8)))
        assert pool._acks == {} and pool.acknowledged_ops == 2
        assert pool.latency.samples == [(0.5, 0.5 - 0.3, 2)]
