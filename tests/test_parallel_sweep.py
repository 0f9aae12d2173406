"""The parallel experiment engine: process fan-out, caching, bisection.

The load points here are deliberately small (a few simulated seconds) —
the properties under test are about orchestration, not throughput:
serial/parallel/cached runs must be *identical*, byte for byte, and the
cache key must cover every :class:`Scenario` field.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

import repro.harness.parallel as parallel
from repro.api import (
    ClientConfig,
    ClusterConfig,
    PipelineConfig,
    ResultCache,
    Scenario,
    ShardConfig,
    SweepExecutor,
    code_fingerprint,
    load_point,
    peak_throughput,
    throughput_curve,
    traced_run,
)
from repro.common.errors import ConfigError
from repro.harness.parallel import bisect_peak

BASE = Scenario(
    protocol="marlin",
    f=1,
    sim_time=4.0,
    warmup=1.5,
    request_size=64,
    reply_size=64,
    seed=3,
    crypto="null",
    pipeline=None,
)
NO_CAP = 1e9  # latency cap no point reaches: the whole grid is evaluated


def serial_curve(counts: list[int]) -> list:
    """The reference: one plain load point per client count."""
    return [load_point(BASE.with_overrides(clients=clients)) for clients in counts]


class TestExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            SweepExecutor(jobs=0)

    def test_parallel_curve_identical_to_serial(self):
        counts = [64, 128, 256, 512]
        serial = throughput_curve(BASE, counts, latency_cap=NO_CAP)
        assert len(serial) == len(counts)
        assert serial == serial_curve(counts)
        with SweepExecutor(jobs=4) as executor:
            fanned = executor.run_curve(BASE, counts, NO_CAP)
            # RunResult is a dataclass: == compares every field, floats
            # included, so this asserts bit-identical results.
            assert fanned == serial

            # Early stop: a cap below the first point's latency truncates
            # the wave exactly like the serial sweep does.
            capped = executor.run_curve(BASE, counts, 0.0)
            assert capped == serial[:1]

    def test_parallel_traces_identical_to_serial(self):
        tasks = [BASE.with_overrides(clients=clients) for clients in (64, 256)]
        with SweepExecutor(jobs=1) as executor:
            inline = executor._run_raw(tasks)
        with SweepExecutor(jobs=2) as executor:
            fanned = executor._run_raw(tasks)
        # Full payload equality: RunResult fields and the SHA-256 of the
        # per-replica commit trace both survive the process boundary.
        assert fanned == inline
        assert all(v["trace_sha256"] for v in inline)


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"clients": 64, "warmup": 1.5})
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, {"result": {"clients": 64}, "trace_sha256": "ab"})
        assert cache.get(key) == {"result": {"clients": 64}, "trace_sha256": "ab"}
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.clear() == 1

    def test_key_covers_scenario_and_code(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        base = cache.key_for({"clients": 64})
        assert cache.key_for({"clients": 128}) != base
        # Same scenario, different code: simulate an edited source tree.
        monkeypatch.setattr(parallel, "_FINGERPRINT", "0" * 64)
        assert cache.key_for({"clients": 64}) != base

    def test_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_second_sweep_served_from_cache(self, tmp_path):
        counts = [64, 128]
        cache = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            first = executor.run_curve(BASE, counts, NO_CAP)
        assert (cache.hits, cache.misses) == (0, len(counts))

        warm = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=warm) as executor:
            second = executor.run_curve(BASE, counts, NO_CAP)
        assert (warm.hits, warm.misses) == (len(counts), 0)
        assert second == first

    def test_scenario_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            executor.run_curve(BASE, [64], NO_CAP)
            executor.run_curve(BASE.with_overrides(seed=4), [64], NO_CAP)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        with SweepExecutor(jobs=1, cache=cache) as executor:
            executor.run_curve(BASE, [64], NO_CAP)
            monkeypatch.setattr(parallel, "_FINGERPRINT", "f" * 64)
            executor.run_curve(BASE, [64], NO_CAP)
        # The second run could not reuse the first run's entry.
        assert (cache.hits, cache.misses) == (0, 2)

    def test_facade_curve_with_cache(self, tmp_path):
        cold = throughput_curve(
            BASE, [64, 128], latency_cap=NO_CAP,
            use_cache=True, cache_dir=tmp_path,
        )
        warm = throughput_curve(
            BASE, [64, 128], latency_cap=NO_CAP,
            use_cache=True, cache_dir=tmp_path,
        )
        plain = throughput_curve(BASE, [64, 128], latency_cap=NO_CAP)
        assert cold == warm == plain


#: One valid non-default value per Scenario field.
PERTURBED = {
    "protocol": "hotstuff",
    "f": 2,
    "clients": 128,
    "seed": 4,
    "sim_time": 5.0,
    "warmup": 1.0,
    "request_size": 65,
    "reply_size": 65,
    "crypto": "threshold",
    "pipeline": PipelineConfig(),
    "client": ClientConfig(mode="real"),
    "cluster": ClusterConfig.for_f(1),
    "shard": ShardConfig(shards=2),
    "shards": 2,
    "des_jobs": 2,
    "adversary": "gray-failure",
}


class TestCacheKeyCoversScenario:
    """A point must never alias another that differs in any field — e.g.
    an adversarial point must never be served its failure-free twin."""

    @pytest.mark.parametrize("name", [spec.name for spec in fields(Scenario)])
    def test_every_field_changes_the_key(self, tmp_path, name):
        assert name in PERTURBED, f"give the new Scenario field {name!r} a perturbation"
        cache = ResultCache(tmp_path)
        # des_jobs > 1 is only valid on a sharded topology.
        base = BASE.with_overrides(shards=2) if name == "des_jobs" else BASE
        assert getattr(base, name) != PERTURBED[name]
        twin = Scenario(**{spec.name: getattr(base, spec.name) for spec in fields(base)})
        assert cache.key_for(twin) == cache.key_for(base)
        perturbed = base.with_overrides(**{name: PERTURBED[name]})
        assert cache.key_for(perturbed) != cache.key_for(base)


class TestExplicitClusterIsAuthoritative:
    """``Scenario(cluster=...)`` fixes ``f`` even with ``f`` left at 1."""

    def test_sweeps_default_to_the_cluster_grid(self, tmp_path):
        scenario = Scenario(
            cluster=ClusterConfig.for_f(10), sim_time=1.0, warmup=0.5, seed=3
        )
        assert (scenario.f, scenario.resolved_f()) == (1, 10)
        # A negative cap stops each sweep after its first grid point:
        # 512 on the f=10 grid, 1024 on the f=1 grid.
        curve = throughput_curve(
            scenario, latency_cap=-1.0, use_cache=True, cache_dir=tmp_path
        )
        _, peak_curve = peak_throughput(
            scenario, latency_cap=-1.0, use_cache=True, cache_dir=tmp_path
        )
        assert [p.clients for p in curve] == [p.clients for p in peak_curve] == [512]

    def test_traced_run_sizes_the_cluster_from_it(self):
        cluster, _ = traced_run(
            Scenario(cluster=ClusterConfig.for_f(2), seed=2), sim_time=1.0
        )
        assert cluster.experiment.cluster.num_replicas == 7


class TestBisect:
    def test_bisect_peak_matches_linear_sweep(self):
        counts = [32, 128, 512, 2048, 8192]
        # Establish latencies, then set the cap so the crossing happens
        # mid-grid — the interesting case for the bisection.
        full = serial_curve(counts)
        latencies = [p.mean_latency for p in full]
        assert latencies == sorted(latencies), "closed-loop latency must be monotone"
        cap = (latencies[2] + latencies[3]) / 2

        peak_sweep, curve_sweep = peak_throughput(
            BASE, counts, latency_cap=cap, strategy="sweep"
        )
        peak_bisect, curve_bisect = peak_throughput(
            BASE, counts, latency_cap=cap, strategy="bisect"
        )
        assert peak_bisect == peak_sweep
        # Both curves end at the same first-over-cap point, and every
        # point the bisection did evaluate matches the sweep's value.
        assert curve_bisect[-1] == curve_sweep[-1]
        sweep_by_clients = {p.clients: p for p in curve_sweep}
        for point in curve_bisect:
            assert point == sweep_by_clients[point.clients]

    def test_bisect_all_points_under_cap(self):
        counts = [32, 64]
        with SweepExecutor(jobs=1) as executor:
            curve = bisect_peak(executor, BASE, counts, NO_CAP)
        serial = serial_curve(counts)
        assert curve == serial

    def test_bisect_first_point_over_cap(self):
        with SweepExecutor(jobs=1) as executor:
            curve = bisect_peak(executor, BASE, [64, 128, 256], 0.0)
        assert len(curve) == 1
        assert curve[0].clients == 64

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            peak_throughput(BASE, [32], latency_cap=1.0, strategy="golden")
