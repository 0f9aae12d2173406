"""The repository benchmark: three deterministic-DES workloads.

    python3 perfbench/run.py --workload hub-f1 --seed 1 --seconds 20 --trace 0

Run from the repository root; the engine is imported from ``src/`` of
the checkout this file sits in.  Workloads (see ``workloads.py``):
``hub-f1``, ``fanout-f10``, ``churn-real``.

``--trace 0`` measures the end-to-end metrics.  Set-up time is the
median of several fresh child processes (spawn -> first simulated
event).  Then the workload is simulated and judged repeatedly at the one
seed until ``--seconds`` have passed; ``wall_us_per_op`` is the host time
of all those repetitions over all their committed ops, and every
repetition must produce the same identity (event count, commit-trace
SHA-256, modelled readouts).

``--trace 1`` measures the per-layer metrics: one untraced repetition
(the overhead baseline), traced repetitions for ``--seconds`` (at least
two; their exact work counts must agree, their self times are averaged),
and one journey-sampled repetition for the modelled latency stages.
Spans are written to ``.perfbench/``.

Every repetition is judged by the commit auditor and the history-based
``SafetyChecker`` (agreement, prefix, exactly-once, reply
linearizability; progress on ``churn-real``).  A violation fails the run
and counts all of its ops as failed.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 0 only when ``correct`` is true.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 5
MIN_REPS = 3
TRACED_REPS = 2
MAX_PROBLEMS_SHOWN = 20

END_TO_END = {
    "setup_s": "s",
    "wall_us_per_op": "us",
    "peak_rss_mb": "MB",
    "sim_tput_ops_s": "ops/s",
    "sim_lat_p50_ms": "ms",
    "sim_lat_p999_ms": "ms",
    "sim_unavail_s": "s",
    "ops_ok_ratio": "ratio",
}

STAGES = (
    "net_to_leader",
    "leader_staging",
    "consensus_prepare",
    "consensus_commit",
    "commit_apply",
    "reply_fanin",
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its first simulated event."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), name, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def fresh_process_state() -> None:
    """Make a repetition start like a fresh process: empty every
    ``functools`` cache of the engine's modules and classes."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for value in list(vars(module).values()):
            targets = [value]
            if isinstance(value, type) and value.__module__ == name:
                targets += [getattr(value, attr, None) for attr in vars(value)]
            for target in targets:
                clear = getattr(target, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


def bottleneck(built) -> dict[str, float | str]:
    """Modelled utilisation: per-replica CPU, leader NIC, busiest link."""
    cluster = built.cluster
    horizon = built.workload.sim_time
    shape = cluster.experiment.cluster
    profile = cluster.network.profile
    leader = shape.leader_of(1)
    cpu = [p.cpu_busy_total / horizon for p in cluster.processes[: shape.num_replicas]]
    per_pair = cluster.network.stats.per_pair_bytes
    egress = sum(b for (src, _dst), b in per_pair.items() if src == leader)
    nic = egress * 8.0 / profile.nic_bps / horizon
    links = {
        pair: b * 8.0 / profile.bandwidth_bps / horizon
        for pair, b in per_pair.items()
        if pair[0] < shape.num_replicas and pair[0] != pair[1]
    }
    busiest = max(links, key=links.get)
    busiest_cpu = max(range(len(cpu)), key=cpu.__getitem__)
    candidates = {
        f"cpu(replica {busiest_cpu})": cpu[busiest_cpu],
        f"nic(leader {leader})": nic,
        f"link({busiest[0]}->{busiest[1]})": links[busiest],
    }
    binding = max(candidates, key=candidates.get)
    return {
        "leader_cpu_util": cpu[leader],
        "max_cpu_util": max(cpu),
        "leader_nic_util": nic,
        "max_link_util": links[busiest],
        "cpu_busy_s": sum(p.cpu_busy_total for p in cluster.processes),
        "binding": binding,
        "binding_util": candidates[binding],
    }


def describe(outcome, readout) -> list[str]:
    sim = outcome.sim
    binding = readout["binding"]
    util = readout["binding_util"]
    bound = "" if util >= 0.7 else " (no resource above 70%: latency-bound)"
    return [
        f"identity: events={outcome.events} "
        f"commit_trace_sha256={outcome.trace_sha256}",
        f"latency samples: {sim['samples']} (p99.9 leaves "
        f"{int(sim['samples'] * 0.001)} beyond it)",
        f"binding resource: {binding} at {util:.1%}{bound}; "
        f"leader cpu {readout['leader_cpu_util']:.1%}, "
        f"max cpu {readout['max_cpu_util']:.1%}, "
        f"leader nic {readout['leader_nic_util']:.1%}, "
        f"busiest link {readout['max_link_util']:.1%}",
    ]


def measured_run(workload, seed: int, seconds: float, setup: list[float]):
    from workloads import run_once

    start = time.perf_counter()
    outcomes = []
    while True:
        began = time.perf_counter()
        fresh_process_state()
        outcome, built = run_once(workload, seed)
        outcomes.append(outcome)
        now = time.perf_counter()
        # Stop before a repetition that would overrun the budget.
        if len(outcomes) >= MIN_REPS and now + (now - began) - start > seconds:
            break
        del built
    first = outcomes[0]
    lines = describe(first, bottleneck(built))
    problems = [v for o in outcomes for v in o.violations]
    if any(o.identity() != first.identity() for o in outcomes):
        problems.append("identity differs between repetitions at one seed")
    walls = [o.wall_us_per_op for o in outcomes]
    # Host time over the whole measurement per committed op: repetitions
    # on a shared host fall into fast and slow spells, and the median of
    # such a bimodal sample jumps between them from run to run, while the
    # run-level ratio moves smoothly (on a shared 2-core VM, IQR over ten
    # seeds 6.5% vs 10.5% on hub-f1, 6.7% vs 8.6% on fanout-f10).
    wall_us_per_op = 1e6 * sum(o.wall_s for o in outcomes) / sum(
        o.committed_ops for o in outcomes
    )
    sim = first.sim
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_us_per_op": (wall_us_per_op, len(walls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "sim_tput_ops_s": (sim["sim_tput_ops_s"], sim["samples"]),
        "sim_lat_p50_ms": (sim["sim_lat_p50_ms"], sim["samples"]),
        "sim_lat_p999_ms": (sim["sim_lat_p999_ms"], sim["samples"]),
        "sim_unavail_s": (sim["sim_unavail_s"], sim["samples"]),
        "ops_ok_ratio": (sim["ops_ok_ratio"], sim["attempted"]),
    }
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    lines.append(
        f"wall_us_per_op per repetition: median {statistics.median(walls):.3f}, "
        f"quartiles {quartiles[0]:.3f} / {quartiles[2]:.3f}; "
        f"{', '.join(f'{w:.3f}' for w in walls)}"
    )
    attempted = sum(o.sim["attempted"] for o in outcomes)
    failed = sum(
        o.sim["attempted"] if o.violations else o.sim["failed"] for o in outcomes
    )
    if problems:
        failed = attempted
    return metrics, END_TO_END, lines, problems, attempted, failed


def journey_stages(workload, seed: int) -> tuple[dict[str, float], tuple]:
    """Per-stage p50 (ms) from one journey-sampled repetition."""
    from repro.api import JourneyRecorder, RunObservability
    from repro.obs.journey import build_waterfall
    from workloads import build, commit_trace_sha, simulate

    recorder = JourneyRecorder(seed, rate=min(1.0, 256 / workload.clients))
    observability = RunObservability(
        trace=False,
        metrics=False,
        flight=workload.audit,
        audit=workload.audit,
        journey=recorder,
    )
    built = build(workload, seed, observability)
    simulate(built)
    waterfall = build_waterfall(
        recorder, end_to_end=built.pool.latency, window_start=workload.warmup
    )
    stages = waterfall["stages"]
    p50 = {s: stages[s]["p50"] * 1e3 if s in stages else 0.0 for s in STAGES}
    cluster = built.cluster
    return p50, (cluster.sim.events_processed, commit_trace_sha(cluster))


def traced_run(workload, seed: int, seconds: float):
    import workloads
    from spans import COST_CATEGORIES, CRYPTO_VERIFY, LAYERS, LayerTracer

    fresh_process_state()
    baseline, _ = workloads.run_once(workload, seed)
    tracer = LayerTracer()
    tracer.install()
    tracer.patch_function(workloads, "judge", "judge", "oracle")

    def before_timing(built) -> None:
        tracer.wrap_hub_reply_senders(built.cluster)
        tracer.reset()

    reps = []
    start = time.perf_counter()
    try:
        while True:
            began = time.perf_counter()
            fresh_process_state()
            outcome, built = workloads.run_once(
                workload, seed, before_timing=before_timing
            )
            self_s, covered = tracer.self_times()
            reps.append(
                {
                    "outcome": outcome,
                    "self_s": self_s,
                    "covered": covered,
                    "spans": tracer.span_counts(),
                    "counts": dict(tracer.counts),
                    "model_cpu": dict(tracer.model_cpu),
                }
            )
            if len(reps) == 1:
                tracer.write(
                    OUT / f"spans-{workload.name}-seed{seed}.bin",
                    {"workload": workload.name, "seed": seed, "wall_s": outcome.wall_s},
                )
            now = time.perf_counter()
            if len(reps) >= TRACED_REPS and now + (now - began) - start > seconds:
                break
    finally:
        tracer.uninstall()
    stage_p50, journey_identity = journey_stages(workload, seed)

    problems = [v for r in reps for v in r["outcome"].violations]
    problems += baseline.violations
    first = reps[0]
    outcome = first["outcome"]
    if any(r["outcome"].identity() != baseline.identity() for r in reps):
        problems.append("tracing changed the run's identity")
    if journey_identity != (baseline.events, baseline.trace_sha256):
        problems.append("journey sampling changed the run's identity")
    exact = ("spans", "counts", "model_cpu")
    if any(r[k] != first[k] for r in reps[1:] for k in exact):
        problems.append("work counts differ between traced repetitions")

    readout = bottleneck(built)
    lines = describe(outcome, readout)
    total = statistics.mean(r["outcome"].wall_s for r in reps)
    self_s = {layer: statistics.mean(r["self_s"][layer] for r in reps) for layer in LAYERS}
    covered = statistics.mean(r["covered"] for r in reps)
    uncovered = total - covered
    accounted = sum(self_s.values()) + uncovered
    if abs(accounted - total) > 1e-6 * max(total, 1.0) or min(self_s.values()) < 0:
        problems.append(
            f"layer self times + uncovered ({accounted:.6f}s) do not add up to "
            f"the traced total ({total:.6f}s)"
        )
    lines.append(f"traced total {total * 1e3:.1f} ms; share of traced host time:")
    for layer in LAYERS:
        lines.append(f"  {layer:15s} {self_s[layer] * 1e3:10.1f} ms  {self_s[layer] / total:6.1%}")
    lines.append(f"  {'(uncovered)':15s} {uncovered * 1e3:10.1f} ms  {uncovered / total:6.1%}")

    spans, counts = first["spans"], first["counts"]
    cluster = built.cluster
    pool = built.pool
    ops = outcome.committed_ops
    stats = cluster.network.stats
    crypto = cluster.crypto
    lookups = crypto.qc_cache_hits + crypto.qc_cache_misses
    blocks = max(r.ledger.num_committed_blocks for r in cluster.replicas)
    real = workload.mode == "real"
    model_cpu = first["model_cpu"]
    cpu_model_s = sum(model_cpu.values())

    def calls(*names: str) -> int:
        return sum(spans.get(n, 0) for n in names)

    def layer_calls(layer: str) -> int:
        return sum(n for name, n in spans.items() if tracer.layer(name) == layer)

    per_layer = {
        "des.events_per_op": outcome.events / ops,
        "des.self_ms": self_s["des"] * 1e3,
        "network.msgs_per_op": stats.messages / ops,
        "network.bytes_per_op": stats.bytes / ops,
        "network.self_ms": self_s["network"] * 1e3,
        "codec.encode_calls_per_op": calls("encode", "encode_into") / ops,
        "codec.bytes_hashed_per_op": counts.get("codec.bytes_hashed", 0) / ops,
        "codec.self_ms": self_s["codec"] * 1e3,
        "consensus.msgs_handled": calls("ReplicaBase.on_message"),
        "consensus.self_ms": self_s["consensus"] * 1e3,
        "crypto_service.verify_calls": calls(*(f"CryptoService.{m}" for m in CRYPTO_VERIFY)),
        "crypto_service.qc_cache_hit_ratio": crypto.qc_cache_hits / lookups if lookups else 0.0,
        "crypto_service.self_ms": self_s["crypto_service"] * 1e3,
        "batching.block_digest_calls": calls("Block.digest"),
        "batching.block_digests_per_op": calls("Block.digest") / ops,
        "batching.ops_per_block": ops / blocks,
        "batching.self_ms": self_s["batching"] * 1e3,
        "ledger.executes_per_op": counts.get("ledger.executes", 0) / ops,
        "ledger.dedup_entries": sum(r.ledger.ops_committed for r in cluster.replicas),
        "ledger.self_ms": self_s["ledger"] * 1e3,
        "hub.reply_batches": calls("hub.reply_sender"),
        "hub.result_digests": calls("hub.result_digest_of"),
        "hub.result_digests_per_op": calls("hub.result_digest_of") / ops,
        "hub.self_ms": self_s["hub"] * 1e3,
        "metrics.samples_retained": len(pool.latency.samples),
        "metrics.self_ms": self_s["metrics"] * 1e3,
        "client.submits": calls("ClientSession.submit"),
        "client.retransmits": pool.retransmits if real else 0,
        "client.certificates": pool.certified if real else 0,
        "client.shed": pool.shed if real else 0,
        "client.self_ms": self_s["client"] * 1e3,
        "obs.hook_calls": sum(n for name, n in spans.items() if name.startswith("obs.hook.")),
        "obs.self_ms": self_s["obs"] * 1e3,
        "oracle.history_entries": sum(
            r.ledger.num_committed_blocks for r in cluster.replicas
        ),
        "oracle.check_ms": self_s["oracle"] * 1e3,
        **{f"model.cpu.{c}_s": model_cpu[c] for c in COST_CATEGORIES},
        "model.cpu_model_to_busy_ratio": cpu_model_s / readout["cpu_busy_s"],
        "model.leader_cpu_util": readout["leader_cpu_util"],
        "model.max_cpu_util": readout["max_cpu_util"],
        "model.leader_nic_util": readout["leader_nic_util"],
        "model.max_link_util": readout["max_link_util"],
        **{f"model.stage.{s}.p50_ms": stage_p50[s] for s in STAGES},
        "model.view_changes": max(r.stats["view_changes"] for r in cluster.replicas),
        "trace.spans": len(tracer.starts),
        "trace.uncovered_ms": uncovered * 1e3,
        "trace.wall_us_per_op": total * 1e6 / ops,
        "trace.untraced_wall_us_per_op": baseline.wall_us_per_op,
        "trace.overhead_ratio": (total * 1e6 / ops) / baseline.wall_us_per_op,
    }
    for layer in ("client", "hub", "obs"):
        lines.append(f"{layer} spans fired: {layer_calls(layer)}")
    share = {layer: self_s[layer] / total for layer in LAYERS}
    per_op = sum(share[k] for k in ("codec", "hub", "batching", "ledger", "metrics", "oracle"))
    per_msg = sum(share[k] for k in ("des", "network", "consensus", "crypto_service"))
    lines.append(
        f"separation: codec+hub+batching+ledger+metrics+oracle {per_op:.1%}, "
        f"consensus {share['consensus']:.1%}, "
        f"des+network+consensus+crypto_service {per_msg:.1%} vs "
        f"hub+ledger+metrics {share['hub'] + share['ledger'] + share['metrics']:.1%}, "
        f"client {share['client']:.1%}"
    )
    lines.append(
        f"modelled cpu / cpu_busy_total = {per_layer['model.cpu_model_to_busy_ratio']:.4f}"
    )
    units = {name: _unit(name) for name in per_layer}
    metrics = {name: (value, 1) for name, value in per_layer.items()}
    attempted = outcome.sim["attempted"]
    failed = attempted if problems else outcome.sim["failed"]
    return metrics, units, lines, problems, attempted, failed


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_op"):
        return "us"
    if name.endswith("_per_op"):
        return "1/op" if "bytes" not in name else "B/op"
    if name.endswith(("_ratio", "_util")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"engine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return _fail(f"imported repro from {repro.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        metrics, units, lines, problems, attempted, failed = traced_run(
            workload, args.seed, args.seconds
        )
    else:
        setup = measure_setup(workload.name, args.seed)
        metrics, units, lines, problems, attempted, failed = measured_run(
            workload, args.seed, args.seconds, setup
        )
    for line in lines:
        print(line)
    for name, (value, samples) in metrics.items():
        print(f"{name:36s} {value:16.6f} {units[name]:6s} n={samples}")
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAIL: {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"FAIL: ... and {len(problems) - MAX_PROBLEMS_SHOWN} more")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _samples) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
