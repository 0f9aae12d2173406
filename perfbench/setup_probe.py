"""One set-up sample: a fresh process up to its first simulated event.

Run by ``run.py`` as a child process: imports the engine, builds the
workload (config, crypto keys, cluster, clients), starts it, executes
exactly one simulated event and prints ``ready``.  The parent times the
whole child from spawn to that line.

    python3 perfbench/setup_probe.py <src-dir> <workload> <seed>
"""

import sys


def main() -> None:
    src, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from workloads import WORKLOADS, build

    built = build(WORKLOADS[name], seed)
    built.cluster.start()
    built.cluster.sim.schedule(0.01, built.pool.start)
    if not built.cluster.sim.step():
        raise SystemExit("no event to run")
    print("ready", flush=True)


if __name__ == "__main__":
    main()
