"""Parallel experiment engine: multi-process sweeps and result caching.

A throughput/latency curve is a list of *independent* deterministic load
points — each is a pure function of its
:class:`~repro.harness.scenarios.Scenario` and the code that interprets
it.  That makes the sweep embarrassingly parallel and
perfectly cacheable:

* :class:`SweepExecutor` fans load points across ``jobs`` worker
  processes (``spawn`` context: each worker imports :mod:`repro` fresh
  and builds its own simulator from the scenario's seed, so no state
  leaks between points).  Results are merged back in submission order and
  the curve's early-stop rule is applied wave-by-wave, so ``jobs=N``
  output is byte-identical to the serial sweep — floats survive pickling
  exactly.

* :class:`ResultCache` is a content-addressed on-disk cache.  The key is
  the SHA-256 of the canonically encoded task (every ``Scenario`` field)
  plus a fingerprint of every ``repro`` source file, so editing any simulator
  code invalidates all cached points while re-running an unchanged sweep
  costs only file reads.  Values are JSON; Python's shortest-roundtrip
  float ``repr`` guarantees cached results decode bit-identical.

* :func:`bisect_peak` replaces the linear client sweep of the peak-
  throughput methodology with a bounded bisection over the client grid
  (closed-loop latency grows monotonically with the population), probing
  several candidate points per round in parallel.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, is_dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.common.encoding import encode
from repro.common.errors import ConfigError
from repro.harness.metrics import RunResult

if TYPE_CHECKING:
    from repro.harness.scenarios import Scenario

DEFAULT_CACHE_ENV = "REPRO_CACHE_DIR"
"""Environment variable overriding the on-disk cache location."""

_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (cached per process).

    Part of every cache key: a result is only reusable if the code that
    produced it is byte-identical, not just the scenario.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def _canonical(value: Any) -> Any:
    """Rewrite ``value`` into the canonical codec's supported types.

    Floats become tagged shortest-roundtrip reprs (the codec is integer/
    bytes/str only); dataclasses (e.g. ``Scenario`` and the configs it
    nests) become dicts.
    """
    if isinstance(value, float):
        return ["__float__", repr(value)]
    if is_dataclass(value) and not isinstance(value, type):
        return _canonical(asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


class ResultCache:
    """Content-addressed on-disk cache of load-point results.

    One JSON file per key under ``root`` (default: ``$REPRO_CACHE_DIR``
    or ``~/.cache/repro-marlin``).  Writes are atomic (temp file +
    rename), so concurrent sweeps sharing a cache directory are safe.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get(DEFAULT_CACHE_ENV) or (
                Path.home() / ".cache" / "repro-marlin"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def key_for(self, payload: Any) -> str:
        """Cache key: canonical encoding of payload + code fingerprint."""
        blob = encode(
            _canonical({"payload": payload, "code": code_fingerprint()})
        )
        return hashlib.sha256(blob).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                value = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: dict[str, Any]) -> None:
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def _eval_point(task: Any) -> dict[str, Any]:
    """Worker entry point: run one task, return plain data.

    Top-level function so the ``spawn`` context can pickle it by
    reference; each worker imports the harness fresh and builds its own
    simulator from the task's seed.  A task is either a
    :class:`~repro.harness.scenarios.Scenario` (one load point) or a
    ``kind="adversary_cell"`` dict, dispatched to
    :func:`repro.adversary.campaign._eval_cell` (the ``kind`` entry keeps
    its cache keys disjoint from load points').  Load-point results carry
    the :class:`RunResult` fields plus a SHA-256 of the run's commit
    trace, which the byte-identity tests compare across serial/parallel
    runs.
    """
    if isinstance(task, dict):
        task = dict(task)
        kind = task.pop("kind", None)
        if kind != "adversary_cell":
            raise ConfigError(f"unknown sweep task kind {kind!r}")
        from repro.adversary.campaign import _eval_cell

        return _eval_cell(task)

    from repro.harness.scenarios import run_scenario

    result, cluster = run_scenario(task)
    trace_sha = hashlib.sha256(encode(cluster.commit_trace())).hexdigest()
    return {"result": asdict(result), "trace_sha256": trace_sha}


def _result_from(value: dict[str, Any]) -> RunResult:
    return RunResult(**value["result"])


class SweepExecutor:
    """Runs independent load points across processes, with caching.

    ``jobs=1`` evaluates inline (no subprocess); ``jobs>1`` uses a lazily
    created ``spawn`` process pool that is reused across calls until
    :meth:`close`.  Results always come back in submission order, and
    curves apply the early-stop rule wave-by-wave, so the merged output
    is byte-identical to a serial sweep regardless of ``jobs``.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------ plumbing

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=get_context("spawn")
            )
        return self._pool

    # ------------------------------------------------------------- running

    def run_points(self, scenarios: list[Scenario]) -> list[RunResult]:
        """Evaluate load points; results in the same order as ``scenarios``."""
        return [_result_from(v) for v in self._run_raw(scenarios)]

    def run_tasks(self, tasks: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Evaluate ``kind``-tagged dict tasks, returning the raw worker dicts.

        The ``kind`` participates in the cache key, so these tasks never
        collide with load points.  Used by the adversary campaign runner.
        """
        return self._run_raw(tasks)

    def _run_raw(self, tasks: list[Any]) -> list[dict[str, Any]]:
        values: list[dict[str, Any] | None] = [None] * len(tasks)
        keys: list[str | None] = [None] * len(tasks)
        pending: list[int] = []
        for index, task in enumerate(tasks):
            if self.cache is not None:
                key = self.cache.key_for(task)
                keys[index] = key
                cached = self.cache.get(key)
                if cached is not None:
                    values[index] = cached
                    continue
            pending.append(index)
        if pending:
            if self.jobs == 1:
                fresh = [_eval_point(tasks[i]) for i in pending]
            else:
                pool = self._ensure_pool()
                futures: list[Future] = [
                    pool.submit(_eval_point, tasks[i]) for i in pending
                ]
                fresh = [future.result() for future in futures]
            for index, value in zip(pending, fresh):
                values[index] = value
                if self.cache is not None and keys[index] is not None:
                    self.cache.put(keys[index], value)
        return values  # type: ignore[return-value]

    def run_curve(
        self,
        scenario: Scenario,
        client_counts: list[int],
        latency_cap: float,
    ) -> list[RunResult]:
        """Sweep ``client_counts``, stopping once latency exceeds the cap.

        Points are evaluated ``jobs`` at a time; after each wave the
        serial early-stop rule applies (keep the first over-cap point,
        drop everything after it), so the result list is identical to a
        one-point-at-a-time sweep.
        """
        results: list[RunResult] = []
        for start in range(0, len(client_counts), self.jobs):
            wave = client_counts[start : start + self.jobs]
            points = self.run_points(
                [scenario.with_overrides(clients=clients) for clients in wave]
            )
            for point in points:
                results.append(point)
                if point.mean_latency > latency_cap:
                    return results
        return results


def bisect_peak(
    executor: SweepExecutor,
    scenario: Scenario,
    client_counts: list[int],
    latency_cap: float,
) -> list[RunResult]:
    """Locate the latency-cap crossing by bisection over the client grid.

    Closed-loop mean latency grows monotonically with the client
    population, so the first over-cap grid index can be found with
    ``O(log n)`` evaluations instead of a linear sweep.  Each round
    splits the unknown interval into ``jobs + 1`` segments and probes the
    interior points concurrently.  Returns the evaluated points in grid
    order, truncated after the first over-cap point — the two points the
    cap interpolation needs (last under, first over) are always adjacent
    grid points, exactly as in the linear sweep.
    """
    if not client_counts:
        return []
    evaluated: dict[int, RunResult] = {}

    def evaluate(indices: list[int]) -> None:
        todo = [i for i in indices if i not in evaluated]
        if not todo:
            return
        points = executor.run_points(
            [scenario.with_overrides(clients=client_counts[i]) for i in todo]
        )
        for index, point in zip(todo, points):
            evaluated[index] = point

    last = len(client_counts) - 1
    evaluate(sorted({0, last}))
    if evaluated[0].mean_latency > latency_cap:
        # The serial sweep stops at the very first point.
        return [evaluated[0]]
    if evaluated[last].mean_latency <= latency_cap:
        # No crossing anywhere: the sweep would evaluate every point.
        evaluate(list(range(len(client_counts))))
        return [evaluated[i] for i in range(len(client_counts))]
    # Invariant: grid[lo] is under the cap, grid[hi] is over it.
    lo, hi = 0, last
    while hi - lo > 1:
        span = hi - lo
        probes = min(executor.jobs, span - 1)
        step = span / (probes + 1)
        indices = sorted({lo + max(1, round(step * (k + 1))) for k in range(probes)})
        indices = [i for i in indices if lo < i < hi]
        if not indices:
            indices = [(lo + hi) // 2]
        evaluate(indices)
        for index in indices:
            if evaluated[index].mean_latency > latency_cap:
                hi = index
                break
            lo = index
    # Keep grid order; drop any probes beyond the first over-cap point
    # (the serial sweep never evaluates past it).
    ordered = [evaluated[i] for i in sorted(evaluated) if i <= hi]
    return ordered
