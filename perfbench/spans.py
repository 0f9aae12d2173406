"""Benchmark-side span tracing around each layer's public entry points.

:class:`LayerTracer` wraps, from outside the engine, the functions each
layer exposes, and records one span ``(name, start, end, parent)`` per
call into compact in-memory arrays.  Nothing inside ``src/`` changes:
functions are patched on their classes, or in every module that imported
them (``from x import f`` copies the reference), and restored by
:meth:`LayerTracer.uninstall`.

A layer's *self time* is the time its spans cover minus the time their
direct child spans cover; since calls nest strictly, the self times of
all layers plus the time no root span covers add up to the traced
interval.  Alongside the spans the tracer keeps exact work counts (bytes
hashed, ledger executions, modelled CPU seconds by cost category) taken
at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import repro.client.service as service_module
import repro.harness.workload as hub_module
from repro.adversary.checker import SafetyChecker
from repro.client.collector import ReplyCollector
from repro.client.service import ClientService
from repro.client.session import ClientSession
from repro.common import encoding
from repro.consensus.block import BatchPool, Block
from repro.consensus.costs import PaperCostModel
from repro.consensus.crypto_service import NullCryptoService
from repro.consensus.ledger import Ledger
from repro.consensus.replica_base import ReplicaBase
from repro.crypto import hashing
from repro.des.simulator import Simulator
from repro.harness.des_runtime import DESCluster
from repro.harness.metrics import LatencyRecorder, ThroughputMeter
from repro.harness.workload import ClosedLoopClients
from repro.network.simnet import SimNetwork
from repro.obs.audit import OnlineAuditor
from repro.obs.flight import FlightRecorder
from repro.obs.observer import FlightRecordingObs, JourneyObs, ReplicaObs

#: Layers in report order.
LAYERS = (
    "des",
    "network",
    "codec",
    "consensus",
    "crypto_service",
    "batching",
    "ledger",
    "hub",
    "metrics",
    "client",
    "obs",
    "oracle",
)

#: Codec functions callers import by name (``encode_into`` is patched on
#: its own: inside ``digest_of`` it also measures the bytes hashed).
CODEC_FUNCTIONS = {
    "encode": encoding.encode,
    "digest_of": hashing.digest_of,
    "hash_bytes": hashing.hash_bytes,
}

CRYPTO_METHODS = (
    "sign_vote",
    "verify_vote",
    "verify_votes",
    "verify_qc",
    "verify_qcs",
    "qc_is_valid",
    "accumulator",
    "make_qc",
)
CRYPTO_VERIFY = ("verify_vote", "verify_votes", "verify_qc")

OBS_HOOKS = (
    "message_handled",
    "vote_sent",
    "view_entered",
    "view_timeout",
    "view_change_event",
    "view_change_done",
    "sync_requested",
    "block_proposed",
    "ops_proposed",
    "phase_begin",
    "phase_end",
    "qc_formed",
    "block_committed",
    "client_admitted",
)

#: PaperCostModel method -> modelled CPU category.
COST_CATEGORY = {
    "verify_block": "verify_block",
    "verify_qc": "verify_qc",
    "qc_cache_lookup": "verify_qc",
    "verify_vote": "verify_vote",
    "verify_votes_batch": "verify_vote",
    "sign_vote": "sign_vote",
    "combine": "combine",
    "db_write": "db_write",
    "checkpoint": "db_write",
    "execute": "execute",
    "handle_message": "handle_message",
}
COST_CATEGORIES = tuple(dict.fromkeys(COST_CATEGORY.values()))

HUB_REPLY_SENDER = "_attach_reply_sender.<locals>.on_commit"


def _owner(cls: type, name: str) -> type:
    """The class in ``cls``'s MRO that defines ``name``."""
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name!r}")


class LayerTracer:
    """Patch layer entry points, record spans, and reduce them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of_name: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self.model_cpu: dict[str, float] = dict.fromkeys(COST_CATEGORIES, 0.0)
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- spans

    def reset(self) -> None:
        """Drop every span and count (the arrays are cleared in place)."""
        for arr in (self.name_ids, self.parents, self.starts, self.ends):
            del arr[:]
        self.stack[:] = [-1]
        self.counts.clear()
        for category in self.model_cpu:
            self.model_cpu[category] = 0.0

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of_name.append(layer)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        after: Callable[[tuple], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call (``after(args)`` runs inside
        the span, for exact counts taken at the boundary)."""
        nid = self._name_id(name, layer)
        name_ids, parents, starts, ends = (
            self.name_ids,
            self.parents,
            self.starts,
            self.ends,
        )
        stack = self.stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------ patches

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls: type, attr: str, name: str, layer: str) -> None:
        owner = _owner(cls, attr)
        self._set(owner, attr, self.wrap(owner.__dict__[attr], name, layer))

    def patch_function(self, module: Any, attr: str, name: str, layer: str) -> None:
        """Trace ``module.attr`` (a function looked up at call time)."""
        self._set(module, attr, self.wrap(getattr(module, attr), name, layer))

    def layer(self, name: str) -> str:
        return self.layer_of_name[self._name_ids[name]]

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every ``repro`` module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        """Patch every layer's entry points (before the cluster is built)."""
        counts = self.counts

        # des / network
        self._patch_method(Simulator, "run", "Simulator.run", "des")
        self._patch_method(SimNetwork, "send", "SimNetwork.send", "network")
        self._patch_method(SimNetwork, "_drain", "SimNetwork.deliver", "network")
        self._patch_hub_registration()

        # codec: patched in every module that imported the functions.
        def hashed_into(args: tuple) -> None:
            counts["codec.bytes_hashed"] += len(args[1])

        def hashed(args: tuple) -> None:
            counts["codec.bytes_hashed"] += len(args[0])

        for fname, fn in CODEC_FUNCTIONS.items():
            after = hashed if fname == "hash_bytes" else None
            self._patch_everywhere(fn, self.wrap(fn, fname, "codec", after))
        encode_into = encoding.encode_into
        self._set(
            hashing, "encode_into", self.wrap(encode_into, "encode_into", "codec", hashed_into)
        )
        self._set(encoding, "encode_into", self.wrap(encode_into, "encode_into", "codec"))

        # consensus handlers and the crypto service
        self._patch_method(ReplicaBase, "on_message", "ReplicaBase.on_message", "consensus")
        for attr in CRYPTO_METHODS:
            self._patch_method(
                NullCryptoService, attr, f"CryptoService.{attr}", "crypto_service"
            )

        # batching
        digest = Block.__dict__["digest"]
        traced_digest = cached_property(self.wrap(digest.func, "Block.digest", "batching"))
        traced_digest.__set_name__(Block, "digest")
        self._set(Block, "digest", traced_digest)
        for attr in ("add_many", "next_batch", "forget"):
            self._patch_method(BatchPool, attr, f"BatchPool.{attr}", "batching")

        # ledger: count executed op-weight at the commit boundary
        commit = Ledger.__dict__["commit"]

        def commit_counted(ledger: Ledger, block: Block) -> Any:
            before = ledger.ops_committed
            result = commit(ledger, block)
            counts["ledger.executes"] += ledger.ops_committed - before
            return result

        self._set(Ledger, "commit", self.wrap(commit_counted, "Ledger.commit", "ledger"))

        # hub: result digests (the registered handler and reply sender are
        # wrapped at registration / before timing).
        self._set(
            hub_module,
            "result_digest_of",
            self.wrap(hub_module.result_digest_of, "hub.result_digest_of", "hub"),
        )

        # metrics
        self._patch_method(LatencyRecorder, "record", "LatencyRecorder.record", "metrics")
        self._patch_method(ThroughputMeter, "record", "ThroughputMeter.record", "metrics")

        # client
        for cls, attr in (
            (ClientSession, "submit"),
            (ClientSession, "on_message"),
            (ReplyCollector, "add"),
            (ClientService, "intake"),
            (ClientService, "execute"),
            (ClientService, "_on_commit"),
        ):
            self._patch_method(cls, attr, f"{cls.__name__}.{attr}", "client")
        self._set(
            service_module,
            "result_digest_of",
            self.wrap(service_module.result_digest_of, "client.result_digest_of", "client"),
        )

        # obs: observer hooks, online auditor, flight rings
        for cls in (FlightRecordingObs, JourneyObs, ReplicaObs):
            for hook in OBS_HOOKS:
                if hook in cls.__dict__:
                    self._patch_method(cls, hook, f"obs.hook.{cls.__name__}.{hook}", "obs")
        self._patch_method(OnlineAuditor, "tap", "OnlineAuditor.tap", "obs")
        self._patch_method(OnlineAuditor, "on_commit_block", "OnlineAuditor.on_commit_block", "obs")
        self._patch_method(FlightRecorder, "record", "FlightRecorder.record", "obs")

        # oracle
        self._patch_method(DESCluster, "assert_safety", "DESCluster.assert_safety", "oracle")
        for attr in ("check_cluster", "check_replies"):
            self._patch_method(SafetyChecker, attr, f"SafetyChecker.{attr}", "oracle")

        # modelled CPU: sum each cost-model charge by category (no spans)
        model_cpu = self.model_cpu
        for attr, category in COST_CATEGORY.items():
            original = PaperCostModel.__dict__[attr]
            self._set(PaperCostModel, attr, self._costed(original, category, model_cpu))

    @staticmethod
    def _costed(original: Callable, category: str, sink: dict[str, float]) -> Callable:
        def costed(*args: Any, **kwargs: Any) -> float:
            charge = original(*args, **kwargs)
            sink[category] += charge
            return charge

        return costed

    def _patch_hub_registration(self) -> None:
        """Wrap the hub's handler as it is registered with the network."""
        register = SimNetwork.__dict__["register"]
        tracer = self

        def register_traced(network: SimNetwork, endpoint: int, handler: Any) -> None:
            if isinstance(getattr(handler, "__self__", None), ClosedLoopClients):
                handler = tracer.wrap(handler, "hub.on_message", "hub")
            register(network, endpoint, handler)

        self._set(SimNetwork, "register", register_traced)

    def wrap_hub_reply_senders(self, cluster: Any) -> None:
        """Wrap the hub's per-replica commit listeners (after build)."""
        for replica in cluster.replicas:
            listeners = replica.commit_listeners
            for i, listener in enumerate(listeners):
                if getattr(listener, "__qualname__", "") == HUB_REPLY_SENDER:
                    listeners[i] = self.wrap(listener, "hub.reply_sender", "hub")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- reduction

    def span_counts(self) -> Counter[str]:
        """Calls per span name."""
        per_id = Counter(self.name_ids)
        return Counter({self.names[nid]: n for nid, n in per_id.items()})

    def self_times(self) -> tuple[dict[str, float], float]:
        """Per-layer self seconds, and the seconds root spans cover."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * n
        covered = 0.0
        for i in range(n):
            duration = ends[i] - starts[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += duration
            else:
                covered += duration
        by_layer = dict.fromkeys(LAYERS, 0.0)
        layer_of = [self.layer_of_name[nid] for nid in range(len(self.names))]
        name_ids = self.name_ids
        for i in range(n):
            by_layer[layer_of[name_ids[i]]] += (ends[i] - starts[i]) - child[i]
        return by_layer, covered

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            **meta,
            "names": self.names,
            "layers": self.layer_of_name,
            "spans": len(self.starts),
            "arrays": [
                ["name_id", self.name_ids.typecode],
                ["parent", self.parents.typecode],
                ["start", self.starts.typecode],
                ["end", self.ends.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
