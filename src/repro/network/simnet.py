"""The discrete-event simulated network.

Models the paper's testbed: every ordered pair of distinct machines is a
link with propagation latency (40 ms injected in the evaluation), limited
bandwidth (200 Mbps) producing serialisation delay and queueing, optional
jitter and loss, and administrative controls (cut links, partition sets of
nodes, heal).  Messages to self deliver after a negligible loopback delay.

Bandwidth is modelled per *egress* interface: a machine with a 200 Mbps
NIC serialises all outgoing messages through one queue, so a leader
broadcasting to ``n-1`` replicas pays ``(n-1) * size * 8 / bw`` of
serialisation — the effect that makes HotStuff-style leaders bandwidth
bound as ``n`` grows, visible in Figure 10g.

The network also keeps running totals of messages and bytes per (src, dst)
pair, which the complexity benchmarks (Table I) read back.

``send`` is the hottest function in the simulator after the event loop
itself, so its state is collapsed: each directed link's flags, shaper
horizon and FIFO floor live in one :class:`LinkState` record (one dict
lookup instead of four), and the network profile's constants are hoisted
to attributes at construction time.

Deliveries are batched per link: messages arriving on the same directed
link at the same instant share one scheduled heap event that drains a
list, instead of one heap push/pop each — a leader broadcast or a hub
burst at one timestamp costs a single sift.  The drain is posted as a
handle-free heap entry (:meth:`~repro.des.simulator.Simulator.post`):
deliveries are never cancelled.  Each drained envelope still
goes through the full per-delivery path (metrics, taps, handler) and is
credited individually to the simulator's event counter, so accounting is
unchanged.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.common.config import NetworkProfile
from repro.common.errors import UnknownPeer
from repro.des.simulator import Simulator
from repro.network.message import Envelope, WireSizer
from repro.network.stats import TrafficStats
from repro.network.transport import DeliveryHandler, Transport

__all__ = ["LOOPBACK_DELAY", "LinkState", "SimNetwork", "TrafficStats", "shard_net_rng"]

LOOPBACK_DELAY = 20e-6


def shard_net_rng(seed: int, shard_id: int) -> random.Random:
    """Deterministic per-group network jitter RNG for sharded runs.

    Giving every consensus group its own stream (instead of interleaving
    draws on the shared simulator RNG) makes each group's event sequence
    independent of how the groups are scheduled — the property that lets
    a process-parallel sharded run reproduce the serial run byte for
    byte.  The derivation is pure arithmetic on ``(seed, shard_id)`` so
    serial and parallel engines agree without sharing state.
    """
    return random.Random(zlib.crc32(b"shard-net:%d:%d" % (seed, shard_id)))


@dataclass(slots=True)
class LinkState:
    """Mutable state of one directed link.

    Besides the administrative flags, the record carries the two
    per-link scheduling horizons the bandwidth model updates on every
    send: when the link's shaper frees up and the FIFO arrival floor.
    """

    up: bool = True
    extra_latency: float = 0.0
    #: Absolute time the per-link shaper finishes its current backlog.
    free_at: float = 0.0
    #: Latest arrival handed to this link (TCP-like FIFO delivery floor).
    last_arrival: float = 0.0
    #: Open delivery batch: envelopes sharing one scheduled drain event.
    batch: list[Envelope] | None = field(default=None, repr=False)
    #: Arrival instant of the open batch (valid while ``batch`` is set).
    batch_at: float = -1.0


class SimNetwork(Transport):
    """DES transport implementing the :class:`Transport` contract."""

    def __init__(
        self,
        sim: Simulator,
        profile: NetworkProfile,
        sizer: WireSizer | None = None,
        metrics: Any | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self._sim = sim
        self._profile = profile
        self._sizer = sizer or WireSizer()
        #: Jitter/loss RNG.  Defaults to the simulator-wide stream; a
        #: sharded run passes a per-group stream (see
        #: :func:`shard_net_rng`) so groups decouple deterministically.
        self._rng = rng if rng is not None else sim.rng
        #: Optional repro.obs.metrics.NetworkMetrics duck — send/receive/
        #: drop counters per endpoint, independent of TrafficStats (which
        #: the complexity benchmarks reset around warm-up).
        self._metrics = metrics
        self._handlers: dict[int, DeliveryHandler] = {}
        self._links: dict[tuple[int, int], LinkState] = {}
        self._nic_free_at: dict[int, float] = {}
        self._unshaped: set[int] = set()
        self._taps: list[Callable[[Envelope], None]] = []
        self._stats = TrafficStats()
        self._recording = True
        # Hoisted profile constants: attribute loads beat dataclass
        # property/method calls on the per-send hot path.
        self._latency = profile.one_way_latency
        self._jitter = profile.jitter
        self._loss_rate = profile.loss_rate
        self._nic_bps = profile.nic_bps
        self._bandwidth_bps = profile.bandwidth_bps

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    @property
    def profile(self) -> NetworkProfile:
        return self._profile

    def reset_stats(self) -> None:
        self._stats = TrafficStats()

    def set_recording(self, on: bool) -> None:
        """Pause/resume traffic accounting (warm-up exclusion)."""
        self._recording = on

    def register(self, endpoint: int, handler: DeliveryHandler) -> None:
        self._handlers[endpoint] = handler

    def set_unshaped(self, endpoint: int) -> None:
        """Exempt an endpoint's egress from NIC/link shaping.

        Used for the client hub, which stands for a large population of
        client machines and therefore has no single NIC of its own.
        """
        self._unshaped.add(endpoint)

    def link(self, src: int, dst: int) -> LinkState:
        """Get (creating on demand) the state of the directed link src->dst."""
        key = (src, dst)
        state = self._links.get(key)
        if state is None:
            state = LinkState()
            self._links[key] = state
        return state

    def cut(self, a: int, b: int) -> None:
        """Cut both directions between ``a`` and ``b``."""
        self.link(a, b).up = False
        self.link(b, a).up = False

    def heal(self, a: int, b: int) -> None:
        """Restore both directions between ``a`` and ``b``."""
        self.link(a, b).up = True
        self.link(b, a).up = True

    def partition(self, group_a: list[int], group_b: list[int]) -> None:
        """Cut every link crossing between the two groups."""
        for a in group_a:
            for b in group_b:
                self.cut(a, b)

    def heal_all(self) -> None:
        for state in self._links.values():
            state.up = True

    def send(self, src: int, dst: int, payload: Any) -> None:
        if dst not in self._handlers:
            raise UnknownPeer(f"no endpoint registered for id {dst}")
        sim = self._sim
        now = sim.now
        size = self._sizer.size_of(payload)
        if self._recording:
            self._stats.record(src, dst, size)
        if self._metrics is not None:
            self._metrics.sent(src, size)
        key = (src, dst)
        state = self._links.get(key)
        if state is None:
            state = LinkState()
            self._links[key] = state
        if src == dst:
            envelope = Envelope(src, dst, payload, size, now)
            arrival = now + LOOPBACK_DELAY
            batch = state.batch
            if batch is not None and state.batch_at == arrival:
                batch.append(envelope)
                return
            batch = [envelope]
            state.batch = batch
            state.batch_at = arrival
            sim.post(arrival, partial(self._drain, state, batch))
            return
        if not state.up:
            if self._recording:
                self._stats.dropped += 1
            if self._metrics is not None:
                self._metrics.dropped(src)
            return
        rng = self._rng
        if self._loss_rate > 0.0 and rng.random() < self._loss_rate:
            if self._recording:
                self._stats.dropped += 1
            if self._metrics is not None:
                self._metrics.dropped(src)
            return
        if src in self._unshaped:
            link_done = now
        else:
            # Stage 1: the sender's NIC, shared across all destinations.
            nic_free = self._nic_free_at.get(src, 0.0)
            nic_start = nic_free if nic_free > now else now
            nic_done = nic_start + size * 8.0 / self._nic_bps
            self._nic_free_at[src] = nic_done
            # Stage 2: the per-link shaper (the testbed's 200 Mbps cap).
            link_start = state.free_at if state.free_at > nic_done else nic_done
            link_done = link_start + size * 8.0 / self._bandwidth_bps
            state.free_at = link_done
        latency = self._latency + state.extra_latency
        if self._jitter > 0.0:
            # Bit-identical to rng.uniform(0.0, jitter), minus its frame.
            latency += self._jitter * rng.random()
        arrival = link_done + latency
        # Links are TCP-like: delivery is FIFO per (src, dst) even when
        # jitter would let a small message overtake a large one's tail.
        # Clamping to the floor (instead of nudging past it) lets a burst
        # landing at one instant share a single drain event below.
        if arrival < state.last_arrival:
            arrival = state.last_arrival
        state.last_arrival = arrival
        envelope = Envelope(src, dst, payload, size, now)
        batch = state.batch
        if batch is not None and state.batch_at == arrival:
            # Same link, same arrival instant: ride the already-scheduled
            # drain.  FIFO holds — the batch drains in append order.
            batch.append(envelope)
            return
        batch = [envelope]
        state.batch = batch
        state.batch_at = arrival
        sim.post(now + (arrival - now), partial(self._drain, state, batch))

    def add_tap(self, tap: "Callable[[Envelope], None]") -> None:
        """Observe every delivered envelope (complexity accounting)."""
        self._taps.append(tap)

    def _drain(self, state: LinkState, batch: list[Envelope]) -> None:
        if state.batch is batch:
            state.batch = None
        if len(batch) > 1:
            # One heap event stood in for the whole batch; keep
            # events_processed counting deliveries individually.
            self._sim.credit_events(len(batch) - 1)
        metrics = self._metrics
        taps = self._taps
        handlers = self._handlers
        for envelope in batch:
            if metrics is not None:
                metrics.received(envelope.dst, envelope.size)
            for tap in taps:
                tap(envelope)
            handler = handlers.get(envelope.dst)
            if handler is not None:
                handler(envelope.src, envelope.payload)
