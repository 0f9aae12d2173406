"""Wire envelopes and message sizing.

An :class:`Envelope` is what travels on a transport: source, destination,
an opaque payload object, and the payload's wire size in bytes.  The DES
does not serialise payloads (Python objects pass by reference for speed);
instead a :class:`WireSizer` computes the byte size each payload *would*
have on the wire, which feeds the bandwidth model and the communication-
complexity accounting for Table I.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.log import get_logger

HEADER_SIZE = 48
"""Fixed per-message overhead: type tag, view, sender, lengths, MAC."""

log = get_logger("repro.network.sizer")


class Envelope:
    """One message in flight between two endpoints."""

    __slots__ = ("src", "dst", "payload", "size", "sent_at")

    def __init__(
        self,
        src: int,
        dst: int,
        payload: Any,
        size: int,
        sent_at: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.sent_at = sent_at

    def __repr__(self) -> str:
        kind = type(self.payload).__name__
        return f"Envelope({self.src}->{self.dst}, {kind}, {self.size}B)"


class WireSizer:
    """Computes wire sizes for payload types.

    Register a sizing function per payload type; unknown types fall back
    to a fixed default.  Consensus messages register themselves in
    :mod:`repro.consensus.messages`.

    Sizing is memoized per payload *object*: messages are immutable, and
    the dominant caller is a broadcast that sizes the same payload once
    per destination, so a single-entry identity memo turns ``n - 1`` of
    every ``n`` sizing calls into one attribute compare.  The memo keeps
    a strong reference to the last payload, so an id() can never be
    recycled while its entry is live.

    Default-size fallbacks are counted (and warned about once per type):
    an unregistered payload type silently priced at 256 B would quietly
    skew the bandwidth model, so sizing gaps must be visible.
    """

    def __init__(self, default_size: int = 256) -> None:
        self._default = default_size
        self._sizers: dict[type, Callable[[Any], int]] = {}
        self._last_payload: Any = None
        self._last_size: int = 0
        #: Total payloads priced at the default because no sizer matched.
        self.fallback_count = 0
        #: Per-type fallback counts (type name -> count).
        self.fallback_types: dict[str, int] = {}
        self._fallback_counter: Any = None

    def register(self, payload_type: type, sizer: Callable[[Any], int]) -> None:
        self._sizers[payload_type] = sizer

    def bind_fallback_counter(self, counter: Any) -> None:
        """Mirror fallback counts into a metrics counter (``inc()`` duck)."""
        self._fallback_counter = counter

    def size_of(self, payload: Any) -> int:
        """Wire size of ``payload`` in bytes, including the header.

        Payloads may also expose their own ``wire_size`` attribute or
        method, which takes precedence over registered sizers.
        """
        if payload is self._last_payload:
            return self._last_size
        wire_size = getattr(payload, "wire_size", None)
        if wire_size is not None:
            value = wire_size() if callable(wire_size) else wire_size
            size = HEADER_SIZE + int(value)
        else:
            sizer = self._sizers.get(type(payload))
            if sizer is not None:
                size = HEADER_SIZE + sizer(payload)
            else:
                size = HEADER_SIZE + self._default
                self._note_fallback(payload)
        self._last_payload = payload
        self._last_size = size
        return size

    def _note_fallback(self, payload: Any) -> None:
        self.fallback_count += 1
        name = type(payload).__name__
        seen = self.fallback_types.get(name, 0)
        self.fallback_types[name] = seen + 1
        if self._fallback_counter is not None:
            self._fallback_counter.inc()
        if seen == 0:
            log.warning(
                "no wire sizer registered for %s; using the %d B default "
                "(bandwidth model may be skewed)",
                name,
                self._default,
            )
