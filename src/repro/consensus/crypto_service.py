"""Pluggable vote/QC cryptography.

The paper discusses two instantiations of HotStuff-style QCs (Section I
and III): pairing-based ``(t, n)`` threshold signatures (one authenticator
per QC, linear authenticator complexity) and "a group of n standard
signatures" (faster in practice, quadratic authenticators).  Both are
available here, plus a fast null scheme for large simulations:

* :class:`ThresholdCryptoService` — Shamir-based threshold scheme from
  :mod:`repro.crypto.threshold`; a QC carries one combined signature.
* :class:`MultisigCryptoService` — per-replica conventional signatures
  bundled with a signer bitmap (:mod:`repro.crypto.multisig`).
* :class:`NullCryptoService` — no math; shares are tagged tokens and a QC
  records its signer set.  Quorum counting and duplicate-vote rejection
  stay exact, making it safe for throughput simulations where the cost
  model (not the arithmetic) provides the timing.

Protocol code talks only to :class:`CryptoService` and
:class:`VoteAccumulator`, so switching schemes never touches a replica.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

from repro.common.errors import CryptoError, InvalidVote
from repro.crypto.keys import KeyRegistry
from repro.crypto.multisig import MultiSigAccumulator, MultiSignature
from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.consensus.qc import BlockSummary, Phase, QuorumCertificate, vote_payload

#: One vote for batch verification: (signer, phase, view, block, share).
VoteTuple = tuple[int, Phase, int, BlockSummary, Any]

QC_CACHE_SIZE = 256
"""Default LRU capacity of the QC verification cache.

A QC travels in several messages (COMMIT broadcast, justifies, catch-up
proofs); the hot set is the last few pipeline slots, so a small cache
captures nearly every repeat."""


class VoteAccumulator(ABC):
    """Collects vote shares for one (phase, view, block) until quorum."""

    @abstractmethod
    def add(self, signer: int, share: Any) -> bool:
        """Record a verified share; True once the quorum is reached."""

    @property
    @abstractmethod
    def complete(self) -> bool: ...

    @property
    @abstractmethod
    def count(self) -> int: ...

    @abstractmethod
    def finish(self) -> Any:
        """Produce the QC signature object; only valid once complete."""


class CryptoService(ABC):
    """Everything a replica needs to sign votes and validate QCs."""

    #: 'threshold', 'multisig' or 'null' — read by the cost model to decide
    #: whether QC verification is a pairing or n signature verifications.
    scheme: str

    def __init__(
        self, num_replicas: int, quorum: int, qc_cache_size: int = QC_CACHE_SIZE
    ) -> None:
        if not 1 <= quorum <= num_replicas:
            raise CryptoError("quorum must satisfy 1 <= quorum <= n")
        self.num_replicas = num_replicas
        self.quorum = quorum
        # LRU of successfully verified QCs, keyed by (payload, signature).
        # Only successes are cached, so a hit is always a proof.
        self._qc_cache: OrderedDict[tuple[bytes, Any], None] = OrderedDict()
        self._qc_cache_size = qc_cache_size
        self.qc_cache_hits = 0
        self.qc_cache_misses = 0
        self._metric_hits: Any | None = None
        self._metric_misses: Any | None = None

    @abstractmethod
    def sign_vote(self, signer: int, phase: Phase, view: int, block: BlockSummary) -> Any:
        """Produce ``signer``'s share over the vote payload."""

    @abstractmethod
    def verify_vote(self, signer: int, phase: Phase, view: int, block: BlockSummary, share: Any) -> None:
        """Raise :class:`InvalidVote` if the share does not verify."""

    def verify_votes(self, votes: Sequence[VoteTuple]) -> list[int]:
        """Batch-verify votes; indices (input order) that do not verify.

        Equivalent to :meth:`verify_vote` on each element; schemes with
        aggregate structure (threshold shares) override this with a
        genuinely amortised check.
        """
        bad: list[int] = []
        for index, (signer, phase, view, block, share) in enumerate(votes):
            try:
                self.verify_vote(signer, phase, view, block, share)
            except InvalidVote:
                bad.append(index)
        return bad

    @abstractmethod
    def accumulator(self, phase: Phase, view: int, block: BlockSummary) -> VoteAccumulator: ...

    @abstractmethod
    def _verify_qc(self, qc: QuorumCertificate) -> None:
        """Scheme-specific QC signature check (no cache, no genesis case)."""

    def verify_qc(self, qc: QuorumCertificate) -> None:
        """Raise :class:`CryptoError` if the QC's signature is invalid.

        Genesis QCs (view 0, ``signature is None``) always pass: they are
        part of the trusted setup.  Successful verifications land in an
        LRU cache keyed by ``(signed_payload, signature)``, so a QC
        carried in multiple messages is verified once.
        """
        if qc.view == 0 and qc.signature is None:
            return
        key = qc.verify_key
        if key in self._qc_cache:
            self._qc_cache.move_to_end(key)
            self.qc_cache_hits += 1
            if self._metric_hits is not None:
                self._metric_hits.inc()
            return
        self.qc_cache_misses += 1
        if self._metric_misses is not None:
            self._metric_misses.inc()
        self._verify_qc(qc)
        self._qc_cache[key] = None
        if len(self._qc_cache) > self._qc_cache_size:
            self._qc_cache.popitem(last=False)

    def verify_qcs(self, qcs: Sequence[QuorumCertificate]) -> list[int]:
        """Batch-validate QCs (cache-aware); indices that do not verify."""
        return [index for index, qc in enumerate(qcs) if not self.qc_is_valid(qc)]

    def qc_cached(self, qc: QuorumCertificate) -> bool:
        """Non-mutating probe: would :meth:`verify_qc` be a cache hit?"""
        if qc.view == 0 and qc.signature is None:
            return True
        return qc.verify_key in self._qc_cache

    def bind_metrics(self, registry: Any) -> None:
        """Expose QC-cache hit/miss counters on a metrics registry."""
        self._metric_hits = registry.counter(
            "crypto_qc_cache_hits_total", "QC verifications answered from the LRU cache"
        )
        self._metric_misses = registry.counter(
            "crypto_qc_cache_misses_total", "QC verifications that ran the full check"
        )
        self._metric_hits.inc(self.qc_cache_hits)
        self._metric_misses.inc(self.qc_cache_misses)

    def qc_is_valid(self, qc: QuorumCertificate) -> bool:
        try:
            self.verify_qc(qc)
        except CryptoError:
            return False
        return True

    def make_qc(self, phase: Phase, view: int, block: BlockSummary, accumulator: VoteAccumulator) -> QuorumCertificate:
        """Finish an accumulator into a :class:`QuorumCertificate`."""
        return QuorumCertificate(phase=phase, view=view, block=block, signature=accumulator.finish())


# --------------------------------------------------------------------------
# Threshold-signature instantiation


class _ThresholdAccumulator(VoteAccumulator):
    def __init__(self, service: "ThresholdCryptoService", payload: bytes) -> None:
        self._service = service
        self._payload = payload
        self._shares: dict[int, PartialSignature] = {}

    def add(self, signer: int, share: Any) -> bool:
        if not isinstance(share, PartialSignature):
            raise InvalidVote(f"expected a PartialSignature, got {type(share).__name__}")
        self._shares.setdefault(signer, share)
        return self.complete

    @property
    def complete(self) -> bool:
        return len(self._shares) >= self._service.quorum

    @property
    def count(self) -> int:
        return len(self._shares)

    def finish(self) -> ThresholdSignature:
        return self._service.registry.combine(self._payload, list(self._shares.values()))


class ThresholdCryptoService(CryptoService):
    """QCs are combined ``(n - f, n)`` threshold signatures."""

    scheme = "threshold"

    def __init__(self, registry: KeyRegistry) -> None:
        super().__init__(registry.num_replicas, registry.threshold)
        self.registry = registry

    def sign_vote(self, signer: int, phase: Phase, view: int, block: BlockSummary) -> PartialSignature:
        return self.registry.partial_sign(signer, vote_payload(phase, view, block))  # type: ignore[arg-type]

    def verify_vote(self, signer: int, phase: Phase, view: int, block: BlockSummary, share: Any) -> None:
        if not isinstance(share, PartialSignature):
            raise InvalidVote(f"expected a PartialSignature, got {type(share).__name__}")
        if share.signer != signer:
            raise InvalidVote(f"share signer {share.signer} does not match sender {signer}")
        try:
            self.registry.verify_partial(vote_payload(phase, view, block), share)
        except CryptoError as exc:
            raise InvalidVote(str(exc)) from exc

    def verify_votes(self, votes: Sequence[VoteTuple]) -> list[int]:
        """Aggregate-then-verify: group shares by payload, batch-check.

        Shares over the same payload verify with one blinded aggregate
        equation (bisecting on failure), so a quorum of prepare votes
        costs one group check instead of ``n - f``.
        """
        bad: set[int] = set()
        groups: dict[bytes, list[tuple[int, PartialSignature]]] = {}
        for index, (signer, phase, view, block, share) in enumerate(votes):
            if not isinstance(share, PartialSignature) or share.signer != signer:
                bad.add(index)
                continue
            payload = vote_payload(phase, view, block)
            groups.setdefault(payload, []).append((index, share))
        for payload, entries in groups.items():
            shares = [share for _, share in entries]
            for local in self.registry.verify_partials_batch(payload, shares):
                bad.add(entries[local][0])
        return sorted(bad)

    def accumulator(self, phase: Phase, view: int, block: BlockSummary) -> VoteAccumulator:
        return _ThresholdAccumulator(self, vote_payload(phase, view, block))

    def _verify_qc(self, qc: QuorumCertificate) -> None:
        if not isinstance(qc.signature, ThresholdSignature):
            raise CryptoError(f"expected ThresholdSignature, got {type(qc.signature).__name__}")
        self.registry.verify_threshold(qc.signed_payload, qc.signature)


# --------------------------------------------------------------------------
# Multi-signature (bundle of conventional signatures) instantiation


class _MultisigAccumulatorAdapter(VoteAccumulator):
    def __init__(self, inner: MultiSigAccumulator) -> None:
        self._inner = inner

    def add(self, signer: int, share: Any) -> bool:
        return self._inner.add(signer, share)

    @property
    def complete(self) -> bool:
        return self._inner.complete

    @property
    def count(self) -> int:
        return self._inner.count

    def finish(self) -> MultiSignature:
        return self._inner.finish()


class MultisigCryptoService(CryptoService):
    """QCs are bundles of ``n - f`` conventional signatures + bitmap."""

    scheme = "multisig"

    def __init__(self, registry: KeyRegistry) -> None:
        super().__init__(registry.num_replicas, registry.threshold)
        self.registry = registry

    def sign_vote(self, signer: int, phase: Phase, view: int, block: BlockSummary) -> Any:
        return self.registry.sign(signer, vote_payload(phase, view, block))  # type: ignore[arg-type]

    def verify_vote(self, signer: int, phase: Phase, view: int, block: BlockSummary, share: Any) -> None:
        try:
            self.registry.verify(signer, vote_payload(phase, view, block), share)  # type: ignore[arg-type]
        except CryptoError as exc:
            raise InvalidVote(str(exc)) from exc

    def verify_votes(self, votes: Sequence[VoteTuple]) -> list[int]:
        """Batch the registry round-trips for a set of conventional votes."""
        items = [
            (signer, vote_payload(phase, view, block), share)
            for signer, phase, view, block, share in votes
        ]
        return self.registry.verify_batch(items)  # type: ignore[arg-type]

    def accumulator(self, phase: Phase, view: int, block: BlockSummary) -> VoteAccumulator:
        return _MultisigAccumulatorAdapter(MultiSigAccumulator(self.num_replicas, self.quorum))

    def _verify_qc(self, qc: QuorumCertificate) -> None:
        if not isinstance(qc.signature, MultiSignature):
            raise CryptoError(f"expected MultiSignature, got {type(qc.signature).__name__}")
        if len(qc.signature.signers) < self.quorum:
            raise CryptoError("multi-signature carries fewer than quorum signers")
        payload = qc.signed_payload
        bad = self.registry.verify_batch(
            [(signer, payload, signature) for signer, signature in qc.signature.signatures]
        )
        if bad:
            signer = qc.signature.signatures[bad[0]][0]
            raise CryptoError(f"constituent signature from replica {signer} is invalid")


# --------------------------------------------------------------------------
# Null instantiation (fast simulation)


@dataclass(frozen=True)
class NullShare:
    """A vote token: signer + payload digest, no cryptography."""

    signer: int
    tag: bytes

    @property
    def wire_size(self) -> int:
        return 48


@dataclass(frozen=True)
class NullQuorumToken:
    """A QC 'signature' recording exactly who voted."""

    signers: frozenset[int]
    tag: bytes

    @property
    def wire_size(self) -> int:
        return 32


class _NullAccumulator(VoteAccumulator):
    def __init__(self, quorum: int, tag: bytes) -> None:
        self._quorum = quorum
        self._tag = tag
        self._signers: set[int] = set()

    def add(self, signer: int, share: Any) -> bool:
        self._signers.add(signer)
        return self.complete

    @property
    def complete(self) -> bool:
        return len(self._signers) >= self._quorum

    @property
    def count(self) -> int:
        return len(self._signers)

    def finish(self) -> NullQuorumToken:
        if not self.complete:
            raise CryptoError("quorum not reached")
        return NullQuorumToken(signers=frozenset(self._signers), tag=self._tag)


class NullCryptoService(CryptoService):
    """Structure-only crypto: exact quorum counting, zero arithmetic.

    Vote tags still bind (phase, view, block digest), so an accumulator
    can never mix votes for different values; only unforgeability is
    dropped.  Use for throughput simulations, never for adversarial tests.
    """

    scheme = "null"

    def sign_vote(self, signer: int, phase: Phase, view: int, block: BlockSummary) -> NullShare:
        return NullShare(signer=signer, tag=self._tag(phase, view, block))

    def verify_vote(self, signer: int, phase: Phase, view: int, block: BlockSummary, share: Any) -> None:
        if not isinstance(share, NullShare):
            raise InvalidVote("expected a NullShare")
        if not 0 <= signer < self.num_replicas:
            raise InvalidVote(f"signer {signer} is not a voting replica")
        if share.signer != signer or share.tag != self._tag(phase, view, block):
            raise InvalidVote("null share does not match vote")

    def accumulator(self, phase: Phase, view: int, block: BlockSummary) -> VoteAccumulator:
        return _NullAccumulator(self.quorum, self._tag(phase, view, block))

    def _verify_qc(self, qc: QuorumCertificate) -> None:
        if not isinstance(qc.signature, NullQuorumToken):
            raise CryptoError("expected NullQuorumToken")
        if len(qc.signature.signers) < self.quorum:
            raise CryptoError("token has fewer than quorum signers")
        rogue = [s for s in qc.signature.signers if not 0 <= s < self.num_replicas]
        if rogue:
            raise CryptoError(f"token signed by non-members {sorted(rogue)}")
        if qc.signature.tag != self._tag(qc.phase, qc.view, qc.block):
            raise CryptoError("token tag does not match QC contents")

    @staticmethod
    @lru_cache(maxsize=4096)
    def _tag(phase: Phase, view: int, block: BlockSummary) -> bytes:
        # Pure function of its arguments; sign/verify/accumulate for one
        # vote round all recompute the same tag, so memoize it.  A
        # BlockSummary is a frozen dataclass, hence hashable.
        from repro.crypto.hashing import hash_bytes

        return hash_bytes(vote_payload(phase, view, block))
