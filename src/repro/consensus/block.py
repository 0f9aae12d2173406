"""Blocks: the unit of agreement (paper Sections III-A and V-A).

A block is ``b = [pl, pview, view, height, op, justify]``:

* ``pl`` — hash digest of the parent block (``None`` for virtual blocks
  and for the genesis block);
* ``pview`` — the view number of the parent block (a Marlin addition to
  the HotStuff syntax);
* ``view`` / ``height`` — where the block sits in the view/height grid;
* ``op`` — a batch of client operations;
* ``justify`` — a QC for the parent block (digest-linked here to keep
  block identity well-founded; the full QC travels in the message).

**Virtual blocks** (Section V-A) have ``pl = None``; they are proposed in
view-change Case V1 against a parent that may not exist yet, and acquire a
real parent when a ``prepareQC`` ``vc`` for that parent surfaces.

A block's identity is :attr:`Block.digest`, the SHA-256 of its canonical
encoding.  It is computed by a fused writer that packs each operation
record in one ``struct`` call, and is byte-identical to ``digest_of`` over
the block's field list (pinned against that reference in the tests).

**Shadow blocks** (Section IV-D) are two blocks proposed together sharing
one operation payload; sharing is expressed at the message layer (the
second proposal's wire size omits the payload) while each block object
still owns its ``operations`` tuple, so digests stay self-contained.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

from repro.common.encoding import encode_into
from repro.common.errors import InvalidBlock
from repro.crypto.hashing import Digest, digest_of, hash_bytes, short_hex

OPERATION_OVERHEAD = 16
"""Wire overhead per operation: client id, sequence number, length."""

#: Canonical-encoding tags (:mod:`repro.common.encoding`) of a list, an
#: int64 and a byte string.
_T_LIST, _T_INT, _T_BYTES = b"lib"

#: A block is encoded as a list of seven fields; this is its list header.
_BLOCK_HEADER = b"l\x00\x00\x00\x07"
_list_header = struct.Struct(">BI").pack


@lru_cache(maxsize=1024)
def _op_record(payload_len: int) -> Callable[..., bytes]:
    """Writer of one canonical ``[client_id, sequence, payload, weight]``
    record whose payload is ``payload_len`` bytes: the list header, three
    tagged int64s and the tagged payload in one ``struct`` call.  Cached
    per length: a workload's payloads come in a handful of sizes."""
    return struct.Struct(f">BIBqBqBI{payload_len}sBq").pack


class Operation:
    """One client operation: an opaque payload plus its provenance.

    ``weight`` lets a single object stand for ``weight`` identical
    back-to-back operations from one client — a simulation-scaling device
    (wire size, execution cost and throughput all scale by it) that keeps
    object counts manageable at paper-scale loads.  Real deployments use
    ``weight == 1``.

    Hand-written rather than a frozen dataclass: the workload generator
    creates one Operation per simulated request, and a frozen dataclass
    pays an ``object.__setattr__`` per field on every construction.  The
    wire size and dedup key are precomputed here because they are read on
    every hot path (batching, sizing, reply matching).
    """

    __slots__ = ("client_id", "sequence", "payload", "weight", "wire_size", "_key")

    def __init__(
        self,
        client_id: int,
        sequence: int,
        payload: bytes = b"",
        weight: int = 1,
    ) -> None:
        if weight < 1:
            raise InvalidBlock(f"operation weight must be >= 1, got {weight}")
        self.client_id = client_id
        self.sequence = sequence
        self.payload = payload
        self.weight = weight
        self.wire_size = (OPERATION_OVERHEAD + len(payload)) * weight
        self._key = (client_id, sequence)

    def key(self) -> tuple[int, int]:
        """Deduplication key: (client, sequence)."""
        return self._key

    def encodable(self) -> list:
        return [self.client_id, self.sequence, self.payload, self.weight]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return (
            self._key == other._key
            and self.payload == other.payload
            and self.weight == other.weight
        )

    def __hash__(self) -> int:
        return hash((self.client_id, self.sequence, self.payload, self.weight))

    def __repr__(self) -> str:
        return (
            f"Operation(client_id={self.client_id}, sequence={self.sequence}, "
            f"payload={self.payload!r}, weight={self.weight})"
        )


@dataclass(frozen=True)
class Block:
    """An immutable block; identity is the digest of its canonical form."""

    parent_link: Digest | None
    parent_view: int
    view: int
    height: int
    operations: tuple[Operation, ...]
    justify_digest: Digest
    proposer: int = 0

    def __post_init__(self) -> None:
        if self.view < 0 or self.height < 0 or self.parent_view < 0:
            raise InvalidBlock("view/height fields cannot be negative")
        if self.parent_view > self.view:
            raise InvalidBlock(
                f"parent view {self.parent_view} exceeds block view {self.view}"
            )
        if self.parent_link is not None and len(self.parent_link) != 32:
            raise InvalidBlock("parent link must be a 32-byte digest")

    @property
    def is_virtual(self) -> bool:
        """True for the view-change virtual blocks of Section V-A."""
        return self.parent_link is None and self.height > 0

    @property
    def is_genesis(self) -> bool:
        return self.height == 0

    @cached_property
    def digest(self) -> Digest:
        """SHA-256 of ``encode([pl, pview, view, height, ops, justify,
        proposer])``, each op encoded as ``[client_id, sequence, payload,
        weight]``.

        Byte-identical to :func:`~repro.crypto.hashing.digest_of` over
        that list, but each operation record is one precompiled ``struct``
        pack into a single buffer instead of a walk of the generic
        encoder: a paper-scale block holds thousands of operations.  If a
        record cannot be packed exactly (a ``bool`` or non-``int`` field,
        a non-``bytes`` payload, an int outside int64), the whole block
        takes the canonical encoder, which encodes it or raises
        ``EncodingError``.
        """
        ops = self.operations
        buf = bytearray(_BLOCK_HEADER)
        for value in (self.parent_link, self.parent_view, self.view, self.height):
            encode_into(value, buf)
        buf += _list_header(_T_LIST, len(ops))
        length = -1
        for op in ops:
            client_id = op.client_id
            sequence = op.sequence
            payload = op.payload
            weight = op.weight
            if not (
                type(client_id) is int
                and type(sequence) is int
                and type(weight) is int
                and type(payload) is bytes
            ):
                break
            if len(payload) != length:
                length = len(payload)
                record = _op_record(length)
            try:
                buf += record(
                    _T_LIST, 4, _T_INT, client_id, _T_INT, sequence,
                    _T_BYTES, length, payload, _T_INT, weight,
                )
            except struct.error:  # an int outside int64
                break
        else:
            encode_into(self.justify_digest, buf)
            encode_into(self.proposer, buf)
            return hash_bytes(buf)
        return digest_of(
            [
                self.parent_link,
                self.parent_view,
                self.view,
                self.height,
                [[op.client_id, op.sequence, op.payload, op.weight] for op in ops],
                self.justify_digest,
                self.proposer,
            ]
        )

    @cached_property
    def op_keys(self) -> frozenset[tuple[int, int]]:
        """The ``(client, sequence)`` keys of the batch.

        Built once per block: DES replicas share ``Block`` objects, so the
        ledger and the safety oracle of every replica reuse one set and
        can judge a whole batch with C-level set operations.  Smaller than
        ``len(operations)`` iff the batch repeats a key.
        """
        return frozenset([op._key for op in self.operations])

    @cached_property
    def num_ops(self) -> int:
        """Logical operation count (weighted)."""
        return sum(op.weight for op in self.operations)

    @cached_property
    def payload_size(self) -> int:
        return sum(op.wire_size for op in self.operations)

    @property
    def header_size(self) -> int:
        """Wire size of everything except the operation payload."""
        return 32 + 8 + 8 + 8 + 32 + 8

    @cached_property
    def wire_size(self) -> int:
        return self.header_size + self.payload_size

    def __repr__(self) -> str:
        kind = "virtual" if self.is_virtual else "block"
        return (
            f"<{kind} v={self.view} h={self.height} "
            f"ops={len(self.operations)} {short_hex(self.digest)}>"
        )


_GENESIS_JUSTIFY = digest_of(["genesis-justify"])


def genesis_block() -> Block:
    """The common root of every replica's tree (view 0, height 0)."""
    return Block(
        parent_link=None,
        parent_view=0,
        view=0,
        height=0,
        operations=(),
        justify_digest=_GENESIS_JUSTIFY,
        proposer=0,
    )


def make_child(
    parent: "Block",
    view: int,
    operations: tuple[Operation, ...],
    justify_digest: Digest,
    proposer: int = 0,
) -> Block:
    """Convenience constructor for a normal block extending ``parent``."""
    return Block(
        parent_link=parent.digest,
        parent_view=parent.view,
        view=view,
        height=parent.height + 1,
        operations=operations,
        justify_digest=justify_digest,
        proposer=proposer,
    )


@dataclass
class BatchPool:
    """A mempool of pending operations, drained into block batches.

    ``max_batch`` counts *weighted* operations.  Committed operations are
    pruned from the pending queue (they may sit in several replicas'
    pools under leader rotation) but stay in the dedup set so a later
    leader cannot re-admit them.
    """

    max_batch: int = 400
    _pending: list[Operation] = field(default_factory=list)
    _seen: set[tuple[int, int]] = field(default_factory=set)
    _staged: tuple[Operation, ...] | None = None
    staged_epoch: int = 0

    def add(self, op: Operation) -> bool:
        """Queue an operation; duplicate (client, seq) pairs are dropped."""
        key = op._key
        seen = self._seen
        if key in seen:
            return False
        seen.add(key)
        self._pending.append(op)
        return True

    def add_many(self, ops) -> bool:
        """Bulk :meth:`add`; True if any operation was admitted.

        One call per client batch instead of one per operation — the DES
        workload generator delivers hundreds of operations per message.
        """
        seen = self._seen
        pending = self._pending
        admitted = False
        for op in ops:
            key = op._key
            if key in seen:
                continue
            seen.add(key)
            pending.append(op)
            admitted = True
        return admitted

    def next_batch(self) -> tuple[Operation, ...]:
        """Remove and return up to ``max_batch`` weighted operations (FIFO).

        Always returns at least one operation when any is pending, even if
        its weight alone exceeds the cap.
        """
        batch: list[Operation] = []
        total = 0
        for op in self._pending:
            if batch and total + op.weight > self.max_batch:
                break
            batch.append(op)
            total += op.weight
        del self._pending[: len(batch)]
        return tuple(batch)

    def requeue(self, ops: tuple[Operation, ...]) -> None:
        """Put operations back at the front (e.g. proposal abandoned)."""
        self._pending[:0] = list(ops)

    def stage(self) -> tuple[Operation, ...]:
        """Pre-assemble the next batch without committing to it.

        A pipelining leader stages the batch for its *next* proposal while
        the current QC is still forming.  The staged operations leave the
        pending queue; :meth:`take_staged` hands them out and
        :meth:`unstage` puts them back.  Re-staging returns the existing
        staged batch.
        """
        if self._staged is None:
            batch = self.next_batch()
            if not batch:
                return ()
            self._staged = batch
        return self._staged

    def take_staged(self) -> tuple[Operation, ...]:
        """Consume the staged batch (empty tuple if nothing staged)."""
        staged = self._staged or ()
        self._staged = None
        return staged

    def unstage(self) -> None:
        """Abandon the staged batch, returning its operations to the front."""
        if self._staged is not None:
            self.requeue(self._staged)
            self._staged = None

    @property
    def staged_weight(self) -> int:
        """Weighted size of the staged batch (0 when nothing staged)."""
        return sum(op.weight for op in self._staged) if self._staged else 0

    def forget(self, block: Block) -> None:
        """Prune ``block``'s committed operations from the pending queue.

        Reads the block's shared :attr:`Block.op_keys` set: DES replicas
        commit the same ``Block`` object, so no replica builds its own.
        """
        keys = block.op_keys
        if not keys:
            return
        if self._pending:
            self._pending = [op for op in self._pending if op._key not in keys]
        if self._staged is not None and any(op._key in keys for op in self._staged):
            # A speculative batch containing now-committed operations is
            # stale; drop those ops and invalidate any block built on it.
            self._staged = tuple(op for op in self._staged if op._key not in keys)
            self.staged_epoch += 1

    @property
    def pending_ops(self) -> int:
        """Weighted count of queued operations."""
        return sum(op.weight for op in self._pending)

    def __len__(self) -> int:
        return len(self._pending)
