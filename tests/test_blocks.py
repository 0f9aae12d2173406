"""Blocks, operations, batching."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidBlock
from repro.consensus.block import (
    BatchPool,
    Block,
    Operation,
    genesis_block,
    make_child,
)
from repro.crypto.hashing import digest_of


def op(seq: int, weight: int = 1, client: int = 1) -> Operation:
    return Operation(client_id=client, sequence=seq, payload=b"pay", weight=weight)


def committed(*ops: Operation) -> Block:
    """A block carrying ``ops``, as a replica hands it to ``forget``."""
    return make_child(genesis_block(), 1, ops, digest_of(["qc"]))


class TestOperation:
    def test_key(self):
        assert op(5, client=2).key() == (2, 5)

    def test_weighted_wire_size(self):
        single = op(0).wire_size
        assert op(0, weight=10).wire_size == 10 * single

    def test_weight_must_be_positive(self):
        with pytest.raises(InvalidBlock):
            Operation(client_id=0, sequence=0, weight=0)


class TestBlock:
    def test_genesis(self):
        g = genesis_block()
        assert g.is_genesis and not g.is_virtual
        assert g.height == 0 and g.view == 0

    def test_genesis_digest_stable(self):
        assert genesis_block().digest == genesis_block().digest

    def test_make_child(self):
        g = genesis_block()
        child = make_child(g, view=1, operations=(op(0),), justify_digest=digest_of("qc"))
        assert child.parent_link == g.digest
        assert child.height == 1
        assert child.parent_view == 0

    def test_digest_covers_all_fields(self):
        g = genesis_block()
        base = make_child(g, 1, (op(0),), digest_of("qc"))
        variants = [
            make_child(g, 2, (op(0),), digest_of("qc")),
            make_child(g, 1, (op(1),), digest_of("qc")),
            make_child(g, 1, (op(0),), digest_of("other")),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == 4

    def test_virtual_block(self):
        block = Block(
            parent_link=None,
            parent_view=1,
            view=2,
            height=3,
            operations=(),
            justify_digest=digest_of("qc"),
        )
        assert block.is_virtual and not block.is_genesis

    def test_parent_view_cannot_exceed_view(self):
        with pytest.raises(InvalidBlock):
            Block(
                parent_link=None,
                parent_view=5,
                view=2,
                height=3,
                operations=(),
                justify_digest=digest_of("qc"),
            )

    def test_bad_parent_link_length(self):
        with pytest.raises(InvalidBlock):
            Block(
                parent_link=b"short",
                parent_view=0,
                view=1,
                height=1,
                operations=(),
                justify_digest=digest_of("qc"),
            )

    def test_num_ops_weighted(self):
        g = genesis_block()
        block = make_child(g, 1, (op(0, weight=5), op(1, weight=3)), digest_of("qc"))
        assert block.num_ops == 8

    def test_wire_size_decomposition(self):
        g = genesis_block()
        block = make_child(g, 1, (op(0), op(1)), digest_of("qc"))
        assert block.wire_size == block.header_size + block.payload_size


class TestBatchPool:
    def test_fifo_batching(self):
        pool = BatchPool(max_batch=2)
        for i in range(5):
            pool.add(op(i))
        assert [o.sequence for o in pool.next_batch()] == [0, 1]
        assert [o.sequence for o in pool.next_batch()] == [2, 3]
        assert [o.sequence for o in pool.next_batch()] == [4]
        assert pool.next_batch() == ()

    def test_duplicates_dropped(self):
        pool = BatchPool()
        assert pool.add(op(1))
        assert not pool.add(op(1))
        assert len(pool) == 1

    def test_weighted_cap(self):
        pool = BatchPool(max_batch=10)
        pool.add(op(0, weight=6))
        pool.add(op(1, weight=6))
        batch = pool.next_batch()
        assert [o.sequence for o in batch] == [0]

    def test_oversized_single_op_still_proposed(self):
        pool = BatchPool(max_batch=1)
        pool.add(op(0, weight=100))
        assert len(pool.next_batch()) == 1

    def test_forget_prunes_pending_but_not_dedup(self):
        pool = BatchPool()
        pool.add(op(0))
        pool.add(op(1))
        pool.forget(committed(op(0)))
        assert len(pool) == 1
        assert not pool.add(op(0))  # still deduplicated

    def test_forget_reads_the_blocks_shared_key_set(self):
        pool = BatchPool()
        for sequence in range(4):
            pool.add(op(sequence))
        block = committed(op(1), op(3))
        keys = block.op_keys
        pool.forget(block)
        pool.forget(block)  # a second replica's commit: same set, no-op
        assert block.op_keys is keys
        assert [o.sequence for o in pool.next_batch()] == [0, 2]

    def test_forget_empty_block_changes_nothing(self):
        pool = BatchPool(max_batch=1)
        pool.add(op(0))
        pool.stage()
        epoch = pool.staged_epoch
        pool.forget(committed())
        assert pool.staged_epoch == epoch
        assert [o.sequence for o in pool.take_staged()] == [0]

    def test_requeue(self):
        pool = BatchPool(max_batch=10)
        pool.add(op(0))
        pool.add(op(1))
        batch = pool.next_batch()
        pool.requeue(batch)
        assert [o.sequence for o in pool.next_batch()] == [0, 1]

    def test_pending_ops_weighted(self):
        pool = BatchPool()
        pool.add(op(0, weight=7))
        assert pool.pending_ops == 7
