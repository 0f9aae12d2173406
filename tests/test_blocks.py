"""Blocks, operations, batching."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import encoding
from repro.common.errors import EncodingError, InvalidBlock
from repro.consensus.block import (
    BatchPool,
    Block,
    Operation,
    genesis_block,
    make_child,
)
from repro.crypto.hashing import digest_of

INT64_MAX = 2**63 - 1


def reference_block_digest(block: Block) -> bytes:
    """The canonical-encoder digest ``Block.digest`` must reproduce."""
    return digest_of(
        [
            block.parent_link,
            block.parent_view,
            block.view,
            block.height,
            [[op.client_id, op.sequence, op.payload, op.weight] for op in block.operations],
            block.justify_digest,
            block.proposer,
        ]
    )


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


def carrying(*ops: Operation) -> Block:
    return make_child(genesis_block(), 3, ops, digest_of(["qc"]))


def assert_digest_matches_reference(block: Block) -> None:
    """``block.digest`` equals the reference digest, or both raise
    ``EncodingError``."""
    try:
        expected = reference_block_digest(block)
    except EncodingError:
        with pytest.raises(EncodingError):
            block.digest
    else:
        assert block.digest == expected


class TestFusedBlockDigest:
    """``Block.digest`` packs each operation record itself; the bytes it
    hashes must be exactly the canonical encoding."""

    def test_genesis_empty_and_virtual_blocks(self):
        virtual = Block(
            parent_link=None, parent_view=1, view=2, height=3,
            operations=(op(0),), justify_digest=digest_of("qc"), proposer=2,
        )
        for block in (genesis_block(), carrying(), virtual):
            assert block.digest == reference_block_digest(block)

    @pytest.mark.parametrize("value", [0, -1, 1, INT64_MAX, -INT64_MAX, -INT64_MAX - 1])
    def test_extreme_ids_and_sequences(self, value):
        block = carrying(
            Operation(value, 5, b"p"), Operation(5, value, b"p"), Operation(value, value)
        )
        assert block.digest == reference_block_digest(block)

    @pytest.mark.parametrize("length", [0, 1, 150, 70_000])
    def test_payload_lengths(self, length):
        block = carrying(*(Operation(c, c, bytes([c]) * length) for c in range(3)))
        assert block.digest == reference_block_digest(block)

    def test_mixed_payload_lengths_in_one_block(self):
        lengths = [150, 150, 0, 1, 150, 70_000, 1, 1, 0]
        block = carrying(*(Operation(i, i, b"z" * n) for i, n in enumerate(lengths)))
        assert block.digest == reference_block_digest(block)

    @pytest.mark.parametrize("weight", [1, 7])
    def test_weights(self, weight):
        block = carrying(op(0, weight=weight), op(1, weight=weight, client=4))
        assert block.digest == reference_block_digest(block)

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(-(2**63), INT64_MAX),
                st.integers(-(2**63), INT64_MAX),
                st.binary(max_size=200),
                st.integers(1, INT64_MAX),
            ),
            max_size=12,
        ),
        view=st.integers(1, 2**40),
        proposer=st.integers(0, 64),
    )
    def test_matches_reference_for_any_records(self, records, view, proposer):
        ops = tuple(Operation(*record) for record in records)
        block = make_child(genesis_block(), view, ops, digest_of(["qc", view]), proposer)
        assert block.digest == reference_block_digest(block)

    @pytest.mark.parametrize(
        "inexact",
        [
            Operation(1, 2, b"p", True),  # bool weight encodes as a bool tag
            Operation(True, 2, b"p"),  # bool client id
            Operation(1, 2, "text"),  # str payload encodes as a str tag
            Operation(1, 2, bytearray(b"p")),  # not canonically encodable
            Operation(2**63, 2, b"p"),  # id outside int64
            Operation(1, -(2**63) - 1, b"p"),  # sequence outside int64
            Operation(1, 2.0, b"p"),  # not an int
        ],
        ids=["bool-weight", "bool-id", "str-payload", "bytearray-payload",
             "id-too-large", "seq-too-small", "float-seq"],
    )
    def test_inexact_record_falls_back_to_canonical_encoder(self, inexact):
        # The record is last so that the exact records before it were
        # already packed when the fused writer gives up.
        assert_digest_matches_reference(carrying(op(0), op(1), inexact))

    def test_digest_calls_encoder_a_constant_number_of_times(self, monkeypatch):
        calls = 0
        encode_into = encoding._encode_into

        def counting(value, out):
            nonlocal calls
            calls += 1
            encode_into(value, out)

        monkeypatch.setattr(encoding, "_encode_into", counting)

        def encoder_calls(block: Block, digest) -> int:
            nonlocal calls
            calls = 0
            digest(block)
            return calls

        small = carrying(op(0))
        large = carrying(*(Operation(c, 0, b"x" * 150) for c in range(2048)))
        fused = Block.__dict__["digest"].func
        assert encoder_calls(large, fused) == encoder_calls(small, fused) <= 8
        # The canonical encoder, by contrast, recurses once per record.
        assert encoder_calls(large, reference_block_digest) > 2048


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
