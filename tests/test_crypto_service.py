"""Vote/QC crypto services and the vote collector."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import CryptoError, InvalidVote
from repro.consensus.crypto_service import (
    MultisigCryptoService,
    NullCryptoService,
    ThresholdCryptoService,
)
from repro.consensus.qc import (
    BlockSummary,
    Phase,
    QuorumCertificate,
    genesis_qc,
    vote_payload,
)
from repro.consensus.block import genesis_block
from repro.consensus.votes import VoteCollector
from repro.crypto.hashing import digest_of
from repro.crypto.keys import KeyRegistry


def summary(view: int = 1, height: int = 1) -> BlockSummary:
    return BlockSummary(
        digest=digest_of(["blk", view, height]),
        view=view,
        height=height,
        parent_view=0,
    )


@pytest.fixture(params=["threshold", "multisig", "null"])
def crypto(request):
    if request.param == "threshold":
        return ThresholdCryptoService(KeyRegistry(4, 3, seed=b"cs"))
    if request.param == "multisig":
        return MultisigCryptoService(KeyRegistry(4, 3, seed=b"cs"))
    return NullCryptoService(4, 3)


class TestAllServices:
    def test_vote_roundtrip(self, crypto):
        block = summary()
        share = crypto.sign_vote(1, Phase.PREPARE, 1, block)
        crypto.verify_vote(1, Phase.PREPARE, 1, block, share)

    def test_vote_wrong_block_rejected(self, crypto):
        share = crypto.sign_vote(1, Phase.PREPARE, 1, summary(height=1))
        with pytest.raises(InvalidVote):
            crypto.verify_vote(1, Phase.PREPARE, 1, summary(height=2), share)

    def test_vote_wrong_phase_rejected(self, crypto):
        share = crypto.sign_vote(1, Phase.PREPARE, 1, summary())
        with pytest.raises(InvalidVote):
            crypto.verify_vote(1, Phase.COMMIT, 1, summary(), share)

    def test_quorum_forms_qc(self, crypto):
        block = summary()
        acc = crypto.accumulator(Phase.PREPARE, 1, block)
        for signer in range(3):
            share = crypto.sign_vote(signer, Phase.PREPARE, 1, block)
            done = acc.add(signer, share)
        assert done and acc.complete
        qc = crypto.make_qc(Phase.PREPARE, 1, block, acc)
        crypto.verify_qc(qc)

    def test_duplicate_votes_do_not_reach_quorum(self, crypto):
        block = summary()
        acc = crypto.accumulator(Phase.PREPARE, 1, block)
        share = crypto.sign_vote(0, Phase.PREPARE, 1, block)
        for _ in range(5):
            acc.add(0, share)
        assert acc.count == 1 and not acc.complete

    def test_qc_for_other_block_rejected(self, crypto):
        block = summary(height=1)
        acc = crypto.accumulator(Phase.PREPARE, 1, block)
        for signer in range(3):
            acc.add(signer, crypto.sign_vote(signer, Phase.PREPARE, 1, block))
        qc = crypto.make_qc(Phase.PREPARE, 1, block, acc)
        forged = QuorumCertificate(
            phase=qc.phase, view=qc.view, block=summary(height=2), signature=qc.signature
        )
        assert not crypto.qc_is_valid(forged)

    def test_genesis_qc_always_valid(self, crypto):
        crypto.verify_qc(genesis_qc(genesis_block()))


class TestCertificateBytes:
    """A QC's derived bytes are computed once per object, never reused stale."""

    @staticmethod
    def _qc(crypto) -> QuorumCertificate:
        block = summary()
        acc = crypto.accumulator(Phase.PREPARE, 1, block)
        for signer in range(3):
            acc.add(signer, crypto.sign_vote(signer, Phase.PREPARE, 1, block))
        return crypto.make_qc(Phase.PREPARE, 1, block, acc)

    def test_bytes_are_computed_once_per_object(self, crypto):
        qc = self._qc(crypto)
        assert qc.signed_payload is qc.signed_payload
        assert qc.digest is qc.digest
        assert qc.verify_key is qc.verify_key
        assert qc.verify_key == (qc.signed_payload, qc.signature)
        assert qc.signed_payload == vote_payload(qc.phase, qc.view, qc.block)

    @pytest.mark.parametrize(
        "change",
        [
            {"view": 2},
            {"phase": Phase.COMMIT},
            {"block": summary(height=2)},
            {"signature": "other-signature"},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_replaced_qc_never_reuses_a_stale_value(self, crypto, change):
        qc = self._qc(crypto)
        stale = (qc.signed_payload, qc.digest, qc.verify_key)
        other = dataclasses.replace(qc, **change)
        fresh = QuorumCertificate(
            phase=other.phase, view=other.view, block=other.block, signature=other.signature
        )
        assert (other.signed_payload, other.digest, other.verify_key) == (
            fresh.signed_payload,
            fresh.digest,
            fresh.verify_key,
        )
        assert other.verify_key != stale[2]
        if "signature" not in change:
            assert other.signed_payload != stale[0]
            assert other.digest != stale[1]
        # The QC cache keys on the replaced object's own bytes.
        crypto.verify_qc(qc)
        assert crypto.qc_cached(qc)
        assert not crypto.qc_cached(other)


class TestThresholdSpecific:
    def test_verify_vote_checks_sender_binding(self):
        crypto = ThresholdCryptoService(KeyRegistry(4, 3, seed=b"cs"))
        share = crypto.sign_vote(1, Phase.PREPARE, 1, summary())
        with pytest.raises(InvalidVote):
            crypto.verify_vote(2, Phase.PREPARE, 1, summary(), share)

    def test_qc_signature_is_single_authenticator(self):
        crypto = ThresholdCryptoService(KeyRegistry(4, 3, seed=b"cs"))
        block = summary()
        acc = crypto.accumulator(Phase.PREPARE, 1, block)
        for signer in range(3):
            acc.add(signer, crypto.sign_vote(signer, Phase.PREPARE, 1, block))
        qc = crypto.make_qc(Phase.PREPARE, 1, block, acc)
        from repro.crypto.threshold import ThresholdSignature

        assert isinstance(qc.signature, ThresholdSignature)


class TestMultisigSpecific:
    def test_qc_carries_quorum_signatures(self):
        crypto = MultisigCryptoService(KeyRegistry(4, 3, seed=b"cs"))
        block = summary()
        acc = crypto.accumulator(Phase.PREPARE, 1, block)
        for signer in range(4):
            acc.add(signer, crypto.sign_vote(signer, Phase.PREPARE, 1, block))
        qc = crypto.make_qc(Phase.PREPARE, 1, block, acc)
        assert qc.signature.num_authenticators == 3

    def test_underfilled_bundle_rejected(self):
        crypto = MultisigCryptoService(KeyRegistry(4, 3, seed=b"cs"))
        block = summary()
        share = crypto.sign_vote(0, Phase.PREPARE, 1, block)
        from repro.crypto.multisig import MultiSignature

        thin = MultiSignature(signatures=((0, share),), group_size=4)
        forged = QuorumCertificate(phase=Phase.PREPARE, view=1, block=block, signature=thin)
        with pytest.raises(CryptoError):
            crypto.verify_qc(forged)


class TestVoteCollector:
    def test_qc_returned_exactly_once(self, crypto):
        collector = VoteCollector(crypto)
        block = summary()
        results = []
        for signer in range(4):
            share = crypto.sign_vote(signer, Phase.PREPARE, 1, block)
            results.append(collector.add_vote(Phase.PREPARE, 1, block, signer, share))
        qcs = [r for r in results if r is not None]
        assert len(qcs) == 1
        assert qcs[0].block == block

    def test_separate_targets_tracked_independently(self, crypto):
        collector = VoteCollector(crypto)
        b1, b2 = summary(height=1), summary(height=2)
        for signer in range(2):
            collector.add_vote(Phase.PREPARE, 1, b1, signer, crypto.sign_vote(signer, Phase.PREPARE, 1, b1))
            collector.add_vote(Phase.PREPARE, 1, b2, signer, crypto.sign_vote(signer, Phase.PREPARE, 1, b2))
        assert collector.votes_for(Phase.PREPARE, 1, b1.digest) == 2
        assert collector.votes_for(Phase.PREPARE, 1, b2.digest) == 2

    def test_discard_view_drops_stale(self, crypto):
        collector = VoteCollector(crypto)
        block = summary(view=1)
        collector.add_vote(Phase.PREPARE, 1, block, 0, crypto.sign_vote(0, Phase.PREPARE, 1, block))
        collector.discard_view(1)
        assert collector.votes_for(Phase.PREPARE, 1, block.digest) == 0
