"""The online auditor: streaming cross-replica safety invariants.

Generalises :class:`repro.harness.invariants.CommitAuditor` (post-hoc,
raising) into a checker that consumes the observer event stream *during*
the run and accumulates structured :class:`Violation` reports instead of
raising — Byzantine experiments want to observe the violation, not die
on it.  Invariants checked:

* **conflicting-commit** — two replicas commit different blocks at the
  same height (the safety property; must never fire with ``<= f`` faults);
* **non-monotone-commit** / **duplicate-commit** — a replica's committed
  heights regress or repeat;
* **non-monotone-view** — a replica's current view decreases;
* **equivocation** — more than one block digest enters the prepare phase
  at the same ``(view, height)`` across the cluster (an equivocating
  leader; safe protocols tolerate it, the auditor still reports it);
* **conflicting-qc** / **qc-quorum-short** / **qc-bad-signer** /
  **invalid-qc** — QC validity and quorum membership at formation time;
* **duplicate-execution** — the same ``(client, sequence)`` operation is
  committed twice on one replica (protocol severity: the ledger's
  execution dedup makes re-proposed commits benign; true exactly-once
  is judged by the history checker against execution counters);
* **reply-divergence** — replicas disagree on a committed operation's
  result digest (a :class:`~repro.harness.failures.ReplyForger`).

Each violation embeds the relevant flight-recorder window of every
replica involved, so a report is a self-contained forensic artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.flight import FlightEvent, FlightRecorder

#: Severity classes, roughly "how bad is this for the paper's claims".
SEV_SAFETY = "safety"
SEV_BYZANTINE = "byzantine"
SEV_PROTOCOL = "protocol"


@dataclass(frozen=True)
class Violation:
    """One structured invariant violation with its forensic window."""

    kind: str
    severity: str
    time: float
    replicas: tuple[int, ...]
    view: int
    height: int
    detail: str
    #: Trailing flight-recorder events per involved replica at flag time.
    window: tuple[tuple[int, tuple[FlightEvent, ...]], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "time": self.time,
            "replicas": list(self.replicas),
            "view": self.view,
            "height": self.height,
            "detail": self.detail,
            "window": {
                str(replica): [
                    {
                        "seq": e.seq,
                        "time": e.time,
                        "kind": e.kind,
                        "view": e.view,
                        "height": e.height,
                        "digest": e.digest.hex()[:16],
                        "detail": e.detail,
                    }
                    for e in events
                ]
                for replica, events in self.window
            },
        }


@dataclass
class _QCSeen:
    digest: bytes
    replica: int


class OnlineAuditor:
    """Streaming invariant checker over the cluster-wide event stream.

    Construct unparameterised, then let the runtime call
    :meth:`configure` once the cluster shape is known (both
    :class:`~repro.harness.des_runtime.DESCluster` and
    :class:`~repro.runtime.cluster.LocalCluster` do this when their
    observability carries an auditor).
    """

    def __init__(self, window: int = 24) -> None:
        self.window_size = window
        self.num_replicas: int | None = None
        self.quorum: int | None = None
        self._qc_validator: Callable[[Any], bool] | None = None
        #: Recorders to pull violation windows from (replica_id -> ring).
        self.recorders: dict[int, FlightRecorder] = {}

        self.violations: list[Violation] = []
        self.events_audited = 0
        self.last_commit_time: float = 0.0
        self._flagged: set[tuple] = set()

        self._commit_digest_by_height: dict[int, tuple[bytes, int]] = {}
        self._last_commit_height: dict[int, int] = {}
        self._committed_digests: dict[int, set[bytes]] = {}
        self._last_view: dict[int, int] = {}
        self._prepare_digests: dict[tuple[int, int], dict[bytes, int]] = {}
        self._qc_by_key: dict[tuple[str, int, int], _QCSeen] = {}
        self._executed: dict[int, set[tuple[int, int]]] = {}
        self._reply_digests: dict[tuple[int, int], tuple[bytes, int]] = {}

    # ------------------------------------------------------------- wiring

    def configure(
        self,
        num_replicas: int,
        quorum: int,
        qc_validator: Callable[[Any], bool] | None = None,
    ) -> None:
        self.num_replicas = num_replicas
        self.quorum = quorum
        self._qc_validator = qc_validator

    @property
    def ok(self) -> bool:
        return not self.violations

    def _flag(
        self,
        kind: str,
        severity: str,
        time: float,
        replicas: tuple[int, ...],
        view: int,
        height: int,
        detail: str,
        dedup: tuple | None = None,
    ) -> None:
        key = dedup if dedup is not None else (kind, view, height, replicas)
        if key in self._flagged:
            return
        self._flagged.add(key)
        window = tuple(
            (replica, tuple(self.recorders[replica].window(last=self.window_size)))
            for replica in replicas
            if replica in self.recorders
        )
        self.violations.append(
            Violation(
                kind=kind,
                severity=severity,
                time=time,
                replicas=replicas,
                view=view,
                height=height,
                detail=detail,
                window=window,
            )
        )

    # ------------------------------------------- observer-stream entry points

    def on_view_entered(self, replica: int, view: int, time: float) -> None:
        self.events_audited += 1
        last = self._last_view.get(replica)
        if last is not None and view <= last:
            self._flag(
                "non-monotone-view",
                SEV_PROTOCOL,
                time,
                (replica,),
                view,
                -1,
                f"replica {replica} entered view {view} after view {last}",
                dedup=("non-monotone-view", replica, view, last),
            )
        if last is None or view > last:
            self._last_view[replica] = view

    def on_prepare(self, replica: int, digest: bytes, view: int, height: int, time: float) -> None:
        """A block entered the prepare phase on ``replica``.

        More than one digest at the same ``(view, height)`` across the
        cluster means the leader equivocated: each replica prepare-votes
        at most one block per slot, so the conflicting proposals can
        never both gather a quorum — but the auditor reports the attempt.
        """
        self.events_audited += 1
        slot = (view, height)
        seen = self._prepare_digests.get(slot)
        if seen is None:
            self._prepare_digests[slot] = {digest: replica}
            return
        if digest not in seen:
            other_digest, other_replica = next(iter(seen.items()))
            seen[digest] = replica
            self._flag(
                "equivocation",
                SEV_BYZANTINE,
                time,
                (other_replica, replica),
                view,
                height,
                f"two prepare-phase blocks at view={view} height={height}: "
                f"{other_digest.hex()[:12]} (replica {other_replica}) vs "
                f"{digest.hex()[:12]} (replica {replica})",
                dedup=("equivocation", view, height),
            )

    def on_qc(
        self,
        replica: int,
        digest: bytes,
        phase: str,
        view: int,
        time: float,
        qc: Any = None,
    ) -> None:
        self.events_audited += 1
        height = qc.block.height if qc is not None else -1
        key = (phase, view, height)
        seen = self._qc_by_key.get(key)
        if seen is None:
            self._qc_by_key[key] = _QCSeen(digest, replica)
        elif seen.digest != digest:
            self._flag(
                "conflicting-qc",
                SEV_SAFETY,
                time,
                (seen.replica, replica),
                view,
                height,
                f"two {phase} QCs at view={view} height={height}: "
                f"{seen.digest.hex()[:12]} vs {digest.hex()[:12]}",
                dedup=("conflicting-qc", key),
            )
        if qc is None:
            return
        if self._qc_validator is not None and not self._qc_validator(qc):
            self._flag(
                "invalid-qc",
                SEV_SAFETY,
                time,
                (replica,),
                view,
                height,
                f"{phase} QC over {digest.hex()[:12]} failed signature verification",
                dedup=("invalid-qc", key, digest),
            )
        signature = getattr(qc, "signature", None)
        signers = getattr(signature, "signers", None)
        if signers is None:
            return
        signers = frozenset(signers)
        if self.quorum is not None and len(signers) < self.quorum:
            self._flag(
                "qc-quorum-short",
                SEV_SAFETY,
                time,
                (replica,),
                view,
                height,
                f"{phase} QC carries {len(signers)} signers < quorum {self.quorum}",
                dedup=("qc-quorum-short", key, digest),
            )
        if self.num_replicas is not None:
            rogue = [s for s in signers if not 0 <= s < self.num_replicas]
            if rogue:
                self._flag(
                    "qc-bad-signer",
                    SEV_SAFETY,
                    time,
                    (replica,),
                    view,
                    height,
                    f"{phase} QC signed by non-members {sorted(rogue)}",
                    dedup=("qc-bad-signer", key, digest),
                )

    def on_commit(
        self, replica: int, digest: bytes, height: int, view: int, time: float
    ) -> None:
        self.events_audited += 1
        self.last_commit_time = time
        known = self._commit_digest_by_height.get(height)
        if known is None:
            self._commit_digest_by_height[height] = (digest, replica)
        elif known[0] != digest:
            self._flag(
                "conflicting-commit",
                SEV_SAFETY,
                time,
                (known[1], replica),
                view,
                height,
                f"height {height} committed as {known[0].hex()[:12]} by replica "
                f"{known[1]} but {digest.hex()[:12]} by replica {replica}",
                dedup=("conflicting-commit", height),
            )
        last = self._last_commit_height.get(replica, -1)
        digests = self._committed_digests.setdefault(replica, set())
        if digest in digests:
            self._flag(
                "duplicate-commit",
                SEV_SAFETY,
                time,
                (replica,),
                view,
                height,
                f"replica {replica} committed block {digest.hex()[:12]} twice",
                dedup=("duplicate-commit", replica, digest),
            )
        elif height <= last:
            self._flag(
                "non-monotone-commit",
                SEV_SAFETY,
                time,
                (replica,),
                view,
                height,
                f"replica {replica} committed height {height} after height {last}",
                dedup=("non-monotone-commit", replica, height, last),
            )
        digests.add(digest)
        if height > last:
            self._last_commit_height[replica] = height

    # -------------------------------------------- cluster-level entry points

    def on_commit_block(self, replica: int, block: Any, time: float) -> None:
        """Duplicate op commits: commit listeners feed whole blocks.

        Committing the same ``(client, sequence)`` key twice is *not* by
        itself a safety violation — it happens legitimately when a view
        change re-proposes in-flight operations and the abandoned
        leader's block later commits anyway (e.g. Marlin's Case R2
        recovery), and the ledger's execution-layer dedup applies each
        key exactly once regardless.  It is flagged at protocol severity
        as forensic signal; true exactly-once is checked end-to-end
        against the ledger's execution counter by the adversary
        subsystem's :class:`~repro.adversary.checker.SafetyChecker`.
        """
        executed = self._executed.setdefault(replica, set())
        keys = block.op_keys
        if len(keys) == len(block.operations) and executed.isdisjoint(keys):
            # Every key is new: nothing to flag, record the whole batch
            # with one C-level set update (the block's shared key set).
            executed |= keys
            return
        for op in block.operations:
            key = op._key
            if key in executed:
                self._flag(
                    "duplicate-execution",
                    SEV_PROTOCOL,
                    time,
                    (replica,),
                    block.view,
                    block.height,
                    f"replica {replica} committed client {key[0]} seq {key[1]} "
                    f"twice (deduplicated at execution)",
                    dedup=("duplicate-execution", replica, key),
                )
            executed.add(key)

    def tap(self, envelope: Any) -> None:
        """Network tap: cross-check the result digests replicas report.

        Correct replicas execute the same committed prefix and therefore
        agree on every operation's result digest; a divergence is a lying
        replica (``ReplyForger``) or non-deterministic execution.
        """
        payload = envelope.payload
        n = self.num_replicas
        if n is not None and envelope.src >= n:
            return
        digest = getattr(payload, "result_digest", None)
        if digest is not None:
            if not digest:
                return
            self._check_reply(
                payload.replica, payload.client_id, payload.sequence, digest, envelope.sent_at
            )
            return
        digests = getattr(payload, "result_digests", None)
        if digests:
            for (client_id, sequence), result_digest in zip(payload.op_keys, digests):
                self._check_reply(
                    payload.replica, client_id, sequence, result_digest, envelope.sent_at
                )

    def _check_reply(
        self, replica: int, client_id: int, sequence: int, digest: bytes, time: float
    ) -> None:
        self.events_audited += 1
        key = (client_id, sequence)
        known = self._reply_digests.get(key)
        if known is None:
            self._reply_digests[key] = (digest, replica)
        elif known[0] != digest:
            self._flag(
                "reply-divergence",
                SEV_BYZANTINE,
                time,
                (known[1], replica),
                -1,
                -1,
                f"client {client_id} seq {sequence}: replica {known[1]} reported "
                f"{known[0].hex()[:12]} but replica {replica} reported {digest.hex()[:12]}",
                dedup=("reply-divergence", key),
            )

    # ------------------------------------------------------------- reports

    def report(self) -> dict[str, Any]:
        """JSON-able structured report of everything the auditor saw."""
        by_kind: dict[str, int] = {}
        for violation in self.violations:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
        return {
            "ok": self.ok,
            "events_audited": self.events_audited,
            "last_commit_time": self.last_commit_time,
            "violations_by_kind": by_kind,
            "violations": [v.to_dict() for v in self.violations],
        }
