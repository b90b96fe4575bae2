"""The single ordering service: genesis, admission, block cutting.

One sequencer per deployment admits transactions into a FIFO queue per
channel and cuts signed blocks from the queue's head, so a channel's blocks
carry its transactions in admission order and no two honest nodes can ever
be handed conflicting chains.  Admission runs the full contract checks
against a speculative state (committed state plus the pending queue), so a
block cut from admitted transactions always passes every peer's local
re-verification.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from . import gccf, gpf
from .gccf import ISSUANCE_MATRIX, ContractRejection, GccfView
from .gpf import GpfView
from .identity import (
    AuthorityRole,
    CertificateRecord,
    Identity,
    cert_from_json,
    cert_to_json,
    sha256,
    verify_certificate_signature,
)
from .ledger import (
    Block,
    BlockHeader,
    Channel,
    Transaction,
    ZERO_HASH,
    make_block,
)
from .node import Node

# Who may write each channel, a protocol constant beside the issuance
# matrix: on the certificate channel the matrix's issuing authorities plus
# the PG (revocations) and the RA (validation transactions), on the policy
# channel the PG alone.  End entities only read.
GCCF_WRITERS = frozenset(ISSUANCE_MATRIX) | {AuthorityRole.PG, AuthorityRole.RA}
GPF_WRITERS = frozenset({AuthorityRole.PG})
CHANNEL_WRITERS = {Channel.GCCF: GCCF_WRITERS, Channel.GPF: GPF_WRITERS}
# What consortium.json records of the protocol: its one sequencer, and that
# every role reads each channel and CHANNEL_WRITERS write it.
CONSENSUS_ID = "single-sequencer"
CHANNEL_POLICIES_JSON = {
    channel.value: {"readers": sorted(r.value for r in AuthorityRole), "writers": sorted(w.value for w in writers)}
    for channel, writers in CHANNEL_WRITERS.items()
}


class ConfigError(ValueError):
    pass


class Rejected(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class ConsortiumConfig:
    """The ordering service's and the members' certificates: the one record of each name and its role prefix."""

    osp_cert: CertificateRecord
    members: Tuple[CertificateRecord, ...]

    def validate(self) -> None:
        if self.osp_cert.subject_role != AuthorityRole.OSP:
            raise ConfigError("missing OSP certificate")
        if not self.osp_cert.is_self_signed or not verify_certificate_signature(
            self.osp_cert, self.osp_cert.subject_public_key
        ):
            raise ConfigError("OSP certificate does not self-verify")
        seen_uids = {self.osp_cert.subject_unique_id}
        for cert in self.members:
            if cert.subject_role is None:
                raise ConfigError(f"member {cert.subject_name!r} is not named for a role")
            if cert.subject_role == AuthorityRole.OSP:
                raise ConfigError("more than one OSP certificate")
            if cert.subject_unique_id in seen_uids:
                raise ConfigError("duplicate member certificates")
            seen_uids.add(cert.subject_unique_id)

    def to_json(self) -> dict:
        return {
            "consensus_id": CONSENSUS_ID,
            "osp_cert": cert_to_json(self.osp_cert),
            "members": [
                {"name": cert.subject_name, "role": cert.subject_role.value, "cert": cert_to_json(cert)}
                for cert in self.members
            ],
            "channel_policies": CHANNEL_POLICIES_JSON,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json(cls, obj: dict) -> "ConsortiumConfig":
        """The config to_json wrote; ConfigError for one that records another protocol."""
        if obj["consensus_id"] != CONSENSUS_ID:
            raise ConfigError(f"consensus_id must be {CONSENSUS_ID!r}")
        if obj["channel_policies"] != CHANNEL_POLICIES_JSON:
            raise ConfigError("channel_policies must be the protocol's channel writers")
        return cls(
            osp_cert=cert_from_json(obj["osp_cert"]),
            members=tuple(cert_from_json(m["cert"]) for m in obj["members"]),
        )


@dataclass(frozen=True)
class GenesisBundle:
    system_block: Block
    gccf_genesis: Block
    gpf_genesis: Block


def create_genesis(
    config: ConsortiumConfig,
    gccf_bootstrap: List[Transaction],
    gpf_bootstrap: List[Transaction],
    osp_key,
) -> GenesisBundle:
    """Cut the three number-0 blocks of a deployment.

    The system block binds the consortium configuration (its data hash is
    the digest of the canonical config bytes); the two application genesis
    blocks carry the pre-approved bootstrap transactions: the initial
    elector set and root as self-signed records plus the PG's record, and
    the initial policy rules.
    """
    config.validate()
    system_header = BlockHeader(
        number=0, prev_header_hash=ZERO_HASH, data_hash=sha256(config.canonical_bytes())
    )
    system_block = Block(
        header=system_header,
        transactions=(),
        creator_cert=config.osp_cert,
        creator_signature=osp_key.sign(system_header.encode()),
    )
    gccf_genesis = make_block(0, ZERO_HASH, gccf_bootstrap, config.osp_cert, osp_key)
    gpf_genesis = make_block(0, ZERO_HASH, gpf_bootstrap, config.osp_cert, osp_key)
    return GenesisBundle(system_block=system_block, gccf_genesis=gccf_genesis, gpf_genesis=gpf_genesis)


@dataclass
class _Pending:
    arrival_ms: int
    tx: Transaction


class OrderingService:
    """Admission, per-channel FIFO queues, and deterministic block cutting.

    A channel's queue order is its admission order, and the order of its
    transactions on the chain.
    """

    def __init__(self, config: ConsortiumConfig, osp: Identity, node: Node):
        """The sequencer osp runs over node's committed state; config must have passed ``validate``."""
        self.config = config
        self.osp = osp
        self.node = node
        self._members = {cert.subject_unique_id: cert for cert in config.members}
        self._pending: Dict[Channel, Deque[_Pending]] = {channel: deque() for channel in Channel}
        # Ids of the queued transactions, not yet on the chain.
        self._pending_ids: Set[bytes] = set()
        # Speculative state = committed state plus the pending queues applied
        # in admission order; kept in lockstep so admission checks see what
        # commit will see.
        self._spec_gccf: GccfView = node.gccf_view.copy()
        self._spec_gpf: GpfView = node.gpf_view.copy()

    def pending_count(self, channel: Channel) -> int:
        return len(self._pending[channel])

    def submit_tx(self, tx: Transaction, *, now_ms: int) -> None:
        """Admit tx to the back of its channel's queue, or raise Rejected."""
        if not tx.verify_submitter_signature():
            raise Rejected("bad-signature")
        member = self._members.get(tx.submitter_cert.subject_unique_id)
        if member is None or member.subject_public_key != tx.submitter_cert.subject_public_key:
            raise Rejected("unknown-member")
        if member.subject_role not in CHANNEL_WRITERS[tx.channel]:
            raise Rejected("policy-denied")
        # A replay can pass its contract again (an AddPolicy after a revocation): admit each once.
        if tx.tx_id in self._pending_ids or self.node.ledger(tx.channel).has_tx(tx):
            raise Rejected("duplicate-tx")
        next_number = self.node.ledger(tx.channel).height
        try:
            if tx.channel == Channel.GCCF:
                gccf.apply_tx(self._spec_gccf, tx, block_number=next_number)
            else:
                gpf.apply_tx(self._spec_gpf, self._spec_gccf, tx, block_number=next_number)
        except ContractRejection as exc:
            raise Rejected(exc.reason) from exc
        self._pending[tx.channel].append(_Pending(arrival_ms=now_ms, tx=tx))
        self._pending_ids.add(tx.tx_id)

    def cut_block(self, channel: Channel, *, now_ms: int, force: bool = False) -> Optional[Block]:
        """Emit the next block when the size or age threshold is reached.

        Transactions keep admission order; never emits an empty block.
        """
        q = self._pending[channel]
        if not q:
            return None
        max_txs = gpf.block_max_txs(self.node.gpf_view)
        timeout = gpf.block_timeout_ms(self.node.gpf_view)
        if not (force or len(q) >= max_txs or now_ms - q[0].arrival_ms >= timeout):
            return None
        batch = [q.popleft() for _ in range(min(max_txs, len(q)))]
        self._pending_ids.difference_update(p.tx.tx_id for p in batch)
        ledger = self.node.ledger(channel)
        return make_block(
            number=ledger.height,
            prev_header_hash=ledger.head_hash(),
            transactions=[p.tx for p in batch],
            creator_cert=self.osp.cert,
            creator_key=self.osp.key,
        )

    def commit_own(self, channel: Channel, block: Block) -> None:
        """The sequencer commits its own cut; speculative state stays valid."""
        self.node.commit_block(channel, block)
