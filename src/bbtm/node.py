"""Authority node: per-channel ledgers plus locally re-verified commits.

A node never trusts the ordering service blindly.  Every incoming block is
checked for linkage, creator signature, transaction signatures, and every
contract precondition against the node's own state before it is committed;
a block failing any check is refused in full.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict

from . import gccf, gpf
from .gccf import ContractRejection, GccfView
from .gpf import GpfView
from .identity import Identity, sha256
from .ledger import Block, Channel, Ledger, LedgerError


class NodeStatus(str, Enum):
    LIVE = "live"
    CRASHED = "crashed"


class BlockRefused(Exception):
    def __init__(self, reason: str, block_number: int):
        super().__init__(f"block {block_number} refused: {reason}")
        self.reason = reason
        self.block_number = block_number


class Node:
    def __init__(self, identity: Identity):
        self.identity = identity
        self.name = identity.name
        self.role = identity.role
        self.ledgers: Dict[Channel, Ledger] = {
            Channel.GCCF: Ledger(Channel.GCCF),
            Channel.GPF: Ledger(Channel.GPF),
        }
        self.gccf_view = GccfView()
        self.gpf_view = GpfView()
        self.status = NodeStatus.LIVE
        self.committed_txs: Dict[Channel, int] = {Channel.GCCF: 0, Channel.GPF: 0}

    @property
    def is_live(self) -> bool:
        return self.status == NodeStatus.LIVE

    def ledger(self, channel: Channel) -> Ledger:
        return self.ledgers[channel]

    def head(self, channel: Channel) -> bytes:
        return self.ledgers[channel].head_hash()

    def commit_block(self, channel: Channel, block: Block) -> None:
        """Verify and commit, or raise BlockRefused leaving state untouched.

        The structural check (linkage, data hash, creator signature) runs
        once, before the contracts; the ledger then appends without
        repeating it.
        """
        ledger = self.ledgers[channel]
        try:
            ledger.check_block(block)
        except LedgerError as exc:
            raise BlockRefused(str(exc), block.header.number) from exc
        for tx in block.transactions:
            if not tx.verify_submitter_signature():
                raise BlockRefused("bad-tx-signature", block.header.number)
        number = block.header.number
        if channel == Channel.GCCF:
            overlay = self.gccf_view.copy()
            quorum = gpf.ballot_quorum(self.gpf_view)
            try:
                for tx in block.transactions:
                    gccf.apply_tx(overlay, tx, block_number=number, quorum=quorum)
            except ContractRejection as exc:
                raise BlockRefused(exc.reason, number) from exc
            ledger._append(block)
            self.gccf_view = overlay
        else:
            overlay = self.gpf_view.copy()
            try:
                for tx in block.transactions:
                    gpf.apply_tx(overlay, self.gccf_view, tx, block_number=number)
            except ContractRejection as exc:
                raise BlockRefused(exc.reason, number) from exc
            ledger._append(block)
            self.gpf_view = overlay
        self.committed_txs[channel] += len(block.transactions)

    def commit_genesis(self, gccf_genesis: Block, gpf_genesis: Block) -> None:
        # Certificate channel first: the policy genesis is submitted by the
        # PG, whose record is committed in the certificate bootstrap.
        self.commit_block(Channel.GCCF, gccf_genesis)
        self.commit_block(Channel.GPF, gpf_genesis)

    def world_state_digest(self) -> bytes:
        return sha256(
            self.ledgers[Channel.GCCF].world_state_digest()
            + self.ledgers[Channel.GPF].world_state_digest()
        )
