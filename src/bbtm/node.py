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
from .identity import CertificateRecord, decode_certificate, sha256
from .ledger import Block, Channel, Ledger, LedgerError, TxFunction


class NodeStatus(str, Enum):
    LIVE = "live"
    CRASHED = "crashed"


class BlockRefused(Exception):
    def __init__(self, reason: str, block_number: int):
        super().__init__(f"block {block_number} refused: {reason}")
        self.reason = reason
        self.block_number = block_number


class Node:
    def __init__(self, cert: CertificateRecord):
        self.name = cert.subject_name
        self.role = cert.subject_role
        self.ledgers: Dict[Channel, Ledger] = {
            Channel.GCCF: Ledger(Channel.GCCF),
            Channel.GPF: Ledger(Channel.GPF),
        }
        # One store per channel: the contracts read and write the ledger's
        # world state; the views add only their derived indexes.
        self.gccf_view = GccfView(self.ledgers[Channel.GCCF].world_state)
        self.gpf_view = GpfView(self.ledgers[Channel.GPF].world_state)
        self.status = NodeStatus.LIVE

    @property
    def is_live(self) -> bool:
        return self.status == NodeStatus.LIVE

    def ledger(self, channel: Channel) -> Ledger:
        return self.ledgers[channel]

    def head(self, channel: Channel) -> bytes:
        return self.ledgers[channel].head_hash()

    def commit_block(self, channel: Channel, block: Block) -> None:
        """Verify and commit, or raise BlockRefused leaving state untouched.

        The ledger's check (structure, creator and submitter signatures)
        runs once, before the contracts.  The contracts then apply the block
        in place; if one refuses, the journal taken beforehand (the entry
        each of the block's keys held, the endorsement log's length) and the
        serials of the additions already applied undo the block.
        """
        ledger = self.ledgers[channel]
        try:
            ledger.check_block(block)
        except LedgerError as exc:
            raise BlockRefused(str(exc), block.header.number) from exc
        number = block.header.number
        world = ledger.world_state
        journal = [(tx.key, world.get(tx.key)) for tx in block.transactions]
        log_length = len(self.gccf_view.endorsement_log)
        applied = 0
        try:
            if channel == Channel.GCCF:
                for tx in block.transactions:
                    gccf.apply_tx(self.gccf_view, tx, block_number=number)
                    applied += 1
            else:
                for tx in block.transactions:
                    gpf.apply_tx(self.gpf_view, self.gccf_view, tx, block_number=number)
        except BaseException as exc:
            for key, entry in reversed(journal):
                if entry is None:
                    world.pop(key, None)
                else:
                    world[key] = entry
            del self.gccf_view.endorsement_log[log_length:]
            # An applied addition's serial was new (duplicates are refused),
            # so removing it restores the set.
            for tx in block.transactions[:applied]:
                if tx.function == TxFunction.ADD_CERT:
                    self.gccf_view.serials.discard(tx.decoded(decode_certificate).serial_number)
            if isinstance(exc, ContractRejection):
                raise BlockRefused(exc.reason, number) from exc
            raise
        ledger._link(block)

    def commit_genesis(self, gccf_genesis: Block, gpf_genesis: Block) -> None:
        # Certificate channel first: the policy genesis is submitted by the
        # PG, whose record is committed in the certificate bootstrap.
        self.commit_block(Channel.GCCF, gccf_genesis)
        self.commit_block(Channel.GPF, gpf_genesis)
        self.gccf_view.quorum = gpf.ballot_quorum(self.gpf_view)

    def world_state_digest(self) -> bytes:
        return sha256(
            self.ledgers[Channel.GCCF].world_state_digest()
            + self.ledgers[Channel.GPF].world_state_digest()
        )
