"""Append-only hash-linked block chain with a replayable key-value world state.

Both channels (certificate chain and policy file) run on this substrate.
Blocks are produced by the single ordering service and signed by it; the
world state is a pure function of the committed block sequence, so replaying
an exported chain always reproduces the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Dict, Iterable, List, Optional

from . import wire
from .identity import (
    AuthorityRole,
    CertificateRecord,
    KeyPair,
    canonical_encode,
    decode_certificate,
    role_of_name,
    sha256,
    verify_certificate_signature,
    verify_signature,
)

ZERO_HASH = bytes(32)
LEDGER_MAGIC = b"BBTM"
LEDGER_FORMAT_VERSION = 1


class Channel(str, Enum):
    GCCF = "GCCF"
    GPF = "GPF"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TxFunction(str, Enum):
    ADD_CERT = "AddCert"
    REVOKE_CERT = "RevokeCert"
    VALIDATE_CERT = "ValidateCert"
    ADD_POLICY = "AddPolicy"
    REVOKE_POLICY = "RevokePolicy"
    BALLOT_ENDORSE = "BallotEndorse"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LedgerError(Exception):
    """Base class for chain integrity failures."""


class BrokenLinkage(LedgerError):
    pass


class BadCreatorSignature(LedgerError):
    pass


class WrongChannel(LedgerError):
    pass


class NonMonotoneNumber(LedgerError):
    pass


@dataclass(frozen=True)
class Transaction:
    channel: Channel
    function: TxFunction
    key: str
    payload: bytes
    submitter_cert: CertificateRecord
    submitter_signature: bytes
    submit_time_ms: int

    def __post_init__(self):
        if not self.key:
            raise LedgerError("transaction key must be non-empty")
        if self.submit_time_ms < 0:
            raise LedgerError("submit time cannot be negative")

    # Encodings and the id are computed on first use and kept on the
    # instance, outside the dataclass fields (see CertificateRecord).
    @cached_property
    def _signing_bytes(self) -> bytes:
        return b"".join(
            (
                wire.field(self.channel.value.encode("utf-8")),
                wire.field(self.function.value.encode("utf-8")),
                wire.field(self.key.encode("utf-8")),
                wire.field(self.payload),
                wire.field(canonical_encode(self.submitter_cert)),
                wire.field(wire.u64(self.submit_time_ms)),
            )
        )

    @cached_property
    def _body(self) -> bytes:
        return self._signing_bytes + wire.field(self.submitter_signature)

    @cached_property
    def tx_id(self) -> bytes:
        return sha256(self._body)

    def signing_bytes(self) -> bytes:
        return self._signing_bytes

    def canonical_body(self) -> bytes:
        return self._body

    def verify_submitter_signature(self) -> bool:
        return verify_signature(
            self.submitter_cert.subject_public_key,
            self.submitter_signature,
            self.signing_bytes(),
        )


def make_transaction(
    channel: Channel,
    function: TxFunction,
    key: str,
    payload: bytes,
    submitter_cert: CertificateRecord,
    submitter_key: KeyPair,
    submit_time_ms: int,
) -> Transaction:
    unsigned = Transaction(
        channel=channel,
        function=function,
        key=key,
        payload=payload,
        submitter_cert=submitter_cert,
        submitter_signature=b"",
        submit_time_ms=submit_time_ms,
    )
    return Transaction(
        channel=channel,
        function=function,
        key=key,
        payload=payload,
        submitter_cert=submitter_cert,
        submitter_signature=submitter_key.sign(unsigned.signing_bytes()),
        submit_time_ms=submit_time_ms,
    )


def decode_transaction(data: bytes) -> Transaction:
    r = wire.Reader(data)
    try:
        channel = Channel(r.str_field())
        function = TxFunction(r.str_field())
        key = r.str_field()
        payload = r.field()
        cert = decode_certificate(r.field())
        submit_time_ms = r.u64_field()
        signature = r.field()
        r.expect_end()
    except (wire.WireError, ValueError) as exc:
        raise LedgerError(f"undecodable transaction: {exc}") from exc
    return Transaction(
        channel=channel,
        function=function,
        key=key,
        payload=payload,
        submitter_cert=cert,
        submitter_signature=signature,
        submit_time_ms=submit_time_ms,
    )


@dataclass(frozen=True)
class BlockHeader:
    number: int
    prev_header_hash: bytes
    data_hash: bytes

    def __post_init__(self):
        if self.number < 0:
            raise LedgerError("block number cannot be negative")
        if len(self.prev_header_hash) != 32 or len(self.data_hash) != 32:
            raise LedgerError("header hashes must be 32 bytes")

    @cached_property
    def _encoding(self) -> bytes:
        return (
            wire.field(wire.u64(self.number))
            + wire.field(self.prev_header_hash)
            + wire.field(self.data_hash)
        )

    @cached_property
    def _hash(self) -> bytes:
        return sha256(self._encoding)

    def encode(self) -> bytes:
        return self._encoding

    def hash(self) -> bytes:
        return self._hash


def data_hash_of(transactions: Iterable[Transaction]) -> bytes:
    return sha256(b"".join(tx.canonical_body() for tx in transactions))


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple
    creator_cert: CertificateRecord
    creator_signature: bytes

    def encode(self) -> bytes:
        parts = [
            self.header.encode(),
            wire.field(canonical_encode(self.creator_cert)),
            wire.field(self.creator_signature),
            wire.field(wire.u32(len(self.transactions))),
        ]
        parts.extend(wire.field(tx.canonical_body()) for tx in self.transactions)
        return b"".join(parts)


def make_block(
    number: int,
    prev_header_hash: bytes,
    transactions: Iterable[Transaction],
    creator_cert: CertificateRecord,
    creator_key: KeyPair,
) -> Block:
    txs = tuple(transactions)
    header = BlockHeader(number=number, prev_header_hash=prev_header_hash, data_hash=data_hash_of(txs))
    return Block(
        header=header,
        transactions=txs,
        creator_cert=creator_cert,
        creator_signature=creator_key.sign(header.encode()),
    )


def decode_block(data: bytes) -> Block:
    r = wire.Reader(data)
    try:
        number_raw = r.field()
        if len(number_raw) != 8:
            raise wire.WireError("block number field must be 8 bytes")
        number = int.from_bytes(number_raw, "big")
        prev_hash = r.field()
        data_hash = r.field()
        creator_cert = decode_certificate(r.field())
        creator_signature = r.field()
        tx_count = r.u32_field()
        txs = tuple(decode_transaction(r.field()) for _ in range(tx_count))
        r.expect_end()
    except (wire.WireError, ValueError) as exc:
        raise LedgerError(f"undecodable block: {exc}") from exc
    return Block(
        header=BlockHeader(number=number, prev_header_hash=prev_hash, data_hash=data_hash),
        transactions=txs,
        creator_cert=creator_cert,
        creator_signature=creator_signature,
    )


@dataclass(frozen=True)
class StateEntry:
    payload: bytes
    function: TxFunction
    block_number: int


class Ledger:
    """One channel's committed chain plus the derived world state.

    Single writer (the owning node's commit loop); committed blocks are never
    mutated, only appended.
    """

    def __init__(self, channel: Channel):
        self.channel = channel
        self.blocks: List[Block] = []
        self.world_state: Dict[str, StateEntry] = {}
        self._creator_cert_bytes: Optional[bytes] = None

    @property
    def height(self) -> int:
        """Number of committed blocks (tip number + 1)."""
        return len(self.blocks)

    @property
    def tip_number(self) -> int:
        return len(self.blocks) - 1

    def head_hash(self) -> bytes:
        if not self.blocks:
            return ZERO_HASH
        return self.blocks[-1].header.hash()

    def check_block(self, block: Block) -> None:
        """Structural checks only; raises without mutating anything."""
        if block.header.number != len(self.blocks):
            raise NonMonotoneNumber(
                f"expected block {len(self.blocks)}, got {block.header.number}"
            )
        if block.header.prev_header_hash != self.head_hash():
            raise BrokenLinkage(f"block {block.header.number} does not extend the tip")
        if block.header.data_hash != data_hash_of(block.transactions):
            raise BrokenLinkage(f"block {block.header.number} data hash mismatch")
        if block.header.number > 0 and not block.transactions:
            raise LedgerError("non-genesis block carries no transactions")
        for tx in block.transactions:
            if tx.channel != self.channel:
                raise WrongChannel(
                    f"transaction for {tx.channel.value} in a {self.channel.value} block"
                )
        self._check_creator(block)

    def _check_creator(self, block: Block) -> None:
        cert_bytes = canonical_encode(block.creator_cert)
        if self._creator_cert_bytes is None:
            # Genesis registers the ordering service: the creator record must
            # be a valid self-signed OSP certificate.
            if role_of_name(block.creator_cert.subject_name) != AuthorityRole.OSP:
                raise BadCreatorSignature("genesis creator is not an ordering service")
            if not block.creator_cert.is_self_signed or not verify_certificate_signature(
                block.creator_cert, block.creator_cert.subject_public_key
            ):
                raise BadCreatorSignature("genesis creator certificate does not self-verify")
        elif cert_bytes != self._creator_cert_bytes:
            raise BadCreatorSignature("creator certificate differs from the genesis registration")
        if not verify_signature(
            block.creator_cert.subject_public_key,
            block.creator_signature,
            block.header.encode(),
        ):
            raise BadCreatorSignature(f"block {block.header.number} creator signature invalid")

    def append_block(self, block: Block) -> None:
        """Check the block, then commit it."""
        self.check_block(block)
        self._append(block)

    def _append(self, block: Block) -> None:
        """Commit a block that check_block has just passed; checks nothing."""
        if self._creator_cert_bytes is None:
            self._creator_cert_bytes = canonical_encode(block.creator_cert)
        self.blocks.append(block)
        for tx in block.transactions:
            self.world_state[tx.key] = StateEntry(
                payload=tx.payload, function=tx.function, block_number=block.header.number
            )

    def world_state_get(self, key: str) -> Optional[StateEntry]:
        return self.world_state.get(key)

    def world_state_digest(self) -> bytes:
        parts = []
        for key in sorted(self.world_state):
            entry = self.world_state[key]
            parts.append(
                wire.field(key.encode("utf-8"))
                + wire.field(entry.payload)
                + wire.field(entry.function.value.encode("utf-8"))
                + wire.field(wire.u64(entry.block_number))
            )
        return sha256(b"".join(parts))


def replay_from_genesis(channel: Channel, blocks: Iterable[Block]) -> Ledger:
    """Rebuild a ledger by committing the given blocks in order.

    Propagates the first append failure, so a corrupted export never yields a
    silently truncated state.
    """
    ledger = Ledger(channel)
    for block in blocks:
        ledger.append_block(block)
    return ledger


def verify_chain(ledger: Ledger) -> Optional[int]:
    """Full integrity scan; returns the first failing block number, or None.

    Checks every header link, data hash, creator certificate and signature,
    and every transaction's submitter signature.  The returned number is the
    position in the sequence, which is what a tampered block's self-declared
    number can no longer be trusted to state.
    """
    check = Ledger(ledger.channel)
    for position, block in enumerate(ledger.blocks):
        try:
            check.check_block(block)
            for tx in block.transactions:
                if not tx.verify_submitter_signature():
                    raise LedgerError("bad transaction signature")
        except LedgerError:
            return position
        check._append(block)
    return None


def encode_chain(blocks: Iterable[Block]) -> bytes:
    """Ledger file image: magic, format version, then length-prefixed blocks."""
    out = [LEDGER_MAGIC, bytes([LEDGER_FORMAT_VERSION])]
    out.extend(wire.field(block.encode()) for block in blocks)
    return b"".join(out)


def decode_chain(data: bytes) -> List[Block]:
    if data[: len(LEDGER_MAGIC)] != LEDGER_MAGIC:
        raise LedgerError("not a ledger file (bad magic)")
    if len(data) < len(LEDGER_MAGIC) + 1 or data[len(LEDGER_MAGIC)] != LEDGER_FORMAT_VERSION:
        raise LedgerError("unsupported ledger format version")
    r = wire.Reader(data[len(LEDGER_MAGIC) + 1 :])
    blocks = []
    while r.remaining:
        try:
            blocks.append(decode_block(r.field()))
        except wire.WireError as exc:
            raise LedgerError(f"truncated ledger file: {exc}") from exc
    return blocks


def infer_channel(blocks: List[Block]) -> Channel:
    for block in blocks:
        for tx in block.transactions:
            return tx.channel
    return Channel.GCCF
