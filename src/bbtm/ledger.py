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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, TypeVar

from . import wire
from .identity import (
    AuthorityRole,
    CertificateRecord,
    KeyPair,
    canonical_encode,
    decode_certificate,
    keep,
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


class BadTxSignature(LedgerError):
    """A submitter signature fails; check_block raises it after every other check."""


T = TypeVar("T")


def _kept_decode(value, decode: Callable[[bytes], T]) -> T:
    """decode(value.payload), kept in the value's ``_decoded`` slot.

    A payload has one decoder, fixed by its function, so only the first call
    decodes.  The slot is not a dataclass field: equality, hashing, repr and
    replace() never see it.  A decode that raises keeps nothing, so every
    later reader meets the same failure.
    """
    try:
        return value._decoded
    except AttributeError:
        return keep(value, "_decoded", decode(value.payload))


@dataclass(frozen=True)
class Transaction:
    # The fields, then what the transaction keeps once computed: its signing
    # bytes, framed signature and id (on first read, see identity.keep), the
    # record its payload decodes to, and the world-state entry it last wrote.
    # None of those slots is a field.
    __slots__ = (
        "channel", "function", "key", "payload", "submitter_cert", "submitter_signature", "submit_time_ms",
        "_signing_bytes", "_signature_field", "tx_id", "_decoded", "_state_entry",
    )

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

    def __getattr__(self, name: str):
        if name == "_signing_bytes":
            return keep(self, name, self._join_signing_bytes())
        if name == "_signature_field":
            return keep(self, name, wire.field(self.submitter_signature))
        if name == "tx_id":
            return keep(self, name, sha256(self.canonical_body()))
        raise AttributeError(name)

    def _join_signing_bytes(self) -> bytes:
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

    def signing_bytes(self) -> bytes:
        return self._signing_bytes

    def canonical_body(self) -> bytes:
        """The signing bytes and the framed signature, joined on each call and kept by no one."""
        return self._signing_bytes + self._signature_field

    @property
    def body_size(self) -> int:
        """len(self.canonical_body()), without joining it."""
        return len(self._signing_bytes) + len(self._signature_field)

    def verify_submitter_signature(self) -> bool:
        return verify_signature(
            self.submitter_cert.subject_public_key,
            self.submitter_signature,
            self.signing_bytes(),
        )

    def decoded(self, decode: Callable[[bytes], T]) -> T:
        """The record the payload decodes to, decoded once per transaction.

        The orderer's admission check and every peer's contracts share the
        one record, so it must never be mutated.
        """
        return _kept_decode(self, decode)

    def state_entry(self, block_number: int) -> "StateEntry":
        """The world-state entry this transaction writes in block block_number.

        The last entry made is kept in a slot, so every node that commits
        the same transaction in the same block stores one shared entry
        instead of a copy of its own.  The entry starts with the
        transaction's decoded record, if it has one.
        """
        entry = getattr(self, "_state_entry", None)
        if entry is None or entry.block_number != block_number:
            entry = keep(self, "_state_entry", StateEntry(self.payload, self.function, block_number))
            record = getattr(self, "_decoded", None)
            if record is not None:
                keep(entry, "_decoded", record)
        return entry


def make_transaction(
    channel: Channel,
    function: TxFunction,
    key: str,
    payload: bytes,
    submitter_cert: CertificateRecord,
    submitter_key: KeyPair,
    submit_time_ms: int,
    record: Optional[object] = None,
) -> Transaction:
    """Sign a new transaction; ``record``, if given, is the immutable record the payload encodes.

    The transaction starts with that record as its decoding, so the payload
    is never decoded into a second copy of it.  A payload must be exactly
    the record's encoding, which decodes back to an equal record.
    """
    fields = dict(
        channel=channel, function=function, key=key, payload=payload, submitter_cert=submitter_cert,
        submit_time_ms=submit_time_ms,
    )
    signing = Transaction(**fields, submitter_signature=b"").signing_bytes()
    signed = Transaction(**fields, submitter_signature=submitter_key.sign(signing))
    # The signature is outside what it signs: the signed transaction keeps the same signing bytes.
    keep(signed, "_signing_bytes", signing)
    if record is not None:
        keep(signed, "_decoded", record)
    return signed


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
    """SHA-256 of the transactions' joined canonical bodies, joined from their two kept parts."""
    parts = []
    for tx in transactions:
        parts += (tx._signing_bytes, tx._signature_field)
    return sha256(b"".join(parts))


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
        # Each body is framed from its two kept parts: its length, then the parts.
        for tx in self.transactions:
            parts += (wire.u32(tx.body_size), tx._signing_bytes, tx._signature_field)
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
        number = r.u64_field()
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
    # The fields, then the kept decoded record, which is not a field.
    __slots__ = ("payload", "function", "block_number", "_decoded")

    payload: bytes
    function: TxFunction
    block_number: int

    def decoded(self, decode: Callable[[bytes], T]) -> T:
        """The record the payload decodes to, shared like Transaction.decoded."""
        return _kept_decode(self, decode)


# Each function's name as a world-state digest line frames it.
_FUNCTION_FIELDS = {function: wire.field(function.value.encode("utf-8")) for function in TxFunction}


class Ledger:
    """One channel's committed chain plus the derived world state.

    Single writer (the owning node's commit loop); committed blocks are never
    mutated, only appended.  ``world_state`` is the one store the channel's
    contracts read and write; the ledger itself never writes it, so a
    standalone ledger (``verify_chain``) keeps an empty one.
    """

    def __init__(self, channel: Channel):
        self.channel = channel
        # Number of committed blocks (tip number + 1) and the tip's header
        # hash, both kept by _link.
        self.height = 0
        self._head = ZERO_HASH
        # The committed blocks not held as _image, in chain order.
        self._blocks: List[Block] = []
        # A restored ledger's chain file image of its first blocks, decoded
        # only when a reader asks for the blocks themselves.
        self._image: Optional[bytes] = None
        self.world_state: Dict[str, StateEntry] = {}
        # The genesis creator's certificate encoding: every later block is cut by it.
        self.creator_cert_bytes: Optional[bytes] = None
        # The id of every chained transaction: each is committed once.
        self.tx_ids: Set[bytes] = set()

    @property
    def blocks(self) -> List[Block]:
        """The committed blocks; a restored ledger decodes its image on first use."""
        if self._image is not None:
            self._blocks[:0] = decode_chain(self._image)
            self._image = None
        return self._blocks

    @property
    def tip_number(self) -> int:
        return self.height - 1

    def head_hash(self) -> bytes:
        return self._head

    def has_tx(self, tx: Transaction) -> bool:
        return tx.tx_id in self.tx_ids

    def chain_image(self) -> bytes:
        """The ledger file image of the chain, encode_chain(self.blocks), without decoding a restored image."""
        if self._image is None:
            return encode_chain(self._blocks)
        return self._image + b"".join(wire.field(block.encode()) for block in self._blocks)

    def restore(self, image: bytes, height: int, head: bytes, creator_cert_bytes: bytes, tx_ids: Set[bytes]) -> None:
        """Become, without decoding it, the ledger that committing the chain file image made.

        Only for an empty ledger, and for an image and facts this program
        wrote from a node that had committed every block of it (a savepoint).
        The world state is the caller's to fill, as on a commit.
        """
        self._image = image
        self.height = height
        self._head = head
        self.creator_cert_bytes = creator_cert_bytes
        self.tx_ids = tx_ids

    def check_block(self, block: Block) -> None:
        """Structure, creator, then submitter signatures; raises without mutating anything.

        BadTxSignature comes last, so it means every other check has passed.
        """
        if block.header.number != self.height:
            raise NonMonotoneNumber(f"expected block {self.height}, got {block.header.number}")
        if block.header.prev_header_hash != self.head_hash():
            raise BrokenLinkage(f"block {block.header.number} does not extend the tip")
        if block.header.data_hash != data_hash_of(block.transactions):
            raise BrokenLinkage(f"block {block.header.number} data hash mismatch")
        if block.header.number > 0 and not block.transactions:
            raise LedgerError("non-genesis block carries no transactions")
        ids = {tx.tx_id for tx in block.transactions}
        if len(ids) != len(block.transactions) or not self.tx_ids.isdisjoint(ids):
            raise LedgerError(f"block {block.header.number} repeats a transaction")
        for tx in block.transactions:
            if tx.channel != self.channel:
                raise WrongChannel(
                    f"transaction for {tx.channel.value} in a {self.channel.value} block"
                )
        self._check_creator(block)
        for tx in block.transactions:
            if not tx.verify_submitter_signature():
                raise BadTxSignature("bad-tx-signature")

    def _check_creator(self, block: Block) -> None:
        cert_bytes = canonical_encode(block.creator_cert)
        if self.creator_cert_bytes is None:
            # Genesis registers the ordering service: the creator record must
            # be a valid self-signed OSP certificate.
            if block.creator_cert.subject_role != AuthorityRole.OSP:
                raise BadCreatorSignature("genesis creator is not an ordering service")
            if not block.creator_cert.is_self_signed or not verify_certificate_signature(
                block.creator_cert, block.creator_cert.subject_public_key
            ):
                raise BadCreatorSignature("genesis creator certificate does not self-verify")
        elif cert_bytes != self.creator_cert_bytes:
            raise BadCreatorSignature("creator certificate differs from the genesis registration")
        if not verify_signature(
            block.creator_cert.subject_public_key,
            block.creator_signature,
            block.header.encode(),
        ):
            raise BadCreatorSignature(f"block {block.header.number} creator signature invalid")

    def append_block(self, block: Block) -> None:
        """Check the block, then chain it; writes no state."""
        self.check_block(block)
        self._link(block)

    def _link(self, block: Block) -> None:
        """Chain a block that check_block has just passed; checks nothing."""
        if self.creator_cert_bytes is None:
            self.creator_cert_bytes = canonical_encode(block.creator_cert)
        self._blocks.append(block)
        self.height += 1
        self._head = block.header.hash()
        self.tx_ids.update(tx.tx_id for tx in block.transactions)

    def world_state_digest(self) -> bytes:
        """SHA-256 of every entry framed in key order (FORMAT.md "World-state digest")."""
        return sha256(b"".join(
            wire.field(key.encode("utf-8")) + wire.field(entry.payload) + _FUNCTION_FIELDS[entry.function]
            + wire.field(wire.u64(entry.block_number))
            for key, entry in sorted(self.world_state.items())
        ))


def verify_chain(channel: Channel, blocks: Iterable[Block]) -> Tuple[Ledger, Optional[int]]:
    """Check a chain's structure and signatures; no contract runs, no state is written.

    Raises the first failure other than a bad submitter signature, so a
    corrupted export never passes as a shorter chain.  Otherwise returns the
    chained ledger and the position of the first block with a bad submitter
    signature, or None: a position, because a tampered block's own number
    cannot be trusted.
    """
    ledger = Ledger(channel)
    fail_at = None
    for position, block in enumerate(blocks):
        try:
            ledger.append_block(block)
        except BadTxSignature:
            if fail_at is None:
                fail_at = position
            ledger._link(block)
    # A chain without its genesis block holds no consortium to check against.
    if ledger.height == 0:
        raise LedgerError(f"{channel.value} chain has no genesis block")
    return ledger, fail_at


def encode_chain(blocks: Iterable[Block]) -> bytes:
    """Ledger file image: magic, format version, then length-prefixed blocks."""
    out = [LEDGER_MAGIC, bytes([LEDGER_FORMAT_VERSION])]
    out.extend(wire.field(block.encode()) for block in blocks)
    return b"".join(out)


def chain_size(blocks: Iterable[Block]) -> int:
    """len(encode_chain(blocks)), encoded block by block without building the image."""
    return len(LEDGER_MAGIC) + 1 + sum(4 + len(block.encode()) for block in blocks)


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
