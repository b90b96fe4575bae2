"""Elector-based root management: endorsements, ballots, and application.

Electors vote on adding or revoking root and elector certificates by signing
endorsements.  Endorsements travel as ordinary ledger transactions on the
certificate channel under ``ballot/...`` keys; a ballot is accepted once the
quorum the policy genesis sets is reached, and applying an accepted ballot
turns into a regular add/revoke transaction for the target record.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Optional

from . import wire
from .identity import (
    AuthorityRole,
    CertificateRecord,
    KeyPair,
    UID_LEN,
    canonical_encode,
    decode_certificate,
    sha256,
    verify_signature,
)
from .ledger import Channel, Transaction, TxFunction, make_transaction

DEFAULT_BALLOT_QUORUM = 2


class BallotError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class EndorsementType(str, Enum):
    ADD_ROOT = "AddRootCert"
    REVOKE_ROOT = "RevokeRootCert"
    ADD_ELECTOR = "AddElectorCert"
    REVOKE_ELECTOR = "RevokeElectorCert"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_add(self) -> bool:
        return self in (EndorsementType.ADD_ROOT, EndorsementType.ADD_ELECTOR)


class BallotStatus(str, Enum):
    OPEN = "open"
    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass(frozen=True)
class Endorsement:
    endorsement_type: EndorsementType
    target_cert_digest: bytes
    elector_id: bytes
    elector_signature: bytes
    target_cert: Optional[CertificateRecord] = None

    def __post_init__(self):
        if len(self.target_cert_digest) != 32:
            raise BallotError("target digest must be 32 bytes")
        if len(self.elector_id) != UID_LEN:
            raise BallotError("elector id must be 16 bytes")

    def signing_bytes(self) -> bytes:
        return (
            wire.field(self.endorsement_type.value.encode("utf-8"))
            + wire.field(self.target_cert_digest)
            + wire.field(self.elector_id)
        )

    def verify(self, elector_public_key: bytes) -> bool:
        if not verify_signature(elector_public_key, self.elector_signature, self.signing_bytes()):
            return False
        if self.target_cert is not None:
            return sha256(canonical_encode(self.target_cert)) == self.target_cert_digest
        return True


def encode_endorsement(endorsement: Endorsement) -> bytes:
    cert_bytes = b"" if endorsement.target_cert is None else canonical_encode(endorsement.target_cert)
    return endorsement.signing_bytes() + wire.field(endorsement.elector_signature) + wire.field(cert_bytes)


@functools.lru_cache(maxsize=65536)
def decode_endorsement(data: bytes) -> Endorsement:
    r = wire.Reader(data)
    try:
        etype = EndorsementType(r.str_field())
        digest = r.field()
        elector_id = r.field()
        signature = r.field()
        cert_bytes = r.field()
        r.expect_end()
    except (wire.WireError, ValueError) as exc:
        raise BallotError(f"undecodable endorsement: {exc}") from exc
    return Endorsement(
        endorsement_type=etype,
        target_cert_digest=digest,
        elector_id=elector_id,
        elector_signature=signature,
        target_cert=decode_certificate(cert_bytes) if cert_bytes else None,
    )


def endorsement_to_json(endorsement: Endorsement) -> dict:
    from .identity import cert_to_json

    return {
        "endorsement_type": endorsement.endorsement_type.value,
        "target_cert_digest": endorsement.target_cert_digest.hex(),
        "elector_id": endorsement.elector_id.hex(),
        "elector_signature": endorsement.elector_signature.hex(),
        "target_cert": None if endorsement.target_cert is None else cert_to_json(endorsement.target_cert),
    }


@dataclass
class Ballot:
    endorsement_type: EndorsementType
    target_cert_digest: bytes
    endorsements: Dict[bytes, Endorsement]
    status: BallotStatus
    target_cert: Optional[CertificateRecord] = None

    @property
    def valid_count(self) -> int:
        return len(self.endorsements)

    def to_json(self) -> dict:
        return {
            "endorsement_type": self.endorsement_type.value,
            "target_cert_digest": self.target_cert_digest.hex(),
            "valid_electors": sorted(eid.hex() for eid in self.endorsements),
            "valid_count": self.valid_count,
            "status": self.status.value,
        }


def ballot_key(endorsement_type: EndorsementType, target_serial: bytes) -> str:
    return f"ballot/{endorsement_type.value}/{target_serial.hex()}"


def _committed_elector(view, elector_id: bytes):
    """The elector's currently committed, unrevoked record; None otherwise."""
    found = view.get_cert(elector_id)
    if found is None:
        return None
    record, entry = found
    if entry.function != TxFunction.ADD_CERT:
        return None
    if record.subject_role != AuthorityRole.ELECTOR:
        return None
    return record


def create_endorsement(
    elector_key: KeyPair,
    elector_cert: CertificateRecord,
    endorsement_type: EndorsementType,
    target_cert: CertificateRecord,
    view,
) -> Endorsement:
    """Sign a vote over the exact target bytes.

    The elector must currently be committed and unrevoked on the certificate
    channel; a revoked elector cannot vote.
    """
    committed = view.get_cert(elector_cert.subject_unique_id)
    if committed is None:
        raise BallotError("unknown-elector")
    record, entry = committed
    if entry.function != TxFunction.ADD_CERT:
        raise BallotError("revoked-elector")
    if canonical_encode(record) != canonical_encode(elector_cert):
        raise BallotError("unknown-elector")
    unsigned = Endorsement(
        endorsement_type=endorsement_type,
        target_cert_digest=sha256(canonical_encode(target_cert)),
        elector_id=elector_cert.subject_unique_id,
        elector_signature=b"",
        target_cert=target_cert if endorsement_type.is_add else None,
    )
    return replace(unsigned, elector_signature=elector_key.sign(unsigned.signing_bytes()))


def make_endorsement_tx(
    endorsement: Endorsement,
    target_serial: bytes,
    elector_cert: CertificateRecord,
    elector_key: KeyPair,
    submit_time_ms: int,
) -> Transaction:
    return make_transaction(
        channel=Channel.GCCF,
        function=TxFunction.BALLOT_ENDORSE,
        key=ballot_key(endorsement.endorsement_type, target_serial),
        payload=encode_endorsement(endorsement),
        submitter_cert=elector_cert,
        submitter_key=elector_key,
        submit_time_ms=submit_time_ms,
        record=endorsement,
    )


def tally_ballot(view, endorsement_type: EndorsementType, target_cert_digest: bytes) -> Ballot:
    """Count the committed endorsements for one (type, target) ballot.

    Duplicate endorsements from one elector count once, and votes from
    electors revoked as of the current state are discarded.  The ballot is
    accepted at ``valid >= view.quorum``.
    """
    valid: Dict[bytes, Endorsement] = {}
    target_cert = None
    for _block_number, endorsement in view.endorsement_log:
        if endorsement.endorsement_type != endorsement_type:
            continue
        if endorsement.target_cert_digest != target_cert_digest:
            continue
        elector = _committed_elector(view, endorsement.elector_id)
        if elector is None:
            continue
        if not endorsement.verify(elector.subject_public_key):
            continue
        valid[endorsement.elector_id] = endorsement
        if endorsement.target_cert is not None:
            target_cert = endorsement.target_cert
    status = BallotStatus.ACCEPTED if len(valid) >= view.quorum else BallotStatus.OPEN
    return Ballot(
        endorsement_type=endorsement_type,
        target_cert_digest=target_cert_digest,
        endorsements=valid,
        status=status,
        target_cert=target_cert,
    )


def _find_committed_by_digest(view, digest: bytes):
    for entry in view.cert_entries():
        if sha256(entry.payload) == digest:
            return entry.decoded(decode_certificate), entry
    return None


def apply_ballot(
    view,
    ballot: Ballot,
    elector_cert: CertificateRecord,
    elector_key: KeyPair,
    submit_time_ms: int,
) -> Transaction:
    """Turn an accepted ballot into the add/revoke transaction it authorizes.

    The transaction is submitted by an elector; the contract re-checks the
    tally against the chain when the transaction commits, so a stale or
    forged application is rejected there as well.
    """
    # Imported here because gccf imports this module for its tallies.
    from .gccf import make_add_cert_tx, make_revoke_cert_tx

    if ballot.status != BallotStatus.ACCEPTED:
        raise BallotError("not-accepted")
    if ballot.endorsement_type.is_add:
        target = ballot.target_cert
        if target is None:
            raise BallotError("missing-target")
        committed = view.get_cert(target.subject_unique_id)
        if committed is not None:
            record, entry = committed
            if entry.function == TxFunction.ADD_CERT and entry.payload == canonical_encode(target):
                raise BallotError("already-applied")
        return make_add_cert_tx(target, elector_cert, elector_key, submit_time_ms)
    found = _find_committed_by_digest(view, ballot.target_cert_digest)
    if found is None:
        raise BallotError("unknown-target")
    record, entry = found
    if entry.function == TxFunction.REVOKE_CERT:
        raise BallotError("already-applied")
    return make_revoke_cert_tx(record, elector_cert, elector_key, submit_time_ms)
