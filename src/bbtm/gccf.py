"""Certificate-chain contract for the GCCF channel.

Pure transitions over a channel state view: certificate addition under the
issuance permission matrix, PG- or ballot-authorized revocation, chain-of-
trust validation up to a ballot-approved anchor, and the exported chain-file
snapshot.  The owning node applies committed blocks through these functions
serially; reads may run on any state copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from . import wire
from .ballot import (
    Ballot,
    BallotStatus,
    DEFAULT_BALLOT_QUORUM,
    Endorsement,
    EndorsementType,
    decode_endorsement,
    tally_ballot,
)
from .identity import (
    AuthorityRole,
    CertFunction,
    CertificateError,
    CertificateRecord,
    KeyPair,
    canonical_encode,
    cert_json_text,
    cert_key,
    cert_to_json,
    decode_certificate,
    dump_json,
    resign_as,
    sha256,
    verify_certificate_signature,
)
from .ledger import Channel, StateEntry, Transaction, TxFunction, make_transaction

# Who may certify whom (§ role model): electors manage roots and themselves
# through ballots only; the root CA certifies intermediates, the misbehavior
# authority and the policy generator; intermediates certify the leaf-level
# authorities.  Every other role has no issuance rights.
ISSUANCE_MATRIX: Dict[AuthorityRole, frozenset] = {
    AuthorityRole.ELECTOR: frozenset({AuthorityRole.RCA, AuthorityRole.ELECTOR}),
    AuthorityRole.RCA: frozenset({AuthorityRole.ICA, AuthorityRole.MA, AuthorityRole.PG}),
    AuthorityRole.ICA: frozenset(
        {AuthorityRole.PCA, AuthorityRole.RA, AuthorityRole.ECA, AuthorityRole.LA}
    ),
}

BALLOT_GOVERNED = frozenset({AuthorityRole.ELECTOR, AuthorityRole.RCA})
TRUST_ANCHOR_ROLES = BALLOT_GOVERNED

ROLE_ORDER = {role: i for i, role in enumerate(AuthorityRole)}


class ContractRejection(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def issuance_allowed(issuer_role: AuthorityRole, subject_role: AuthorityRole) -> bool:
    return subject_role in ISSUANCE_MATRIX.get(issuer_role, frozenset())


def validate_key(serial: bytes) -> str:
    return f"validate/{serial.hex()}"


class GccfView:
    """Contract state for one node's copy of the channel.

    Reads and writes the world state it is given (on a node, the channel
    ledger's own store) and keeps the two derived indexes the contract
    needs: the set of serials ever committed and the ordered endorsement
    log.  All three are rebuilt identically by replaying the block sequence.
    ``quorum`` is the policy genesis's ballot quorum, which every tally reads.
    """

    def __init__(self, world: Optional[Dict[str, StateEntry]] = None):
        self.world: Dict[str, StateEntry] = {} if world is None else world
        self.serials: Set[bytes] = set()
        self.endorsement_log: List[Tuple[int, Endorsement]] = []
        self.quorum = DEFAULT_BALLOT_QUORUM

    def copy(self) -> "GccfView":
        """An independent view over a copy of the store."""
        out = GccfView(dict(self.world))
        out.serials = set(self.serials)
        out.endorsement_log = list(self.endorsement_log)
        out.quorum = self.quorum
        return out

    def entry(self, key: str) -> Optional[StateEntry]:
        return self.world.get(key)

    def cert_entry(self, unique_id: bytes) -> Optional[StateEntry]:
        return self.world.get(cert_key(unique_id))

    def get_cert(self, unique_id: bytes) -> Optional[Tuple[CertificateRecord, StateEntry]]:
        entry = self.cert_entry(unique_id)
        if entry is None:
            return None
        return entry.decoded(decode_certificate), entry

    def cert_entries(self) -> Iterator[StateEntry]:
        """The certificate entries in key order, undecoded: a caller decodes only those it keeps."""
        for key in sorted(self.world):
            if key.startswith("cert/"):
                yield self.world[key]


def _decoded_cert(tx: Transaction, reason: str) -> CertificateRecord:
    try:
        return tx.decoded(decode_certificate)
    except CertificateError:
        raise ContractRejection(reason) from None


def committed_identity(view: GccfView, submitter: CertificateRecord) -> Optional[StateEntry]:
    """The submitter's committed record iff it byte-matches the carried one."""
    entry = view.world.get(submitter.state_key)
    if entry is None or entry.payload != canonical_encode(submitter):
        return None
    return entry


def holds_role(view: GccfView, cert: CertificateRecord, role: AuthorityRole) -> bool:
    """True iff ``cert`` is committed as carried, not revoked, and has ``role``."""
    entry = committed_identity(view, cert)
    return entry is not None and entry.function == TxFunction.ADD_CERT and cert.subject_role == role


def add_cert(view: GccfView, tx: Transaction, *, block_number: int) -> None:
    """Check an addition and record its serial, or raise ContractRejection.

    Root and elector subjects are ballot-governed: outside the genesis
    bootstrap they commit only when an accepted add ballot for the exact
    payload bytes exists in prior state.
    """
    cert = _decoded_cert(tx, "bad-signature")
    if cert.function_type != CertFunction.ADD or tx.key != cert.state_key:
        raise ContractRejection("bad-signature")
    if cert.serial_number in view.serials:
        raise ContractRejection("duplicate-serial")
    # A subject uid names one record for good: a second addition would
    # replace a committed (possibly ballot-governed) record or un-revoke one.
    if tx.key in view.world:
        raise ContractRejection("duplicate-subject")
    subject_role = cert.subject_role
    if subject_role is None:
        raise ContractRejection("role-violation")
    submitter = tx.submitter_cert

    if subject_role in BALLOT_GOVERNED:
        if not cert.is_self_signed:
            raise ContractRejection("role-violation")
        if block_number == 0:
            # Genesis bootstrap: the initial electors and root are embedded
            # pre-approved, each submitting its own self-signed record.
            if submitter.subject_unique_id != cert.subject_unique_id:
                raise ContractRejection("role-violation")
        else:
            if not holds_role(view, submitter, AuthorityRole.ELECTOR):
                raise ContractRejection("role-violation")
            etype = (
                EndorsementType.ADD_ROOT
                if subject_role == AuthorityRole.RCA
                else EndorsementType.ADD_ELECTOR
            )
            tally = tally_ballot(view, etype, sha256(tx.payload))
            if tally.status != BallotStatus.ACCEPTED:
                raise ContractRejection("role-violation")
        if not verify_certificate_signature(cert, cert.subject_public_key):
            raise ContractRejection("bad-signature")
    else:
        issuer_entry = view.cert_entry(cert.issuer_unique_id)
        if issuer_entry is None:
            raise ContractRejection("unknown-issuer")
        if issuer_entry.function != TxFunction.ADD_CERT:
            raise ContractRejection("revoked-issuer")
        issuer = issuer_entry.decoded(decode_certificate)
        issuer_role = issuer.subject_role
        if issuer_role is None or not issuance_allowed(issuer_role, subject_role):
            raise ContractRejection("role-violation")
        if submitter.subject_unique_id != issuer.subject_unique_id:
            raise ContractRejection("role-violation")
        if canonical_encode(submitter) != issuer_entry.payload:
            raise ContractRejection("bad-signature")
        if not verify_certificate_signature(cert, issuer.subject_public_key):
            raise ContractRejection("bad-signature")

    view.serials.add(cert.serial_number)


def revoke_cert(view: GccfView, tx: Transaction) -> None:
    """Check a revocation, or raise ContractRejection.

    Ordinary authority certificates are revoked by the policy generator;
    root and elector certificates only through an accepted revoke ballot
    submitted by an elector.
    """
    cert = _decoded_cert(tx, "unknown-target")
    if cert.function_type != CertFunction.REVOKE or tx.key != cert.state_key:
        raise ContractRejection("unknown-target")
    target_entry = view.entry(tx.key)
    if target_entry is None:
        raise ContractRejection("unknown-target")
    if target_entry.function == TxFunction.REVOKE_CERT:
        raise ContractRejection("already-revoked")
    committed = target_entry.decoded(decode_certificate)
    if committed.serial_number != cert.serial_number:
        raise ContractRejection("unknown-target")
    target_role = committed.subject_role
    submitter = tx.submitter_cert

    if target_role in BALLOT_GOVERNED:
        if not holds_role(view, submitter, AuthorityRole.ELECTOR):
            raise ContractRejection("not-PG")
        etype = (
            EndorsementType.REVOKE_ROOT
            if target_role == AuthorityRole.RCA
            else EndorsementType.REVOKE_ELECTOR
        )
        tally = tally_ballot(view, etype, sha256(target_entry.payload))
        if tally.status != BallotStatus.ACCEPTED:
            raise ContractRejection("not-PG")
    elif not holds_role(view, submitter, AuthorityRole.PG):
        raise ContractRejection("not-PG")
    if not verify_certificate_signature(cert, submitter.subject_public_key):
        raise ContractRejection("not-PG")


def _apply_endorse(view: GccfView, tx: Transaction, block_number: int) -> None:
    try:
        endorsement = tx.decoded(decode_endorsement)
    except Exception:
        raise ContractRejection("bad-endorsement") from None
    submitter = tx.submitter_cert
    entry = committed_identity(view, submitter)
    if entry is None or submitter.subject_role != AuthorityRole.ELECTOR:
        raise ContractRejection("not-elector")
    if entry.function != TxFunction.ADD_CERT:
        raise ContractRejection("revoked-elector")
    if endorsement.elector_id != submitter.subject_unique_id:
        raise ContractRejection("bad-endorsement")
    if not endorsement.verify(submitter.subject_public_key):
        raise ContractRejection("bad-endorsement")
    if not tx.key.startswith(f"ballot/{endorsement.endorsement_type.value}/"):
        raise ContractRejection("bad-endorsement")
    view.endorsement_log.append((block_number, endorsement))


def _check_validate(tx: Transaction) -> None:
    # A validation request is recorded for audit; the verdict itself is a
    # read-time computation so that committing it never depends on the local
    # clock of whichever node replays the block.
    cert = _decoded_cert(tx, "bad-payload")
    if tx.key != validate_key(cert.serial_number):
        raise ContractRejection("bad-payload")


def apply_tx(view: GccfView, tx: Transaction, *, block_number: int) -> None:
    """Check one committed transaction against the view, then write its entry.

    The function's own check raises ContractRejection before anything is
    written; the entry written here is the channel's only state write.
    """
    if tx.function == TxFunction.ADD_CERT:
        add_cert(view, tx, block_number=block_number)
    elif tx.function == TxFunction.REVOKE_CERT:
        revoke_cert(view, tx)
    elif tx.function == TxFunction.BALLOT_ENDORSE:
        _apply_endorse(view, tx, block_number)
    elif tx.function == TxFunction.VALIDATE_CERT:
        _check_validate(tx)
    else:
        raise ContractRejection("wrong-channel")
    view.world[tx.key] = tx.state_entry(block_number)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: Optional[str]
    path: Tuple[bytes, ...]

    def to_json(self) -> dict:
        return {
            "result": "Success" if self.ok else "NotVerify",
            "reason": self.reason,
            "path": [serial.hex() for serial in self.path],
        }


def _not_verify(reason: str, path: List[bytes]) -> ValidationResult:
    return ValidationResult(ok=False, reason=reason, path=tuple(path))


def validate_cert(view: GccfView, cert: CertificateRecord, now_s: float) -> ValidationResult:
    """Walk the chain of trust from the presented record up to an anchor.

    Success requires every record on the path to be committed and unrevoked,
    inside its validity window at the current virtual time, with every hop's
    signature verifying, ending at a committed self-signed root or elector.
    """
    path: List[bytes] = []
    visited: Set[bytes] = set()
    current = cert
    current_bytes = canonical_encode(cert)
    while True:
        uid = current.subject_unique_id
        if uid in visited:
            return _not_verify("missing-link", path)
        visited.add(uid)
        entry = view.world.get(current.state_key)
        if entry is None:
            return _not_verify("missing-link", path)
        if entry.function == TxFunction.REVOKE_CERT:
            # A revocation commits the record re-tagged and re-signed, so the
            # addition a holder presents is matched by its serial.
            if entry.decoded(decode_certificate).serial_number == current.serial_number:
                return _not_verify("revoked-on-path", path)
            return _not_verify("missing-link", path)
        if entry.payload != current_bytes:
            return _not_verify("missing-link", path)
        if not current.covers(now_s):
            return _not_verify("expired-on-path", path)
        path.append(current.serial_number)
        if current.is_self_signed:
            if current.subject_role not in TRUST_ANCHOR_ROLES:
                return _not_verify("missing-link", path)
            if not verify_certificate_signature(current, current.subject_public_key):
                return _not_verify("bad-signature", path)
            return ValidationResult(ok=True, reason=None, path=tuple(path))
        issuer_entry = view.cert_entry(current.issuer_unique_id)
        if issuer_entry is None:
            return _not_verify("missing-link", path)
        issuer = issuer_entry.decoded(decode_certificate)
        if not verify_certificate_signature(current, issuer.subject_public_key):
            return _not_verify("bad-signature", path)
        current = issuer
        current_bytes = issuer_entry.payload


@dataclass(frozen=True)
class GccfSnapshot:
    """The exported certificate chain file: version, ballots, active records.

    ``encodings`` holds each record's committed AddCert payload, in the order
    of ``certificates``.  A payload is the record's canonical encoding (the
    contract committed the bytes it decoded), so encode() frames the bytes
    as committed instead of encoding every record again.
    """

    version: int
    ballots: Tuple[Ballot, ...]
    certificates: Tuple[CertificateRecord, ...]
    encodings: Tuple[bytes, ...]

    def encode(self) -> bytes:
        parts = [wire.field(wire.u64(self.version)), wire.field(wire.u32(len(self.ballots)))]
        for b in self.ballots:
            parts.append(wire.field(b.endorsement_type.value.encode("utf-8")))
            parts.append(wire.field(b.target_cert_digest))
            parts.append(wire.field(b.status.value.encode("utf-8")))
            elector_ids = sorted(b.endorsements)
            parts.append(wire.field(wire.u32(len(elector_ids))))
            parts.extend(wire.field(eid) for eid in elector_ids)
        parts.append(wire.field(wire.u32(len(self.certificates))))
        parts.extend(wire.field(encoding) for encoding in self.encodings)
        return b"".join(parts)

    def _by_role(self, render: Callable[[CertificateRecord], object]) -> Dict[str, list]:
        """Each certificate rendered, grouped under its subject's role, in certificates order."""
        grouped: Dict[str, list] = {}
        for cert in self.certificates:
            role = cert.subject_role
            grouped.setdefault(role.value if role else "unknown", []).append(render(cert))
        return grouped

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "endorsements": [b.to_json() for b in self.ballots],
            "certificates": self._by_role(cert_to_json),
        }

    def to_json_bytes(self) -> bytes:
        """dump_json(self.to_json()), with each certificate rendered from one template (cert_json_text).

        The endorsements are dump_json's own text indented one level more,
        which is exact because JSON text holds no raw newline.
        """
        # A certificate sits three levels deep: the document, "certificates", its role's array.
        grouped = self._by_role(functools.partial(cert_json_text, level=3))
        groups = [f"\n    {encode_basestring_ascii(role)}: [\n      " + ",\n      ".join(texts) + "\n    ]"
                  for role, texts in sorted(grouped.items())]
        certificates = "{" + ",".join(groups) + "\n  }" if groups else "{}"
        endorsements = dump_json([b.to_json() for b in self.ballots])[:-1].decode("utf-8").replace("\n", "\n  ")
        return (f'{{\n  "certificates": {certificates},\n  "endorsements": {endorsements},'
                f'\n  "version": {int.__repr__(self.version)}\n}}\n').encode("utf-8")


def export_gccf(view: GccfView, tip_number: int) -> GccfSnapshot:
    """Deterministic chain-file snapshot of the current state.

    Version equals the channel tip block number; revoked records are
    excluded; records sort by (role, serial) so converged nodes export
    byte-identical files.
    """
    active = [(entry.decoded(decode_certificate), entry.payload) for entry in view.cert_entries()
              if entry.function == TxFunction.ADD_CERT]
    active.sort(key=lambda pair: (ROLE_ORDER.get(pair[0].subject_role, len(ROLE_ORDER)), pair[0].serial_number))

    seen = []
    for _number, endorsement in view.endorsement_log:
        group = (endorsement.endorsement_type, endorsement.target_cert_digest)
        if group not in seen:
            seen.append(group)
    ballots = tuple(
        tally_ballot(view, etype, digest)
        for etype, digest in sorted(seen, key=lambda g: (g[0].value, g[1]))
    )
    return GccfSnapshot(
        version=tip_number,
        ballots=ballots,
        certificates=tuple(record for record, _payload in active),
        encodings=tuple(payload for _record, payload in active),
    )


def make_add_cert_tx(
    cert: CertificateRecord,
    submitter_cert: CertificateRecord,
    submitter_key: KeyPair,
    submit_time_ms: int,
) -> Transaction:
    return make_transaction(
        channel=Channel.GCCF,
        function=TxFunction.ADD_CERT,
        key=cert.state_key,
        payload=canonical_encode(cert),
        submitter_cert=submitter_cert,
        submitter_key=submitter_key,
        submit_time_ms=submit_time_ms,
        record=cert,
    )


def make_revoke_cert_tx(
    target: CertificateRecord,
    authorizer_cert: CertificateRecord,
    authorizer_key: KeyPair,
    submit_time_ms: int,
) -> Transaction:
    """Re-tag the committed record and co-sign it with the authorizer's key."""
    retagged = resign_as(target, CertFunction.REVOKE, authorizer_key)
    return make_transaction(
        channel=Channel.GCCF,
        function=TxFunction.REVOKE_CERT,
        key=target.state_key,
        payload=canonical_encode(retagged),
        submitter_cert=authorizer_cert,
        submitter_key=authorizer_key,
        submit_time_ms=submit_time_ms,
        record=retagged,
    )


def make_validate_tx(
    cert: CertificateRecord,
    submitter_cert: CertificateRecord,
    submitter_key: KeyPair,
    submit_time_ms: int,
) -> Transaction:
    return make_transaction(
        channel=Channel.GCCF,
        function=TxFunction.VALIDATE_CERT,
        key=validate_key(cert.serial_number),
        payload=canonical_encode(cert),
        submitter_cert=submitter_cert,
        submitter_key=submitter_key,
        submit_time_ms=submit_time_ms,
        record=cert,
    )
