"""Keys, authority roles, and the on-ledger certificate record.

Certificates follow the X.509-inspired field list used by the trust
management ledger (version, serial, subject/issuer identity, validity
window, algorithm names) plus the extension that tags each record as an
addition or a revocation.  Records are signed with Ed25519 over a
deterministic length-prefixed encoding and hashed with SHA-256; the exact
byte layout is documented in FORMAT.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import secrets
from dataclasses import dataclass, replace
from enum import Enum
from random import Random
from typing import Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

from . import wire

HASH_ID = "SHA-256"
SIGN_ID = "Ed25519"
CERT_VERSION = 1

SEED_LEN = 32
PUBKEY_LEN = 32
UID_LEN = 16
SERIAL_LEN = 16
SIGNATURE_LEN = 64


class CertificateError(ValueError):
    """Raised for malformed or unusable certificate material."""


class AuthorityRole(str, Enum):
    ELECTOR = "Elector"
    RCA = "RCA"
    ICA = "ICA"
    PCA = "PCA"
    RA = "RA"
    ECA = "ECA"
    LA = "LA"
    MA = "MA"
    PG = "PG"
    DCM = "DCM"
    OSP = "OSP"
    EE = "EE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Entity names carry their role as a prefix ("ICA-2", "Elector-1"); the
# contracts use this to apply the issuance permission matrix.
def role_of_name(name: str) -> Optional[AuthorityRole]:
    head = name.split("-", 1)[0]
    try:
        return AuthorityRole(head)
    except ValueError:
        return None


class CertFunction(str, Enum):
    ADD = "AddCert"
    REVOKE = "RevokeCert"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class KeyPair:
    """Ed25519 signing pair.

    The private half never appears in any ledger payload; it is only
    serialized explicitly via :meth:`private_bytes` for local key files.
    """

    def __init__(self, private_key: ed25519.Ed25519PrivateKey):
        self._private = private_key
        self.public_key = private_key.public_key().public_bytes(
            encoding=serialization.Encoding.Raw,
            format=serialization.PublicFormat.Raw,
        )

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message)

    def private_bytes(self) -> bytes:
        return self._private.private_bytes(
            encoding=serialization.Encoding.Raw,
            format=serialization.PrivateFormat.Raw,
            encryption_algorithm=serialization.NoEncryption(),
        )


def generate_keypair(seed: Optional[bytes] = None) -> KeyPair:
    """Create a signing pair; the same 32-byte seed always yields the same pair."""
    if seed is None:
        seed = secrets.token_bytes(SEED_LEN)
    if len(seed) != SEED_LEN:
        raise CertificateError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    return KeyPair(ed25519.Ed25519PrivateKey.from_private_bytes(seed))


@functools.lru_cache(maxsize=65536)
def _verify_raw(public_key: bytes, signature: bytes, message: bytes) -> bool:
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def verify_signature(public_key: bytes, signature: bytes, message: bytes) -> bool:
    """True iff signature is a valid Ed25519 signature of message under public_key."""
    return _verify_raw(public_key, signature, message)


@dataclass(frozen=True)
class Subject:
    """Identity material a certificate is issued over."""

    name: str
    public_key: bytes
    unique_id: bytes
    not_before: int
    not_after: int


@dataclass(frozen=True)
class CertificateRecord:
    version: int
    serial_number: bytes
    subject_name: str
    issuer_name: str
    subject_public_key: bytes
    subject_unique_id: bytes
    issuer_unique_id: bytes
    not_before: int
    not_after: int
    hash_id: str
    sign_id: str
    function_type: CertFunction
    digital_signature: bytes

    def __post_init__(self):
        if not 0 <= self.version <= 0xFFFFFFFF:
            raise CertificateError(f"version {self.version} out of range")
        if len(self.serial_number) != SERIAL_LEN:
            raise CertificateError("serial_number must be 16 bytes")
        if not self.subject_name or not self.issuer_name:
            raise CertificateError("subject and issuer names must be non-empty")
        if len(self.subject_public_key) != PUBKEY_LEN:
            raise CertificateError("subject_public_key must be 32 bytes")
        if len(self.subject_unique_id) != UID_LEN or len(self.issuer_unique_id) != UID_LEN:
            raise CertificateError("unique ids must be 16 bytes")
        if self.not_before < 0 or self.not_after > 0xFFFFFFFFFFFFFFFF:
            raise CertificateError("validity bounds out of range")
        if self.not_before >= self.not_after:
            raise CertificateError("validity window is empty")
        if not self.hash_id or not self.sign_id:
            raise CertificateError("algorithm identifiers must be non-empty")
        if not isinstance(self.function_type, CertFunction):
            raise CertificateError(f"unknown function type {self.function_type!r}")
        if len(self.digital_signature) != SIGNATURE_LEN:
            raise CertificateError("digital_signature must be 64 bytes")

    @property
    def is_self_signed(self) -> bool:
        return self.subject_unique_id == self.issuer_unique_id

    def covers(self, now_s: float) -> bool:
        return self.not_before <= now_s <= self.not_after

    def digest(self) -> bytes:
        return sha256(canonical_encode(self))

    # Encodings are computed on first use and kept on the instance; they are
    # not dataclass fields, so equality, hashing, repr and replace() never
    # see them, and a replaced record encodes afresh.
    @functools.cached_property
    def _signing_bytes(self) -> bytes:
        return b"".join(
            (
                wire.field(wire.u32(self.version)),
                wire.field(self.serial_number),
                wire.field(self.subject_name.encode("utf-8")),
                wire.field(self.issuer_name.encode("utf-8")),
                wire.field(self.subject_public_key),
                wire.field(self.subject_unique_id),
                wire.field(self.issuer_unique_id),
                wire.field(wire.u64(self.not_before) + wire.u64(self.not_after)),
                wire.field(
                    wire.field(self.hash_id.encode("utf-8"))
                    + wire.field(self.sign_id.encode("utf-8"))
                ),
                wire.field(self.function_type.value.encode("utf-8")),
            )
        )

    @functools.cached_property
    def _encoding(self) -> bytes:
        return self._signing_bytes + wire.field(self.digital_signature)


def signing_bytes(cert: CertificateRecord) -> bytes:
    """Canonical bytes of every field except the signature, in record order."""
    return cert._signing_bytes


def canonical_encode(cert: CertificateRecord) -> bytes:
    """Deterministic full encoding; decode(encode(c)) reproduces c exactly."""
    return cert._encoding


@functools.lru_cache(maxsize=65536)
def decode_certificate(data: bytes) -> CertificateRecord:
    r = wire.Reader(data)
    try:
        version = r.u32_field()
        serial = r.field()
        subject_name = r.str_field()
        issuer_name = r.str_field()
        subject_key = r.field()
        subject_uid = r.field()
        issuer_uid = r.field()
        validity = wire.Reader(r.field())
        not_before = int.from_bytes(validity.take(8), "big")
        not_after = int.from_bytes(validity.take(8), "big")
        validity.expect_end()
        algorithm = wire.Reader(r.field())
        hash_id = algorithm.str_field()
        sign_id = algorithm.str_field()
        algorithm.expect_end()
        function = CertFunction(r.str_field())
        signature = r.field()
        r.expect_end()
    except (wire.WireError, ValueError) as exc:
        raise CertificateError(f"undecodable certificate: {exc}") from exc
    return CertificateRecord(
        version=version,
        serial_number=serial,
        subject_name=subject_name,
        issuer_name=issuer_name,
        subject_public_key=subject_key,
        subject_unique_id=subject_uid,
        issuer_unique_id=issuer_uid,
        not_before=not_before,
        not_after=not_after,
        hash_id=hash_id,
        sign_id=sign_id,
        function_type=function,
        digital_signature=signature,
    )


def verify_certificate_signature(cert: CertificateRecord, issuer_public_key: bytes) -> bool:
    """True iff the record's signature covers all non-signature fields."""
    if len(issuer_public_key) != PUBKEY_LEN:
        return False
    return verify_signature(issuer_public_key, cert.digital_signature, signing_bytes(cert))


def issue_certificate(
    issuer_key: KeyPair,
    issuer_cert: Optional[CertificateRecord],
    subject: Subject,
    *,
    now_s: float = 0.0,
    function_type: CertFunction = CertFunction.ADD,
    serial: Optional[bytes] = None,
    rng: Optional[Random] = None,
) -> CertificateRecord:
    """Sign a new record over the subject.

    With ``issuer_cert=None`` the record is self-signed (elector and root
    bootstrap): the subject's key must be the signing key, and the issuer
    identity fields repeat the subject's.
    """
    if subject.not_before >= subject.not_after:
        raise CertificateError("validity window is empty")
    if issuer_cert is None:
        if subject.public_key != issuer_key.public_key:
            raise CertificateError("self-signed record must be signed by the subject key")
        issuer_name = subject.name
        issuer_uid = subject.unique_id
    else:
        if issuer_cert.subject_public_key != issuer_key.public_key:
            raise CertificateError("signing key does not match the issuer certificate")
        if not issuer_cert.covers(now_s):
            raise CertificateError("issuer certificate is expired or not yet valid")
        issuer_name = issuer_cert.subject_name
        issuer_uid = issuer_cert.subject_unique_id
    if serial is None:
        serial = rng.randbytes(SERIAL_LEN) if rng is not None else secrets.token_bytes(SERIAL_LEN)
    if len(serial) != SERIAL_LEN:
        raise CertificateError(f"serial must be {SERIAL_LEN} bytes")

    unsigned = CertificateRecord(
        version=CERT_VERSION,
        serial_number=serial,
        subject_name=subject.name,
        issuer_name=issuer_name,
        subject_public_key=subject.public_key,
        subject_unique_id=subject.unique_id,
        issuer_unique_id=issuer_uid,
        not_before=subject.not_before,
        not_after=subject.not_after,
        hash_id=HASH_ID,
        sign_id=SIGN_ID,
        function_type=function_type,
        digital_signature=bytes(SIGNATURE_LEN),
    )
    signature = issuer_key.sign(signing_bytes(unsigned))
    return replace(unsigned, digital_signature=signature)


def resign_as(cert: CertificateRecord, function_type: CertFunction, signer: KeyPair) -> CertificateRecord:
    """Re-tag a committed record and sign the new tag with the given key.

    Used for revocations: the payload keeps every identity field of the
    original record, flips the function tag, and carries the authorizing
    party's signature instead of the original issuer's.
    """
    retagged = replace(cert, function_type=function_type, digital_signature=bytes(SIGNATURE_LEN))
    return replace(retagged, digital_signature=signer.sign(signing_bytes(retagged)))


@dataclass(frozen=True)
class Identity:
    """A participant's full credential set: role, keypair, and certificate."""

    name: str
    role: AuthorityRole
    key: KeyPair
    cert: CertificateRecord

    @property
    def unique_id(self) -> bytes:
        return self.cert.subject_unique_id


def cert_to_json(cert: CertificateRecord) -> dict:
    return {
        "version": cert.version,
        "serial_number": cert.serial_number.hex(),
        "subject_name": cert.subject_name,
        "issuer_name": cert.issuer_name,
        "subject_public_key": cert.subject_public_key.hex(),
        "subject_unique_id": cert.subject_unique_id.hex(),
        "issuer_unique_id": cert.issuer_unique_id.hex(),
        "validity_period": {"not_before": cert.not_before, "not_after": cert.not_after},
        "algorithm": {"hash_id": cert.hash_id, "sign_id": cert.sign_id},
        "function_type": cert.function_type.value,
        "digital_signature": cert.digital_signature.hex(),
    }


def cert_from_json(obj: dict) -> CertificateRecord:
    try:
        return CertificateRecord(
            version=obj["version"],
            serial_number=bytes.fromhex(obj["serial_number"]),
            subject_name=obj["subject_name"],
            issuer_name=obj["issuer_name"],
            subject_public_key=bytes.fromhex(obj["subject_public_key"]),
            subject_unique_id=bytes.fromhex(obj["subject_unique_id"]),
            issuer_unique_id=bytes.fromhex(obj["issuer_unique_id"]),
            not_before=obj["validity_period"]["not_before"],
            not_after=obj["validity_period"]["not_after"],
            hash_id=obj["algorithm"]["hash_id"],
            sign_id=obj["algorithm"]["sign_id"],
            function_type=CertFunction(obj["function_type"]),
            digital_signature=bytes.fromhex(obj["digital_signature"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"bad certificate JSON: {exc}") from exc


def dump_json(obj: dict) -> bytes:
    """Stable JSON bytes used for every exported projection."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")
