"""Keys, authority roles, and the on-ledger certificate record.

Certificates follow the X.509-inspired field list used by the trust
management ledger (version, serial, subject/issuer identity, validity
window, algorithm names) plus the extension that tags each record as an
addition or a revocation.  Records are signed with Ed25519 over a
deterministic length-prefixed encoding and hashed with SHA-256; the exact
byte layout is documented in FORMAT.md.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

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


_ROLES_BY_VALUE = {role.value: role for role in AuthorityRole}


# Entity names carry their role as a prefix ("ICA-2", "Elector-1"); the
# contracts use this to apply the issuance permission matrix.
def role_of_name(name: str) -> Optional[AuthorityRole]:
    return _ROLES_BY_VALUE.get(name.split("-", 1)[0])


def cert_key(unique_id: bytes) -> str:
    """World-state key of the certificate record for a subject unique id."""
    return f"cert/{unique_id.hex()}"


class CertFunction(str, Enum):
    ADD = "AddCert"
    REVOKE = "RevokeCert"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def keep(value, name: str, kept):
    """Set the slot name of a frozen slotted value to kept, and return kept.

    A class that keeps computed values in slots defines ``__getattr__``,
    which Python calls only when a read misses, so only for a slot still
    unset: it computes the value once and keeps it here, and every later
    read is a plain slot read.  Such a slot is not a dataclass field:
    equality, hashing, repr, fields() and replace() never see it, and a
    replaced value computes afresh.
    """
    object.__setattr__(value, name, kept)
    return kept


def _public_bytes(private_key: ed25519.Ed25519PrivateKey) -> bytes:
    return private_key.public_key().public_bytes(
        encoding=serialization.Encoding.Raw,
        format=serialization.PublicFormat.Raw,
    )


class KeyPair:
    """Ed25519 signing pair.

    The private half never appears in any ledger payload; it is only
    serialized explicitly via :meth:`private_bytes` for local key files.
    A pair made by ``deferred`` keeps its 32-byte seed and builds its
    signing key on its first signature.
    """

    __slots__ = ("public_key", "_seed", "_private")

    def __init__(self, private_key: ed25519.Ed25519PrivateKey):
        self._private = private_key
        self.public_key = _public_bytes(private_key)

    @classmethod
    def deferred(cls, seed: bytes) -> "KeyPair":
        """The pair of seed, holding no signing key until it signs: for a subject that may never sign."""
        pair = cls.__new__(cls)
        pair._seed = seed
        pair.public_key = _public_bytes(ed25519.Ed25519PrivateKey.from_private_bytes(seed))
        return pair

    def sign(self, message: bytes) -> bytes:
        try:
            private = self._private
        except AttributeError:
            private = self._private = ed25519.Ed25519PrivateKey.from_private_bytes(self._seed)
        return private.sign(message)

    def private_bytes(self) -> bytes:
        try:
            return self._seed
        except AttributeError:
            return self._private.private_bytes(
                encoding=serialization.Encoding.Raw,
                format=serialization.PrivateFormat.Raw,
                encryption_algorithm=serialization.NoEncryption(),
            )


def generate_keypair(seed: bytes) -> KeyPair:
    """Create a signing pair; the same 32-byte seed always yields the same pair."""
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
    # The fields, then what the record derives from them and keeps: its
    # subject's role and world-state key (set at construction) and its two
    # encodings (on first read, see keep).  None of the derived slots is a field.
    __slots__ = (
        "version", "serial_number", "subject_name", "issuer_name", "subject_public_key", "subject_unique_id",
        "issuer_unique_id", "not_before", "not_after", "hash_id", "sign_id", "function_type", "digital_signature",
        "subject_role", "state_key", "_signing_bytes", "_encoding",
    )

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
        object.__setattr__(self, "subject_role", role_of_name(self.subject_name))
        object.__setattr__(self, "state_key", cert_key(self.subject_unique_id))

    @property
    def is_self_signed(self) -> bool:
        return self.subject_unique_id == self.issuer_unique_id

    def covers(self, now_s: float) -> bool:
        return self.not_before <= now_s <= self.not_after

    def __getattr__(self, name: str):
        if name == "_signing_bytes":
            return keep(self, name, self._join_signing_bytes())
        if name == "_encoding":
            return keep(self, name, self._signing_bytes + wire.field(self.digital_signature))
        raise AttributeError(name)

    def _join_signing_bytes(self) -> bytes:
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
    now_s: float,
    serial: bytes,
) -> CertificateRecord:
    """Sign a new addition record with the given serial over the subject.

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
        function_type=CertFunction.ADD,
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
    """A participant's key pair and certificate, the one record of its name and role (read by the properties)."""

    __slots__ = ("key", "cert")

    key: KeyPair
    cert: CertificateRecord

    @property
    def name(self) -> str:
        return self.cert.subject_name

    @property
    def role(self) -> Optional[AuthorityRole]:
        return self.cert.subject_role

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


def cert_json_text(cert: CertificateRecord, level: int) -> str:
    """The text dump_json writes for cert_to_json(cert) nested level deep, from its opening brace to its closing one.

    One fixed template for the 11 keys in sorted order (indent 2): strings
    are escaped by the function the standard library's encoder calls, and
    integers written by int.__repr__, as it writes them.  Hex strings need
    no escaping.
    """
    close, line, inner = ("\n" + "  " * (level + depth) for depth in range(3))
    text, num = json.encoder.encode_basestring_ascii, int.__repr__
    return (
        f'{{{line}"algorithm": {{{inner}"hash_id": {text(cert.hash_id)},'
        f'{inner}"sign_id": {text(cert.sign_id)}{line}}},'
        f'{line}"digital_signature": "{cert.digital_signature.hex()}",'
        f'{line}"function_type": {text(cert.function_type.value)},'
        f'{line}"issuer_name": {text(cert.issuer_name)},'
        f'{line}"issuer_unique_id": "{cert.issuer_unique_id.hex()}",'
        f'{line}"serial_number": "{cert.serial_number.hex()}",'
        f'{line}"subject_name": {text(cert.subject_name)},'
        f'{line}"subject_public_key": "{cert.subject_public_key.hex()}",'
        f'{line}"subject_unique_id": "{cert.subject_unique_id.hex()}",'
        f'{line}"validity_period": {{{inner}"not_after": {num(cert.not_after)},'
        f'{inner}"not_before": {num(cert.not_before)}{line}}},'
        f'{line}"version": {num(cert.version)}{close}}}'
    )


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


# Encoder tokens joined per chunk: a token is a few characters, so a chunk of
# a simulation report is about 25 kB, however large the report is.
JSON_TOKENS_PER_CHUNK = 4096


def iter_json(obj, default: Optional[Callable] = None) -> Iterator[bytes]:
    """The bytes of dump_json(obj, default), in chunks of bounded size.

    The standard library's pretty-printer, which json.dumps(obj,
    sort_keys=True, indent=2) also runs, yields a string per token; joining
    them a batch at a time keeps only one batch of those strings alive.
    default, as in json.dumps, turns an object the encoder does not know
    into one it does, in place and only while that object is encoded.
    """
    tokens = json.JSONEncoder(sort_keys=True, indent=2, default=default).iterencode(obj)
    while batch := list(itertools.islice(tokens, JSON_TOKENS_PER_CHUNK)):
        yield "".join(batch).encode("utf-8")
    yield b"\n"


def dump_json(obj, default: Optional[Callable] = None) -> bytes:
    """Stable JSON bytes used for every exported projection (see FORMAT.md)."""
    # The buffer takes each chunk as it comes and getvalue() hands it over
    # without a copy; b"".join would hold every chunk and the result at once.
    buf = io.BytesIO()
    buf.writelines(iter_json(obj, default))
    return buf.getvalue()


@contextlib.contextmanager
def _failing_as(path: pathlib.Path) -> Iterator[None]:
    """Re-raise a block's OSError that names a file as path's: the temp file and aside link stand for path."""
    try:
        yield
    except OSError as exc:
        if exc.filename is not None:
            exc.filename, exc.filename2 = str(path), None
        raise


def write_atomic(path: pathlib.Path, data: Union[bytes, Iterable[bytes]]) -> None:
    """Replace path's content with data, all or nothing.

    data is the bytes or an iterable of chunks of them.  They go to a temp
    file beside path, which os.replace then renames over it, so a failed or
    interrupted write leaves the old file whole.  A directory at path is
    refused before the temp file is opened.  A failure that names a file
    names path instead, with its type kept.
    """
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = path.with_name(path.name + ".tmp")
    with _failing_as(path):
        try:
            with open(tmp, "wb") as fh:
                fh.writelines([data] if isinstance(data, bytes) else data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def write_all_atomic(files: Iterable[Tuple[pathlib.Path, Union[bytes, Iterable[bytes]]]]) -> None:
    """Replace each path's content with its data: every file, or none of them.

    The files are replaced in order, each through write_atomic.  Before a
    path is replaced, its old file is hard-linked aside (``<name>.old``), so
    nothing is read.  If one fails, every file already replaced gets its old
    file renamed back, or is removed if it is new, and the failure
    propagates, naming the path it was to replace.  No aside link outlives
    the call.
    """
    kept = []  # (path, its aside link, or None for a new file), in order
    written = 0
    try:
        for path, data in files:
            aside = path.with_name(path.name + ".old")
            with _failing_as(path):
                aside.unlink(missing_ok=True)
                try:
                    os.link(path, aside)
                except FileNotFoundError:
                    aside = None
            kept.append((path, aside))
            write_atomic(path, data)
            written += 1
    except BaseException:
        for path, aside in reversed(kept[:written]):
            if aside is None:
                path.unlink(missing_ok=True)
            else:
                os.replace(aside, path)
        raise
    finally:
        for _path, aside in kept:
            if aside is not None:
                aside.unlink(missing_ok=True)
