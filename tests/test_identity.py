"""Keys, signatures, and the canonical certificate encoding."""

import hashlib
from dataclasses import replace
from random import Random

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import given, settings
from hypothesis import strategies as st

from bbtm import wire
from bbtm.deployment import derive_bytes, derive_rng
from bbtm.identity import (
    CertFunction,
    CertificateError,
    CertificateRecord,
    Subject,
    canonical_encode,
    cert_from_json,
    cert_to_json,
    decode_certificate,
    generate_keypair,
    issue_certificate,
    role_of_name,
    signing_bytes,
    verify_certificate_signature,
    verify_signature,
)

from helpers import BIG, SEED, make_identity

# Ed25519 public key for the all-zero seed, per the reference test vectors.
ZERO_SEED_PUBKEY = "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"

# Frozen digest of the canonical encoding of a record built from all-fixed
# inputs; this pins the wire format.
GOLDEN_CERT_DIGEST = "305ce9b2d67f9c2bc66715d9b759e1ee8401befe8025da8f950e980eade1e471"


def _fixed_cert() -> CertificateRecord:
    kp = generate_keypair(bytes(32))
    return issue_certificate(
        kp,
        None,
        Subject(
            name="Elector-1",
            public_key=kp.public_key,
            unique_id=bytes(range(16)),
            not_before=1000,
            not_after=2000,
        ),
        now_s=1000,
        serial=bytes(range(16, 32)),
    )


class TestKeyPair:
    def test_zero_seed_matches_reference_vector(self):
        assert generate_keypair(bytes(32)).public_key.hex() == ZERO_SEED_PUBKEY

    def test_same_seed_same_pair(self):
        seed = bytes(range(32))
        a, b = generate_keypair(seed), generate_keypair(seed)
        assert a.public_key == b.public_key
        assert a.sign(b"x") == b.sign(b"x")

    def test_malformed_seed_rejected(self):
        with pytest.raises(CertificateError):
            generate_keypair(b"short")

    def test_sign_verify_roundtrip(self):
        kp = generate_keypair(bytes(range(32)))
        sig = kp.sign(b"abc")
        assert verify_signature(kp.public_key, sig, b"abc")
        assert not verify_signature(kp.public_key, sig, b"abd")
        assert not verify_signature(generate_keypair(bytes(32)).public_key, sig, b"abc")

    def test_an_issued_subject_builds_its_signing_key_on_its_first_signature(self):
        rca = make_identity("RCA-1")
        issued = make_identity("ICA-9", rca).key
        eager = generate_keypair(derive_bytes(SEED, "key:ICA-9", 32))
        assert not hasattr(issued, "_private") and hasattr(rca.key, "_private")
        assert issued.public_key == eager.public_key
        assert issued.private_bytes() == eager.private_bytes()
        assert issued.sign(b"first") == eager.sign(b"first")
        assert hasattr(issued, "_private")
        assert issued.sign(b"second") == eager.sign(b"second")
        assert issued.private_bytes() == eager.private_bytes()

    def test_signature_soundness_sampled(self):
        # 1,000 random (message, keypair) samples: verify succeeds on the
        # exact bytes and fails on any single-byte mutation.
        rng = Random(2024)
        for _ in range(1000):
            kp = generate_keypair(rng.randbytes(32))
            msg = rng.randbytes(rng.randint(1, 64))
            sig = kp.sign(msg)
            assert verify_signature(kp.public_key, sig, msg)
            pos = rng.randrange(len(msg))
            mutated = bytearray(msg)
            mutated[pos] ^= 1 + rng.randrange(255)
            assert not verify_signature(kp.public_key, sig, bytes(mutated))


class TestIssueCertificate:
    def test_self_signed_root(self):
        ident = make_identity("Elector-1")
        cert = ident.cert
        assert cert.issuer_name == cert.subject_name
        assert cert.is_self_signed
        assert verify_certificate_signature(cert, cert.subject_public_key)

    def test_issued_record_verifies_via_independent_check(self):
        # Oracle: verify the issuer signature with the cryptography
        # primitives directly, not through the package's own verifier.
        rca = make_identity("RCA-1")
        ica = make_identity("ICA-1", rca)
        pub = ed25519.Ed25519PublicKey.from_public_bytes(rca.key.public_key)
        pub.verify(ica.cert.digital_signature, signing_bytes(ica.cert))
        assert ica.cert.issuer_name == "RCA-1"
        assert ica.cert.function_type == CertFunction.ADD

    def test_empty_validity_window_rejected(self):
        kp = generate_keypair(bytes(32))
        subject = Subject("Elector-1", kp.public_key, bytes(16), 500, 500)
        with pytest.raises(CertificateError):
            issue_certificate(kp, None, subject, now_s=500, serial=bytes(16))

    def test_expired_issuer_rejected(self):
        rca = make_identity("RCA-1", not_before=0, not_after=100)
        kp = generate_keypair(bytes(32))
        subject = Subject("ICA-2", kp.public_key, bytes(16), 0, BIG)
        with pytest.raises(CertificateError):
            issue_certificate(rca.key, rca.cert, subject, now_s=200.0, serial=bytes(16))

    def test_serial_from_seeded_rng_is_deterministic(self):
        certs = []
        for _ in range(2):
            rng = Random(5)
            ident = make_identity("RCA-1", rng=rng, serial=rng.randbytes(16))
            certs.append(ident.cert)
        assert certs[0].serial_number == certs[1].serial_number

    def test_serial_uniqueness_over_10k_issuances(self):
        # Serials drawn as build_deployment draws them, from the seed's serial stream.
        serials = derive_rng(SEED, "serials")
        rca = make_identity("RCA-1")
        kp = generate_keypair(bytes(32))
        seen = set()
        for _ in range(10_000):
            serial = serials.randbytes(16)
            cert = issue_certificate(
                rca.key,
                rca.cert,
                Subject("ICA-9", kp.public_key, bytes(16), 0, BIG),
                now_s=0,
                serial=serial,
            )
            assert cert.serial_number == serial
            assert cert.serial_number not in seen
            seen.add(cert.serial_number)


class TestVerifyCertificateSignature:
    def test_unmodified_cert_true(self):
        cert = _fixed_cert()
        assert verify_certificate_signature(cert, cert.subject_public_key)

    def test_flipped_subject_name_false(self):
        cert = _fixed_cert()
        tampered = replace(cert, subject_name="Elector-2")
        assert not verify_certificate_signature(tampered, cert.subject_public_key)

    def test_wrong_key_false(self):
        cert = _fixed_cert()
        assert not verify_certificate_signature(cert, generate_keypair(bytes(range(32))).public_key)


class TestCanonicalEncoding:
    def test_roundtrip_is_byte_identical(self):
        cert = _fixed_cert()
        encoded = canonical_encode(cert)
        assert canonical_encode(decode_certificate(encoded)) == encoded
        assert decode_certificate(encoded) == cert

    def test_golden_digest(self):
        assert hashlib.sha256(canonical_encode(_fixed_cert())).hexdigest() == GOLDEN_CERT_DIGEST

    def test_serial_changes_encoding(self):
        cert = _fixed_cert()
        other = replace(cert, serial_number=bytes(16))
        assert canonical_encode(cert) != canonical_encode(other)

    def test_oversized_field_rejected(self):
        class _Huge(bytes):
            def __len__(self):
                return 1 << 32

        with pytest.raises(wire.WireError):
            wire.field(_Huge())

    @given(
        version=st.integers(min_value=0, max_value=0xFFFFFFFF),
        serial=st.binary(min_size=16, max_size=16),
        subject_name=st.text(min_size=1, max_size=40),
        issuer_name=st.text(min_size=1, max_size=40),
        pub=st.binary(min_size=32, max_size=32),
        sub_uid=st.binary(min_size=16, max_size=16),
        iss_uid=st.binary(min_size=16, max_size=16),
        nb=st.integers(min_value=0, max_value=10**12),
        span=st.integers(min_value=1, max_value=10**12),
        function=st.sampled_from(list(CertFunction)),
        sig=st.binary(min_size=64, max_size=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_records_roundtrip(
        self, version, serial, subject_name, issuer_name, pub, sub_uid, iss_uid, nb, span, function, sig
    ):
        cert = CertificateRecord(
            version=version,
            serial_number=serial,
            subject_name=subject_name,
            issuer_name=issuer_name,
            subject_public_key=pub,
            subject_unique_id=sub_uid,
            issuer_unique_id=iss_uid,
            not_before=nb,
            not_after=nb + span,
            hash_id="SHA-256",
            sign_id="Ed25519",
            function_type=function,
            digital_signature=sig,
        )
        encoded = canonical_encode(cert)
        assert decode_certificate(encoded) == cert
        assert canonical_encode(decode_certificate(encoded)) == encoded

    def test_type_invariants_enforced(self):
        cert = _fixed_cert()
        with pytest.raises(CertificateError):
            replace(cert, serial_number=b"short")
        with pytest.raises(CertificateError):
            replace(cert, not_before=cert.not_after)
        with pytest.raises(CertificateError):
            replace(cert, digital_signature=b"x")


class TestJsonProjection:
    def test_roundtrip(self):
        cert = _fixed_cert()
        assert cert_from_json(cert_to_json(cert)) == cert

    def test_field_names_follow_record_layout(self):
        obj = cert_to_json(_fixed_cert())
        assert set(obj) == {
            "version", "serial_number", "subject_name", "issuer_name",
            "subject_public_key", "subject_unique_id", "issuer_unique_id",
            "validity_period", "algorithm", "function_type", "digital_signature",
        }
        assert set(obj["validity_period"]) == {"not_before", "not_after"}
        assert set(obj["algorithm"]) == {"hash_id", "sign_id"}


def test_role_of_name():
    assert role_of_name("ICA-2").value == "ICA"
    assert role_of_name("Elector-11").value == "Elector"
    assert role_of_name("unknown-thing") is None
