"""Certificate chain contract: add, revoke, validate, snapshot."""

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbtm import gccf, wire
from bbtm.ballot import Ballot, BallotStatus, EndorsementType
from bbtm.gccf import (
    ContractRejection,
    GccfSnapshot,
    GccfView,
    ISSUANCE_MATRIX,
    TRUST_ANCHOR_ROLES,
    export_gccf,
    make_add_cert_tx,
    validate_cert,
)
from bbtm.identity import (
    AuthorityRole,
    CertFunction,
    CertificateRecord,
    Subject,
    canonical_encode,
    decode_certificate,
    dump_json,
    generate_keypair,
    issue_certificate,
    role_of_name,
    verify_certificate_signature,
)
from bbtm.ledger import Channel, StateEntry, TxFunction, make_block
from bbtm.node import BlockRefused
from bbtm.ordering import Rejected
from bbtm.simulation import ScenarioConfig, Simulation

from helpers import BIG, Bed, make_identity


def reject_reason(exc_info) -> str:
    return exc_info.value.reason


class TestAddCert:
    def test_committed_rca_adds_ica(self):
        bed = Bed()
        ica2 = make_identity("ICA-2", bed.rca, rng=bed.rng)
        bed.add(ica2.cert, bed.rca)
        entry = bed.view.cert_entry(ica2.cert.subject_unique_id)
        assert entry.function == TxFunction.ADD_CERT
        assert decode_certificate(entry.payload) == ica2.cert

    def test_pca_may_not_issue(self):
        bed = Bed()
        pca = make_identity("PCA-1", bed.ica, rng=bed.rng)
        bed.add(pca.cert, bed.ica)
        ra = make_identity("RA-9", pca, rng=bed.rng)
        with pytest.raises(ContractRejection) as exc:
            bed.add(ra.cert, pca)
        assert reject_reason(exc) == "role-violation"

    def test_revoked_issuer_rejected(self):
        bed = Bed()
        bed.revoke(bed.ica.cert)
        # Oracle: latest function for the issuer from a world-state scan.
        latest = bed.view.cert_entry(bed.ica.cert.subject_unique_id).function
        assert latest == TxFunction.REVOKE_CERT
        pca = make_identity("PCA-2", bed.ica, rng=bed.rng)
        with pytest.raises(ContractRejection) as exc:
            bed.add(pca.cert, bed.ica)
        assert reject_reason(exc) == "revoked-issuer"

    def test_unknown_issuer_rejected(self):
        bed = Bed()
        ghost = make_identity("ICA-7", bed.rca, rng=bed.rng)  # never committed
        pca = make_identity("PCA-3", ghost, rng=bed.rng)
        with pytest.raises(ContractRejection) as exc:
            bed.add(pca.cert, ghost)
        assert reject_reason(exc) == "unknown-issuer"

    def test_duplicate_serial_rejected(self):
        bed = Bed()
        dup = make_identity("MA-1", bed.rca, serial=bed.ica.cert.serial_number, rng=bed.rng)
        with pytest.raises(ContractRejection) as exc:
            bed.add(dup.cert, bed.rca)
        assert reject_reason(exc) == "duplicate-serial"

    def test_tampered_payload_rejected(self):
        bed = Bed()
        ma = make_identity("MA-2", bed.rca, rng=bed.rng)
        forged = replace(ma.cert, subject_name="MA-3")
        tx = make_add_cert_tx(forged, bed.rca.cert, bed.rca.key, 0)
        with pytest.raises(ContractRejection) as exc:
            gccf.apply_tx(bed.view, tx, block_number=5)
        assert reject_reason(exc) == "bad-signature"

    def test_submitter_must_be_issuer(self):
        bed = Bed()
        ma = make_identity("MA-4", bed.rca, rng=bed.rng)
        tx = make_add_cert_tx(ma.cert, bed.pg.cert, bed.pg.key, 0)
        with pytest.raises(ContractRejection) as exc:
            gccf.apply_tx(bed.view, tx, block_number=5)
        assert reject_reason(exc) == "role-violation"

    def test_direct_root_add_needs_ballot(self):
        bed = Bed()
        rca2 = make_identity("RCA-2", rng=bed.rng)
        with pytest.raises(ContractRejection) as exc:
            bed.add(rca2.cert, bed.electors[0])
        assert reject_reason(exc) == "role-violation"

    def test_direct_elector_add_needs_ballot(self):
        bed = Bed()
        e4 = make_identity("Elector-4", rng=bed.rng)
        with pytest.raises(ContractRejection):
            bed.add(e4.cert, bed.electors[0])


class TestRevokeCert:
    def test_pg_revocation_flips_function(self):
        bed = Bed()
        bed.revoke(bed.ica.cert)
        entry = bed.view.cert_entry(bed.ica.cert.subject_unique_id)
        assert entry.function == TxFunction.REVOKE_CERT
        payload = decode_certificate(entry.payload)
        assert payload.serial_number == bed.ica.cert.serial_number
        # Co-signed: the stored record carries the PG's signature.
        assert verify_certificate_signature(payload, bed.pg.cert.subject_public_key)

    def test_non_pg_revocation_rejected(self):
        bed = Bed()
        ra = make_identity("RA-1", bed.ica, rng=bed.rng)
        bed.add(ra.cert, bed.ica)
        with pytest.raises(ContractRejection) as exc:
            bed.revoke(bed.ica.cert, authorizer=ra)
        assert reject_reason(exc) == "not-PG"

    def test_double_revocation_rejected(self):
        bed = Bed()
        bed.revoke(bed.ica.cert)
        with pytest.raises(ContractRejection) as exc:
            bed.revoke(bed.ica.cert)
        assert reject_reason(exc) == "already-revoked"

    def test_unknown_target_rejected(self):
        bed = Bed()
        ghost = make_identity("MA-9", bed.rca, rng=bed.rng)
        with pytest.raises(ContractRejection) as exc:
            bed.revoke(ghost.cert)
        assert reject_reason(exc) == "unknown-target"

    def test_pg_cannot_revoke_ballot_governed_targets(self):
        bed = Bed()
        with pytest.raises(ContractRejection) as exc:
            bed.revoke(bed.rca.cert)
        assert reject_reason(exc) == "not-PG"


def brute_force_validate(view: GccfView, cert, now_s: float) -> bool:
    """Independent oracle: exhaustive path search over the committed graph.

    Builds the issuer digraph over all committed records (revoked included)
    and searches every simple path from the presented record to any
    self-signed anchor-role record, checking the full rule set on each path.
    """
    committed = {}
    for entry in view.cert_entries():
        record = decode_certificate(entry.payload)
        committed[record.subject_unique_id] = (record, entry)

    start = committed.get(cert.subject_unique_id)
    if start is None or canonical_encode(start[0]) != canonical_encode(cert):
        return False

    def path_ok(path) -> bool:
        for record, entry in path:
            if entry.function != TxFunction.ADD_CERT:
                return False
            if not (record.not_before <= now_s <= record.not_after):
                return False
        for child, parent in zip(path, path[1:]):
            if not verify_certificate_signature(child[0], parent[0].subject_public_key):
                return False
        last = path[-1][0]
        if not (last.subject_unique_id == last.issuer_unique_id):
            return False
        if role_of_name(last.subject_name) not in TRUST_ANCHOR_ROLES:
            return False
        return verify_certificate_signature(last, last.subject_public_key)

    stack = [[start]]
    while stack:
        path = stack.pop()
        record, _entry = path[-1]
        if record.subject_unique_id == record.issuer_unique_id:
            if path_ok(path):
                return True
            continue
        parent = committed.get(record.issuer_unique_id)
        if parent is None:
            continue
        if any(parent[0].subject_unique_id == r.subject_unique_id for r, _ in path):
            continue
        stack.append(path + [parent])
    return False


def random_cert_world(seed: int, max_certs: int = 30):
    """A random committed certificate DAG with revocations, expiries and uid collisions."""
    rng = Random(seed)
    bed = Bed()
    view = bed.view
    now = 5_000.0
    certs = [bed.rca.cert, bed.ica.cert, bed.pg.cert] + [e.cert for e in bed.electors]
    identities = {c.subject_unique_id: i for c, i in [
        (bed.rca.cert, bed.rca), (bed.ica.cert, bed.ica), (bed.pg.cert, bed.pg),
    ] + [(e.cert, e) for e in bed.electors]}
    n = rng.randint(1, max_certs - len(certs))
    first_random = len(certs)
    roles_by_issuer = {
        AuthorityRole.RCA: ["ICA", "MA", "PG"],
        AuthorityRole.ICA: ["PCA", "RA", "ECA", "LA"],
        AuthorityRole.ELECTOR: [],
        AuthorityRole.PG: [],
    }
    counter = 0
    for _ in range(n):
        issuer_cert = rng.choice(certs)
        issuer = identities.get(issuer_cert.subject_unique_id)
        if issuer is None:
            continue
        options = roles_by_issuer.get(issuer.role, [])
        if not options:
            continue
        counter += 1
        # A slice of certificates is already expired or not yet valid.
        window = rng.random()
        if window < 0.15:
            nb, na = 0, int(now) - rng.randint(1, 1000)
        elif window < 0.25:
            nb, na = int(now) + rng.randint(1, 1000), BIG
        else:
            nb, na = 0, BIG
        name = f"{rng.choice(options)}-r{seed}x{counter}"
        # Now and then an earlier name is minted again, by another issuer or
        # by the same one: the same uid and key with a new serial and window.
        # The newer record replaces the older, and the older one's children
        # now chain through it.
        rivals = [c.subject_name for c in certs[first_random:] if role_of_name(c.subject_name).value in options]
        if rivals and rng.random() < 0.15:
            name = rng.choice(rivals)
        child = make_identity(name, issuer, not_before=nb, not_after=na, rng=rng)
        bed.inject_committed(child.cert, block_number=counter)
        certs.append(child.cert)
        identities[child.cert.subject_unique_id] = child
    # Random revocations anywhere in the graph.
    for cert in certs:
        if rng.random() < 0.2:
            entry = view.cert_entry(cert.subject_unique_id)
            view.world[gccf.cert_key(cert.subject_unique_id)] = replace(
                entry, function=TxFunction.REVOKE_CERT
            )
    return bed, certs, now


class TestValidateCert:
    def test_ica_under_root_succeeds(self):
        bed = Bed()
        result = validate_cert(bed.view, bed.ica.cert, now_s=100.0)
        assert result.ok
        assert result.path == (bed.ica.cert.serial_number, bed.rca.cert.serial_number)

    def test_revoked_intermediate_breaks_descendants(self):
        bed = Bed()
        pca = make_identity("PCA-1", bed.ica, rng=bed.rng)
        bed.add(pca.cert, bed.ica)
        bed.revoke(bed.ica.cert)
        result = validate_cert(bed.view, pca.cert, now_s=100.0)
        assert not result.ok and result.reason == "revoked-on-path"
        assert brute_force_validate(bed.view, pca.cert, 100.0) is False

    def test_uncommitted_cert_is_missing_link(self):
        bed = Bed()
        ghost = make_identity("MA-5", bed.rca, rng=bed.rng)
        result = validate_cert(bed.view, ghost.cert, now_s=100.0)
        assert not result.ok and result.reason == "missing-link"

    def test_expired_on_path(self):
        bed = Bed()
        short = make_identity("MA-6", bed.rca, not_before=0, not_after=50, rng=bed.rng)
        bed.add(short.cert, bed.rca)
        assert validate_cert(bed.view, short.cert, now_s=49.0).ok
        result = validate_cert(bed.view, short.cert, now_s=51.0)
        assert not result.ok and result.reason == "expired-on-path"

    def test_forged_signature_on_path(self):
        bed = Bed()
        fake = replace(bed.ica.cert, digital_signature=bytes(64))
        bed.inject_committed(fake, block_number=9)
        result = validate_cert(bed.view, fake, now_s=100.0)
        assert not result.ok and result.reason == "bad-signature"
        assert brute_force_validate(bed.view, fake, 100.0) is False

    def test_self_signed_non_anchor_is_not_trusted(self):
        bed = Bed()
        rogue = make_identity("PCA-9", rng=bed.rng)  # self-signed leaf role
        bed.inject_committed(rogue.cert)
        result = validate_cert(bed.view, rogue.cert, now_s=100.0)
        assert not result.ok and result.reason == "missing-link"
        assert brute_force_validate(bed.view, rogue.cert, 100.0) is False

    def test_revoked_record_itself_is_revoked_on_path(self):
        bed = Bed()
        revocation = bed.revoke(bed.ica.cert)
        result = validate_cert(bed.view, bed.ica.cert, now_s=100.0)
        assert not result.ok and result.reason == "revoked-on-path"
        assert result.path == ()
        retagged = decode_certificate(revocation.payload)
        assert validate_cert(bed.view, retagged, now_s=100.0).reason == "revoked-on-path"
        assert brute_force_validate(bed.view, bed.ica.cert, 100.0) is False

    def test_same_uid_other_serial_under_a_revocation_is_missing_link(self):
        bed = Bed()
        bed.revoke(bed.ica.cert)
        impostor = _issue_with_uid("ICA-1", bed.rca, bed.ica.cert.subject_unique_id, bed.rng)
        result = validate_cert(bed.view, impostor, now_s=100.0)
        assert not result.ok and result.reason == "missing-link"
        assert result.path == ()

    @pytest.mark.parametrize("seed", range(60))
    def test_oracle_equivalence_random_worlds(self, seed):
        bed, certs, now = random_cert_world(seed)
        for cert in certs:
            expected = brute_force_validate(bed.view, cert, now)
            assert validate_cert(bed.view, cert, now).ok == expected


class TestAccessMatrixFuzz:
    def test_accepted_adds_always_satisfy_matrix(self):
        rng = Random(31337)
        bed = Bed()
        per_role = {}
        for role in AuthorityRole:
            ident = make_identity(f"{role.value}-77", rng=rng)
            bed.inject_committed(ident.cert)
            per_role[role] = ident
        roles = list(AuthorityRole)
        for trial in range(10_000):
            issuer = per_role[rng.choice(roles)]
            subject_role = rng.choice(roles)
            subject = make_identity(f"{subject_role.value}-f{trial}", issuer, rng=rng)
            tx = make_add_cert_tx(subject.cert, issuer.cert, issuer.key, 0)
            allowed = subject_role in ISSUANCE_MATRIX.get(issuer.role, frozenset())
            ballot_governed = subject_role in (AuthorityRole.ELECTOR, AuthorityRole.RCA)
            try:
                gccf.apply_tx(bed.view.copy(), tx, block_number=3)
                committed = True
            except ContractRejection as exc:
                committed = False
                assert exc.reason == "role-violation"
            assert committed == (allowed and not ballot_governed)


class TestMonotoneRevocation:
    def test_revoked_serial_never_returns(self):
        bed = Bed()
        bed.revoke(bed.ica.cert)
        retry = replace(bed.ica.cert)  # same serial, same bytes
        tx = make_add_cert_tx(retry, bed.rca.cert, bed.rca.key, 0)
        with pytest.raises(ContractRejection) as exc:
            gccf.apply_tx(bed.view, tx, block_number=9)
        assert reject_reason(exc) == "duplicate-serial"
        assert not validate_cert(bed.view, bed.ica.cert, now_s=10.0).ok


class TestViewCopy:
    def test_a_copy_carries_the_genesis_quorum(self):
        bed = Bed(quorum=3)
        assert bed.view.quorum == 3
        assert bed.view.copy().quorum == 3


class TestExportSnapshot:
    def test_empty_world_zero_certs_version_zero(self):
        snapshot = export_gccf(GccfView(), tip_number=0)
        assert snapshot.version == 0
        assert snapshot.certificates == ()
        assert snapshot.ballots == ()

    def test_revoked_certificate_excluded(self):
        bed = Bed()
        before = export_gccf(bed.view, tip_number=bed.next_block - 1)
        assert any(c.subject_name == "ICA-1" for c in before.certificates)
        bed.revoke(bed.ica.cert)
        after = export_gccf(bed.view, tip_number=bed.next_block - 1)
        assert not any(c.subject_name == "ICA-1" for c in after.certificates)

    def test_only_the_exported_records_are_decoded(self, monkeypatch):
        bed = Bed()
        bed.revoke(bed.ica.cert)
        # Fresh entries, as a restored load holds them: none has been decoded yet.
        view = GccfView({key: StateEntry(e.payload, e.function, e.block_number) for key, e in bed.view.world.items()})
        decoded = []

        def counting(payload):
            decoded.append(payload)
            return decode_certificate(payload)

        monkeypatch.setattr(gccf, "decode_certificate", counting)
        snapshot = export_gccf(view, tip_number=bed.next_block - 1)
        assert sorted(decoded) == sorted(snapshot.encodings)

    def test_snapshot_is_pure_function_of_state(self):
        a, b = Bed(), Bed()
        snap_a = export_gccf(a.view, tip_number=3)
        snap_b = export_gccf(b.view, tip_number=3)
        assert snap_a.encode() == snap_b.encode()

    def test_certificates_sorted_by_role_then_serial(self):
        bed = Bed()
        snapshot = export_gccf(bed.view, tip_number=3)
        keys = [
            (gccf.ROLE_ORDER[role_of_name(c.subject_name)], c.serial_number)
            for c in snapshot.certificates
        ]
        assert keys == sorted(keys)


# Names that JSON must escape: quotes, backslashes, control characters and non-ASCII text.
# No lone surrogates: a certificate's names are UTF-8 on the wire, so canonical_encode cannot frame one.
_json_text = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\u2028\u00e9\u20ac\U0001f600'),
                       st.characters(exclude_categories=("Cs",))),
    min_size=1, max_size=12,
)
_json_names = st.builds(lambda prefix, rest: prefix + rest,
                        st.sampled_from(["", "ICA-", "RCA-", "PCA-", "Elector-"]), _json_text)
json_certificates = st.builds(
    lambda not_before, span, **fields: CertificateRecord(not_before=not_before, not_after=not_before + span, **fields),
    version=st.integers(min_value=0, max_value=0xFFFFFFFF),
    serial_number=st.binary(min_size=16, max_size=16),
    subject_name=_json_names,
    issuer_name=_json_names,
    subject_public_key=st.binary(min_size=32, max_size=32),
    subject_unique_id=st.binary(min_size=16, max_size=16),
    issuer_unique_id=st.binary(min_size=16, max_size=16),
    not_before=st.integers(min_value=0, max_value=2**63),
    span=st.integers(min_value=1, max_value=2**63 - 1),
    hash_id=_json_text,
    sign_id=_json_text,
    function_type=st.sampled_from(list(CertFunction)),
    digital_signature=st.binary(min_size=64, max_size=64),
)
json_ballots = st.builds(
    Ballot,
    endorsement_type=st.sampled_from(list(EndorsementType)),
    target_cert_digest=st.binary(min_size=32, max_size=32),
    endorsements=st.dictionaries(st.binary(min_size=16, max_size=16), st.none(), max_size=3),
    status=st.sampled_from(list(BallotStatus)),
)


def _assert_json_bytes_are_dump_json(certificates, ballots, version):
    snapshot = GccfSnapshot(version, tuple(ballots), tuple(certificates), tuple(map(canonical_encode, certificates)))
    assert snapshot.to_json_bytes() == dump_json(snapshot.to_json())


class TestExportJsonBytes:
    """gccf export writes its .json from one certificate template; the bytes are dump_json(snapshot.to_json())."""

    @given(certificates=st.lists(json_certificates, max_size=6), ballots=st.lists(json_ballots, min_size=1, max_size=3),
           version=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_with_ballots(self, certificates, ballots, version):
        _assert_json_bytes_are_dump_json(certificates, ballots, version)

    @given(certificates=st.lists(json_certificates, min_size=1, max_size=6),
           version=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_without_ballots(self, certificates, version):
        _assert_json_bytes_are_dump_json(certificates, [], version)

    def test_the_empty_snapshot(self):
        snapshot = export_gccf(GccfView(), tip_number=0)
        assert snapshot.to_json_bytes() == dump_json(snapshot.to_json())

    def test_a_contract_world_with_a_revoked_record(self):
        bed = Bed()
        bed.revoke(bed.ica.cert)
        snapshot = export_gccf(bed.view, tip_number=bed.next_block - 1)
        assert snapshot.certificates
        assert snapshot.to_json_bytes() == dump_json(snapshot.to_json())


def _framed_certificate(version, serial, subject, issuer, key, subject_uid, issuer_uid, not_before, span,
                        hash_id, sign_id, function, signature) -> bytes:
    """A certificate's bytes framed field by field as FORMAT.md lays them out, without canonical_encode."""
    fields = [
        version.to_bytes(4, "big"), serial, subject.encode("utf-8"), issuer.encode("utf-8"), key, subject_uid,
        issuer_uid, not_before.to_bytes(8, "big") + (not_before + span).to_bytes(8, "big"),
        wire.field(hash_id.encode("utf-8")) + wire.field(sign_id.encode("utf-8")),
        function.value.encode("utf-8"), signature,
    ]
    return b"".join(len(f).to_bytes(4, "big") + f for f in fields)


_names = st.text(min_size=1, max_size=24)
framed_certificates = st.builds(
    _framed_certificate,
    version=st.integers(min_value=0, max_value=0xFFFFFFFF),
    serial=st.binary(min_size=16, max_size=16),
    subject=_names,
    issuer=_names,
    key=st.binary(min_size=32, max_size=32),
    subject_uid=st.binary(min_size=16, max_size=16),
    issuer_uid=st.binary(min_size=16, max_size=16),
    not_before=st.integers(min_value=0, max_value=2**63),
    span=st.integers(min_value=1, max_value=2**63 - 1),
    hash_id=_names,
    sign_id=_names,
    function=st.sampled_from(list(CertFunction)),
    signature=st.binary(min_size=64, max_size=64),
)


class TestCommittedPayloadIsTheEncoding:
    """export_gccf frames each active record's committed AddCert payload instead of encoding the record.

    That gives the same bytes because a payload that decodes re-encodes to
    itself, and the contract commits an AddCert payload only if it decodes.
    """

    @given(payload=framed_certificates)
    @settings(max_examples=200, deadline=None)
    def test_a_payload_that_decodes_encodes_to_itself(self, payload):
        assert canonical_encode(decode_certificate(payload)) == payload

    def test_every_committed_add_cert_payload_encodes_to_itself(self):
        sim = Simulation(ScenarioConfig.from_json({
            "seed": 5, "nodes": [["Elector", 3], ["RCA", 1], ["ICA", 1], ["PG", 1], ["OSP", 1]],
            "generate": {"count": 40, "spacing_ms": 10},
        }))
        sim.run()
        view = sim.nodes[sim.osp_name].gccf_view
        payloads = [entry.payload for entry in view.cert_entries() if entry.function == TxFunction.ADD_CERT]
        assert len(payloads) > 10
        decode_certificate.cache_clear()
        assert [canonical_encode(decode_certificate(p)) for p in payloads] == payloads
        snapshot = export_gccf(view, tip_number=0)
        assert sorted(snapshot.encodings) == sorted(payloads)


def _issue_with_uid(name, issuer, unique_id, rng):
    """A record for a fresh key and serial that claims an existing subject uid."""
    key = generate_keypair(rng.randbytes(32))
    return issue_certificate(
        issuer.key, issuer.cert,
        Subject(name=name, public_key=key.public_key, unique_id=unique_id, not_before=0, not_after=BIG),
        now_s=issuer.cert.not_before, serial=rng.randbytes(16),
    )


class TestSubjectUidOverwrite:
    """An addition may never reuse a committed subject uid (duplicate-subject)."""

    def test_issuer_cannot_replace_an_elector_record(self):
        bed = Bed()
        elector = bed.electors[0]
        before = bed.view.cert_entry(elector.cert.subject_unique_id)
        evil = _issue_with_uid("RA-evil", bed.ica, elector.cert.subject_unique_id, bed.rng)
        with pytest.raises(ContractRejection) as exc:
            bed.add(evil, bed.ica)
        assert reject_reason(exc) == "duplicate-subject"
        assert bed.view.cert_entry(elector.cert.subject_unique_id) is before
        assert evil.serial_number not in bed.view.serials
        assert validate_cert(bed.view, elector.cert, now_s=10.0).ok

    def test_revoked_record_cannot_be_reissued(self):
        bed = Bed()
        bed.revoke(bed.ica.cert)
        again = _issue_with_uid("ICA-1", bed.rca, bed.ica.cert.subject_unique_id, bed.rng)
        with pytest.raises(ContractRejection) as exc:
            bed.add(again, bed.rca)
        assert reject_reason(exc) == "duplicate-subject"
        assert bed.view.cert_entry(bed.ica.cert.subject_unique_id).function == TxFunction.REVOKE_CERT
        assert not validate_cert(bed.view, again, now_s=10.0).ok
        assert not validate_cert(bed.view, bed.ica.cert, now_s=10.0).ok

    def test_duplicate_serial_is_checked_first(self):
        bed = Bed()
        clash = make_identity("ICA-1", bed.rca, serial=bed.ica.cert.serial_number)
        with pytest.raises(ContractRejection) as exc:
            bed.add(clash.cert, bed.rca)
        assert reject_reason(exc) == "duplicate-serial"

    def test_refused_at_admission_and_on_every_peer(self):
        sim = Simulation(ScenarioConfig(seed=3, nodes=(("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1),
                                                       ("OSP", 1), ("RA", 1)), policies=(("ballot_quorum", 2),)))
        assert sim.run().converged
        ica = sim.deployment.identity("ICA-1")
        elector = sim.deployment.identity("Elector-1")
        evil = _issue_with_uid("RA-evil", ica, elector.cert.subject_unique_id, Random(5))
        tx = make_add_cert_tx(evil, ica.cert, ica.key, 0)
        with pytest.raises(Rejected, match="duplicate-subject"):
            sim.orderer.submit_tx(tx, now_ms=0)
        for node in sim.nodes.values():
            chain = node.ledger(Channel.GCCF)
            block = make_block(chain.height, chain.head_hash(), [tx], sim.deployment.osp.cert,
                               sim.deployment.osp.key)
            with pytest.raises(BlockRefused) as refused:
                node.commit_block(Channel.GCCF, block)
            assert refused.value.reason == "duplicate-subject"
            assert validate_cert(node.gccf_view, elector.cert, now_s=10.0).ok


SUBJECT_NAMES = ("ICA", "PCA", "RA", "MA", "PG", "Elector", "RCA")
NON_BALLOT_STEP = st.tuples(
    st.sampled_from(["collide", "add", "revoke", "validate"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)


class TestAnchorRecordsChangeOnlyByBallot:
    """No non-ballot GCCF transaction changes an elector's or the root's record."""

    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(NON_BALLOT_STEP, min_size=1, max_size=12), seed=st.integers(min_value=0, max_value=2**32))
    def test_non_ballot_transactions_never_change_an_anchor_record(self, steps, seed):
        bed = Bed()
        rng = Random(seed)
        anchors = [e.cert for e in bed.electors] + [bed.rca.cert]
        before = {a.state_key: bed.view.world[a.state_key] for a in anchors}
        signers = [bed.rca, bed.ica, bed.pg] + bed.electors
        known = anchors + [bed.ica.cert, bed.pg.cert]
        for kind, i, j in steps:
            signer = signers[i % len(signers)]
            name = f"{SUBJECT_NAMES[j % len(SUBJECT_NAMES)]}-h{len(known)}"
            if kind == "collide":
                uid = anchors[j % len(anchors)].subject_unique_id
                tx = make_add_cert_tx(_issue_with_uid(name, signer, uid, rng), signer.cert, signer.key, 0)
            elif kind == "add":
                cert = _issue_with_uid(name, signer, rng.randbytes(16), rng)
                known.append(cert)
                tx = make_add_cert_tx(cert, signer.cert, signer.key, 0)
            elif kind == "revoke":
                tx = gccf.make_revoke_cert_tx(known[j % len(known)], bed.pg.cert, bed.pg.key, 0)
            else:
                tx = gccf.make_validate_tx(known[j % len(known)], signer.cert, signer.key, 0)
            try:
                gccf.apply_tx(bed.view, tx, block_number=bed.next_block)
            except ContractRejection:
                pass
            bed.next_block += 1
            for key, entry in before.items():
                assert bed.view.world[key] is entry
