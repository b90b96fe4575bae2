"""Elector voting: endorsements, quorum tallies, ballot application."""

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbtm import gccf
from bbtm.ballot import (
    BallotError,
    BallotStatus,
    EndorsementType,
    apply_ballot,
    create_endorsement,
    decode_endorsement,
    encode_endorsement,
    make_endorsement_tx,
    tally_ballot,
)
from bbtm.identity import canonical_encode, sha256
from bbtm.ledger import TxFunction

from helpers import Bed, make_identity


def _endorse(bed: Bed, elector_index: int, etype: EndorsementType, target_cert, block_number=None):
    elector = bed.electors[elector_index]
    endorsement = create_endorsement(elector.key, elector.cert, etype, target_cert, bed.view)
    tx = make_endorsement_tx(endorsement, target_cert.serial_number, elector.cert, elector.key, 0)
    number = block_number if block_number is not None else bed.next_block
    gccf.apply_tx(bed.view, tx, block_number=number)
    bed.next_block = number + 1
    return endorsement


class TestCreateEndorsement:
    def test_signature_verifies_under_elector(self):
        bed = Bed()
        target = make_identity("RCA-2", rng=bed.rng)
        endorsement = create_endorsement(
            bed.electors[0].key, bed.electors[0].cert, EndorsementType.ADD_ROOT, target.cert, bed.view
        )
        assert endorsement.verify(bed.electors[0].cert.subject_public_key)
        assert endorsement.target_cert_digest == sha256(canonical_encode(target.cert))

    def test_revoked_elector_cannot_endorse(self):
        bed = Bed()
        bed.inject_revoked(bed.electors[0].cert)
        target = make_identity("RCA-2", rng=bed.rng)
        with pytest.raises(BallotError) as exc:
            create_endorsement(
                bed.electors[0].key, bed.electors[0].cert, EndorsementType.ADD_ROOT, target.cert, bed.view
            )
        assert exc.value.reason == "revoked-elector"

    def test_digest_binds_exact_target_bytes(self):
        bed = Bed()
        target = make_identity("RCA-2", rng=bed.rng)
        endorsement = create_endorsement(
            bed.electors[0].key, bed.electors[0].cert, EndorsementType.ADD_ROOT, target.cert, bed.view
        )
        mutated = replace(endorsement, target_cert_digest=bytes(32))
        assert not mutated.verify(bed.electors[0].cert.subject_public_key)

    def test_wire_roundtrip(self):
        bed = Bed()
        target = make_identity("RCA-2", rng=bed.rng)
        endorsement = create_endorsement(
            bed.electors[0].key, bed.electors[0].cert, EndorsementType.REVOKE_ELECTOR, target.cert, bed.view
        )
        assert decode_endorsement(encode_endorsement(endorsement)) == endorsement


class TestTally:
    def test_quorum_two_of_three(self):
        bed = Bed()
        target = make_identity("RCA-2", rng=bed.rng)
        digest = sha256(canonical_encode(target.cert))
        _endorse(bed, 0, EndorsementType.ADD_ROOT, target.cert)
        assert tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest).status == BallotStatus.OPEN
        _endorse(bed, 1, EndorsementType.ADD_ROOT, target.cert)
        tally = tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
        assert tally.status == BallotStatus.ACCEPTED
        assert tally.valid_count == 2

    def test_duplicates_from_one_elector_count_once(self):
        bed = Bed()
        target = make_identity("RCA-2", rng=bed.rng)
        digest = sha256(canonical_encode(target.cert))
        for _ in range(5):
            _endorse(bed, 0, EndorsementType.ADD_ROOT, target.cert)
        tally = tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
        assert tally.valid_count == 1
        assert tally.status == BallotStatus.OPEN

    def test_endorsement_from_since_revoked_elector_is_invalid(self):
        bed = Bed()
        target = make_identity("RCA-2", rng=bed.rng)
        digest = sha256(canonical_encode(target.cert))
        _endorse(bed, 0, EndorsementType.ADD_ROOT, target.cert)
        _endorse(bed, 1, EndorsementType.ADD_ROOT, target.cert)
        bed.inject_revoked(bed.electors[0].cert)
        # Oracle: recount from the raw endorsement log, applying the
        # validity rules independently.
        valid = set()
        for _n, e in bed.view.endorsement_log:
            if e.endorsement_type != EndorsementType.ADD_ROOT or e.target_cert_digest != digest:
                continue
            entry = bed.view.cert_entry(e.elector_id)
            if entry is None or entry.function != TxFunction.ADD_CERT:
                continue
            valid.add(e.elector_id)
        tally = tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
        assert len(valid) == 1
        assert tally.valid_count == len(valid)
        assert tally.status == BallotStatus.OPEN

    @given(dups=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_double_vote_immunity_property(self, dups):
        bed = Bed()
        target = make_identity("RCA-2", rng=Random(1))
        digest = sha256(canonical_encode(target.cert))
        for elector_index in dups:
            _endorse(bed, elector_index, EndorsementType.ADD_ROOT, target.cert)
        tally = tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
        assert tally.valid_count == len(set(dups))
        assert (tally.status == BallotStatus.ACCEPTED) == (len(set(dups)) >= 2)

    def test_quorum_monotonicity(self):
        bed = Bed()
        target = make_identity("RCA-2", rng=bed.rng)
        digest = sha256(canonical_encode(target.cert))
        statuses = []
        for i in range(3):
            _endorse(bed, i, EndorsementType.ADD_ROOT, target.cert)
            statuses.append(tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest).status)
        accepted_seen = False
        for status in statuses:
            if status == BallotStatus.ACCEPTED:
                accepted_seen = True
            assert not (accepted_seen and status != BallotStatus.ACCEPTED)


class TestApplyBallot:
    def test_accepted_add_root_becomes_anchor(self):
        bed = Bed()
        rca2 = make_identity("RCA-2", rng=bed.rng)
        digest = sha256(canonical_encode(rca2.cert))
        _endorse(bed, 0, EndorsementType.ADD_ROOT, rca2.cert)
        _endorse(bed, 1, EndorsementType.ADD_ROOT, rca2.cert)
        tally = tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
        tx = apply_ballot(bed.view, tally, bed.electors[0].cert, bed.electors[0].key, 0)
        gccf.apply_tx(bed.view, tx, block_number=bed.next_block)
        bed.next_block += 1
        # The new root anchors validation for records chained under it.
        assert gccf.validate_cert(bed.view, rca2.cert, 10.0).ok
        ica2 = make_identity("ICA-2", rca2, rng=bed.rng)
        bed.add(ica2.cert, rca2)
        assert gccf.validate_cert(bed.view, ica2.cert, 10.0).ok

    def test_open_ballot_not_applied(self):
        bed = Bed()
        rca2 = make_identity("RCA-2", rng=bed.rng)
        digest = sha256(canonical_encode(rca2.cert))
        _endorse(bed, 0, EndorsementType.ADD_ROOT, rca2.cert)
        tally = tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
        with pytest.raises(BallotError) as exc:
            apply_ballot(bed.view, tally, bed.electors[0].cert, bed.electors[0].key, 0)
        assert exc.value.reason == "not-accepted"

    def test_replay_is_already_applied(self):
        bed = Bed()
        rca2 = make_identity("RCA-2", rng=bed.rng)
        digest = sha256(canonical_encode(rca2.cert))
        _endorse(bed, 0, EndorsementType.ADD_ROOT, rca2.cert)
        _endorse(bed, 1, EndorsementType.ADD_ROOT, rca2.cert)
        tally = tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
        tx = apply_ballot(bed.view, tally, bed.electors[0].cert, bed.electors[0].key, 0)
        gccf.apply_tx(bed.view, tx, block_number=bed.next_block)
        with pytest.raises(BallotError) as exc:
            apply_ballot(bed.view, tally, bed.electors[0].cert, bed.electors[0].key, 1)
        assert exc.value.reason == "already-applied"

    def test_revoke_root_invalidates_paths(self):
        bed = Bed()
        digest = sha256(canonical_encode(bed.rca.cert))
        _endorse(bed, 0, EndorsementType.REVOKE_ROOT, bed.rca.cert)
        _endorse(bed, 1, EndorsementType.REVOKE_ROOT, bed.rca.cert)
        tally = tally_ballot(bed.view, EndorsementType.REVOKE_ROOT, digest)
        tx = apply_ballot(bed.view, tally, bed.electors[0].cert, bed.electors[0].key, 0)
        gccf.apply_tx(bed.view, tx, block_number=bed.next_block)
        result = gccf.validate_cert(bed.view, bed.ica.cert, 10.0)
        assert not result.ok and result.reason == "revoked-on-path"

    def test_root_add_tx_without_quorum_rejected_on_chain(self):
        # A forged application transaction is caught by the contract itself.
        bed = Bed()
        rca2 = make_identity("RCA-2", rng=bed.rng)
        tx = gccf.make_add_cert_tx(rca2.cert, bed.electors[0].cert, bed.electors[0].key, 0)
        with pytest.raises(gccf.ContractRejection) as exc:
            gccf.apply_tx(bed.view, tx, block_number=bed.next_block)
        assert exc.value.reason == "role-violation"


class TestHistoryAudit:
    def test_full_sequence_recoverable_and_reproduces_tally(self):
        bed = Bed()
        target = make_identity("RCA-2", rng=bed.rng)
        digest = sha256(canonical_encode(target.cert))
        recorded = [
            _endorse(bed, 0, EndorsementType.ADD_ROOT, target.cert),
            _endorse(bed, 1, EndorsementType.ADD_ROOT, target.cert),
            _endorse(bed, 0, EndorsementType.ADD_ROOT, target.cert),
        ]
        log = [e for _n, e in bed.view.endorsement_log if e.target_cert_digest == digest]
        assert log == recorded
        assert tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest).valid_count == 2
