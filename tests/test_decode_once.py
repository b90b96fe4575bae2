"""Payloads decoded once per transaction, shared by every peer's contracts.

A transaction keeps the record its payload decodes to, and the world-state
entry it writes starts with that record; rule reads go through the entry.
The kept record is never a field and never handed out for mutation.
Certificate records keep their subject role and state key.
"""

import collections
import dataclasses
import gc
import json
import pathlib
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbtm import ballot, gccf, gpf
from bbtm.ballot import EndorsementType, decode_endorsement
from bbtm.deployment import derive_identity, genesis_node
from bbtm.gccf import cert_key
from bbtm.identity import (
    AuthorityRole,
    CertificateRecord,
    Identity,
    KeyPair,
    canonical_encode,
    decode_certificate,
    role_of_name,
)
from bbtm.ledger import (
    Channel,
    StateEntry,
    Transaction,
    TxFunction,
    decode_transaction,
    make_block,
    make_transaction,
)
from bbtm.node import BlockRefused
from bbtm.ordering import OrderingService, Rejected
from bbtm.simulation import ScenarioConfig, Simulation

from helpers import make_identity

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "samples" / "scenario.json"
BASE_NODES = (("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 2))


@pytest.fixture(scope="module")
def finished():
    sim = Simulation(
        ScenarioConfig(
            seed=11,
            nodes=BASE_NODES,
            generate={"count": 40, "spacing_ms": 8},
            policies=(("ballot_quorum", 2),),
        )
    )
    assert sim.run().converged
    return sim


def _policy_tx(sim, rule_name="batch", body=None, t=0) -> Transaction:
    pg = sim.deployment.identity("PG-1")
    record = gpf.PolicyRecord(
        entity="RA", rule_name=rule_name, rule_body={"limit": 9} if body is None else body,
        status=gpf.PolicyStatus.ALIVE,
    )
    return gpf.make_policy_tx(record, pg.cert, pg.key, t)


def _malformed_tx(sim) -> Transaction:
    """A PG-signed policy write whose payload is no policy record."""
    good = _policy_tx(sim, rule_name="garbled")
    return make_transaction(
        channel=Channel.GPF, function=good.function, key=good.key, payload=b"\x00\x00\x00\x09not-framed",
        submitter_cert=good.submitter_cert, submitter_key=sim.deployment.identity("PG-1").key,
        submit_time_ms=0,
    )


def _next_block(sim, node, txs):
    chain = node.ledger(Channel.GPF)
    return make_block(chain.height, chain.head_hash(), txs, sim.deployment.osp.cert, sim.deployment.osp.key)


class TestOneDecodePerTransaction:
    def test_sample_run_decodes_each_policy_tx_at_most_once(self, monkeypatch):
        # Decodes through the kept slot pass the payload alone; get_rule's
        # fresh decodes pass updated_block and are not counted here.
        calls = collections.Counter()
        applied = collections.Counter()
        decode, apply_tx = gpf.decode_policy, gpf.apply_tx

        def counted_decode(data, updated_block=None):
            if updated_block is None:
                calls[data] += 1
            return decode(data, updated_block)

        def counted_apply(view, gccf_view, tx, **kwargs):
            applied[tx.payload] += 1
            return apply_tx(view, gccf_view, tx, **kwargs)

        monkeypatch.setattr(gpf, "decode_policy", counted_decode)
        monkeypatch.setattr(gpf, "apply_tx", counted_apply)  # node and ordering call gpf.apply_tx
        sim = Simulation(ScenarioConfig.from_json(json.loads(SAMPLE.read_text())))
        report = sim.run()
        assert report.converged

        txs = {}
        for node in sim.nodes.values():
            for block in node.ledger(Channel.GPF).blocks:
                for tx in block.transactions:
                    txs[id(tx)] = tx
        per_payload = collections.Counter(tx.payload for tx in txs.values())
        assert len(txs) > 100
        assert all(calls[payload] <= count for payload, count in per_payload.items())
        assert sum(calls.values()) <= len(txs)
        # ...while the contracts ran on the orderer and on every peer.
        assert min(applied[payload] for payload in per_payload if payload in applied) >= len(sim.nodes)

    def test_peers_share_the_record_and_rule_reads_use_the_entry(self, finished, monkeypatch):
        tx = _policy_tx(finished, rule_name="shared")
        nodes = [node for node in finished.nodes.values() if node.is_live]
        block = _next_block(finished, nodes[0], [tx])
        calls = []
        decode = gpf.decode_policy
        monkeypatch.setattr(gpf, "decode_policy", lambda data, updated_block=None: calls.append(data)
                            or decode(data, updated_block))
        for node in nodes:
            node.commit_block(Channel.GPF, block)
        assert calls == [tx.payload]
        record = tx.decoded(gpf.decode_policy)
        for node in nodes:
            entry = node.gpf_view.entry(tx.key)
            assert entry.decoded(gpf.decode_policy) is record
        assert gpf.rule_value(nodes[0].gpf_view, "RA", "shared", "limit", 0) == 9
        assert calls == [tx.payload]

    def test_entries_without_a_decoded_transaction_decode_themselves(self):
        record = gpf.PolicyRecord(entity="OSP", rule_name="block_max_txs", rule_body={"value": 4},
                                  status=gpf.PolicyStatus.ALIVE)
        view = gpf.GpfView()
        view.world[gpf.policy_key("OSP", "block_max_txs")] = StateEntry(
            gpf.encode_policy(record), TxFunction.ADD_POLICY, 3
        )
        assert gpf.block_max_txs(view) == 4


class TestMalformedPayload:
    def test_refused_with_malformed_rule_on_every_peer(self, finished):
        tx = _malformed_tx(finished)
        with pytest.raises(Rejected) as admission:
            finished.orderer.submit_tx(tx, now_ms=0)
        assert admission.value.reason == "malformed-rule"
        peers = [node for node in finished.nodes.values() if node.is_live]
        for node in peers:
            digest = node.world_state_digest()
            with pytest.raises(BlockRefused) as refused:
                node.commit_block(Channel.GPF, _next_block(finished, node, [tx]))
            assert refused.value.reason == "malformed-rule"
            assert node.world_state_digest() == digest
        assert not hasattr(tx, "_decoded")

    def test_a_failed_decode_is_not_kept(self, finished):
        tx = _malformed_tx(finished)
        for _ in range(3):
            with pytest.raises(gpf.ContractRejection, match="malformed-rule"):
                tx.decoded(gpf.decode_policy)
        assert not hasattr(tx, "_decoded")


def _is_set(value, slot):
    """Whether value's slot holds a value, read without computing a kept one."""
    try:
        getattr(type(value), slot).__get__(value)
    except AttributeError:
        return False
    return True


class TestMemoIsNotAField:
    def test_invisible_to_equality_hash_and_repr(self, finished):
        tx = _policy_tx(finished, rule_name="eq")
        fresh = dataclasses.replace(tx)
        tx.decoded(gpf.decode_policy)
        entry = tx.state_entry(5)
        assert hasattr(tx, "_decoded") and hasattr(entry, "_decoded")
        assert not hasattr(fresh, "_decoded")
        assert tx == fresh and hash(tx) == hash(fresh) and repr(tx) == repr(fresh)
        plain = StateEntry(tx.payload, tx.function, 5)
        assert entry == plain and hash(entry) == hash(plain) and repr(entry) == repr(plain)
        assert "_decoded" not in repr(tx) and "_decoded" not in repr(entry)

    def test_only_the_declared_fields_are_seen(self, finished):
        tx = _policy_tx(finished, rule_name="seen")
        entry = tx.state_entry(5)
        ident = finished.deployment.identity("PG-1")
        declared = {  # each class's fields, then its kept slots
            Transaction: (("channel", "function", "key", "payload", "submitter_cert", "submitter_signature",
                           "submit_time_ms"), ("_signing_bytes", "_signature_field", "tx_id", "_decoded",
                                               "_state_entry")),
            StateEntry: (("payload", "function", "block_number"), ("_decoded",)),
            Identity: (("key", "cert"), ()),
        }
        for value in (tx, entry, ident):
            fresh = dataclasses.replace(value)
            # Fill every kept slot of the one value, then compare it with the fresh one.
            if value is tx:
                tx.decoded(gpf.decode_policy), tx.tx_id, tx.canonical_body()
            if value is entry:
                entry.decoded(gpf.decode_policy)
            fields, kept = declared[type(value)]
            assert tuple(f.name for f in dataclasses.fields(value)) == fields
            assert type(value).__slots__ == fields + kept
            assert all(_is_set(value, slot) for slot in kept)
            assert not any(_is_set(fresh, slot) for slot in kept)
            # The fresh value holds no kept slot, so these see the declared fields only.
            assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)

    def test_tampered_rebuild_decodes_afresh(self, finished):
        tx = _policy_tx(finished, rule_name="orig", body={"limit": 1})
        assert tx.decoded(gpf.decode_policy).rule_body == {"limit": 1}
        other = _policy_tx(finished, rule_name="orig", body={"limit": 2})
        tampered = dataclasses.replace(tx, payload=other.payload)
        assert tampered.decoded(gpf.decode_policy).rule_body == {"limit": 2}
        assert tx.decoded(gpf.decode_policy).rule_body == {"limit": 1}
        entry = dataclasses.replace(tx.state_entry(3), payload=other.payload)
        assert entry.decoded(gpf.decode_policy).rule_body == {"limit": 2}

    def test_get_rule_never_shares_rule_body(self, finished):
        node = finished.nodes[finished.osp_name]
        view = node.gpf_view
        entry = view.entry(gpf.policy_key(*gpf.RULE_BALLOT_QUORUM))
        quorum = gpf.ballot_quorum(view)
        kept = entry.decoded(gpf.decode_policy)
        got = gpf.get_rule(view, *gpf.RULE_BALLOT_QUORUM)
        again = gpf.get_rule(view, *gpf.RULE_BALLOT_QUORUM)
        assert got == again and got.rule_body == kept.rule_body
        assert got is not kept and got.rule_body is not kept.rule_body and got.rule_body is not again.rule_body
        assert got.updated_block == entry.block_number
        got.rule_body["min_endorsements"] = 999
        assert gpf.ballot_quorum(view) == quorum
        assert gpf.get_rule(view, *gpf.RULE_BALLOT_QUORUM).rule_body["min_endorsements"] == quorum


def _role_by_enum_call(name):
    head = name.split("-", 1)[0]
    try:
        return AuthorityRole(head)
    except ValueError:
        return None


class TestDerivedCertificateFields:
    NON_ROLES = ["", "-", "-RA", "X-1", "elector-1", "ra", "RCA_1", "OSP1", " RA-1", "RA ", "Role-RA", "ICA2-1"]

    def test_role_of_name_matches_the_enum_lookup(self):
        names = []
        for role in AuthorityRole:
            names += [role.value, f"{role.value}-1", f"{role.value}-a-b", f"{role.value}-"]
        for name in names:
            assert role_of_name(name) is _role_by_enum_call(name) is not None
        for name in self.NON_ROLES:
            assert role_of_name(name) is None and _role_by_enum_call(name) is None

    def test_certificate_keeps_role_and_state_key(self):
        rca = make_identity("RCA-1")
        cert = make_identity("ICA-4", rca).cert
        assert cert.subject_role is AuthorityRole.ICA
        assert cert.state_key == cert_key(cert.subject_unique_id) == f"cert/{cert.subject_unique_id.hex()}"
        odd = dataclasses.replace(cert, subject_name="Nobody-1")
        assert odd.subject_role is None and odd.state_key == cert.state_key
        moved = dataclasses.replace(cert, subject_unique_id=bytes(16))
        assert moved.state_key == cert_key(bytes(16))

    def test_derived_fields_are_not_fields(self):
        rca = make_identity("RCA-1")
        cert = make_identity("PCA-2", make_identity("ICA-2", rca)).cert
        decoded = decode_certificate(cert._encoding)
        assert decoded == cert and hash(decoded) == hash(cert) and repr(decoded) == repr(cert)
        assert "subject_role" not in repr(cert) and "state_key" not in repr(cert)
        assert {f.name for f in dataclasses.fields(cert)}.isdisjoint({"subject_role", "state_key"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.state_key = "cert/00"

    def test_kept_encodings_are_slots_that_no_field_sees(self):
        cert = make_identity("RA-3", make_identity("RCA-1")).cert
        fresh = dataclasses.replace(cert)
        assert not _is_set(fresh, "_signing_bytes") and not _is_set(fresh, "_encoding")
        encoding = canonical_encode(cert)
        assert _is_set(cert, "_signing_bytes") and _is_set(cert, "_encoding") and cert._encoding is encoding
        fields = [f.name for f in dataclasses.fields(cert)]
        assert len(fields) == 13 and CertificateRecord.__slots__ == (
            *fields, "subject_role", "state_key", "_signing_bytes", "_encoding")
        assert cert == fresh and hash(cert) == hash(fresh) and repr(cert) == repr(fresh)
        assert not _is_set(fresh, "_encoding") and canonical_encode(fresh) == encoding


# ---------------------------------------------------------------- built records

# The sample scenario plus a root voted in and out: every kind of transaction
# that carries a certificate or an endorsement record commits in it.
BALLOTS = [
    {"at_ms": 500, "action": "new_root", "name": "RCA-9"},
    {"at_ms": 700, "action": "endorse", "elector": "Elector-1", "type": "AddRootCert", "target": "RCA-9"},
    {"at_ms": 740, "action": "endorse", "elector": "Elector-2", "type": "AddRootCert", "target": "RCA-9"},
    {"at_ms": 1600, "action": "apply_ballot", "elector": "Elector-1", "type": "AddRootCert", "target": "RCA-9"},
    {"at_ms": 2600, "action": "endorse", "elector": "Elector-2", "type": "RevokeRootCert", "target": "RCA-9"},
    {"at_ms": 2650, "action": "endorse", "elector": "Elector-3", "type": "RevokeRootCert", "target": "RCA-9"},
    {"at_ms": 3700, "action": "apply_ballot", "elector": "Elector-2", "type": "RevokeRootCert", "target": "RCA-9"},
]
RECORD_FUNCTIONS = {TxFunction.ADD_CERT, TxFunction.REVOKE_CERT, TxFunction.VALIDATE_CERT, TxFunction.BALLOT_ENDORSE}


@pytest.fixture(scope="module")
def sample_run():
    """The sample run with ballots, the records it built, and the records alive before it.

    The process-wide decode caches are emptied first, so no record of an
    earlier test's run can stand in for one this run would decode.
    """
    decode_certificate.cache_clear()
    decode_endorsement.cache_clear()
    gc.collect()
    before = [obj for obj in gc.get_objects() if isinstance(obj, CertificateRecord)]
    built = {"revocations": [], "endorsements": []}
    resign_as, create_endorsement = gccf.resign_as, ballot.create_endorsement
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gccf, "resign_as", lambda *a: built["revocations"].append(resign_as(*a)) or
                      built["revocations"][-1])
        patch.setattr(ballot, "create_endorsement", lambda *a: built["endorsements"].append(
            create_endorsement(*a)) or built["endorsements"][-1])
        sim = Simulation(ScenarioConfig.from_json({**json.loads(SAMPLE.read_text()), "workload": BALLOTS}))
        report = sim.run()
    assert report.converged
    return sim, built, before


SLOTTED = (Transaction, StateEntry, CertificateRecord, KeyPair, Identity)


def _reachable(root):
    """Every object reachable from root through gc referents, short of modules, classes and code."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType, types.FunctionType,
                                                             types.CodeType)):
                seen[id(ref)] = ref
                todo.append(ref)
    return seen.values()


class TestRecordsKeepOnlyTheirSlots:
    def test_no_record_of_the_run_has_an_attribute_dict(self, sample_run):
        sim, _built, _before = sample_run
        found = collections.Counter()
        for obj in _reachable(sim):
            if isinstance(obj, SLOTTED):
                found[type(obj)] += 1
                assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert set(found) == set(SLOTTED)
        assert found[Transaction] > 100 and found[StateEntry] > 100


class TestOneRecordPerCertificate:
    def test_a_run_keeps_one_record_per_encoding(self, sample_run):
        _sim, _built, before = sample_run
        gc.collect()
        old = {id(obj) for obj in before}
        made = [obj for obj in gc.get_objects() if isinstance(obj, CertificateRecord) and id(obj) not in old]
        per_encoding = collections.Counter(canonical_encode(record) for record in made)
        assert len(per_encoding) > 400
        assert [n for n in per_encoding.values() if n > 1] == []

    def test_committed_records_are_the_ones_the_run_built(self, sample_run):
        sim, built, _before = sample_run
        revocations = {id(record) for record in built["revocations"]}
        endorsements = {id(record) for record in built["endorsements"]}
        seen = collections.Counter()
        for node in sim.nodes.values():
            for block in node.ledger(Channel.GCCF).blocks:
                for tx in block.transactions:
                    assert tx.function in RECORD_FUNCTIONS
                    assert hasattr(tx, "_decoded"), "a built transaction starts with its record"
                    if tx.function == TxFunction.BALLOT_ENDORSE:
                        assert id(tx.decoded(decode_endorsement)) in endorsements
                    elif tx.function == TxFunction.REVOKE_CERT:
                        assert id(tx.decoded(decode_certificate)) in revocations
                    else:
                        record = tx.decoded(decode_certificate)
                        assert record is sim._identities[record.subject_name].cert
                    seen[tx.function] += 1
        assert set(seen) == RECORD_FUNCTIONS
        assert seen[TxFunction.BALLOT_ENDORSE] >= 4 * len(sim.nodes)

    def test_the_run_decodes_no_certificate_or_endorsement(self, sample_run):
        assert decode_certificate.cache_info().misses == 0
        assert decode_endorsement.cache_info().misses == 0


# ------------------------------------------------------ built and decoded alike

@pytest.fixture(scope="module")
def revoked_issuer_world():
    """A finished run in which ICA-2 was revoked by the policy generator."""
    nodes = (("Elector", 3), ("RCA", 1), ("ICA", 2), ("PG", 1), ("OSP", 1), ("RA", 1))
    sim = Simulation(ScenarioConfig(
        seed=23, nodes=nodes, generate={"count": 20, "spacing_ms": 8}, policies=(("ballot_quorum", 2),),
        workload=({"at_ms": 900, "action": "revoke", "target": "ICA-2"},),
    ))
    assert sim.run().converged and sim.rejections == []
    return sim


def _built_tx(sim, case: str, salt: int) -> Transaction:
    ident = sim._identities
    osp_view = sim.nodes[sim.osp_name].gccf_view

    def minted(name, issuer, **kwargs):
        return derive_identity(sim.config.seed, f"{name}{salt}", issuer, validity=sim.config.validity,
                               serial=kwargs.get("serial", salt.to_bytes(16, "big")), now_s=0)

    if case == "add":
        return gccf.make_add_cert_tx(minted("PCA-h", ident["ICA-1"]).cert, ident["ICA-1"].cert, ident["ICA-1"].key,
                                     salt)
    if case == "validate":
        return gccf.make_validate_tx(ident["ICA-1"].cert, ident["RA-1"].cert, ident["RA-1"].key, salt)
    if case == "revoke":
        return gccf.make_revoke_cert_tx(ident["RA-1"].cert, ident["PG-1"].cert, ident["PG-1"].key, salt)
    if case == "unknown-target":
        stranger = minted("LA-s", ident["ICA-1"]).cert
        return gccf.make_revoke_cert_tx(stranger, ident["PG-1"].cert, ident["PG-1"].key, salt)
    if case == "unknown-issuer":
        uncommitted = minted("ICA-u", ident["RCA-1"])
        return gccf.make_add_cert_tx(minted("PCA-u", uncommitted).cert, ident["ICA-1"].cert, ident["ICA-1"].key,
                                     salt)
    if case == "role-violation":
        return gccf.make_add_cert_tx(minted("MA-r", ident["ICA-1"]).cert, ident["ICA-1"].cert, ident["ICA-1"].key,
                                     salt)
    if case == "duplicate-serial":
        taken = ident["RA-1"].cert.serial_number
        cert = minted("PCA-d", ident["ICA-1"], serial=taken).cert
        return gccf.make_add_cert_tx(cert, ident["ICA-1"].cert, ident["ICA-1"].key, salt)
    if case == "revoked-issuer":
        return gccf.make_add_cert_tx(minted("PCA-x", ident["ICA-2"]).cert, ident["ICA-2"].cert, ident["ICA-2"].key,
                                     salt)
    target = minted("RCA-n", None).cert
    elector = ident["Elector-1"]
    endorsement = ballot.create_endorsement(elector.key, elector.cert, EndorsementType.ADD_ROOT, target, osp_view)
    submitter = elector if case == "endorse" else ident["Elector-2"]
    return ballot.make_endorsement_tx(endorsement, target.serial_number, submitter.cert, submitter.key, salt)


EXPECTED_REASON = {
    "add": "ok", "validate": "ok", "revoke": "ok", "endorse": "ok", "unknown-target": "unknown-target",
    "unknown-issuer": "unknown-issuer", "role-violation": "role-violation", "duplicate-serial": "duplicate-serial",
    "revoked-issuer": "revoked-issuer", "foreign-endorsement": "bad-endorsement",
}


def _verdicts(sim, tx: Transaction):
    """The reason (or "ok") of the sequencer's admission and of a fresh replica's commit of tx alone."""
    osp = sim.nodes[sim.osp_name]
    try:
        OrderingService(sim.deployment.consortium, sim.deployment.osp, osp).submit_tx(tx, now_ms=0)
        admitted = "ok"
    except Rejected as exc:
        admitted = exc.reason
    replica = genesis_node(sim.deployment, sim.deployment.identity("RA-1").cert)
    for channel in (Channel.GCCF, Channel.GPF):
        for block in osp.ledger(channel).blocks[1:]:
            replica.commit_block(channel, block)
    chain = replica.ledger(Channel.GCCF)
    try:
        replica.commit_block(Channel.GCCF, make_block(chain.height, chain.head_hash(), [tx], sim.deployment.osp.cert,
                                                      sim.deployment.osp.key))
        committed = "ok"
    except BlockRefused as exc:
        committed = exc.reason
    return admitted, committed


class TestBuiltAndDecodedAlike:
    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(sorted(EXPECTED_REASON)), salt=st.integers(1, 2**32))
    def test_same_admission_and_commit_verdict(self, revoked_issuer_world, case, salt):
        built = _built_tx(revoked_issuer_world, case, salt)
        read = decode_transaction(built.canonical_body())
        assert hasattr(built, "_decoded") and not hasattr(read, "_decoded")
        assert read == built and read.tx_id == built.tx_id
        expected = (EXPECTED_REASON[case],) * 2
        assert _verdicts(revoked_issuer_world, built) == expected
        assert _verdicts(revoked_issuer_world, read) == expected
