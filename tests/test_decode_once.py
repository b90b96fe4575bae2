"""Payloads decoded once per transaction, shared by every peer's contracts.

A transaction keeps the record its payload decodes to, and the world-state
entry it writes starts with that record; rule reads go through the entry.
The kept record is never a field and never handed out for mutation.
Certificate records keep their subject role and state key.
"""

import collections
import dataclasses
import json
import pathlib

import pytest

from bbtm import gpf
from bbtm.gccf import cert_key
from bbtm.identity import AuthorityRole, decode_certificate, role_of_name
from bbtm.ledger import Channel, StateEntry, Transaction, TxFunction, make_block, make_transaction
from bbtm.node import BlockRefused
from bbtm.ordering import Rejected
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
        assert "_decoded" not in tx.__dict__

    def test_a_failed_decode_is_not_kept(self, finished):
        tx = _malformed_tx(finished)
        for _ in range(3):
            with pytest.raises(gpf.ContractRejection, match="malformed-rule"):
                tx.decoded(gpf.decode_policy)
        assert "_decoded" not in tx.__dict__


class TestMemoIsNotAField:
    def test_invisible_to_equality_hash_and_repr(self, finished):
        tx = _policy_tx(finished, rule_name="eq")
        fresh = dataclasses.replace(tx)
        tx.decoded(gpf.decode_policy)
        entry = tx.state_entry(5)
        assert "_decoded" in tx.__dict__ and "_decoded" in entry.__dict__
        assert "_decoded" not in fresh.__dict__
        assert tx == fresh and hash(tx) == hash(fresh) and repr(tx) == repr(fresh)
        plain = StateEntry(tx.payload, tx.function, 5)
        assert entry == plain and hash(entry) == hash(plain) and repr(entry) == repr(plain)
        assert "_decoded" not in repr(tx) and "_decoded" not in repr(entry)

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
