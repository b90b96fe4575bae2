"""Policy contract: PG-exclusive writes, alive/death lifecycle, history."""

from random import Random

import pytest

from bbtm import gpf
from bbtm.gccf import ContractRejection
from bbtm.gpf import (
    GpfView,
    PolicyRecord,
    PolicyStatus,
    ballot_quorum,
    death_record,
    decode_policy,
    encode_policy,
    get_rule,
    make_policy_tx,
)
from bbtm.identity import AuthorityRole
from bbtm.ledger import Channel

from helpers import Bed, make_identity


def _quorum_record(n=2) -> PolicyRecord:
    return PolicyRecord(
        entity="Elector", rule_name="ballot_quorum",
        rule_body={"min_endorsements": n}, status=PolicyStatus.ALIVE,
    )


def _max_txs_record(n=2) -> PolicyRecord:
    """A known rule that may change after the genesis."""
    return PolicyRecord(entity="OSP", rule_name="block_max_txs", rule_body={"value": n}, status=PolicyStatus.ALIVE)


class TestAddPolicy:
    def test_pg_adds_rule_alive(self):
        bed = Bed()
        view = GpfView()
        tx = make_policy_tx(_max_txs_record(3), bed.pg.cert, bed.pg.key, 0)
        gpf.apply_tx(view, bed.view, tx, block_number=1)
        record = get_rule(view, "OSP", "block_max_txs")
        assert record.status == PolicyStatus.ALIVE
        assert record.rule_body == {"value": 3}
        assert gpf.block_max_txs(view) == 3

    def test_rca_submission_is_not_pg(self):
        bed = Bed()
        view = GpfView()
        tx = make_policy_tx(_max_txs_record(), bed.rca.cert, bed.rca.key, 0)
        with pytest.raises(ContractRejection) as exc:
            gpf.apply_tx(view, bed.view, tx, block_number=1)
        assert exc.value.reason == "not-PG"

    def test_revoked_pg_is_not_pg(self):
        bed = Bed()
        bed.inject_revoked(bed.pg.cert)
        view = GpfView()
        tx = make_policy_tx(_max_txs_record(), bed.pg.cert, bed.pg.key, 0)
        with pytest.raises(ContractRejection) as exc:
            gpf.apply_tx(view, bed.view, tx, block_number=1)
        assert exc.value.reason == "not-PG"

    def test_readd_overwrites_alive(self):
        bed = Bed()
        view = GpfView()
        gpf.apply_tx(view, bed.view, make_policy_tx(_max_txs_record(2), bed.pg.cert, bed.pg.key, 0), block_number=1)
        gpf.apply_tx(view, bed.view, make_policy_tx(_max_txs_record(5), bed.pg.cert, bed.pg.key, 1), block_number=2)
        record = get_rule(view, "OSP", "block_max_txs")
        assert record.status == PolicyStatus.ALIVE
        assert record.rule_body == {"value": 5}
        assert record.updated_block == 2


class TestGenesisRule:
    """The ballot quorum commits in the genesis block and is refused in every later one."""

    def test_the_genesis_commits_the_quorum(self):
        bed = Bed()
        view = GpfView()
        gpf.apply_tx(view, bed.view, make_policy_tx(_quorum_record(3), bed.pg.cert, bed.pg.key, 0), block_number=0)
        assert ballot_quorum(view) == 3

    @pytest.mark.parametrize("in_genesis", [True, False], ids=["set-in-genesis", "absent-from-genesis"])
    def test_a_later_add_or_revoke_is_refused(self, in_genesis):
        bed = Bed()
        view = GpfView()
        if in_genesis:
            gpf.apply_tx(view, bed.view, make_policy_tx(_quorum_record(3), bed.pg.cert, bed.pg.key, 0), block_number=0)
        before = dict(view.world)
        for tx in (make_policy_tx(_quorum_record(1), bed.pg.cert, bed.pg.key, 1),
                   make_policy_tx(death_record(view, "Elector", "ballot_quorum"), bed.pg.cert, bed.pg.key, 2)):
            with pytest.raises(ContractRejection) as exc:
                gpf.apply_tx(view, bed.view, tx, block_number=1)
            assert exc.value.reason == "genesis-rule"
        assert view.world == before
        assert ballot_quorum(view) == (3 if in_genesis else 2)

    def test_a_non_pg_write_is_still_not_pg(self):
        bed = Bed()
        with pytest.raises(ContractRejection) as exc:
            gpf.apply_tx(GpfView(), bed.view, make_policy_tx(_quorum_record(1), bed.rca.cert, bed.rca.key, 0),
                         block_number=1)
        assert exc.value.reason == "not-PG"


class TestRevokePolicy:
    def test_revoke_flips_to_death(self):
        bed = Bed()
        view = GpfView()
        gpf.apply_tx(view, bed.view, make_policy_tx(_max_txs_record(), bed.pg.cert, bed.pg.key, 0), block_number=1)
        tx = make_policy_tx(death_record(view, "OSP", "block_max_txs"), bed.pg.cert, bed.pg.key, 1)
        gpf.apply_tx(view, bed.view, tx, block_number=2)
        record = get_rule(view, "OSP", "block_max_txs")
        assert record.status == PolicyStatus.DEATH
        # Dead rules are not in force: consumers fall back to the default.
        assert gpf.block_max_txs(view) == 10

    def test_unknown_rule(self):
        bed = Bed()
        view = GpfView()
        tx = make_policy_tx(death_record(view, "Elector", "never_added"), bed.pg.cert, bed.pg.key, 0)
        with pytest.raises(ContractRejection) as exc:
            gpf.apply_tx(view, bed.view, tx, block_number=1)
        assert exc.value.reason == "unknown-rule"

    def test_revoke_then_readd_is_alive(self):
        bed = Bed()
        view = GpfView()
        gpf.apply_tx(view, bed.view, make_policy_tx(_max_txs_record(), bed.pg.cert, bed.pg.key, 0), block_number=1)
        gpf.apply_tx(
            view, bed.view,
            make_policy_tx(death_record(view, "OSP", "block_max_txs"), bed.pg.cert, bed.pg.key, 1),
            block_number=2,
        )
        gpf.apply_tx(view, bed.view, make_policy_tx(_max_txs_record(4), bed.pg.cert, bed.pg.key, 2), block_number=3)
        assert get_rule(view, "OSP", "block_max_txs").status == PolicyStatus.ALIVE
        assert gpf.block_max_txs(view) == 4


class TestGetRule:
    def test_absent(self):
        assert get_rule(GpfView(), "Elector", "nope") is None

    def test_defaults_when_rule_absent(self):
        view = GpfView()
        assert gpf.block_max_txs(view) == 10
        assert gpf.block_timeout_ms(view) == 500
        assert ballot_quorum(view) == 2

    @pytest.mark.parametrize("entity, rule, key, value", [
        ("OSP", "block_max_txs", "value", 0),
        ("OSP", "block_max_txs", "value", -4),
        ("OSP", "block_max_txs", "value", "abc"),
        ("OSP", "block_timeout_ms", "value", "soon"),
        ("Elector", "ballot_quorum", "min_endorsements", "two"),
    ])
    def test_a_committed_value_it_cannot_use_reads_as_the_default(self, entity, rule, key, value):
        bed = Bed()
        view = GpfView()
        record = PolicyRecord(entity=entity, rule_name=rule, rule_body={key: value}, status=PolicyStatus.ALIVE)
        # Committed in the genesis, the one block that may write the quorum.
        gpf.apply_tx(view, bed.view, make_policy_tx(record, bed.pg.cert, bed.pg.key, 0), block_number=0)
        assert get_rule(view, entity, rule).rule_body == {key: value}
        assert (gpf.block_max_txs(view), gpf.block_timeout_ms(view), ballot_quorum(view)) == (10, 500, 2)

    def test_a_numeric_string_and_a_negative_timeout_are_read_as_committed(self):
        bed = Bed()
        view = GpfView()
        for rule, value in (("block_max_txs", "3"), ("block_timeout_ms", -5)):
            record = PolicyRecord(entity="OSP", rule_name=rule, rule_body={"value": value}, status=PolicyStatus.ALIVE)
            gpf.apply_tx(view, bed.view, make_policy_tx(record, bed.pg.cert, bed.pg.key, 0), block_number=1)
        assert (gpf.block_max_txs(view), gpf.block_timeout_ms(view)) == (3, -5)


class TestEncoding:
    def test_policy_roundtrip(self):
        record = PolicyRecord(
            entity="OSP", rule_name="block_max_txs",
            rule_body={"value": 25, "note": "x", "on": True}, status=PolicyStatus.ALIVE,
        )
        assert decode_policy(encode_policy(record)) == record

    def test_status_totality(self):
        # No third status is decodable.
        record = _max_txs_record()
        raw = encode_policy(record)
        bad = raw.replace(b"alive", b"zombi")
        with pytest.raises(ContractRejection):
            decode_policy(bad)

    @pytest.mark.parametrize("entity, rule, body, message", [
        ("X", "r", {"k": 1.5}, "policy rule body must map names to scalars"),
        ("", "r", {}, "policy entity must be non-empty"),
        ("X", "", {}, "policy rule name must be non-empty"),
    ], ids=["float-value", "empty-entity", "empty-rule"])
    def test_malformed_record_is_a_value_error(self, entity, rule, body, message):
        # The record names the bad value; only the contract names a reason code.
        with pytest.raises(ValueError, match=message) as exc:
            PolicyRecord(entity=entity, rule_name=rule, rule_body=body, status=PolicyStatus.ALIVE)
        assert not isinstance(exc.value, ContractRejection)


class TestWriteExclusivity:
    def test_only_pg_ever_mutates(self):
        rng = Random(4242)
        bed = Bed()
        identities = {}
        for role in AuthorityRole:
            ident = make_identity(f"{role.value}-88", rng=rng)
            bed.inject_committed(ident.cert)
            identities[role] = ident
        view = GpfView()
        committed = 0
        for trial in range(10_000):
            role = rng.choice(list(AuthorityRole))
            ident = identities[role]
            record = PolicyRecord(
                entity="Consortium", rule_name=f"rule-{trial % 50}",
                rule_body={"value": trial}, status=PolicyStatus.ALIVE,
            )
            tx = make_policy_tx(record, ident.cert, ident.key, trial)
            before = dict(view.world)
            try:
                gpf.apply_tx(view, bed.view, tx, block_number=trial)
                committed += 1
                assert role == AuthorityRole.PG
            except ContractRejection:
                assert view.world == before
                assert role != AuthorityRole.PG
        assert committed > 0


class TestHistoryPreservation:
    def test_status_sequence_recoverable_from_blocks(self):
        # Chain-level: the per-rule status history from a raw block scan
        # matches the committed transaction order.
        from bbtm.deployment import build_deployment, expand_node_counts
        from bbtm.node import Node

        dep = build_deployment(5, expand_node_counts([("Elector", 2), ("RCA", 1), ("PG", 1), ("OSP", 1)]), {})
        node = Node(dep.identity("OSP-1").cert)
        node.commit_genesis(dep.genesis.gccf_genesis, dep.genesis.gpf_genesis)
        pg = dep.identity("PG-1")
        from bbtm.ledger import make_block

        expected = []
        statuses = [PolicyStatus.ALIVE, PolicyStatus.DEATH, PolicyStatus.ALIVE, PolicyStatus.DEATH]
        for i, status in enumerate(statuses):
            record = PolicyRecord(entity="RA", rule_name="flap", rule_body={"i": i}, status=status)
            tx = make_policy_tx(record, pg.cert, pg.key, i)
            ledger = node.ledger(Channel.GPF)
            block = make_block(ledger.height, ledger.head_hash(), [tx], dep.osp.cert, dep.osp.key)
            node.commit_block(Channel.GPF, block)
            expected.append(status)
        scanned = []
        for block in node.ledger(Channel.GPF).blocks:
            for tx in block.transactions:
                if tx.key == gpf.policy_key("RA", "flap"):
                    scanned.append(decode_policy(tx.payload).status)
        assert scanned == expected
        assert get_rule(node.gpf_view, "RA", "flap").status == PolicyStatus.DEATH
