"""Genesis creation, transaction admission, and block cutting."""

import hashlib
from random import Random

import pytest

from bbtm import gccf
from bbtm.deployment import build_deployment, expand_node_counts
from bbtm.gpf import PolicyRecord, PolicyStatus, make_policy_tx
from bbtm.identity import AuthorityRole, sha256
from bbtm.ledger import Channel, Transaction, ZERO_HASH
from bbtm.node import Node
from bbtm.ordering import (
    CHANNEL_WRITERS,
    ConsortiumConfig,
    OrderingService,
    Rejected,
    create_genesis,
)

from helpers import make_identity

# Frozen digest of the three genesis blocks for a fixed deployment input;
# pins genesis determinism.
GOLDEN_GENESIS_DIGEST = "3403214146734e43c16a274d0d29d5572624215f676b27421d4edc8b5a499651"
GOLDEN_MEMBERS = [("Elector", 3), ("RCA", 1), ("PG", 1), ("OSP", 1)]


def _deployment(seed=21, extra=(), policies=None):
    counts = [("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1)] + list(extra)
    return build_deployment(seed, expand_node_counts(counts), policies or {"ballot_quorum": 2})


def _service(dep):
    node = Node(dep.osp.cert)
    node.commit_genesis(dep.genesis.gccf_genesis, dep.genesis.gpf_genesis)
    return OrderingService(dep.consortium, dep.osp, node), node


class TestCreateGenesis:
    def test_three_number_zero_blocks(self):
        dep = _deployment()
        bundle = dep.genesis
        assert bundle.system_block.header.number == 0
        assert bundle.gccf_genesis.header.number == 0
        assert bundle.gpf_genesis.header.number == 0
        assert bundle.gccf_genesis.header.prev_header_hash == ZERO_HASH
        # One block of bootstrap records: committing it gives height 1.
        node = Node(dep.identity("RA-1").cert)
        node.commit_genesis(bundle.gccf_genesis, bundle.gpf_genesis)
        assert node.ledger(Channel.GCCF).height == 1

    def test_system_block_binds_config(self):
        dep = _deployment()
        assert dep.genesis.system_block.header.data_hash == sha256(dep.consortium.canonical_bytes())
        assert dep.genesis.system_block.transactions == ()

    def test_bootstrap_contents(self):
        dep = _deployment()
        names = [tx.key for tx in dep.genesis.gccf_genesis.transactions]
        assert len(names) == 5  # 3 electors + root + PG
        assert len(dep.genesis.gpf_genesis.transactions) == 1  # ballot_quorum

    def test_two_osp_certs_is_an_error(self):
        dep = _deployment()
        rogue = make_identity("OSP-2")
        bad = ConsortiumConfig(
            osp_cert=dep.osp.cert,
            members=dep.consortium.members + (rogue.cert,),
        )
        with pytest.raises(ValueError, match="more than one OSP certificate"):
            create_genesis(bad, [], [], dep.osp.key)

    def test_duplicate_member_certs_is_an_error(self):
        dep = _deployment()
        bad = ConsortiumConfig(
            osp_cert=dep.osp.cert,
            members=dep.consortium.members + (dep.consortium.members[0],),
        )
        with pytest.raises(ValueError, match="duplicate member certificates"):
            create_genesis(bad, [], [], dep.osp.key)

    def test_genesis_determinism_golden_digest(self):
        dep = build_deployment(7, expand_node_counts(GOLDEN_MEMBERS), {"ballot_quorum": 2})
        combined = (
            dep.genesis.system_block.encode()
            + dep.genesis.gccf_genesis.encode()
            + dep.genesis.gpf_genesis.encode()
        )
        assert hashlib.sha256(combined).hexdigest() == GOLDEN_GENESIS_DIGEST

    def test_config_json_roundtrip(self):
        dep = _deployment()
        restored = ConsortiumConfig.from_json(dep.consortium.to_json())
        assert restored.canonical_bytes() == dep.consortium.canonical_bytes()


class TestSubmitTx:
    def test_pg_policies_are_admitted_and_cut_in_order(self):
        dep = _deployment()
        service, _node = _service(dep)
        pg = dep.identity("PG-1")
        for i in range(5):
            record = PolicyRecord(entity="RA", rule_name=f"r{i}", rule_body={}, status=PolicyStatus.ALIVE)
            service.submit_tx(make_policy_tx(record, pg.cert, pg.key, i), now_ms=i)
        assert service.pending_count(Channel.GPF) == 5
        block = service.cut_block(Channel.GPF, now_ms=5, force=True)
        assert [tx.key for tx in block.transactions] == [f"policy/RA/r{i}" for i in range(5)]

    def test_ee_write_is_policy_denied(self):
        dep = _deployment(extra=[("EE", 1)])
        service, _node = _service(dep)
        ee = dep.identity("EE-1")
        target = make_identity("MA-5", dep.identity("RCA-1"))
        tx = gccf.make_add_cert_tx(target.cert, ee.cert, ee.key, 0)
        with pytest.raises(Rejected) as exc:
            service.submit_tx(tx, now_ms=0)
        assert exc.value.reason == "policy-denied"

    def test_pending_or_committed_transaction_is_a_duplicate(self):
        dep = _deployment()
        service, node = _service(dep)
        pg = dep.identity("PG-1")
        record = PolicyRecord(entity="RA", rule_name="r", rule_body={}, status=PolicyStatus.ALIVE)
        tx = make_policy_tx(record, pg.cert, pg.key, 0)
        service.submit_tx(tx, now_ms=0)
        with pytest.raises(Rejected) as pending:
            service.submit_tx(tx, now_ms=1)
        service.commit_own(Channel.GPF, service.cut_block(Channel.GPF, now_ms=2, force=True))
        with pytest.raises(Rejected) as committed:
            service.submit_tx(tx, now_ms=3)
        assert pending.value.reason == committed.value.reason == "duplicate-tx"
        assert service.pending_count(Channel.GPF) == 0
        assert node.ledger(Channel.GPF).height == 2

    def test_stripped_signature_rejected(self):
        dep = _deployment()
        service, _node = _service(dep)
        pg = dep.identity("PG-1")
        record = PolicyRecord(entity="RA", rule_name="r", rule_body={}, status=PolicyStatus.ALIVE)
        tx = make_policy_tx(record, pg.cert, pg.key, 0)
        stripped = Transaction(
            channel=tx.channel, function=tx.function, key=tx.key, payload=tx.payload,
            submitter_cert=tx.submitter_cert, submitter_signature=bytes(64), submit_time_ms=0,
        )
        with pytest.raises(Rejected) as exc:
            service.submit_tx(stripped, now_ms=0)
        assert exc.value.reason == "bad-signature"

    def test_non_member_rejected(self):
        dep = _deployment()
        service, _node = _service(dep)
        outsider = make_identity("ICA-99")
        target = make_identity("PCA-5", outsider)
        tx = gccf.make_add_cert_tx(target.cert, outsider.cert, outsider.key, 0)
        with pytest.raises(Rejected) as exc:
            service.submit_tx(tx, now_ms=0)
        assert exc.value.reason == "unknown-member"

    def test_ra_revocation_reaches_contract_not_pg(self):
        dep = _deployment()
        service, _node = _service(dep)
        ra = dep.identity("RA-1")
        tx = gccf.make_revoke_cert_tx(dep.identity("PG-1").cert, ra.cert, ra.key, 0)
        with pytest.raises(Rejected) as exc:
            service.submit_tx(tx, now_ms=0)
        assert exc.value.reason == "not-PG"

    def test_rca_policy_write_is_policy_denied(self):
        dep = _deployment()
        service, _node = _service(dep)
        rca = dep.identity("RCA-1")
        record = PolicyRecord(entity="RA", rule_name="r", rule_body={}, status=PolicyStatus.ALIVE)
        tx = make_policy_tx(record, rca.cert, rca.key, 0)
        with pytest.raises(Rejected) as exc:
            service.submit_tx(tx, now_ms=0)
        assert exc.value.reason == "policy-denied"


class TestCutBlock:
    def _pending(self, service, dep, n, t0=0):
        pg = dep.identity("PG-1")
        for i in range(n):
            record = PolicyRecord(entity="RA", rule_name=f"cut{i}", rule_body={}, status=PolicyStatus.ALIVE)
            service.submit_tx(make_policy_tx(record, pg.cert, pg.key, t0 + i), now_ms=t0 + i)

    def test_count_threshold_emits_in_admission_order(self):
        dep = _deployment(policies={"ballot_quorum": 2, "block_max_txs": 10})
        service, _node = _service(dep)
        self._pending(service, dep, 10)
        block = service.cut_block(Channel.GPF, now_ms=9)
        assert block is not None
        assert [tx.key for tx in block.transactions] == [f"policy/RA/cut{i}" for i in range(10)]

    def test_below_thresholds_waits(self):
        dep = _deployment(policies={"ballot_quorum": 2, "block_max_txs": 10, "block_timeout_ms": 500})
        service, _node = _service(dep)
        self._pending(service, dep, 3)
        assert service.cut_block(Channel.GPF, now_ms=100) is None

    def test_timeout_cuts_partial_block(self):
        dep = _deployment(policies={"ballot_quorum": 2, "block_max_txs": 10, "block_timeout_ms": 500})
        service, _node = _service(dep)
        self._pending(service, dep, 3)
        block = service.cut_block(Channel.GPF, now_ms=502)
        assert block is not None and len(block.transactions) == 3

    def test_empty_queue_never_cuts(self):
        dep = _deployment()
        service, _node = _service(dep)
        assert service.cut_block(Channel.GPF, now_ms=10_000, force=True) is None

    def test_cut_links_to_tip_and_commits(self):
        dep = _deployment()
        service, node = _service(dep)
        self._pending(service, dep, 4)
        block = service.cut_block(Channel.GPF, now_ms=0, force=True)
        assert block.header.prev_header_hash == node.ledger(Channel.GPF).head_hash()
        service.commit_own(Channel.GPF, block)
        assert node.ledger(Channel.GPF).tip_number == block.header.number


class TestPolicySoundness:
    def test_no_denied_tx_ever_appears_in_a_block(self):
        rng = Random(90210)
        dep = _deployment(extra=[("EE", 1), ("PCA", 1)])
        service, node = _service(dep)
        names = [cert.subject_name for cert in dep.consortium.members]
        admitted_ids = set()
        for trial in range(2_000):
            name = rng.choice(names)
            ident = dep.identity(name)
            if rng.random() < 0.5:
                record = PolicyRecord(
                    entity="RA", rule_name=f"f{trial}", rule_body={}, status=PolicyStatus.ALIVE
                )
                tx = make_policy_tx(record, ident.cert, ident.key, trial)
            else:
                subject = make_identity(f"MA-fz{trial}", ident, issue_now=0)
                tx = gccf.make_add_cert_tx(subject.cert, ident.cert, ident.key, trial)
            try:
                service.submit_tx(tx, now_ms=trial)
                admitted_ids.add(tx.tx_id)
                assert ident.role in CHANNEL_WRITERS[tx.channel]
            except Rejected:
                continue
        committed_ids = []
        for channel in (Channel.GCCF, Channel.GPF):
            while True:
                block = service.cut_block(channel, now_ms=10**9, force=True)
                if block is None:
                    break
                service.commit_own(channel, block)
            for block in node.ledger(channel).blocks:
                for tx in block.transactions:
                    committed_ids.append(tx.tx_id)
        # Every admitted transaction is in exactly one block; nothing else is.
        assert len(committed_ids) == len(set(committed_ids))
        assert admitted_ids <= set(committed_ids)
