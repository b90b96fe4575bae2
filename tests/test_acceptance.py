"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here: convergence, determinism, and oracle
agreement are exact; the hand-computed metrics scenario is exact on the
virtual clock; the published throughput floors are strict lower bounds.
"""

import time
from random import Random

import pytest

from bbtm import ballot as ballot_mod
from bbtm import gccf, gpf, metrics
from bbtm.ballot import BallotStatus, EndorsementType
from bbtm.gpf import PolicyStatus
from bbtm.identity import AuthorityRole, canonical_encode, sha256
from bbtm.ledger import Channel, Transaction, decode_block, make_block, verify_chain
from bbtm.node import Node
from bbtm.ordering import GCCF_WRITERS, GPF_WRITERS, OrderingService, Rejected
from bbtm.simulation import Fault, NetworkParams, ScenarioConfig, Simulation

from helpers import Bed, first_refused, make_identity
from test_gccf import brute_force_validate, random_cert_world

# Context floors from the published cloud measurements; the in-process
# simulator must strictly exceed them.
GCCF_THROUGHPUT_FLOOR = 2.142140
GPF_THROUGHPUT_FLOOR = 2.55033

TEN_NODES = (
    ("Elector", 3), ("RCA", 1), ("ICA", 2), ("PG", 1), ("OSP", 1), ("RA", 1), ("PCA", 1),
)


def _ok(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def big_run():
    config = ScenarioConfig(
        seed=1_000_003,
        nodes=TEN_NODES,
        network=NetworkParams(5, 50, 0.0),
        generate={"count": 1000, "spacing_ms": 10},
        policies=(("ballot_quorum", 2),),
    )
    sim = Simulation(config)
    started = time.monotonic()
    report = sim.run()
    elapsed = time.monotonic() - started
    return sim, report, elapsed


def test_acceptance_1_convergence(big_run):
    sim, report, elapsed = big_run
    assert sum(count for _role, count in TEN_NODES) == 10
    committed = [lc for lc in report.lifecycles if lc.commits]
    assert len(committed) >= 1000
    assert report.rejections == []  # honest workload
    assert report.converged and not report.stalled
    triples = {(n.gccf_head, n.gpf_head, n.world_state_digest) for n in report.nodes}
    assert len(triples) == 1
    assert elapsed < 60.0
    _ok(1, f"10 nodes, {len(committed)} txs converged to one head set in {elapsed:.1f}s")


def test_acceptance_2_five_function_coverage():
    workload = [
        # Success paths for all five functions.
        {"at_ms": 700, "action": "issue", "issuer": "RCA-1", "subject_name": "MA-9"},
        {"at_ms": 1400, "action": "validate", "submitter": "RA-1", "target": "MA-9"},
        {"at_ms": 1450, "action": "policy_add", "entity": "RA", "rule": "cov", "body": {"v": 1}},
        {"at_ms": 2200, "action": "revoke", "target": "MA-9"},
        {"at_ms": 2250, "action": "policy_revoke", "entity": "RA", "rule": "cov"},
        # Rejection branches: an intermediate certifying outside its rights
        # (add refusal) and a non-PG revocation of a live record (revoke
        # refusal).
        {"at_ms": 2900, "action": "issue", "issuer": "ICA-1", "subject_name": "MA-10"},
        {"at_ms": 2950, "action": "revoke", "by": "RA-1", "target": "ICA-1"},
        # Read-path verdicts, one of each.
        {"at_ms": 3600, "action": "query", "node": "RA-1", "target": "ICA-1"},
        {"at_ms": 3650, "action": "query", "node": "RA-1", "target": "MA-9"},
    ]
    config = ScenarioConfig(
        seed=2_000_003,
        nodes=TEN_NODES,
        network=NetworkParams(5, 30, 0.0),
        workload=tuple(workload),
        policies=(("ballot_quorum", 2),),
    )
    report = Simulation(config).run()
    assert report.converged
    committed_functions = {lc.function for lc in report.lifecycles if lc.commits}
    assert {"AddCert", "RevokeCert", "ValidateCert", "AddPolicy", "RevokePolicy"} <= committed_functions
    reasons = {r["reason"] for r in report.rejections}
    assert "role-violation" in reasons  # the add-path refusal
    assert "not-PG" in reasons  # the revoke-path refusal
    verdicts = {(q["target"], q["result"]) for q in report.queries}
    assert ("ICA-1", "Success") in verdicts
    assert ("MA-9", "NotVerify") in verdicts  # revoked record no longer validates
    # The dead policy rule is recorded with status death on every node.
    sim = Simulation(config)
    sim.run()
    for node in sim.nodes.values():
        record = gpf.get_rule(node.gpf_view, "RA", "cov")
        assert record is not None and record.status == PolicyStatus.DEATH
    _ok(2, "all five functions committed; add/revoke refusals and both validation verdicts observed")


def test_acceptance_3_validation_oracle_1000_dags():
    checked = 0
    for seed in range(1000):
        bed, certs, now = random_cert_world(seed)
        for cert in certs:
            expected = brute_force_validate(bed.view, cert, now)
            got = gccf.validate_cert(bed.view, cert, now).ok
            assert got == expected, f"divergence on seed {seed}"
            checked += 1
    _ok(3, f"validate agreed with the brute-force path oracle on {checked} certificates in 1000 worlds")


def test_acceptance_4_access_control_fuzz():
    rng = Random(4_000_037)
    dep_nodes = [("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1),
                 ("RA", 1), ("PCA", 1), ("EE", 1), ("MA", 1)]
    from bbtm.deployment import build_deployment, expand_node_counts

    dep = build_deployment(44, expand_node_counts(dep_nodes), {"ballot_quorum": 2})
    osp_node = Node(dep.identity("OSP-1").cert)
    osp_node.commit_genesis(dep.genesis.gccf_genesis, dep.genesis.gpf_genesis)
    service = OrderingService(dep.consortium, dep.osp, osp_node)

    # Commit the intermediate and misbehavior authority first so issuance
    # from them is available to the fuzzer.
    for name, issuer in (("ICA-1", "RCA-1"), ("MA-1", "RCA-1")):
        tx = gccf.make_add_cert_tx(dep.identity(name).cert, dep.identity(issuer).cert,
                                   dep.identity(issuer).key, 0)
        service.submit_tx(tx, now_ms=0)

    outsider = make_identity("ICA-55")
    admitted = set()
    rejected = 0
    matrix_legal = {("RCA-1", "MA"), ("RCA-1", "ICA"), ("ICA-1", "PCA"), ("ICA-1", "RA"),
                    ("ICA-1", "ECA"), ("ICA-1", "LA")}

    for trial in range(10_000):
        case = rng.random()
        expect = None
        if case < 0.08:
            subject = make_identity(f"MA-o{trial}", outsider, issue_now=0)
            tx = gccf.make_add_cert_tx(subject.cert, outsider.cert, outsider.key, trial)
            expect = "unknown-member"
        elif case < 0.16:
            pg = dep.identity("PG-1")
            record = gpf.PolicyRecord(entity="RA", rule_name=f"s{trial}", rule_body={},
                                      status=PolicyStatus.ALIVE)
            good = gpf.make_policy_tx(record, pg.cert, pg.key, trial)
            tx = Transaction(channel=good.channel, function=good.function, key=good.key,
                             payload=good.payload, submitter_cert=good.submitter_cert,
                             submitter_signature=bytes(64), submit_time_ms=good.submit_time_ms)
            expect = "bad-signature"
        elif case < 0.28:
            ee = dep.identity("EE-1")
            subject = make_identity(f"MA-e{trial}", ee, issue_now=0)
            tx = gccf.make_add_cert_tx(subject.cert, ee.cert, ee.key, trial)
            expect = "policy-denied"
        elif case < 0.40:
            submitter = dep.identity(rng.choice(["PCA-1", "MA-1"]))
            record = gpf.PolicyRecord(entity="RA", rule_name=f"p{trial}", rule_body={},
                                      status=PolicyStatus.ALIVE)
            tx = gpf.make_policy_tx(record, submitter.cert, submitter.key, trial)
            expect = "policy-denied"
        elif case < 0.50:
            ica = dep.identity("ICA-1")
            subject = make_identity(f"MA-x{trial}", ica, issue_now=0)
            tx = gccf.make_add_cert_tx(subject.cert, ica.cert, ica.key, trial)
            expect = "role-violation"
        elif case < 0.60:
            ra = dep.identity("RA-1")
            tx = gccf.make_revoke_cert_tx(dep.identity("MA-1").cert, ra.cert, ra.key, trial)
            expect = "not-PG"
        elif case < 0.70:
            rca = dep.identity("RCA-1")
            record = gpf.PolicyRecord(entity="RA", rule_name=f"r{trial}", rule_body={},
                                      status=PolicyStatus.ALIVE)
            tx = gpf.make_policy_tx(record, rca.cert, rca.key, trial)
            expect = "policy-denied"
        elif case < 0.80:
            issuer_name, subject_role = rng.choice(sorted(matrix_legal))
            issuer = dep.identity(issuer_name)
            subject = make_identity(f"{subject_role}-g{trial}", issuer, issue_now=0)
            tx = gccf.make_add_cert_tx(subject.cert, issuer.cert, issuer.key, trial)
        elif case < 0.90:
            pg = dep.identity("PG-1")
            record = gpf.PolicyRecord(entity="Consortium", rule_name=f"ok{trial}",
                                      rule_body={"v": trial}, status=PolicyStatus.ALIVE)
            tx = gpf.make_policy_tx(record, pg.cert, pg.key, trial)
        else:
            ra = dep.identity("RA-1")
            tx = gccf.make_validate_tx(dep.identity("MA-1").cert, ra.cert, ra.key, trial)
        try:
            service.submit_tx(tx, now_ms=trial)
            assert expect is None, f"trial {trial}: expected rejection {expect}"
            admitted.add(tx.tx_id)
        except Rejected as exc:
            rejected += 1
            assert expect is not None, f"trial {trial}: unexpected rejection {exc.reason}"
            assert exc.reason == expect, f"trial {trial}: {exc.reason} != {expect}"

    # Cut everything and re-check the committed population.
    committed = set()
    for channel in (Channel.GCCF, Channel.GPF):
        while True:
            block = service.cut_block(channel, now_ms=10**9, force=True)
            if block is None:
                break
            service.commit_own(channel, block)
        for block in osp_node.ledger(channel).blocks:
            for tx in block.transactions:
                committed.add(tx.tx_id)
                role = AuthorityRole(tx.submitter_cert.subject_name.split("-")[0])
                writers = GCCF_WRITERS if channel == Channel.GCCF else GPF_WRITERS
                assert role in writers
    assert admitted <= committed
    assert rejected > 0
    _ok(4, f"10000 fuzzed submissions: {len(admitted)} admitted, {rejected} rejected, "
           "zero policy violations committed, all reason codes exact")


def test_acceptance_5_exhaustive_tamper_evidence():
    dep_nodes = [("Elector", 2), ("RCA", 1), ("PG", 1), ("OSP", 1)]
    from bbtm.deployment import build_deployment, expand_node_counts

    dep = build_deployment(55, expand_node_counts(dep_nodes), {"ballot_quorum": 2})
    node = Node(dep.identity("OSP-1").cert)
    node.commit_genesis(dep.genesis.gccf_genesis, dep.genesis.gpf_genesis)
    pg = dep.identity("PG-1")
    ledger = node.ledger(Channel.GPF)
    for i in range(4):
        record = gpf.PolicyRecord(entity="RA", rule_name=f"t{i}", rule_body={"v": i},
                                  status=PolicyStatus.ALIVE)
        tx = gpf.make_policy_tx(record, pg.cert, pg.key, i)
        block = make_block(ledger.height, ledger.head_hash(), [tx], dep.osp.cert, dep.osp.key)
        node.commit_block(Channel.GPF, block)
    blocks = list(ledger.blocks)
    assert len(blocks) == 5
    assert verify_chain(Channel.GPF, blocks)[1] is None

    total = 0
    detected = 0
    for index, block in enumerate(blocks):
        raw = bytearray(block.encode())
        for pos in range(len(raw)):
            total += 1
            mutated_raw = bytes(raw[:pos]) + bytes([raw[pos] ^ 0x01]) + bytes(raw[pos + 1:])
            try:
                mutated_block = decode_block(mutated_raw)
            except Exception:
                detected += 1  # undecodable: flagged at this block trivially
                continue
            fail_at = first_refused(Channel.GPF, blocks[:index] + [mutated_block] + blocks[index + 1:])
            assert fail_at is not None, f"undetected mutation at block {index} byte {pos}"
            assert fail_at <= index, f"mutation at block {index} flagged late ({fail_at})"
            detected += 1
    assert detected == total
    _ok(5, f"all {total} single-byte mutations across a 5-block ledger were flagged")


def test_acceptance_6_quorum_voting():
    bed = Bed(quorum=2)
    rca2 = make_identity("RCA-2", rng=bed.rng)
    digest = sha256(canonical_encode(rca2.cert))

    def endorse(elector_index):
        elector = bed.electors[elector_index]
        endorsement = ballot_mod.create_endorsement(
            elector.key, elector.cert, EndorsementType.ADD_ROOT, rca2.cert, bed.view
        )
        tx = ballot_mod.make_endorsement_tx(endorsement, rca2.cert.serial_number,
                                            elector.cert, elector.key, 0)
        gccf.apply_tx(bed.view, tx, block_number=bed.next_block)
        bed.next_block += 1

    # Duplicate endorsements from one elector never reach quorum.
    for _ in range(6):
        endorse(0)
    tally = ballot_mod.tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
    assert tally.status == BallotStatus.OPEN and tally.valid_count == 1
    endorse(1)
    tally = ballot_mod.tally_ballot(bed.view, EndorsementType.ADD_ROOT, digest)
    assert tally.status == BallotStatus.ACCEPTED

    apply_tx = ballot_mod.apply_ballot(bed.view, tally, bed.electors[0].cert, bed.electors[0].key, 0)
    gccf.apply_tx(bed.view, apply_tx, block_number=bed.next_block)
    bed.next_block += 1
    assert gccf.validate_cert(bed.view, rca2.cert, 10.0).ok
    ica9 = make_identity("ICA-9", rca2, rng=bed.rng)
    bed.add(ica9.cert, rca2)
    assert gccf.validate_cert(bed.view, ica9.cert, 10.0).ok

    # Voting the root out invalidates every path through it.
    for index in (1, 2):
        elector = bed.electors[index]
        endorsement = ballot_mod.create_endorsement(
            elector.key, elector.cert, EndorsementType.REVOKE_ROOT, rca2.cert, bed.view
        )
        tx = ballot_mod.make_endorsement_tx(endorsement, rca2.cert.serial_number,
                                            elector.cert, elector.key, 0)
        gccf.apply_tx(bed.view, tx, block_number=bed.next_block)
        bed.next_block += 1
    revoke_tally = ballot_mod.tally_ballot(bed.view, EndorsementType.REVOKE_ROOT, digest)
    assert revoke_tally.status == BallotStatus.ACCEPTED
    revoke_tx = ballot_mod.apply_ballot(bed.view, revoke_tally, bed.electors[1].cert,
                                        bed.electors[1].key, 0)
    gccf.apply_tx(bed.view, revoke_tx, block_number=bed.next_block)
    result = gccf.validate_cert(bed.view, ica9.cert, 10.0)
    assert not result.ok and result.reason == "revoked-on-path"
    _ok(6, "quorum 2-of-3: open at 1 vote, accepted at 2, duplicate-proof; "
           "root add/revoke ballots steer the trust anchors")


def test_acceptance_7_crash_recovery():
    spacing = 10
    start = 300
    config = ScenarioConfig(
        seed=7_000_003,
        nodes=(("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1)),
        network=NetworkParams(2, 8, 0.0),
        generate={"count": 230, "start_ms": start, "spacing_ms": spacing},
        policies=(("ballot_quorum", 2), ("block_max_txs", 1), ("block_timeout_ms", 100)),
        faults=(Fault(node="RA-1", crash_at_ms=start + 50 * spacing,
                      recover_at_ms=start + 150 * spacing),),
    )
    sim = Simulation(config)
    report = sim.run()
    osp_heights = next(n for n in report.nodes if n.name == "OSP-1")
    assert osp_heights.gccf_height + osp_heights.gpf_height >= 200
    missed = [u for u in report.undelivered if u["node"] == "RA-1" and u["reason"] == "crashed"]
    assert len(missed) >= 50
    assert report.converged
    ra = next(n for n in report.nodes if n.name == "RA-1")
    assert (ra.gccf_head, ra.gpf_head) == (osp_heights.gccf_head, osp_heights.gpf_head)

    # Second phase: a byzantine peer serves a tampered block during sync.
    config2 = ScenarioConfig(
        seed=7_000_019,
        nodes=(("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1)),
        network=NetworkParams(2, 8, 0.0),
        generate={"count": 60, "spacing_ms": 10},
        policies=(("ballot_quorum", 2), ("block_max_txs", 1), ("block_timeout_ms", 100)),
        faults=(Fault(node="RA-1", crash_at_ms=500),),
    )
    sim2 = Simulation(config2)
    sim2.run()
    sim2.recover_node("RA-1")

    served_tampered = {"count": 0}

    def corrupt(block):
        if not block.transactions:
            return block
        served_tampered["count"] += 1
        tx = block.transactions[0]
        forged = Transaction(channel=tx.channel, function=tx.function, key=tx.key,
                             payload=b"evil", submitter_cert=tx.submitter_cert,
                             submitter_signature=tx.submitter_signature,
                             submit_time_ms=tx.submit_time_ms)
        from bbtm.ledger import Block

        return Block(header=block.header, transactions=(forged,) + block.transactions[1:],
                     creator_cert=block.creator_cert, creator_signature=block.creator_signature)

    for peer in sim2.nodes:
        if peer not in ("RA-1", "OSP-1"):
            sim2.tamper_peer(peer, corrupt)
    fetched = sim2.sync_node("RA-1")
    assert fetched > 0
    assert served_tampered["count"] > 0  # a tampered block was offered and rejected
    assert sim2.nodes["RA-1"].head(Channel.GCCF) == sim2.nodes["OSP-1"].head(Channel.GCCF)
    assert sim2.nodes["RA-1"].head(Channel.GPF) == sim2.nodes["OSP-1"].head(Channel.GPF)
    _ok(7, f"crashed peer missed {len(missed)} blocks, recovered and synced to the common head; "
           "tampered sync blocks rejected and refetched")


def test_acceptance_8_determinism(tmp_path):
    config = ScenarioConfig(
        seed=8_000_009,
        nodes=TEN_NODES,
        network=NetworkParams(5, 40, 0.2),
        generate={"count": 150, "spacing_ms": 9},
        policies=(("ballot_quorum", 2),),
        faults=(Fault(node="PCA-1", crash_at_ms=600, recover_at_ms=1400),),
    )
    sims = [Simulation(config) for _ in range(2)]
    reports = [s.run() for s in sims]
    assert reports[0].to_json_bytes() == reports[1].to_json_bytes()
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for sim, d in zip(sims, dirs):
        sim.export_ledgers(d)
    for filename in ("gccf.chain", "gpf.chain"):
        assert (dirs[0] / filename).read_bytes() == (dirs[1] / filename).read_bytes()
    _ok(8, "same seed twice: byte-identical simulation reports and ledger files")


def test_acceptance_9_metrics_fidelity(big_run):
    # Exact hand computation on a fixed-delay 3-transaction scenario.
    workload = tuple(
        {"at_ms": t, "action": "policy_add", "entity": "RA", "rule": f"m{i}", "body": {"v": i}}
        for i, t in enumerate((1000, 1100, 1200))
    )
    config = ScenarioConfig(
        seed=9_000_011,
        nodes=(("Elector", 2), ("RCA", 1), ("PG", 1), ("OSP", 1)),
        network=NetworkParams(10, 10, 0.0),
        workload=workload,
        policies=(("ballot_quorum", 2),),
    )
    report = Simulation(config).run()
    lifecycles = report.lifecycles
    computed = metrics.compute_metrics(lifecycles, report.ledger_sizes)
    window_s = (1520 - 1000) / 1000.0
    assert computed.window_s == window_s
    assert computed.throughput_tx_per_s == 3 / window_s
    expected_latencies = sorted((1520 - s) / 1000.0 for s in (1000, 1100, 1200))
    assert computed.latency.mean_s == sum(expected_latencies) / 3
    assert computed.latency.median_s == expected_latencies[1]

    # The simulator strictly exceeds the published cloud-deployment floors.
    _sim, big_report, _elapsed = big_run
    big_metrics = metrics.compute_metrics(big_report.lifecycles, big_report.ledger_sizes)
    gccf_rate = big_metrics.channels["GCCF"].throughput_tx_per_s
    gpf_rate = big_metrics.channels["GPF"].throughput_tx_per_s
    assert gccf_rate > GCCF_THROUGHPUT_FLOOR
    assert gpf_rate > GPF_THROUGHPUT_FLOOR
    _ok(9, f"hand-computed scenario exact; throughput {gccf_rate:.1f}/{gpf_rate:.1f} Tx/s "
           f"exceeds the {GCCF_THROUGHPUT_FLOOR}/{GPF_THROUGHPUT_FLOOR} context floors")


def test_acceptance_10_snapshot(big_run):
    workload = (
        {"at_ms": 700, "action": "issue", "issuer": "RCA-1", "subject_name": "MA-7"},
        {"at_ms": 1600, "action": "revoke", "target": "MA-7"},
    )
    config = ScenarioConfig(
        seed=10_000_019,
        nodes=TEN_NODES,
        network=NetworkParams(5, 30, 0.0),
        workload=workload,
        policies=(("ballot_quorum", 2),),
    )
    sim = Simulation(config)
    report = sim.run()
    assert report.converged
    node_a, node_b = sim.nodes["RA-1"], sim.nodes["PCA-1"]
    snapshots = []
    for node in (node_a, node_b):
        tip = node.ledger(Channel.GCCF).tip_number
        snapshots.append(gccf.export_gccf(node.gccf_view, tip))
    assert snapshots[0].encode() == snapshots[1].encode()
    assert snapshots[0].version == node_a.ledger(Channel.GCCF).tip_number
    names = {c.subject_name for c in snapshots[0].certificates}
    assert "MA-7" not in names  # revoked record excluded
    assert "ICA-1" in names
    _ok(10, "snapshots byte-identical across converged nodes, versioned at block height, "
            "revoked record excluded")
