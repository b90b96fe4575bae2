"""Multi-node simulator: convergence, determinism, faults, recovery."""

import hashlib
import json
import pathlib
import re
from random import Random

import pytest

from bbtm import gccf
from bbtm.identity import canonical_encode, dump_json
from bbtm.ledger import Block, Channel, StateEntry, TxFunction, make_block
from bbtm.node import BlockRefused
from bbtm.simulation import (
    Fault,
    NetworkParams,
    ScenarioConfig,
    Simulation,
    SimulationError,
)

from helpers import make_identity

BASE_NODES = (("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1))


def small_config(seed=3, count=40, **overrides) -> ScenarioConfig:
    defaults = dict(
        seed=seed,
        nodes=BASE_NODES,
        network=NetworkParams(5, 30, 0.0),
        generate={"count": count, "spacing_ms": 8},
        policies=(("ballot_quorum", 2),),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestConvergence:
    def test_honest_run_converges_with_zero_rejections(self):
        report = Simulation(small_config()).run()
        assert report.converged and not report.stalled
        assert report.rejections == []
        heads = {(n.gccf_head, n.gpf_head, n.world_state_digest) for n in report.nodes}
        assert len(heads) == 1

    def test_all_admitted_txs_commit_everywhere(self):
        report = Simulation(small_config(seed=6)).run()
        node_names = {n.name for n in report.nodes}
        for lc in report.lifecycles:
            assert set(lc.commits) == node_names

    def test_corrupted_node_is_named_divergent(self):
        sim = Simulation(small_config(seed=9))
        sim.run()
        victim = sim.nodes["RA-1"]
        key = next(iter(victim.ledgers[Channel.GCCF].world_state))
        victim.ledgers[Channel.GCCF].world_state[key] = StateEntry(b"corrupted", TxFunction.ADD_CERT, 0)
        result = sim.assert_convergence()
        assert not result.ok
        assert result.divergent == ("RA-1",)


class TestDeterminism:
    def test_same_seed_byte_identical_report_and_ledgers(self, tmp_path):
        config = small_config(seed=11)
        sims = [Simulation(config) for _ in range(2)]
        reports = [s.run() for s in sims]
        assert reports[0].to_json_bytes() == reports[1].to_json_bytes()
        dirs = [tmp_path / "a", tmp_path / "b"]
        for sim, d in zip(sims, dirs):
            sim.export_ledgers(d)
        for filename in ("gccf.chain", "gpf.chain"):
            assert (dirs[0] / filename).read_bytes() == (dirs[1] / filename).read_bytes()

    def test_twenty_random_configs_are_reproducible(self):
        rng = Random(5150)
        for _ in range(20):
            config = small_config(
                seed=rng.randrange(1 << 32),
                count=rng.randint(5, 25),
                network=NetworkParams(rng.randint(1, 10), rng.randint(10, 60), 0.0),
            )
            a, b = Simulation(config).run(), Simulation(config).run()
            assert a.to_json_bytes() == b.to_json_bytes()

    def test_different_seeds_differ(self):
        a = Simulation(small_config(seed=1)).run()
        b = Simulation(small_config(seed=2)).run()
        assert a.to_json_bytes() != b.to_json_bytes()


class TestDeliveryFaults:
    def test_full_partition_to_one_peer_until_sync(self):
        config = small_config(
            seed=13,
            network=NetworkParams(5, 30, 0.0, link_drop=(("RA-1", 1.0),)),
        )
        sim = Simulation(config)
        report = sim.run()
        # Every direct delivery to the partitioned peer was dropped; it only
        # caught up through the recovery sync at quiescence.
        assert any(u["node"] == "RA-1" and u["reason"] == "dropped" for u in report.undelivered)
        assert not any(e["node"] == "RA-1" for e in report.delay_trace)
        assert report.converged

    def test_half_drop_rate_still_converges(self):
        config = small_config(seed=17, network=NetworkParams(5, 30, 0.5))
        report = Simulation(config).run()
        assert report.converged and not report.stalled

    def test_delay_trace_matches_receipts(self):
        # Oracle: each peer's commit receipt equals the block cut time plus
        # the delay the seeded network drew for that delivery.
        config = small_config(seed=23)
        sim = Simulation(config)
        report = sim.run()
        assert report.delay_trace, "expected deliveries"
        for entry in report.delay_trace:
            assert config.network.latency_min_ms <= entry["delay_ms"] <= config.network.latency_max_ms
        delays = {
            (e["node"], e["channel"], e["block"]): e["delay_ms"] for e in report.delay_trace
        }
        tx_block = {}
        for channel in (Channel.GCCF, Channel.GPF):
            for block in sim.nodes[sim.osp_name].ledger(channel).blocks:
                for tx in block.transactions:
                    tx_block[tx.tx_id] = (channel.value, block.header.number)
        for lc in report.lifecycles:
            channel, number = tx_block[lc.tx_id]
            for peer, commit_ms in lc.commits.items():
                if peer == sim.osp_name:
                    assert commit_ms == lc.cut_ms
                else:
                    assert commit_ms == lc.cut_ms + delays[(peer, channel, number)]


class TestPerBlockCommits:
    """A node commits a block at one instant: the block's lifecycles share one commit-time mapping."""

    @pytest.fixture(scope="class")
    def faulty(self):
        nodes = tuple(("RA", 2) if role == "RA" else (role, count) for role, count in BASE_NODES)
        sim = Simulation(small_config(
            seed=43, count=60, nodes=nodes, network=NetworkParams(5, 30, 0.2),
            faults=(Fault(node="RA-2", crash_at_ms=200, recover_at_ms=500),),
        ))
        report = sim.run()
        assert report.converged
        assert {"dropped", "crashed"} <= {u["reason"] for u in report.undelivered}
        return sim, report

    def _blocks(self, sim):
        for channel in (Channel.GCCF, Channel.GPF):
            for block in sim.nodes[sim.osp_name].ledger(channel).blocks[1:]:
                yield channel, block

    def test_a_blocks_lifecycles_share_one_mapping_of_its_committers(self, faulty):
        sim, report = faulty
        by_id = {lc.tx_id: lc for lc in report.lifecycles}
        for channel, block in self._blocks(sim):
            lifecycles = [by_id[tx.tx_id] for tx in block.transactions]
            commits = lifecycles[0].commits
            assert all(lc.commits is commits for lc in lifecycles)
            committers = {name for name, node in sim.nodes.items() if node.ledger(channel).height > block.header.number}
            assert set(commits) == committers == set(sim.nodes)
            assert commits[sim.osp_name] == lifecycles[0].cut_ms
            for lc in lifecycles:
                assert lc.submit_ms <= lc.admit_ms <= lc.cut_ms <= min(lc.commits.values())

    def test_one_mapping_per_block_cut(self, faulty):
        sim, report = faulty
        cut = [lc for lc in report.lifecycles if lc.cut_ms is not None]
        assert len(cut) == len(report.lifecycles)
        assert len({id(lc.commits) for lc in cut}) == sum(1 for _ in self._blocks(sim)) > 1

    def test_the_report_copies_each_mapping(self, faulty):
        _sim, report = faulty
        for lc in report.lifecycles:
            assert lc.to_json()["commits"] == lc.commits and lc.to_json()["commits"] is not lc.commits
        assert report.to_json_bytes() == dump_json(report.to_json())

    def test_the_run_frees_its_workload_list(self, faulty):
        sim, _report = faulty
        assert sim._actions == [] and sim._heap == []


class TestCrashRecovery:
    def test_crash_non_osp_peer_others_unaffected(self):
        config = small_config(seed=29, faults=(Fault(node="RA-1", crash_at_ms=300),))
        report = Simulation(config).run()
        others = [n for n in report.nodes if n.name != "RA-1"]
        assert len({(n.gccf_head, n.gpf_head) for n in others}) == 1
        crashed = next(n for n in report.nodes if n.name == "RA-1")
        assert crashed.status == "crashed"
        assert crashed.gccf_height < others[0].gccf_height

    def test_crash_then_recover_syncs_to_head(self):
        config = small_config(
            seed=31, count=60,
            faults=(Fault(node="RA-1", crash_at_ms=250, recover_at_ms=600),),
        )
        report = Simulation(config).run()
        assert report.converged
        statuses = {n.name: n.status for n in report.nodes}
        assert statuses["RA-1"] == "live"

    def test_crash_osp_stalls_chain(self):
        config = small_config(seed=37, faults=(Fault(node="OSP-1", crash_at_ms=200),))
        report = Simulation(config).run()
        assert report.stalled
        assert any(r["reason"] == "osp-unavailable" for r in report.rejections)

    def test_crash_twice_is_an_error(self):
        sim = Simulation(small_config(seed=41))
        sim.run()
        sim.crash_node("RA-1")
        with pytest.raises(SimulationError, match="already-crashed"):
            sim.crash_node("RA-1")


SAMPLE_NODES = json.loads((pathlib.Path(__file__).resolve().parent.parent / "samples" / "scenario.json").read_text())["nodes"]


def _sample_run(workload, faults=()):
    """Two runs of the sample nodes with only the given workload; both reports as bytes, and the first report."""
    scenario = {"seed": 42, "nodes": SAMPLE_NODES, "policies": {"ballot_quorum": 2}, "workload": workload,
                "faults": list(faults)}
    runs = [Simulation(ScenarioConfig.from_json(scenario)).run() for _ in range(2)]
    return [report.to_json_bytes() for report in runs], runs[0]


def _issued(report):
    return [lc for lc in report.lifecycles if lc.function == "AddCert" and lc.submit_ms >= 1000]


class TestCutsNoTimerMakes:
    """The two cuts that no size threshold or timer check of an admission makes."""

    def test_leftovers_are_force_cut_when_the_event_queue_empties(self):
        # The issue's cut check runs after the 5000 ms timeout has committed, so
        # the check cuts nothing and only the drain's force-cut commits it.
        reports, report = _sample_run([
            {"at_ms": 1000, "action": "policy_add", "entity": "OSP", "rule": "block_timeout_ms",
             "body": {"value": 5000}},
            {"at_ms": 1100, "action": "issue", "issuer": "ICA-1", "subject_name": "RA-7"},
        ])
        assert reports[0] == reports[1]
        assert report.converged and not report.stalled
        [issued] = _issued(report)
        assert issued.cut_ms < issued.admit_ms + 5000
        assert set(issued.commits) == {n.name for n in report.nodes}

    def test_a_recovered_sequencer_cuts_what_it_admitted_before_its_crash(self):
        # The query keeps the event queue busy past the recovery, so no drain force-cuts at 2000 ms.
        reports, report = _sample_run(
            [{"at_ms": 1000 + 5 * i, "action": "issue", "issuer": "ICA-1", "subject_name": name}
             for i, name in enumerate(["RA-7", "ECA-1", "LA-1"])]
            + [{"at_ms": 3000, "action": "query", "node": "RA-1", "target": "RA-7"}],
            faults=[{"node": "OSP-1", "crash_at_ms": 1100, "recover_at_ms": 2000}],
        )
        assert reports[0] == reports[1]
        assert report.converged and not report.stalled
        issued = _issued(report)
        assert len(issued) == 3 and len(report.nodes) == 10
        for lc in issued:
            assert lc.admit_ms < 1100 and lc.cut_ms == 2000
            assert set(lc.commits) == {n.name for n in report.nodes}
        assert [q["result"] for q in report.queries] == ["Success"]


class TestKnownRuleValues:
    """A rule value the sequencer cannot use reads as the rule's default; the run never stops on it."""

    def _blocks_converge_at_the_default(self, config):
        sim = Simulation(config)
        report = sim.run()
        assert report.converged and not report.stalled and not report.rejections
        sizes = [len(b.transactions) for ch in Channel for b in sim.nodes[sim.osp_name].ledger(ch).blocks[1:]]
        assert sizes and 1 <= min(sizes) and max(sizes) == 10
        return report

    @pytest.mark.parametrize("value", [0, -2])
    def test_a_genesis_block_max_txs_below_one(self, value):
        self._blocks_converge_at_the_default(small_config(seed=43, policies=(("block_max_txs", value),)))

    def test_a_committed_block_max_txs_that_is_not_an_integer(self):
        action = {"at_ms": 10, "action": "policy_add", "entity": "OSP", "rule": "block_max_txs",
                  "body": {"value": "abc"}}
        report = self._blocks_converge_at_the_default(small_config(seed=47, count=60, workload=(action,)))
        assert sum(1 for lc in report.lifecycles if lc.function == "AddPolicy" and lc.submit_ms == 10) == 1


class TestSync:
    def test_sync_fetches_exactly_the_gap(self):
        config = small_config(
            seed=53, count=60,
            faults=(Fault(node="RA-1", crash_at_ms=200),),
        )
        sim = Simulation(config)
        sim.run()
        sim.recover_node("RA-1")
        behind = sim.nodes["RA-1"]
        reference = sim.nodes["OSP-1"]
        gap = sum(
            reference.ledger(ch).height - behind.ledger(ch).height
            for ch in (Channel.GCCF, Channel.GPF)
        )
        assert gap > 0
        fetched = sim.sync_node("RA-1")
        assert fetched == gap
        assert behind.head(Channel.GCCF) == reference.head(Channel.GCCF)
        assert behind.head(Channel.GPF) == reference.head(Channel.GPF)

    def test_already_synced_fetches_zero(self):
        sim = Simulation(small_config(seed=59))
        sim.run()
        assert sim.sync_node("RA-1") == 0

    def test_tampered_block_from_one_peer_is_rejected_and_refetched(self):
        config = small_config(
            seed=61, count=60,
            faults=(Fault(node="RA-1", crash_at_ms=200),),
        )
        sim = Simulation(config)
        sim.run()
        sim.recover_node("RA-1")

        def corrupt(block: Block) -> Block:
            if not block.transactions:
                return block
            tx = block.transactions[0]
            from bbtm.ledger import Transaction

            forged = Transaction(
                channel=tx.channel, function=tx.function, key=tx.key, payload=b"evil",
                submitter_cert=tx.submitter_cert, submitter_signature=tx.submitter_signature,
                submit_time_ms=tx.submit_time_ms,
            )
            return Block(
                header=block.header,
                transactions=(forged,) + block.transactions[1:],
                creator_cert=block.creator_cert,
                creator_signature=block.creator_signature,
            )

        # Make the lexicographically preferred peers byzantine so sync must
        # fall back to an honest one.
        for peer in sim.nodes:
            if peer != "RA-1" and peer != "OSP-1":
                sim.tamper_peer(peer, corrupt)
        fetched = sim.sync_node("RA-1")
        assert fetched > 0
        assert sim.nodes["RA-1"].head(Channel.GCCF) == sim.nodes["OSP-1"].head(Channel.GCCF)

    def test_no_live_peer(self):
        sim = Simulation(small_config(seed=67))
        sim.run()
        for name in sim.nodes:
            if name != "RA-1":
                sim.crash_node(name)
        with pytest.raises(SimulationError, match="no-live-peer"):
            sim.sync_node("RA-1")


class TestLocalSovereignty:
    def test_forged_block_committed_by_zero_honest_nodes(self):
        sim = Simulation(small_config(seed=71))
        sim.run()
        # The sequencer signs a block whose transaction violates the
        # issuance matrix (a PCA certifying an RA).
        pca = make_identity("PCA-1", rng=Random(0))
        for node in sim.nodes.values():
            node.gccf_view.world[gccf.cert_key(pca.cert.subject_unique_id)] = StateEntry(
                canonical_encode(pca.cert), TxFunction.ADD_CERT, 0
            )
        victim = make_identity("RA-9", pca, rng=Random(1))
        tx = gccf.make_add_cert_tx(victim.cert, pca.cert, pca.key, 0)
        refusals = 0
        for node in sim.nodes.values():
            ledger = node.ledger(Channel.GCCF)
            forged = make_block(
                ledger.height, ledger.head_hash(), [tx],
                sim.deployment.osp.cert, sim.deployment.osp.key,
            )
            before = ledger.height
            with pytest.raises(BlockRefused) as exc:
                node.commit_block(Channel.GCCF, forged)
            assert exc.value.reason == "role-violation"
            assert ledger.height == before
            refusals += 1
        assert refusals == len(sim.nodes)


class TestEndEntityReadOnly:
    def test_ee_write_actions_are_refused_locally(self):
        nodes = BASE_NODES + (("EE", 1),)
        workload = (
            {"at_ms": 700, "action": "validate", "submitter": "EE-1", "target": "ICA-1"},
            {"at_ms": 750, "action": "query", "node": "EE-1", "target": "ICA-1"},
        )
        config = ScenarioConfig(
            seed=83, nodes=nodes, network=NetworkParams(5, 20, 0.0),
            workload=workload, policies=(("ballot_quorum", 2),),
        )
        report = Simulation(config).run()
        # The write is refused before it even reaches the network; reads work.
        assert any(r["reason"] == "ee-read-only" for r in report.rejections)
        assert report.queries and report.queries[0]["result"] == "Success"
        assert all(lc.submitter != "EE-1" for lc in report.lifecycles)


class TestScenarioConfig:
    def test_json_roundtrip(self):
        config = small_config(
            seed=73,
            faults=(Fault(node="RA-1", crash_at_ms=10, recover_at_ms=20),),
            network=NetworkParams(1, 9, 0.25, link_drop=(("RA-1", 1.0),)),
        )
        restored = ScenarioConfig.from_json(config.to_json())
        assert restored == config
        assert restored.digest() == config.digest()

    def test_invalid_configs_rejected(self):
        with pytest.raises(SimulationError, match="config-invalid"):
            Simulation(ScenarioConfig(seed=1, nodes=(("PG", 1), ("OSP", 2), ("Elector", 2))))
        with pytest.raises(SimulationError, match="config-invalid"):
            Simulation(ScenarioConfig(seed=1, nodes=(("OSP", 1), ("Elector", 2))))
        with pytest.raises(SimulationError, match="config-invalid"):
            Simulation(ScenarioConfig(seed=1, nodes=(("PG", 1), ("OSP", 1), ("Elector", 1))))
        with pytest.raises(SimulationError, match="config-invalid"):
            Simulation(small_config(network=NetworkParams(5, 3, 0.0)))
        with pytest.raises(SimulationError, match="config-invalid"):
            Simulation(small_config(faults=(Fault(node="ghost", crash_at_ms=1),)))

    @pytest.mark.parametrize("action, message", [
        ({"action": "explode"}, "unknown workload action 'explode'"),
        ({"action": "query", "node": "RA-1"}, "query action needs a string 'target'"),
        ({"action": "revoke", "target": "RA-1", "by": ["PG-1"]}, "revoke action needs a string 'by'"),
        ({"action": "policy_add", "entity": "Consortium", "rule": "x", "body": {"x": [1]}},
         "policy_add action body must map names to scalars"),
    ], ids=["unknown-kind", "missing-field", "non-string-by", "non-scalar-body"])
    def test_a_malformed_action_is_refused_before_the_run(self, action, message):
        # Far past the end of the run: only a check before the run can see it.
        config = small_config(workload=({"at_ms": 10**9, **action},))
        with pytest.raises(SimulationError, match=f"^config-invalid: {re.escape(message)}$"):
            Simulation(config)


class TestScenarioMissingKeys:
    BASE = {"seed": 1, "nodes": [["Elector", 3], ["RCA", 1], ["PG", 1], ["OSP", 1]]}

    @pytest.mark.parametrize("scenario, key", [
        ({"seed": 1}, "nodes"),
        ({"nodes": BASE["nodes"]}, "seed"),
        ({**BASE, "faults": [{"crash_at_ms": 5}]}, "node"),
        ({**BASE, "faults": [{"node": "PG-1"}]}, "crash_at_ms"),
    ])
    def test_missing_key_is_config_invalid(self, scenario, key):
        with pytest.raises(SimulationError, match=f"^config-invalid: missing key '{key}'$"):
            ScenarioConfig.from_json(scenario)

    @pytest.mark.parametrize("scenario", [
        {"seed": 1, "nodes": 5},
        {"seed": 1, "nodes": [["OSP"]]},
        {"seed": 1, "nodes": [["OSP", "many"]]},
        ["not", "an", "object"],
    ])
    def test_malformed_field_is_config_invalid(self, scenario):
        # A field is refused as it is parsed, or its value when the simulation checks it.
        with pytest.raises(SimulationError, match="^config-invalid: "):
            Simulation(ScenarioConfig.from_json(scenario))

    def test_a_defect_inside_an_action_is_not_config_invalid(self, monkeypatch):
        # Only the scenario's own fields are config errors; a KeyError raised
        # by contract code is a defect and surfaces as itself.
        def broken(*_args):
            raise KeyError("internal")

        monkeypatch.setattr(gccf, "validate_cert", broken)
        query = {"at_ms": 100, "action": "query", "node": "RCA-1", "target": "RCA-1"}
        sim = Simulation(ScenarioConfig.from_json({**self.BASE, "workload": [query]}))
        with pytest.raises(KeyError, match="internal"):
            sim.run()

    def test_complete_scenario_still_parses(self):
        assert ScenarioConfig.from_json(self.BASE).nodes == (("Elector", 3), ("RCA", 1), ("PG", 1), ("OSP", 1))


class TestQueriesAndBallotWorkload:
    def test_ballot_workload_promotes_and_demotes_root(self):
        # End-to-end through the simulator: a deferred root is voted in,
        # anchors a new intermediate, then is voted out.
        workload = [
            {"at_ms": 700, "action": "endorse", "elector": "Elector-1", "type": "AddRootCert", "target": "RCA-2"},
            {"at_ms": 740, "action": "endorse", "elector": "Elector-2", "type": "AddRootCert", "target": "RCA-2"},
            {"at_ms": 1600, "action": "apply_ballot", "elector": "Elector-1", "type": "AddRootCert", "target": "RCA-2"},
            {"at_ms": 2600, "action": "issue", "issuer": "RCA-2", "subject_name": "ICA-9"},
            {"at_ms": 3600, "action": "query", "node": "RA-1", "target": "ICA-9"},
            {"at_ms": 3650, "action": "endorse", "elector": "Elector-2", "type": "RevokeRootCert", "target": "RCA-2"},
            {"at_ms": 3700, "action": "endorse", "elector": "Elector-3", "type": "RevokeRootCert", "target": "RCA-2"},
            {"at_ms": 4800, "action": "apply_ballot", "elector": "Elector-2", "type": "RevokeRootCert", "target": "RCA-2"},
            {"at_ms": 5900, "action": "query", "node": "RA-1", "target": "ICA-9"},
        ]
        nodes = tuple(
            ("RCA", 2) if role == "RCA" else (role, count) for role, count in BASE_NODES
        )  # RCA-2 exists as a member but is deferred out of the genesis bootstrap
        config = ScenarioConfig(
            seed=79,
            nodes=nodes,
            network=NetworkParams(5, 20, 0.0),
            workload=tuple(workload),
            policies=(("ballot_quorum", 2),),
            defer_bootstrap=("RCA-2",),
        )
        report = Simulation(config).run()
        assert report.converged
        assert report.rejections == []
        first, second = report.queries
        assert first["result"] == "Success"
        assert second["result"] == "NotVerify" and second["reason"] == "revoked-on-path"

    @pytest.mark.parametrize("quorum", [0, -2])
    def test_a_scenario_quorum_below_one_runs_as_the_default(self, quorum):
        # One endorsement falls short of the default quorum of 2, so the ballot stays open.
        workload = [
            {"at_ms": 700, "action": "endorse", "elector": "Elector-1", "type": "AddRootCert", "target": "RCA-2"},
            {"at_ms": 1600, "action": "apply_ballot", "elector": "Elector-1", "type": "AddRootCert", "target": "RCA-2"},
            {"at_ms": 2600, "action": "query", "node": "RA-1", "target": "RCA-2"},
        ]
        nodes = tuple(("RCA", 2) if role == "RCA" else (role, count) for role, count in BASE_NODES)
        config = ScenarioConfig(
            seed=79,
            nodes=nodes,
            network=NetworkParams(5, 20, 0.0),
            workload=tuple(workload),
            policies=(("ballot_quorum", quorum),),
            defer_bootstrap=("RCA-2",),
        )
        sim = Simulation(config)
        report = sim.run()
        assert report.converged
        assert all(node.gccf_view.quorum == 2 for node in sim.nodes.values())
        assert [r["reason"] for r in report.rejections] == ["not-accepted"]
        assert report.queries[0]["result"] == "NotVerify"

    def test_new_root_action_mints_a_passive_ballot_target(self):
        # An elector record that is not a consortium node can still be voted
        # in as a trust anchor; it just never submits anything itself.
        workload = [
            {"at_ms": 500, "action": "new_root", "name": "Elector-9"},
            {"at_ms": 700, "action": "endorse", "elector": "Elector-1", "type": "AddElectorCert", "target": "Elector-9"},
            {"at_ms": 740, "action": "endorse", "elector": "Elector-2", "type": "AddElectorCert", "target": "Elector-9"},
            {"at_ms": 1700, "action": "apply_ballot", "elector": "Elector-1", "type": "AddElectorCert", "target": "Elector-9"},
            {"at_ms": 2700, "action": "query", "node": "RA-1", "target": "Elector-9"},
        ]
        config = ScenarioConfig(
            seed=89,
            nodes=BASE_NODES,
            network=NetworkParams(5, 20, 0.0),
            workload=tuple(workload),
            policies=(("ballot_quorum", 2),),
        )
        report = Simulation(config).run()
        assert report.converged and report.rejections == []
        assert report.queries[0]["result"] == "Success"


    @pytest.mark.parametrize("action", [
        {"at_ms": 500, "action": "new_root", "name": "Nobody-1"},
        {"at_ms": 500, "action": "issue", "issuer": "RCA-1", "subject_name": "Nobody-1"},
    ], ids=["new_root", "issue"])
    def test_subject_without_a_role_prefix_is_refused(self, action):
        with pytest.raises(SimulationError, match="^config-invalid: subject name 'Nobody-1' carries no role$"):
            Simulation(small_config(count=0, workload=(action,), generate=None))


class TestGenesisQuorum:
    """A run that tries to lower the quorum mid-ballot. Were the write to commit, a peer could tally the
    apply_ballot at another quorum than the sequencer's and refuse the sequencer's block."""

    @pytest.mark.parametrize("gap", [80, 90])
    def test_no_peer_refuses_a_block_and_the_quorum_write_is_refused(self, gap):
        target = {"elector": "Elector-1", "type": "AddRootCert", "target": "RCA-9"}
        workload = (
            {"at_ms": 100, "action": "new_root", "name": "RCA-9"},
            {"at_ms": 200, "action": "endorse", **target},
            {"at_ms": 1000, "action": "policy_add", "entity": "Elector", "rule": "ballot_quorum",
             "body": {"min_endorsements": 1}},
            {"at_ms": 1000 + gap, "action": "apply_ballot", **target},
        )
        config = small_config(seed=26, generate=None, network=NetworkParams(5, 80, 0.0), workload=workload,
                              policies=(("ballot_quorum", 2), ("block_max_txs", 1), ("block_timeout_ms", 1)))
        report = Simulation(config).run()
        assert report.converged
        assert not [r for r in report.rejections if r["reason"].startswith("refused-by")]
        assert [(r["function"], r["reason"]) for r in report.rejections if r["channel"] == "GPF"] == [
            ("AddPolicy", "genesis-rule")]


class TestGeneratedWorkload:
    # SHA-256 of the sample scenario's expanded action list under two seeds.
    # A seed fixes every generated scenario, so the generator must keep
    # drawing exactly these actions whatever its data structures.
    PINNED = {
        1: "2d19f120388afd22f9d063f32dac2944eadb2758d952c16376b2ca43ccc97790",
        2: "7bd2eeb02ef9ea95c66c95ae62b22010e6d0ee467405e4819f75e6a15b97e246",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_action_list_is_pinned(self, seed):
        sample = pathlib.Path(__file__).resolve().parents[1] / "samples" / "scenario.json"
        config = ScenarioConfig.from_json({**json.loads(sample.read_text()), "seed": seed})
        actions = Simulation(config)._actions
        assert len(actions) > 1000
        digest = hashlib.sha256(json.dumps(actions, sort_keys=True).encode("utf-8")).hexdigest()
        assert digest == self.PINNED[seed]
