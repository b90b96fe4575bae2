"""One world-state store per channel, journaled commits, and the paths around it.

The contracts, the ledger and the convergence digest share one store per
channel; a refused block is undone through a journal; the sample report's
bytes are pinned; ``ledger verify`` checks each block once; and
scenario errors surface as ``config-invalid``.
"""

import dataclasses
import hashlib
import json
import pathlib
from random import Random

import pytest

from bbtm import ballot, gccf, gpf, ledger
from bbtm.cli import EXIT_USAGE, main
from bbtm.gccf import ContractRejection
from bbtm.ledger import (
    Channel,
    LedgerError,
    StateEntry,
    TxFunction,
    encode_chain,
    make_block,
    verify_chain,
)
from bbtm.node import BlockRefused
from bbtm.simulation import ScenarioConfig, Simulation, SimulationError

from helpers import make_identity

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "samples" / "scenario.json"
SAMPLE_REPORT_SHA256 = "3632786e42b6438431ef4a669016ce7a77c272250843b76b469a7a44f6f2592a"
BASE_NODES = (("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1))


def _config(seed=9, count=40, nodes=BASE_NODES) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        nodes=nodes,
        generate={"count": count, "spacing_ms": 8},
        policies=(("ballot_quorum", 2),),
    )


@pytest.fixture
def finished():
    sim = Simulation(_config())
    report = sim.run()
    assert report.converged
    return sim


def _sample_config() -> ScenarioConfig:
    return ScenarioConfig.from_json(json.loads(SAMPLE.read_text()))


def _next_block(sim, node, channel, txs):
    chain = node.ledger(channel)
    return make_block(chain.height, chain.head_hash(), txs, sim.deployment.osp.cert, sim.deployment.osp.key)


def _snapshot(node):
    return {
        channel: dict(node.ledger(channel).world_state) for channel in (Channel.GCCF, Channel.GPF)
    }, set(node.gccf_view.serials), list(node.gccf_view.endorsement_log), node.world_state_digest()


def _assert_same_entries(before, after):
    assert before.keys() == after.keys()
    assert all(after[key] is entry for key, entry in before.items())


class TestOneStore:
    def test_views_share_the_ledger_store(self, finished):
        for node in finished.nodes.values():
            assert node.gccf_view.world is node.ledger(Channel.GCCF).world_state
            assert node.gpf_view.world is node.ledger(Channel.GPF).world_state

    def test_corrupted_view_entry_names_the_node(self, finished):
        victim = finished.nodes["RA-1"]
        key = next(k for k in victim.gccf_view.world if k.startswith("cert/"))
        victim.gccf_view.world[key] = StateEntry(b"corrupted", TxFunction.ADD_CERT, 0)
        result = finished.assert_convergence()
        assert not result.ok
        assert result.divergent == ("RA-1",)

    def test_nodes_share_each_committed_entry(self, finished):
        osp = finished.nodes[finished.osp_name]
        for channel in (Channel.GCCF, Channel.GPF):
            reference = osp.ledger(channel).world_state
            for node in finished.nodes.values():
                _assert_same_entries(reference, node.ledger(channel).world_state)

    def test_report_digests_each_distinct_pair_of_stores_once(self, monkeypatch):
        sim = Simulation(_config(count=10))
        calls = []
        original = ledger.Ledger.world_state_digest

        def counted(self):
            calls.append(self.channel)
            return original(self)

        monkeypatch.setattr(ledger.Ledger, "world_state_digest", counted)
        sim.run()
        pairs = []
        for node in sim.nodes.values():
            stores = (node.ledger(Channel.GCCF).world_state, node.ledger(Channel.GPF).world_state)
            if stores not in pairs:
                pairs.append(stores)
        assert len(pairs) == 1 < len(sim.nodes)
        assert calls == [Channel.GCCF, Channel.GPF] * len(pairs)


class TestRefusedBlockRollsBack:
    def test_gccf_block_with_a_role_violation(self, finished):
        dep = finished.deployment
        ica, elector = dep.identity("ICA-1"), dep.identity("Elector-1")
        node = finished.nodes["RA-1"]
        valid = gccf.make_add_cert_tx(make_identity("RA-7", ica).cert, ica.cert, ica.key, 0)
        root = make_identity("RCA-9", rng=Random(3))
        endorsement = ballot.create_endorsement(
            elector.key, elector.cert, ballot.EndorsementType.ADD_ROOT, root.cert, node.gccf_view
        )
        endorse = ballot.make_endorsement_tx(endorsement, root.cert.serial_number, elector.cert, elector.key, 0)
        # An intermediate may not certify the misbehavior authority.
        violating = gccf.make_add_cert_tx(make_identity("MA-7", ica).cert, ica.cert, ica.key, 0)

        before = _snapshot(node)
        height = node.ledger(Channel.GCCF).height
        with pytest.raises(BlockRefused) as exc:
            node.commit_block(Channel.GCCF, _next_block(finished, node, Channel.GCCF, [valid, endorse, violating]))
        assert exc.value.reason == "role-violation"
        after = _snapshot(node)
        for channel in (Channel.GCCF, Channel.GPF):
            _assert_same_entries(before[0][channel], after[0][channel])
        assert after[1:] == before[1:]
        assert node.ledger(Channel.GCCF).height == height

        node.commit_block(Channel.GCCF, _next_block(finished, node, Channel.GCCF, [valid, endorse]))
        assert node.ledger(Channel.GCCF).height == height + 1
        assert node.gccf_view.world[valid.key].payload == valid.payload
        assert len(node.gccf_view.endorsement_log) == len(before[2]) + 1
        assert len(node.gccf_view.serials) == len(before[1]) + 1
        assert node.world_state_digest() != before[3]

    def test_gpf_block_with_a_non_pg_write(self, finished):
        dep = finished.deployment
        pg, rca = dep.identity("PG-1"), dep.identity("RCA-1")
        node = finished.nodes["RA-1"]
        record = gpf.PolicyRecord(
            entity="OSP", rule_name="block_max_txs", rule_body={"value": 3}, status=gpf.PolicyStatus.ALIVE,
        )
        valid = gpf.make_policy_tx(record, pg.cert, pg.key, 0)
        other = gpf.PolicyRecord(
            entity="RA", rule_name="r", rule_body={"value": 1}, status=gpf.PolicyStatus.ALIVE,
        )
        non_pg = gpf.make_policy_tx(other, rca.cert, rca.key, 0)

        max_txs = gpf.block_max_txs(node.gpf_view)
        before = _snapshot(node)
        height = node.ledger(Channel.GPF).height
        with pytest.raises(BlockRefused) as exc:
            node.commit_block(Channel.GPF, _next_block(finished, node, Channel.GPF, [valid, non_pg]))
        assert exc.value.reason == "not-PG"
        after = _snapshot(node)
        for channel in (Channel.GCCF, Channel.GPF):
            _assert_same_entries(before[0][channel], after[0][channel])
        assert after[1:] == before[1:]
        assert node.ledger(Channel.GPF).height == height
        assert gpf.block_max_txs(node.gpf_view) == max_txs

        node.commit_block(Channel.GPF, _next_block(finished, node, Channel.GPF, [valid]))
        assert node.ledger(Channel.GPF).height == height + 1
        assert gpf.block_max_txs(node.gpf_view) == 3


class TestContractsWriteOnlyTheirKey:
    def test_sample_run(self, monkeypatch):
        """Each contract call, tried first on a copy, changes at most tx.key."""
        writes = []

        def probed(apply, view_arg):
            def wrapper(*args, **kwargs):
                tx = args[-1]
                views = list(args[:-1])
                probe = views[view_arg].copy()
                before = [dict(view.world) for view in views]
                probe_args = views[:view_arg] + [probe] + views[view_arg + 1:] + [tx]
                try:
                    apply(*probe_args, **kwargs)
                except ContractRejection:
                    pass
                world = views[view_arg].world
                changed = {k for k in probe.world.keys() | world.keys() if probe.world.get(k) is not world.get(k)}
                assert changed <= {tx.key}
                writes.append(len(changed))
                assert [dict(view.world) for view in views] == before
                return apply(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(gccf, "apply_tx", probed(gccf.apply_tx, 0))
        monkeypatch.setattr(gpf, "apply_tx", probed(gpf.apply_tx, 0))
        report = Simulation(_sample_config()).run()
        assert report.converged
        assert sum(writes) > 1000


class TestPinnedSampleReport:
    def test_sample_report_bytes(self):
        report = Simulation(_sample_config()).run()
        assert hashlib.sha256(report.to_json_bytes()).hexdigest() == SAMPLE_REPORT_SHA256


class _Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestLedgerVerifyOnePass:
    @pytest.fixture
    def chain(self, finished, tmp_path):
        blocks = finished.nodes[finished.osp_name].ledger(Channel.GCCF).blocks
        path = tmp_path / "gccf.chain"
        path.write_bytes(encode_chain(blocks))
        return blocks, path

    def _forged_signature(self, finished, blocks, position):
        """The chain with one transaction signature zeroed at position, re-cut by the sequencer."""
        osp = finished.deployment.osp
        out = list(blocks[:position])
        for block in blocks[position:]:
            txs = block.transactions
            if block.header.number == position:
                txs = (dataclasses.replace(txs[0], submitter_signature=bytes(64)),) + txs[1:]
            out.append(make_block(block.header.number, out[-1].header.hash(), txs, osp.cert, osp.key))
        return out

    def test_one_data_hash_per_block(self, chain, monkeypatch, capsys):
        blocks, path = chain
        counter = _Counter(ledger.data_hash_of)
        monkeypatch.setattr(ledger, "data_hash_of", counter)
        assert main(["ledger", "verify", str(path)]) == 0
        assert counter.calls == len(blocks)
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True and out["height"] == len(blocks)
        assert out["head"] == blocks[-1].header.hash().hex()

    def test_bad_transaction_signature_reports_fail_at(self, finished, chain, tmp_path, capsys):
        blocks, _path = chain
        path = tmp_path / "forged.chain"
        path.write_bytes(encode_chain(self._forged_signature(finished, blocks, 2)))
        assert main(["ledger", "verify", str(path)]) == 1
        assert json.loads(capsys.readouterr().out) == {"ok": False, "fail_at": 2}

    def test_structural_failure_wins_over_an_earlier_signature(self, finished, chain, tmp_path, capsys):
        blocks, _path = chain
        forged = self._forged_signature(finished, blocks, 1)
        forged[3] = dataclasses.replace(
            forged[3], header=dataclasses.replace(forged[3].header, prev_header_hash=bytes(32))
        )
        path = tmp_path / "broken.chain"
        path.write_bytes(encode_chain(forged))
        assert main(["ledger", "verify", str(path)]) == 1
        assert capsys.readouterr().out.startswith("verification failed: block 3 does not extend the tip")

    def test_fail_at_is_the_first_forged_block(self, finished, chain):
        blocks, _path = chain
        for candidate, expected in (
            (blocks, None),
            (self._forged_signature(finished, blocks, 1), 1),
            (self._forged_signature(finished, blocks, 3), 3),
        ):
            checked, fail_at = verify_chain(Channel.GCCF, candidate)
            assert fail_at == expected
            assert checked.world_state == {}
            assert checked.head_hash() == candidate[-1].header.hash()
        bad = list(blocks)
        bad[2] = dataclasses.replace(bad[2], header=dataclasses.replace(bad[2].header, data_hash=bytes(32)))
        with pytest.raises(LedgerError, match="data hash mismatch"):
            verify_chain(Channel.GCCF, bad)


class TestConfigErrors:
    def test_repeated_role_is_config_invalid(self):
        nodes = BASE_NODES + (("RA", 2),)
        with pytest.raises(SimulationError, match="config-invalid: role RA repeated in nodes"):
            Simulation(_config(nodes=nodes))

    def test_deployment_errors_are_config_invalid(self):
        # The policy generator is issued by the root, which this list lacks.
        nodes = (("Elector", 3), ("PG", 1), ("OSP", 1))
        with pytest.raises(SimulationError, match="config-invalid: PG-1 requires a root CA"):
            Simulation(_config(nodes=nodes))

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([["Elector", 3], ["RCA", 1], ["OSP", 1]], "error: config-invalid: a policy generator is required"),
            ([["Elector", 3], ["RCA", 1], ["PG", 1], ["OSP", 1], ["PG", 1]],
             "error: config-invalid: role PG repeated in nodes"),
        ],
    )
    def test_sim_run_reports_config_invalid(self, tmp_path, capsys, nodes, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1, "nodes": nodes}))
        assert main(["sim", "run", "--scenario", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""
