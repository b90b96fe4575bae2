"""The world-state digest against a reference built from FORMAT.md, and the
report's one digest per distinct pair of stores."""

import hashlib
import json
import pathlib
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbtm.ledger import Channel, Ledger, StateEntry, TxFunction
from bbtm.simulation import Fault, NetworkParams, ScenarioConfig, Simulation

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "samples" / "scenario.json"
BASE_NODES = (("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 2))


def _framed(value: bytes) -> bytes:
    return struct.pack(">I", len(value)) + value


def _reference_digest(world) -> bytes:
    """FORMAT.md "World-state digest": for each entry in ascending key order,
    framed key ‖ framed payload ‖ framed function ‖ framed u64 block number."""
    lines = []
    for key in sorted(world, key=lambda k: k.encode("utf-8")):  # UTF-8 byte order is code point order
        entry = world[key]
        lines.append(_framed(key.encode("utf-8")) + _framed(entry.payload)
                     + _framed(entry.function.value.encode("utf-8")) + _framed(struct.pack(">Q", entry.block_number)))
    return hashlib.sha256(b"".join(lines)).digest()


def _reference_node_digest(node) -> bytes:
    return hashlib.sha256(b"".join(_reference_digest(node.ledger(ch).world_state)
                                   for ch in (Channel.GCCF, Channel.GPF))).digest()


def _store(world) -> Ledger:
    ledger = Ledger(Channel.GCCF)
    ledger.world_state = dict(world)
    return ledger


class TestDigestMatchesTheFormat:
    def test_every_node_of_the_sample_run(self):
        sim = Simulation(ScenarioConfig.from_json(json.loads(SAMPLE.read_text())))
        report = sim.run()
        by_name = {n.name: n.world_state_digest for n in report.nodes}
        for name, node in sim.nodes.items():
            for channel in (Channel.GCCF, Channel.GPF):
                world = node.ledger(channel).world_state
                assert world and node.ledger(channel).world_state_digest() == _reference_digest(world)
            assert by_name[name] == _reference_node_digest(node).hex()

    @settings(max_examples=50, deadline=None)
    @given(world=st.dictionaries(
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
        st.builds(StateEntry, st.binary(max_size=40), st.sampled_from(list(TxFunction)),
                  st.sampled_from([0, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1)),
        max_size=6,
    ))
    @example(world={})
    @example(world={"é/ключ/鍵": StateEntry(b"", TxFunction.ADD_CERT, 0),
                    "a": StateEntry(b"\x00", TxFunction.BALLOT_ENDORSE, 2 ** 64 - 1)})
    @example(world={f"k{i}": StateEntry(b"p", function, i) for i, function in enumerate(TxFunction)})
    def test_any_store(self, world):
        assert _store(world).world_state_digest() == _reference_digest(world)


class TestOneDigestPerDistinctStores:
    """Nodes share a digest only when both their stores are equal."""

    @pytest.fixture
    def finished(self):
        config = ScenarioConfig(
            seed=9,
            nodes=BASE_NODES,
            network=NetworkParams(5, 30, 0.0),
            generate={"count": 40, "spacing_ms": 8},
            policies=(("ballot_quorum", 2),),
            # RA-2 stops early for good, so its stores stay behind everyone else's.
            faults=(Fault("RA-2", crash_at_ms=600, recover_at_ms=None),),
        )
        sim = Simulation(config)
        report = sim.run()
        assert report.converged
        return sim

    def test_a_corrupted_store_gets_its_own_digest(self, finished):
        victim = finished.nodes["RA-1"]
        world = victim.ledger(Channel.GCCF).world_state
        world[next(iter(world))] = StateEntry(b"corrupted", TxFunction.ADD_CERT, 0)
        report = finished._build_report()
        digests = {n.name: n.world_state_digest for n in report.nodes}
        assert digests["RA-1"] == victim.world_state_digest().hex()
        assert digests["RA-1"] not in {digest for name, digest in digests.items() if name != "RA-1"}
        assert report.divergent == ["RA-1"]
        # The crashed node is behind, so its digest is its own too.
        assert len(set(digests.values())) == 3
        for name, node in finished.nodes.items():
            assert digests[name] == _reference_node_digest(node).hex()

    def test_convergence_check_shares_digests_the_same_way(self, finished):
        victim = finished.nodes["RA-1"]
        world = victim.ledger(Channel.GPF).world_state
        key = next(iter(world))
        world[key] = StateEntry(world[key].payload, world[key].function, world[key].block_number + 1)
        result = finished.assert_convergence()
        assert not result.ok and result.divergent == ("RA-1",)
