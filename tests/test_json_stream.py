"""The streamed pretty-JSON writer behind every exported projection.

``identity.iter_json`` must produce exactly the bytes of
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, and joining its chunks
must not hold the whole document as small strings, as ``json.dumps`` does.
A simulation report streams the bytes of ``dump_json(report.to_json())``
without building a dict per lifecycle first.
"""

import dataclasses
import json
import pathlib
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbtm import identity
from bbtm.identity import dump_json, iter_json
from bbtm.simulation import Fault, NetworkParams, ScenarioConfig, Simulation

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "samples" / "scenario.json"


def reference(value) -> bytes:
    return (json.dumps(value, sort_keys=True, indent=2) + "\n").encode("utf-8")


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e308, -2.5])
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from("é \U0001f697\"\\/"))
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=6) | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(value=json_values, batch=st.integers(min_value=1, max_value=9))
@example(value=[], batch=1)
@example(value={}, batch=1)
@example(value={"a": {}, "b": [[], {}], "": [None]}, batch=2)
@example(value={"\x00\x1f": "ä\x7f ", "big": -(10**40), "zero": -0.0, "tiny": 5e-324}, batch=3)
def test_stream_equals_json_dumps(value, batch):
    # A small batch makes even a small value span several batches.
    with mock.patch.object(identity, "JSON_TOKENS_PER_CHUNK", batch):
        chunks = list(iter_json(value))
        assert b"".join(chunks) == reference(value)
        assert dump_json(value) == reference(value)
    assert all(isinstance(c, bytes) and c for c in chunks)


def test_value_larger_than_one_batch_at_the_default_size():
    value = {f"k{i:05d}": [i, -i * 0.5, "é" * (i % 7), {"n": None}] for i in range(3 * identity.JSON_TOKENS_PER_CHUNK)}
    chunks = list(iter_json(value))
    assert len(chunks) > 3
    assert b"".join(chunks) == dump_json(value) == reference(value)


@pytest.fixture(scope="module")
def sample_report():
    return Simulation(ScenarioConfig.from_json(json.loads(SAMPLE.read_text()))).run()


class TestSampleReport:
    def test_written_in_chunks_far_smaller_than_the_report(self, sample_report):
        data = sample_report.to_json_bytes()
        chunks = list(iter_json(sample_report.to_json()))
        assert b"".join(chunks) == data == reference(sample_report.to_json())
        assert max(len(c) for c in chunks) < len(data) // 8

    def test_streamed_report_is_the_encoded_dict(self, sample_report):
        assert sample_report.lifecycles
        _assert_streamed_is_reference(sample_report)

    def test_encoding_peak_memory_is_below_twice_its_length(self, sample_report):
        # The streamed report makes one lifecycle dict at a time; only the
        # output buffer grows with the report.
        length = len(sample_report.to_json_bytes())
        tracemalloc.start()
        try:
            sample_report.to_json_bytes()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * length, (peak, length)

    def test_encoding_peak_memory_is_below_three_times_its_length(self, sample_report):
        # json.dumps with indent keeps every token string alive until one
        # final join: about 8x the report's length on this report.
        length = len(sample_report.to_json_bytes())
        tracemalloc.start()
        try:
            sample_report.to_json_bytes()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * length, (peak, length)


def _assert_streamed_is_reference(report):
    expected = dump_json(report.to_json())
    assert report.to_json_bytes() == expected
    assert b"".join(report.iter_json()) == expected


class TestStreamedReport:
    """SimulationReport.iter_json and to_json_bytes write the bytes of dump_json(report.to_json())."""

    NODES = (("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 2), ("EE", 1))

    def test_run_with_rejections_queries_drops_and_a_crash(self):
        config = ScenarioConfig(
            seed=41, nodes=self.NODES, network=NetworkParams(5, 30, 0.3),
            generate={"count": 30, "spacing_ms": 8}, policies=(("ballot_quorum", 2),),
            workload=({"at_ms": 400, "action": "validate", "submitter": "EE-1", "target": "ICA-1"},
                      {"at_ms": 450, "action": "query", "node": "EE-1", "target": "ICA-1"}),
            faults=(Fault(node="RA-2", crash_at_ms=150, recover_at_ms=500),),
        )
        report = Simulation(config).run()
        assert report.lifecycles and report.rejections and report.queries
        reasons = {u["reason"] for u in report.undelivered}
        assert {"dropped", "crashed"} <= reasons
        _assert_streamed_is_reference(report)

    def test_run_with_no_lifecycles(self):
        report = Simulation(ScenarioConfig(seed=2, nodes=self.NODES, auto_commit_members=False)).run()
        assert report.lifecycles == []
        assert b'\n  "lifecycles": [],\n' in report.to_json_bytes()
        _assert_streamed_is_reference(report)

    def test_an_unknown_object_is_refused_as_the_encoder_refuses_it(self, sample_report):
        report = dataclasses.replace(sample_report, queries=[object()])
        with pytest.raises(TypeError, match="not JSON serializable"):
            report.to_json_bytes()
