"""The streamed pretty-JSON writer behind every exported projection.

``identity.iter_json`` must produce exactly the bytes of
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, and joining its chunks
must not hold the whole document as small strings, as ``json.dumps`` does.
"""

import json
import pathlib
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbtm import identity
from bbtm.identity import dump_json, iter_json
from bbtm.simulation import ScenarioConfig, Simulation

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
