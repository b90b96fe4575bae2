"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import cProfile
import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "0", "--scale", "0.03"]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracer as tracer_mod  # noqa: E402
import workloads as W  # noqa: E402
from bbtm import ballot, identity  # noqa: E402
from bbtm.simulation import ScenarioConfig, Simulation  # noqa: E402


def bench(*args: str, code: str = None) -> subprocess.CompletedProcess:
    """Run bench/run.py (or a snippet that imports it) in a fresh process."""
    if code is None:
        argv = [sys.executable, str(BENCH / "run.py"), *args]
    else:
        argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_with_its_unit_at_tiny_size(workload, trace):
    proc = bench("--workload", workload, "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    specs = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(out["metrics"][m["name"]]["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_wrong_expected_report_digest_fails():
    proc = bench("--workload", "sim-history", "--trace", "0", "--expect-report-sha256", "0" * 64, *TINY)
    assert proc.returncode != 0
    assert result(proc)["correct"] is False
    assert "expected" in proc.stderr


def test_report_digest_repeats_across_processes():
    digests = []
    for _ in range(2):
        proc = bench("--workload", "sim-fanout", "--trace", "0", *TINY)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout.strip().splitlines()[-2])["details"]["report_sha256"])
    assert digests[0] == digests[1]
    proc = bench("--workload", "sim-fanout", "--trace", "0", "--expect-report-sha256", digests[0], *TINY)
    assert proc.returncode == 0, proc.stderr


FAILING_VERDICT = """
import sys
sys.argv[0] = "bench/run.py"
sys.path.insert(0, "bench")
import run, workloads

real = workloads.cli_commands

def with_a_wrong_verdict(*args):
    commands = real(*args)
    missing = ("policy", "get", "--deployment", "{dep}", "--entity", "Consortium", "--rule", "never-written")
    return commands + [workloads.Command("get", "read", missing, "found")]

workloads.cli_commands = with_a_wrong_verdict
sys.exit(run.main(sys.argv[1:]))
"""


def test_failing_cli_verdict_fails():
    proc = bench("--workload", "cli-replay", "--trace", "0", *TINY, code=FAILING_VERDICT)
    assert proc.returncode != 0
    assert result(proc)["correct"] is False
    assert "never-written" in proc.stderr


def _clear_caches():
    for cache in (identity._verify_raw, identity.decode_certificate, ballot.decode_endorsement):
        cache.cache_clear()


def _code_of(module_name: str, attr: str):
    owner = sys.modules[f"bbtm.{module_name}"]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return getattr(owner, "__wrapped__", owner).__code__


def test_traced_counts_equal_cprofile_and_report_is_unchanged():
    config = ScenarioConfig.from_json(W.fanout_scenario(5, W.Sizes.scaled(0.03)))

    _clear_caches()
    profile = cProfile.Profile()
    profile.enable()
    plain = Simulation(config).run().to_json_bytes()
    profile.disable()
    profile.create_stats()
    by_code = {(f, line, fn): stat[1] for (f, line, fn), stat in profile.stats.items()}

    def profiled(code) -> int:
        return by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)

    _clear_caches()
    tracer = tracer_mod.Tracer()
    with tracer:
        traced = Simulation(config).run().to_json_bytes()

    assert traced == plain
    compared = 0
    for module_name, attr, name, _kind in tracer_mod.TARGETS:
        code = _code_of(module_name, attr)
        if module_name == "ballot" and attr == "decode_endorsement":
            continue  # lru_cache: cProfile sees only the misses
        assert tracer.calls[name] == profiled(code), name
        compared += tracer.calls[name] > 0
    assert compared >= 15
    # Misses of the verify cache are the executions of its body.
    assert tracer.extra["identity.verify_real"] == profiled(identity._verify_raw.__wrapped__.__code__)
    assert sum(real for real, _hits in tracer.node_verify.values()) > 0


def test_tracer_wraps_every_import_site_and_restores_them():
    from bbtm import gccf, ledger, node, simulation

    originals = (identity.sha256, identity.canonical_encode, identity.verify_signature, identity.decode_certificate)
    with tracer_mod.Tracer():
        assert node.sha256 is not originals[0] and node.sha256 is identity.sha256
        assert simulation.canonical_encode is identity.canonical_encode is not originals[1]
        assert ledger.verify_signature is identity.verify_signature is not originals[2]
    assert (node.sha256, simulation.canonical_encode, ledger.verify_signature, gccf.decode_certificate) == (
        originals[0], originals[1], originals[2], originals[3])


def test_tail_has_ten_samples_beyond_it():
    import run

    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (pct, n) == (75.0, 100) and value == 75.0
    assert run.tail([1.0, 2.0, 3.0])[1] == 50.0


def test_pinned_values_are_checked_for_their_seed_only():
    import run

    pinned = {"7": {"report_sha256": "ab", "committed": 3, "virtual_tps": 1.0}}
    errors = []
    run.check_pinned(pinned, 7, {"report_sha256": "ab", "committed": 3, "virtual_tps": 1.0 + 1e-12}, errors)
    assert errors == []
    run.check_pinned(pinned, 7, {"report_sha256": "cd", "committed": 3, "virtual_tps": 1.01}, errors)
    assert len(errors) == 2 and all("pinned for seed 7" in e for e in errors)
    run.check_pinned(pinned, 8, {"report_sha256": "cd"}, errors)
    assert len(errors) == 2


def test_default_and_held_out_seeds_are_pinned_for_every_workload():
    design = json.loads((BENCH / "design.json").read_text())
    seeds = {str(design["seeds"]["default"]), str(design["seeds"]["held_out"])}
    for w in SPEC["workloads"]:
        assert seeds <= set(design["pinned"][w["name"]]), w["name"]
