#!/usr/bin/env python3
"""bbtm benchmark: one command, three workloads, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload sim-history --seed 1 --seconds 35 --trace 0

Workloads (why each exists: BENCHMARK.json and bench/design.json):

* ``sim-history``  10-node simulation, 4000 generated tx plus root-ballot
  rounds and local queries;
* ``sim-fanout``   the same authorities plus 40 read-only EE peers, 1000 tx,
  1% block drops and one peer crash-and-recover;
* ``cli-replay``   a deployment grown by 1000 generated tx, then a closed loop
  of rounds of ``bbtm`` CLI commands, one of each kind, each starting with
  cold caches.

Every input comes from ``--seed``.  The benchmark repeats whole set-up plus
measured units while the next one still fits in ``--seconds`` (at least one),
checks every output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` one untraced
and one traced repetition run and the metrics are the per-layer ones.  The
line before it holds workload-specific detail (virtual-time metrics,
per-command latencies, the report digest).  The exit code is 0 only when
every check passed.

Each run is its own process, so the verify and decode caches, which are
process-wide, start empty; they are also cleared before every repetition and,
on cli-replay, before every command, as a freshly started ``bbtm`` would see.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("sim-history", "sim-fanout", "cli-replay")
MIN_SETUPS = 7
CLI_SETUPS = 3

import workloads as W  # noqa: E402  (sibling module; sys.path[0] is bench/)
from tracer import REJECTION_TYPES, SPAN, TARGETS, Tracer  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def load_bbtm():
    """Import bbtm from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "bbtm" / "__init__.py").is_file():
        raise BenchError(f"no bbtm sources under {src}")
    sys.path.insert(0, str(src))
    import bbtm

    if pathlib.Path(bbtm.__file__).resolve().parent != (src / "bbtm").resolve():
        raise BenchError(f"imported bbtm from {bbtm.__file__}, not from {src}")
    from bbtm import ballot, cli, identity, ledger, metrics, simulation

    return {"ballot": ballot, "cli": cli, "identity": identity, "ledger": ledger,
            "metrics": metrics, "simulation": simulation}


# Filled by main(); the three process-wide caches are taken before any
# tracer wraps the names that refer to them.
B: Dict[str, object] = {}
CACHES: List[object] = []


def clear_caches() -> None:
    for cache in CACHES:
        cache.cache_clear()


def check_caches_empty() -> None:
    for cache in CACHES:
        info = cache.cache_info()
        if info.hits or info.misses or info.currsize:
            raise BenchError(f"cache {cache.__name__} is not empty at start: {info}")


def tail(values: List[float]) -> Tuple[float, float, int]:
    """Highest of p50/p75/p90/p95/p99/p99.9 with >= 10 samples beyond it.

    Returns (value, percentile, sample count); nearest-rank on sorted values.
    """
    ordered = sorted(values)
    n = len(ordered)
    chosen = 50.0
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if n - int(n * p / 100.0) >= 11:
            chosen = p
    index = min(n - 1, int(n * chosen / 100.0))
    return ordered[index], chosen, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    errors: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)  # end-to-end, or per-layer when traced
    details: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------- simulator


@dataclass
class SimRep:
    setup_s: float
    run_s: float
    digest: str
    committed: int
    attempted: int
    failed: int
    ledger_kb_per_tx: float
    virtual: Dict[str, float]
    queue_wait_ms_p50: float


def sim_rep(config, errors: List[str]) -> SimRep:
    """One Simulation(config) plus run(), then every check on its report."""
    clear_caches()
    t0 = time.perf_counter()
    sim = B["simulation"].Simulation(config)
    t1 = time.perf_counter()
    report = sim.run()
    t2 = time.perf_counter()
    return check_sim_report(report, t1 - t0, t2 - t1, errors)


def check_sim_report(report, setup_s: float, run_s: float, errors: List[str]) -> SimRep:
    digest = hashlib.sha256(report.to_json_bytes()).hexdigest()
    if not report.converged:
        errors.append(f"not converged: divergent {report.divergent}")
    if report.stalled:
        errors.append("run stalled")
    live = [n for n in report.nodes if n.status == "live"]
    if len({(n.gccf_head, n.gpf_head, n.world_state_digest) for n in live}) != 1:
        errors.append("live nodes report different heads")
    uncommitted = sum(1 for lc in report.lifecycles if len(lc.commits) != len(live))
    if uncommitted:
        errors.append(f"{uncommitted} admitted transactions not committed on every live node")
    if report.rejections:
        errors.append(f"{len(report.rejections)} rejections, first {report.rejections[0]}")
    bad_queries = [q for q in report.queries if q["result"] != "Success"]
    if bad_queries:
        errors.append(f"{len(bad_queries)} local queries did not succeed, first {bad_queries[0]}")
    committed = len(report.lifecycles) - uncommitted
    computed = B["metrics"].compute_metrics(report.lifecycles, report.ledger_sizes)
    latencies = sorted(lc.latency_ms for lc in report.lifecycles if lc.commits)
    waits = [lc.cut_ms - lc.admit_ms for lc in report.lifecycles if lc.cut_ms is not None]
    return SimRep(
        setup_s=setup_s,
        run_s=run_s,
        digest=digest,
        committed=committed,
        attempted=len(report.lifecycles) + len(report.rejections) + len(report.queries),
        failed=len(report.rejections) + uncommitted + len(bad_queries),
        ledger_kb_per_tx=sum(report.ledger_sizes.values()) / 1024.0 / max(1, committed),
        virtual={
            "virtual_tps": computed.throughput_tx_per_s,
            "virtual_latency_p50_ms": computed.latency.median_s * 1000.0,
            "virtual_latency_p99_ms": float(latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]),
        },
        queue_wait_ms_p50=statistics.median(waits) if waits else 0.0,
    )


def sim_deterministic(rep: SimRep) -> Dict[str, object]:
    """What a seed fixes on a sim workload: the values design.json pins."""
    return {"report_sha256": rep.digest, "committed": rep.committed, "ledger_kb_per_tx": rep.ledger_kb_per_tx,
            **rep.virtual}


def sim_config(workload: str, seed: int, sizes: W.Sizes):
    scenario = W.history_scenario(seed, sizes) if workload == "sim-history" else W.fanout_scenario(seed, sizes)
    return B["simulation"].ScenarioConfig.from_json(scenario)


def check_digests(digests: List[str], expect: Optional[str], errors: List[str]) -> None:
    if len(set(digests)) != 1:
        errors.append(f"report digest differs between repetitions: {sorted(set(digests))}")
    if expect is not None and digests and digests[0] != expect:
        errors.append(f"report digest {digests[0]} != expected {expect}")


def run_sim(workload: str, seed: int, seconds: float, sizes: W.Sizes, expect: Optional[str]) -> Outcome:
    out = Outcome()
    config = sim_config(workload, seed, sizes)
    reps: List[SimRep] = []
    deadline = time.perf_counter() + seconds
    unit = 0.0
    while not reps or time.perf_counter() + unit <= deadline:
        t0 = time.perf_counter()
        reps.append(sim_rep(config, out.errors))
        unit = time.perf_counter() - t0
    setups = [r.setup_s for r in reps]
    while len(setups) < MIN_SETUPS:
        clear_caches()
        t0 = time.perf_counter()
        B["simulation"].Simulation(config)
        setups.append(time.perf_counter() - t0)
    check_digests([r.digest for r in reps], expect, out.errors)
    out.attempted = sum(r.attempted for r in reps)
    out.failed = sum(r.failed for r in reps)
    first = reps[0]
    per_tx = [r.run_s * 1000.0 / max(1, r.committed) for r in reps]
    out.metrics = {
        "setup_s": statistics.median(setups),
        "wall_ms_per_tx": statistics.median(per_tx),
        "peak_rss_mb": peak_rss_mb(),
        "ledger_kb_per_tx": first.ledger_kb_per_tx,
    }
    out.details = {
        "repetitions": len(reps),
        "rep_wall_ms_per_tx": per_tx,
        "setups": len(setups),
        "failed_ratio": out.failed / max(1, out.attempted),
        **sim_deterministic(first),
    }
    return out


def trace_sim(workload: str, seed: int, sizes: W.Sizes, expect: Optional[str]) -> Outcome:
    out = Outcome()
    config = sim_config(workload, seed, sizes)
    plain = sim_rep(config, out.errors)
    tracer = Tracer()
    with tracer:
        traced = sim_rep(config, out.errors)
    check_digests([plain.digest, traced.digest], expect, out.errors)
    out.attempted = plain.attempted + traced.attempted
    out.failed = plain.failed + traced.failed
    out.metrics = layer_metrics(tracer, traced.virtual, traced.queue_wait_ms_p50,
                               (traced.setup_s + traced.run_s) / (plain.setup_s + plain.run_s))
    out.details = {**sim_deterministic(plain), "traced_report_sha256": traced.digest}
    dump_spans(tracer, workload, seed, out)
    return out


# ---------------------------------------------------------------------- CLI


def call_cli(argv: List[str]) -> Tuple[int, str]:
    """``bbtm.cli.main(argv)`` with its output captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = B["cli"].main(argv)
    return code, stdout.getvalue() + stderr.getvalue()


def parse_json(text: str) -> Optional[dict]:
    try:
        value = json.loads(text)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def grow_deployment(base: pathlib.Path, seed: int, sizes: W.Sizes):
    """`bbtm network init` from the genesis config, then simulator-grown chains."""
    sim_mod = B["simulation"]
    base.mkdir(parents=True)
    config_path = base / "genesis.json"
    config_path.write_text(json.dumps(W.genesis_config(seed)))
    code, text = call_cli(["network", "init", "--config", str(config_path), "--out", str(base / "dep")])
    if code != 0:
        raise BenchError(f"network init failed ({code}): {text}")
    sim = sim_mod.Simulation(sim_mod.ScenarioConfig.from_json(W.growth_scenario(seed, sizes)))
    report = sim.run()
    sim.export_ledgers(base / "dep")
    return report


def chain_targets(base: pathlib.Path) -> Tuple[List[str], List[str]]:
    """Certificate files for active records, and the policy rules written.

    Derived from the grown chains by decoding them, independently of the
    contracts: a record is active when the last transaction on its key is an
    AddCert.
    """
    ledger = B["ledger"]
    last: Dict[str, object] = {}
    for block in ledger.decode_chain((base / "dep" / "gccf.chain").read_bytes()):
        for tx in block.transactions:
            if tx.key.startswith("cert/"):
                last[tx.key] = tx
    certs_dir = base / "certs"
    certs_dir.mkdir()
    active = sorted(k for k, tx in last.items() if tx.function == ledger.TxFunction.ADD_CERT)
    paths = []
    for key in active:
        path = certs_dir / (key.split("/", 1)[1] + ".bin")
        path.write_bytes(last[key].payload)
        paths.append(str(path))
    rules = set()
    for block in ledger.decode_chain((base / "dep" / "gpf.chain").read_bytes()):
        for tx in block.transactions:
            if tx.key.startswith("policy/Consortium/"):
                rules.add(tx.key.split("/", 2)[2])
    return paths, sorted(rules)


@dataclass
class CliPass:
    by_kind: Dict[str, List[float]]  # command kind -> wall ms of each command
    read_ms: List[float]
    write_ms: List[float]
    committed: int
    failed: int


def cli_pass(base: pathlib.Path, commands: List[W.Command], pass_dir: pathlib.Path, errors: List[str]) -> CliPass:
    """Run the command list once on a fresh copy of the grown deployment."""
    if pass_dir.exists():
        shutil.rmtree(pass_dir)
    dep, outdir = pass_dir / "dep", pass_dir / "out"
    shutil.copytree(base / "dep", dep)
    outdir.mkdir()
    out = CliPass(by_kind={kind: [] for kind in W.CLI_KINDS}, read_ms=[], write_ms=[], committed=0, failed=0)
    for cmd in commands:
        argv = cmd.resolve(str(dep), str(outdir))
        clear_caches()
        t0 = time.perf_counter()
        code, text = call_cli(argv)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        out.by_kind[cmd.name].append(elapsed_ms)
        (out.read_ms if cmd.kind == "read" else out.write_ms).append(elapsed_ms)
        if not W.check_verdict(cmd, code, parse_json(text)):
            out.failed += 1
            errors.append(f"`bbtm {' '.join(argv)}` exited {code} without {cmd.expect}: {text[:200]}")
        elif cmd.kind == "write":
            out.committed += 1
    return out


def check_chains(pass_dir: pathlib.Path, errors: List[str]) -> Tuple[str, float, Tuple[int, ...]]:
    """`bbtm ledger verify` of a pass's final chains.

    Returns their SHA-256, kB per transaction in non-genesis blocks, and the
    gccf and gpf heights.  Runs after a pass, outside its timing and tracing.
    """
    dep = pass_dir / "dep"
    chain_bytes = b""
    txs = 0
    heights = []
    for name in ("gccf.chain", "gpf.chain"):
        clear_caches()
        code, text = call_cli(["ledger", "verify", str(dep / name)])
        if code != 0 or (parse_json(text) or {}).get("ok") is not True:
            errors.append(f"ledger verify {name} failed: {text[:200]}")
        data = (dep / name).read_bytes()
        chain_bytes += data
        blocks = B["ledger"].decode_chain(data)
        txs += sum(len(b.transactions) for b in blocks if b.header.number > 0)
        heights.append(len(blocks))
    return hashlib.sha256(chain_bytes).hexdigest(), len(chain_bytes) / 1024.0 / max(1, txs), tuple(heights)


def cli_setup(work: pathlib.Path, seed: int, sizes: W.Sizes, errors: List[str], name: str):
    clear_caches()
    t0 = time.perf_counter()
    report = grow_deployment(work / name, seed, sizes)
    elapsed = time.perf_counter() - t0
    rep = check_sim_report(report, elapsed, 0.0, errors)
    return elapsed, rep


def cli_inputs(work: pathlib.Path, seed: int, sizes: W.Sizes) -> List[W.Command]:
    certs, rules = chain_targets(work / "grown-0")
    return W.cli_commands(seed, sizes, certs, rules)


def cli_deterministic(grown: SimRep, chains: Tuple[str, float, Tuple[int, ...]]) -> Dict[str, object]:
    """What a seed fixes on cli-replay: the values design.json pins."""
    digest, kb, heights = chains
    return {"grown_report_sha256": grown.digest, "chains_sha256": digest, "ledger_kb_per_tx": kb,
            "end_blocks": {"gccf": heights[0], "gpf": heights[1]}}


def round_ms_per_tx(passes: List[CliPass]) -> float:
    """One round (one command of each kind, each at its median latency) over
    the transactions a round commits."""
    medians = [statistics.median(ms for p in passes for ms in p.by_kind[kind]) for kind in W.CLI_KINDS]
    return sum(medians) / len(W.CLI_WRITES)


def run_cli(seed: int, seconds: float, sizes: W.Sizes, expect: Optional[str], work: pathlib.Path) -> Outcome:
    out = Outcome()
    setups = [cli_setup(work, seed, sizes, out.errors, f"grown-{i}") for i in range(CLI_SETUPS)]
    check_digests([rep.digest for _t, rep in setups], expect, out.errors)
    for i in range(1, CLI_SETUPS):
        shutil.rmtree(work / f"grown-{i}")
    commands = cli_inputs(work, seed, sizes)
    _digest, _kb, start_heights = check_chains(work / "grown-0", out.errors)
    passes: List[CliPass] = []
    chains = []
    deadline = time.perf_counter() + seconds
    unit = 0.0
    while not passes or time.perf_counter() + unit <= deadline:
        t0 = time.perf_counter()
        passes.append(cli_pass(work / "grown-0", commands, work / "pass", out.errors))
        chains.append(check_chains(work / "pass", out.errors))
        unit = time.perf_counter() - t0
    if len(set(chains)) != 1:
        out.errors.append("final chains differ between passes")
    chains_digest, ledger_kb, end_heights = chains[0]
    reads = [ms for p in passes for ms in p.read_ms]
    writes = [ms for p in passes for ms in p.write_ms]
    out.attempted = len(passes) * len(commands) + sum(rep.attempted for _t, rep in setups)
    out.failed = sum(p.failed for p in passes) + sum(rep.failed for _t, rep in setups)
    out.metrics = {
        "setup_s": statistics.median(t for t, _rep in setups),
        "wall_ms_per_tx": round_ms_per_tx(passes),
        "peak_rss_mb": peak_rss_mb(),
        "ledger_kb_per_tx": ledger_kb,
    }
    read_tail, read_pct, read_n = tail(reads)
    write_tail, write_pct, write_n = tail(writes)
    out.details = {
        "passes": len(passes),
        "commands_per_pass": len(commands),
        **cli_deterministic(setups[0][1], chains[0]),
        "start_blocks": {"gccf": start_heights[0], "gpf": start_heights[1]},
        "failed_ratio": out.failed / max(1, out.attempted),
        "cmd_p50_ms": {kind: statistics.median(ms for p in passes for ms in p.by_kind[kind])
                       for kind in W.CLI_KINDS},
        "read_cmd_p50_ms": statistics.median(reads) if reads else 0.0,
        "read_cmd_tail_ms": read_tail,
        "read_cmd_tail_percentile": read_pct,
        "read_cmd_samples": read_n,
        "write_cmd_p50_ms": statistics.median(writes) if writes else 0.0,
        "write_cmd_tail_ms": write_tail,
        "write_cmd_tail_percentile": write_pct,
        "write_cmd_samples": write_n,
    }
    return out


def trace_cli(seed: int, sizes: W.Sizes, expect: Optional[str], work: pathlib.Path) -> Outcome:
    out = Outcome()
    plain_setup, plain_rep = cli_setup(work, seed, sizes, out.errors, "grown-0")
    commands = cli_inputs(work, seed, sizes)
    plain = cli_pass(work / "grown-0", commands, work / "pass", out.errors)
    plain_chains = check_chains(work / "pass", out.errors)
    tracer = Tracer()
    with tracer:
        traced_setup, traced_rep = cli_setup(work, seed, sizes, out.errors, "grown-1")
        traced = cli_pass(work / "grown-1", commands, work / "pass", out.errors)
    traced_chains = check_chains(work / "pass", out.errors)
    check_digests([plain_rep.digest, traced_rep.digest], expect, out.errors)
    if plain_chains != traced_chains:
        out.errors.append("traced pass left different chains than the untraced pass")
    out.attempted = 2 * len(commands) + plain_rep.attempted + traced_rep.attempted
    out.failed = plain.failed + traced.failed + plain_rep.failed + traced_rep.failed
    plain_s = plain_setup + sum(plain.read_ms + plain.write_ms) / 1000.0
    traced_s = traced_setup + sum(traced.read_ms + traced.write_ms) / 1000.0
    out.metrics = layer_metrics(tracer, traced_rep.virtual, traced_rep.queue_wait_ms_p50, traced_s / plain_s)
    out.details = cli_deterministic(plain_rep, plain_chains)
    dump_spans(tracer, "cli-replay", seed, out)
    return out


# ------------------------------------------------------------------ layers


def layer_metrics(tracer: Tracer, virtual: Dict[str, float], queue_wait: float, overhead: float) -> Dict[str, float]:
    """Every per-layer value the traced repetition produced."""
    values: Dict[str, float] = {}
    for _module, _attr, name, kind in TARGETS:
        values[f"{name}.calls"] = tracer.calls[name]
        if kind == SPAN:
            values[f"{name}.busy_s"] = tracer.busy[name]
            values[f"{name}.self_s"] = tracer.self_time[name]
    for name, (_module, _exc, label) in REJECTION_TYPES.items():
        values[f"{name}.{label}"] = tracer.extra[f"{name}.{label}"]
    for name in ("gccf.view_copy.entries", "gpf.view_copy.entries", "simulation.sync_node.blocks"):
        values[name] = tracer.extra[name]
    values.update(tracer.node_stats())
    real = tracer.extra["identity.verify_real"]
    hits = tracer.calls["identity.verify_signature"] - real
    values["identity.verify_real"] = real
    values["identity.verify_hits"] = hits
    values["identity.verify_hit_ratio"] = hits / (real + hits) if real + hits else 0.0
    values["ordering.txs_per_block"] = tracer.mean_txs_per_block()
    values["ordering.queue_wait_ms_p50"] = queue_wait
    for key, value in virtual.items():
        values[f"metrics.{key}"] = value
    values["trace.overhead_ratio"] = overhead
    return values


def dump_spans(tracer: Tracer, workload: str, seed: int, out: Outcome) -> None:
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.dump(path)
    out.details["spans"] = str(path.relative_to(ROOT))
    out.details["span_count"] = len(tracer.spans)


# -------------------------------------------------------------------- main


def check_pinned(pinned: Dict[str, dict], seed: int, details: Dict[str, object], errors: List[str]) -> None:
    """Compare a run's deterministic outputs with those pinned for its seed.

    ``pinned`` maps seeds to expected values (design.json "pinned", one
    workload).  Seeds without an entry are not checked.  Floats may differ
    in the last bits, e.g. after a change of summation order.
    """
    for key, want in pinned.get(str(seed), {}).items():
        got = details.get(key)
        if isinstance(want, float) and isinstance(got, float):
            same = math.isclose(got, want, rel_tol=1e-9)
        else:
            same = got == want
        if not same:
            errors.append(f"{key} {got} != expected {want} pinned for seed {seed} in bench/design.json")


def select(values: Dict[str, float], specs: List[dict], errors: List[str]) -> Dict[str, dict]:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    chosen = {}
    for spec in specs:
        if spec["name"] not in values:
            errors.append(f"metric {spec['name']} was not measured")
            continue
        chosen[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    return chosen


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply workload sizes (the benchmark's own tests use a small scale)")
    parser.add_argument("--expect-report-sha256", dest="expect",
                        help="fail unless the simulation report (for cli-replay: the grown chain's "
                             "report) has this SHA-256")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        B.update(load_bbtm())
        CACHES[:] = [B["identity"]._verify_raw, B["identity"].decode_certificate, B["ballot"].decode_endorsement]
        check_caches_empty()
    except (BenchError, ImportError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    sizes = W.Sizes.scaled(args.scale)
    WORK_DIR.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.workload == "cli-replay":
            outcome = (trace_cli(args.seed, sizes, args.expect, work) if args.trace
                       else run_cli(args.seed, args.seconds, sizes, args.expect, work))
        else:
            outcome = (trace_sim(args.workload, args.seed, sizes, args.expect) if args.trace
                       else run_sim(args.workload, args.seed, args.seconds, sizes, args.expect))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.scale == 1.0:
        design = json.loads((BENCH_DIR / "design.json").read_text())
        check_pinned(design["pinned"][args.workload], args.seed, outcome.details, outcome.errors)
    metrics = select(outcome.metrics, spec["per_layer" if args.trace else "end_to_end"], outcome.errors)
    for error in outcome.errors[:20]:
        print(f"bench: FAIL: {error}", file=sys.stderr)
    correct = not outcome.errors
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": outcome.details}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
