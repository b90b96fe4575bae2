"""Seeded inputs for the benchmark workloads.

Everything bbtm receives from the benchmark is built here from the workload
seed: scenario JSON for the simulator (generated mix, ballot rounds, local
queries, faults) and the CLI command list for ``cli-replay``.  The same seed
always yields the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# Topology of samples/scenario.json: 10 authority nodes.
SAMPLE_NODES: List[Tuple[str, int]] = [
    ("Elector", 3), ("RCA", 1), ("ICA", 2), ("PG", 1), ("OSP", 1), ("RA", 1), ("PCA", 1),
]
# Topology and policies of samples/genesis.json, the CLI deployment.
GENESIS_NODES: List[Tuple[str, int]] = [
    ("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1),
]
GENESIS_POLICIES = {"ballot_quorum": 2, "block_max_txs": 10, "block_timeout_ms": 500}

# Members whose records are committed early (bootstrap or prologue) and that
# the generated mix never revokes, so a local query on them must succeed.
SAMPLE_QUERY_TARGETS = ["Elector-1", "Elector-2", "Elector-3", "RCA-1", "ICA-1", "ICA-2", "PG-1", "RA-1", "PCA-1"]

SPACING_MS = 10
LATENCY_MIN_MS, LATENCY_MAX_MS = 5, 50
# Members outside the genesis block, in issuance order, with their issuers
# (deployment.ISSUED_BY picks the first RCA and the first ICA).
SAMPLE_PROLOGUE = [("ICA-1", "RCA-1"), ("ICA-2", "RCA-1"), ("RA-1", "ICA-1"), ("PCA-1", "ICA-1")]
GENESIS_PROLOGUE = [("ICA-1", "RCA-1"), ("RA-1", "ICA-1")]
# The simulator's own member prologue spaces these submissions 15 ms apart,
# less than the link-latency spread, so on some seeds a record reaches the
# sequencer before its issuer's and is rejected (unknown-issuer).  The
# benchmark commits members itself, far enough apart that an issuer's record
# always arrives first.
PROLOGUE_SPACING_MS = LATENCY_MAX_MS - LATENCY_MIN_MS + 5
# The generated mix starts after the last member record has arrived.
MIX_START_MS = 400


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``scale`` shrinks them for the benchmark's own tests."""

    history_tx: int
    history_ballots: int
    history_queries: int
    fanout_tx: int
    fanout_ee: int
    growth_tx: int
    cli_rounds: int

    @classmethod
    def scaled(cls, scale: float) -> "Sizes":
        def s(n: int, low: int) -> int:
            return max(low, int(round(n * scale)))

        return cls(
            history_tx=s(4000, 60),
            history_ballots=s(10, 1),
            history_queries=s(800, 10),
            fanout_tx=s(1000, 60),
            fanout_ee=s(40, 2),
            growth_tx=s(1000, 60),
            cli_rounds=s(4, 1),
        )


def _network(drop_rate: float) -> dict:
    return {"latency_min_ms": LATENCY_MIN_MS, "latency_max_ms": LATENCY_MAX_MS, "drop_rate": drop_rate}


def _prologue(members: List[Tuple[str, str]]) -> List[dict]:
    return [{"at_ms": 10 + i * PROLOGUE_SPACING_MS, "action": "commit_member", "name": name, "issuer": issuer}
            for i, (name, issuer) in enumerate(members)]


def history_scenario(seed: int, sizes: Sizes) -> dict:
    """10 nodes, a long generated mix, root-ballot rounds and local queries."""
    rng = random.Random(f"sim-history:{seed}")
    end_ms = MIX_START_MS + sizes.history_tx * SPACING_MS
    workload: List[dict] = []
    anchors: List[Tuple[str, int]] = []
    round_len = (end_ms - 1000) // sizes.history_ballots
    for k in range(sizes.history_ballots):
        t = 1000 + k * round_len + rng.randrange(0, max(1, round_len - 2000))
        name = f"RCA-b{k + 1}"
        first, second = rng.sample(["Elector-1", "Elector-2", "Elector-3"], 2)
        workload.append({"at_ms": t, "action": "new_root", "name": name})
        for dt, elector in ((100, first), (150, second)):
            workload.append({"at_ms": t + dt, "action": "endorse", "elector": elector,
                             "type": "AddRootCert", "target": name})
        # Both endorsements are committed everywhere well before this: the
        # block timeout is 500 ms and links take at most 50 ms.
        workload.append({"at_ms": t + 1500, "action": "apply_ballot", "elector": first,
                         "type": "AddRootCert", "target": name})
        anchors.append((name, t + 3000))
    nodes = [f"{role}-{i}" for role, count in SAMPLE_NODES for i in range(1, count + 1)]
    for _ in range(sizes.history_queries):
        t = rng.randrange(MIX_START_MS + 500, end_ms)
        targets = SAMPLE_QUERY_TARGETS + [name for name, ready in anchors if ready <= t]
        workload.append({"at_ms": t, "action": "query", "node": rng.choice(nodes),
                         "target": rng.choice(targets)})
    workload = _prologue(SAMPLE_PROLOGUE) + sorted(workload, key=lambda a: a["at_ms"])
    return {
        "seed": seed,
        "nodes": [list(n) for n in SAMPLE_NODES],
        "network": _network(0.0),
        "generate": {"count": sizes.history_tx, "spacing_ms": SPACING_MS, "start_ms": MIX_START_MS},
        "policies": {"ballot_quorum": 2},
        "workload": workload,
        "faults": [],
        "auto_commit_members": False,
    }


def fanout_scenario(seed: int, sizes: Sizes) -> dict:
    """The sample authorities plus read-only EE peers, 1% drops, one crash."""
    rng = random.Random(f"sim-fanout:{seed}")
    end_ms = MIX_START_MS + sizes.fanout_tx * SPACING_MS
    span = end_ms - MIX_START_MS
    crash = MIX_START_MS + rng.randrange(span // 5, 2 * span // 5)
    recover = crash + rng.randrange(span // 5, 2 * span // 5)
    return {
        "seed": seed,
        "nodes": [list(n) for n in SAMPLE_NODES] + [["EE", sizes.fanout_ee]],
        "network": _network(0.01),
        "generate": {"count": sizes.fanout_tx, "spacing_ms": SPACING_MS, "start_ms": MIX_START_MS},
        "policies": {"ballot_quorum": 2},
        "workload": _prologue(SAMPLE_PROLOGUE),
        "faults": [{"node": f"EE-{rng.randrange(1, sizes.fanout_ee + 1)}",
                    "crash_at_ms": crash, "recover_at_ms": recover}],
        "auto_commit_members": False,
    }


def genesis_config(seed: int) -> dict:
    """``bbtm network init`` config: samples/genesis.json under this seed."""
    return {
        "seed": seed,
        "nodes": [{"role": role, "count": count} for role, count in GENESIS_NODES],
        "policies": dict(GENESIS_POLICIES),
    }


def growth_scenario(seed: int, sizes: Sizes) -> dict:
    """Simulator run that grows the CLI deployment's chains from genesis."""
    return {
        "seed": seed,
        "nodes": [list(n) for n in GENESIS_NODES],
        "network": _network(0.0),
        "generate": {"count": sizes.growth_tx, "spacing_ms": SPACING_MS, "start_ms": MIX_START_MS},
        "policies": dict(GENESIS_POLICIES),
        "workload": _prologue(GENESIS_PROLOGUE),
        "faults": [],
        "auto_commit_members": False,
    }


@dataclass(frozen=True)
class Command:
    """One CLI invocation with the verdict it must produce.

    ``argv`` holds ``{dep}`` and ``{out}`` placeholders for the deployment
    copy and the pass's output directory.  ``expect`` is the field checked in
    the command's JSON output: ``result`` must be ``Success``, ``found`` or
    ``committed``/``submitted`` must be true, ``certificates`` must be > 0.
    """

    name: str  # one of CLI_KINDS
    kind: str  # "read" or "write"
    argv: Tuple[str, ...]
    expect: str

    def resolve(self, dep: str, out: str) -> List[str]:
        return [a.replace("{dep}", dep).replace("{out}", out) for a in self.argv]


# One command of each kind per round.  No traffic data exists for this
# system, so no kind is weighted above another: a round is three reads and
# two writes, and each write commits one block.
CLI_KINDS = ("validate", "get", "export", "add", "issue")
CLI_WRITES = ("add", "issue")


def cli_commands(seed: int, sizes: Sizes, active_certs: List[str], rules: List[str]) -> List[Command]:
    """``sizes.cli_rounds`` rounds of one command of each kind, in seeded order.

    ``active_certs`` are paths of certificate files whose records are
    committed and unrevoked on the grown chain; ``rules`` are the policy
    rules ever written there.
    """
    rng = random.Random(f"cli-replay:{seed}")
    certs = list(active_certs)
    rules = list(rules)
    out: List[Command] = []
    n = 0
    for _round in range(sizes.cli_rounds):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            n += 1
            if kind == "validate":
                cert = rng.choice(certs)
                out.append(Command(kind, "read", ("cert", "validate", "--deployment", "{dep}", "--cert", cert),
                                   "result"))
            elif kind == "get":
                rule = rng.choice(rules)
                out.append(Command(kind, "read", ("policy", "get", "--deployment", "{dep}", "--entity",
                                                  "Consortium", "--rule", rule), "found"))
            elif kind == "export":
                out.append(Command(kind, "read", ("gccf", "export", "--deployment", "{dep}", "--out",
                                                  "{out}/snapshot"), "certificates"))
            elif kind == "add":
                rule = f"cli-{n}"
                body = '{"value": %d}' % rng.randint(1, 1000)
                out.append(Command(kind, "write", ("policy", "add", "--deployment", "{dep}", "--entity",
                                                   "Consortium", "--rule", rule, "--body", body), "committed"))
                rules.append(rule)
            else:
                subject = f"{rng.choice(['RA', 'PCA', 'ECA', 'LA'])}-c{n}"
                path = "{out}/" + subject + ".bin"
                out.append(Command(kind, "write", ("cert", "issue", "--deployment", "{dep}", "--issuer",
                                                   "ICA-1", "--subject", subject, "--out", path, "--submit"),
                                   "submitted"))
                certs.append(path)
    return out


def check_verdict(cmd: Command, code: int, output: Optional[Dict]) -> bool:
    if code != 0 or not isinstance(output, dict):
        return False
    if cmd.expect == "result":
        return output.get("result") == "Success"
    if cmd.expect == "certificates":
        return isinstance(output.get("certificates"), int) and output["certificates"] > 0
    return output.get(cmd.expect) is True
