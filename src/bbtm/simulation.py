"""Deterministic in-process simulation of the consortium.

Nodes, the sequencer, and the network run on a single virtual-time event
loop; every random draw (link latency, drops, workload content, serials)
comes from substreams of one seed, so a scenario run twice produces
byte-identical reports and ledger files.  Faults are crash/recover events;
recovered or partitioned nodes catch up by pulling blocks from live peers
and re-verifying each one before committing it.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import heapq
import itertools
import json
import logging
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from . import ballot as ballot_mod
from . import gccf, gpf
from .ballot import BallotError, EndorsementType
from .clock import VirtualClock
from .deployment import (
    CHAIN_FILES,
    DEFAULT_NOT_AFTER,
    DEFAULT_NOT_BEFORE,
    Deployment,
    build_deployment,
    check_int,
    check_list,
    check_objects,
    derive_identity,
    derive_rng,
    expand_node_counts,
    genesis_node,
    read_node_counts,
    write_chains,
)
from .identity import (
    AuthorityRole,
    Identity,
    canonical_encode,
    dump_json,
    iter_json,
    role_of_name,
    sha256,
)
from .ledger import Block, Channel, Transaction, chain_size
from .metrics import TxLifecycle
from .node import BlockRefused, Node, NodeStatus
from .ordering import OrderingService, Rejected

logger = logging.getLogger(__name__)

PROLOGUE_START_MS = 10
PROLOGUE_SPACING_MS = 15

# The workload actions and the string fields each must name.
ACTION_FIELDS: Dict[str, Tuple[str, ...]] = {
    "commit_member": ("name", "issuer"), "issue": ("issuer", "subject_name"), "new_root": ("name",),
    "revoke": ("target",), "validate": ("submitter", "target"), "query": ("node", "target"),
    "policy_add": ("entity", "rule"), "policy_revoke": ("entity", "rule"),
    "endorse": ("elector", "type", "target"), "apply_ballot": ("elector", "type", "target"),
}
ENDORSEMENT_TYPES = frozenset(t.value for t in EndorsementType)


class SimulationError(Exception):
    pass


def world_state_digests(nodes: Iterable[Node]) -> Dict[str, bytes]:
    """Each node's world-state digest by name, hashed once per distinct pair of stores: a node
    whose GCCF and GPF stores equal a hashed node's takes its digest.  Nodes that applied the
    same blocks share their entry objects, so comparing them is cheap."""
    digests: Dict[str, bytes] = {}
    hashed: List[Tuple[Tuple[dict, dict], bytes]] = []
    for node in nodes:
        stores = (node.ledger(Channel.GCCF).world_state, node.ledger(Channel.GPF).world_state)
        digest = next((digest for other, digest in hashed if other == stores), None)
        if digest is None:
            digest = node.world_state_digest()
            hashed.append((stores, digest))
        digests[node.name] = digest
    return digests


def _as_tuple(value):
    """A JSON list as a tuple, so that a parsed config equals the one it was written from; any other value as given."""
    return tuple(value) if isinstance(value, list) else value


def check_not_negative(value, what: str) -> int:
    """value, if it is an integer that is not negative: a count, or a time or
    spacing of the run, whose virtual clock starts at zero and never moves back."""
    if check_int(value, what) < 0:
        raise ValueError(f"{what} cannot be negative")
    return value


def _check_action(action: dict) -> None:
    """A configured workload action's fields, checked before the run with its time.

    The names it gives are looked up only when it runs, since the run can mint them.
    """
    kind = action.get("action")
    if kind not in ACTION_FIELDS:
        raise ValueError(f"unknown workload action {kind!r}")
    for key in ACTION_FIELDS[kind] + (("by",) if "by" in action else ()):
        if not isinstance(action.get(key), str):
            raise ValueError(f"{kind} action needs a string {key!r}")
    minted = {"issue": "subject_name", "new_root": "name"}.get(kind)  # the field naming a subject it mints
    if minted and role_of_name(action[minted]) is None:
        raise ValueError(f"subject name {action[minted]!r} carries no role")
    if "type" in ACTION_FIELDS[kind] and action["type"] not in ENDORSEMENT_TYPES:
        raise ValueError(f"unknown endorsement type {action['type']!r}")
    body = action.get("body", {})
    if not isinstance(body, dict) or not all(isinstance(v, (int, str, bool)) for v in body.values()):
        raise ValueError(f"{kind} action body must map names to scalars")
    for key in ("not_before", "not_after"):
        if key in action:
            check_int(action[key], f"{kind} action {key}")


@dataclass(frozen=True)
class NetworkParams:
    latency_min_ms: int = 5
    latency_max_ms: int = 50
    drop_rate: float = 0.0
    # Per-destination overrides of drop_rate, e.g. a full partition between
    # the sequencer and one peer.
    link_drop: Tuple[Tuple[str, float], ...] = ()

    def drop_for(self, node_name: str) -> float:
        for name, rate in self.link_drop:
            if name == node_name:
                return rate
        return self.drop_rate

    def to_json(self) -> dict:
        return {
            "latency_min_ms": self.latency_min_ms,
            "latency_max_ms": self.latency_max_ms,
            "drop_rate": self.drop_rate,
            "link_drop": {name: rate for name, rate in self.link_drop},
        }


@dataclass(frozen=True)
class Fault:
    node: str
    crash_at_ms: int
    recover_at_ms: Optional[int] = None

    def to_json(self) -> dict:
        return {"node": self.node, "crash_at_ms": self.crash_at_ms, "recover_at_ms": self.recover_at_ms}

    def overlaps(self, other: "Fault") -> bool:
        """True iff the two down windows share an instant: each runs from the crash to the recovery, both
        included, or to the end of the run without one."""
        return ((other.recover_at_ms is None or self.crash_at_ms <= other.recover_at_ms)
                and (self.recover_at_ms is None or other.crash_at_ms <= self.recover_at_ms))

    def window(self) -> str:
        """The down window, as a refusal names it."""
        if self.recover_at_ms is None:
            return f"from {self.crash_at_ms} ms"
        return f"{self.crash_at_ms}-{self.recover_at_ms} ms"


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    nodes: Tuple[Tuple[str, int], ...]
    network: NetworkParams = NetworkParams()
    workload: Tuple[dict, ...] = ()
    generate: Optional[dict] = None
    faults: Tuple[Fault, ...] = ()
    policies: Tuple[Tuple[str, int], ...] = ()
    validity: Tuple[int, int] = (DEFAULT_NOT_BEFORE, DEFAULT_NOT_AFTER)
    defer_bootstrap: Tuple[str, ...] = ()
    auto_commit_members: bool = True

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "nodes": [[role, count] for role, count in self.nodes],
            "network": self.network.to_json(),
            "workload": list(self.workload),
            "generate": self.generate,
            "faults": [f.to_json() for f in self.faults],
            "policies": {rule: value for rule, value in self.policies},
            "validity": list(self.validity),
            "defer_bootstrap": list(self.defer_bootstrap),
            "auto_commit_members": self.auto_commit_members,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ScenarioConfig":
        """Parse a scenario; a missing or malformed field is config-invalid."""
        try:
            return cls._parse(obj)
        except KeyError as exc:
            raise SimulationError(f"config-invalid: missing key {exc.args[0]!r}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise SimulationError(f"config-invalid: {exc}") from exc

    @classmethod
    def _parse(cls, obj: dict) -> "ScenarioConfig":
        """The scenario's fields as given; Simulation checks their values."""
        network = obj.get("network", {})
        link_drop = network.get("link_drop", {})
        policies = obj.get("policies", {})
        if not all(type(rate) in (int, float) for rate in link_drop.values()):  # a bool is not a number
            raise ValueError("network link_drop rates must be numbers")
        return cls(
            seed=obj["seed"],
            nodes=tuple(read_node_counts(obj["nodes"])),
            network=NetworkParams(
                latency_min_ms=network.get("latency_min_ms", 5),
                latency_max_ms=network.get("latency_max_ms", 50),
                drop_rate=network.get("drop_rate", 0.0),
                link_drop=tuple(sorted((str(k), float(v)) for k, v in link_drop.items())),
            ),
            workload=tuple(check_list(obj.get("workload", ()), "workload")),
            generate=obj.get("generate"),
            faults=tuple(
                Fault(node=f["node"], crash_at_ms=f["crash_at_ms"], recover_at_ms=f.get("recover_at_ms"))
                for f in check_objects(obj.get("faults", ()), "faults", '{"node", "crash_at_ms"}')
            ),
            policies=tuple(sorted(policies.items())) if isinstance(policies, dict) else policies,
            validity=_as_tuple(obj.get("validity", (DEFAULT_NOT_BEFORE, DEFAULT_NOT_AFTER))),
            defer_bootstrap=_as_tuple(obj.get("defer_bootstrap", ())),
            auto_commit_members=obj.get("auto_commit_members", True),
        )

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode("utf-8")

    def digest(self) -> bytes:
        return sha256(self.canonical_bytes())


@dataclass
class NodeReport:
    name: str
    role: str
    status: str
    gccf_head: str
    gpf_head: str
    gccf_height: int
    gpf_height: int
    committed: Dict[str, int]
    world_state_digest: str

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ConvergenceResult:
    ok: bool
    divergent: Tuple[str, ...]


@dataclass
class SimulationReport:
    seed: int
    config_digest: str
    end_ms: int
    nodes: List[NodeReport]
    converged: bool
    divergent: List[str]
    stalled: bool
    rejections: List[dict]
    lifecycles: List[TxLifecycle]
    queries: List[dict]
    undelivered: List[dict]
    delay_trace: List[dict]
    ledger_sizes: Dict[str, int]

    def to_json(self) -> dict:
        return self._document([lc.to_json() for lc in self.lifecycles])

    def _document(self, lifecycles: list) -> dict:
        return {
            "seed": self.seed,
            "config_digest": self.config_digest,
            "end_ms": self.end_ms,
            "nodes": [n.to_json() for n in self.nodes],
            "converged": self.converged,
            "divergent": list(self.divergent),
            "stalled": self.stalled,
            "rejections": list(self.rejections),
            "lifecycles": lifecycles,
            "queries": list(self.queries),
            "undelivered": list(self.undelivered),
            "delay_trace": list(self.delay_trace),
            "ledger_sizes": dict(sorted(self.ledger_sizes.items())),
        }

    # The streamed document holds the TxLifecycle objects themselves: the
    # encoder meets each as an object it does not know and encodes, in
    # place, the dict _lifecycle_json returns, so one lifecycle dict exists
    # at a time instead of one per transaction.
    def iter_json(self) -> Iterator[bytes]:
        """The bytes of dump_json(self.to_json()), in chunks (identity.iter_json)."""
        return iter_json(self._document(self.lifecycles), _lifecycle_json)

    def to_json_bytes(self) -> bytes:
        return dump_json(self._document(self.lifecycles), _lifecycle_json)


def _lifecycle_json(obj) -> dict:
    if not isinstance(obj, TxLifecycle):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj.to_json()


class Simulation:
    """Single-use scenario executor over a virtual event loop."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # The consortium's rules are build_deployment's; the run's are checked against its members.
        try:
            self._members = expand_node_counts(config.nodes)
            self.deployment: Deployment = build_deployment(
                config.seed,
                self._members,
                dict(config.policies) if isinstance(config.policies, tuple) else config.policies,
                validity=config.validity,
                defer_bootstrap=config.defer_bootstrap,
            )
            self.osp_name = self.deployment.osp.name
            self.nodes: Dict[str, Node] = {
                name: genesis_node(self.deployment, self.deployment.identity(name).cert)
                for _role, name in self._members
            }
            self._validate_config()
        except ValueError as exc:
            raise SimulationError(f"config-invalid: {exc}") from exc
        # The default signer of revocations and rules: the first PG.
        self._pg_name = next(name for role, name in self._members if role == AuthorityRole.PG)
        self.clock = VirtualClock()
        self.orderer = OrderingService(
            self.deployment.consortium, self.deployment.osp, self.nodes[self.osp_name]
        )
        self._net_rng = derive_rng(config.seed, "network")
        self._serial_rngs: Dict[str, object] = {}
        # Registry of every identity that can sign or be certified, including
        # synthetic workload subjects created on the fly.
        self._identities: Dict[str, Identity] = dict(self.deployment.identities)
        self._heap: List[Tuple[int, int, Callable, tuple]] = []
        self._event_seq = itertools.count()
        self._lifecycles: Dict[bytes, TxLifecycle] = {}
        self.rejections: List[dict] = []
        self.queries: List[dict] = []
        self.undelivered: List[dict] = []
        self.delay_trace: List[dict] = []
        self._tamper_hooks: Dict[str, Callable[[Block], Block]] = {}
        self._sync_scheduled: Set[str] = set()
        self._actions = self._expand_workload()
        self._ran = False

    # ------------------------------------------------------------------ setup

    def _validate_config(self) -> None:
        """The run's fields, checked against the members and the genesis; ValueError for the first fault."""
        if not any(role == AuthorityRole.PG for role, _name in self._members):
            raise ValueError("a policy generator is required")
        # The genesis electors against the genesis quorum the run reads, a value below 1 read as its default.
        electors = sum(role_of_name(name) == AuthorityRole.ELECTOR for name in self.deployment.gccf_bootstrap_names)
        if electors < self.nodes[self.osp_name].gccf_view.quorum:
            raise ValueError("fewer electors than the ballot quorum")
        if not isinstance(self.config.auto_commit_members, bool):
            raise ValueError("auto_commit_members must be true or false")
        net = self.config.network
        check_int(net.latency_min_ms, "network latency_min_ms")
        check_int(net.latency_max_ms, "network latency_max_ms")
        if type(net.drop_rate) not in (int, float):
            raise ValueError("network drop_rate must be a number")
        if not 0 <= net.drop_rate <= 1 or net.latency_min_ms < 0 or net.latency_max_ms < net.latency_min_ms:
            raise ValueError("bad network parameters")
        if any(not 0 <= rate <= 1 for _name, rate in net.link_drop):
            raise ValueError("bad link drop rate")
        checked: List[Fault] = []
        for fault in self.config.faults:
            if fault.node not in self.nodes:
                raise ValueError(f"fault names unknown node {fault.node}")
            crash = check_not_negative(fault.crash_at_ms, "fault crash_at_ms")
            if fault.recover_at_ms is not None:
                recover = check_not_negative(fault.recover_at_ms, "fault recover_at_ms")
                if recover < crash:
                    raise ValueError(f"fault of {fault.node} recovers at {recover} ms, before it crashes at {crash} ms")
            # A node crashed twice at one instant stops the run, in whichever order the faults are listed.
            for other in checked:
                if other.node == fault.node and other.overlaps(fault):
                    raise ValueError(f"faults of {fault.node} overlap: down {other.window()} and {fault.window()}")
            checked.append(fault)
        for action in self.config.workload:
            if not isinstance(action, dict):
                raise ValueError("a workload action is a JSON object")
            check_not_negative(action.get("at_ms"), "workload action at_ms")
            _check_action(action)
        spec = self.config.generate
        if spec is not None:
            if not isinstance(spec, dict):
                raise ValueError("generate must be a JSON object")
            check_not_negative(spec.get("count"), "generate count")
            check_not_negative(spec.get("spacing_ms", 10), "generate spacing_ms")
            check_not_negative(spec.get("start_ms") or 0, "generate start_ms")

    def _expand_workload(self) -> List[dict]:
        actions: List[dict] = []
        t = PROLOGUE_START_MS
        if self.config.auto_commit_members:
            # Every member still missing is issued by another member.
            name_of = {ident.unique_id: name for name, ident in self.deployment.identities.items()}
            for ident in self.deployment.members_missing_from_genesis():
                issuer = name_of[ident.cert.issuer_unique_id]
                actions.append({"at_ms": t, "action": "commit_member", "name": ident.name, "issuer": issuer})
                t += PROLOGUE_SPACING_MS
        prologue_end = t
        if self.config.generate:
            start = self.config.generate.get("start_ms")
            if start is None:
                start = prologue_end + self.config.network.latency_max_ms + 100
            actions.extend(self._generate_actions(self.config.generate, start))
        actions.extend(dict(a) for a in self.config.workload)
        actions.sort(key=lambda a: a["at_ms"])
        return actions

    def _generate_actions(self, spec: dict, start_ms: int) -> List[dict]:
        """Deterministic mixed workload over the five ledger functions."""
        rng = derive_rng(self.config.seed, "workload")
        count = spec["count"]
        spacing = spec.get("spacing_ms", 10)
        net = self.config.network
        # A target must have been submitted long enough ago that its add
        # cannot arrive at the sequencer after a later revoke of it.
        safety = net.latency_max_ms - net.latency_min_ms + spacing + 1

        # The roles a generated issue may mint.  The RCA's intermediates and
        # policy generator are the deployment's own members, so it mints MAs only.
        ica_subjects = sorted(gccf.ISSUANCE_MATRIX[AuthorityRole.ICA], key=gccf.ROLE_ORDER.get)
        subject_roles = {AuthorityRole.RCA: ["MA"], AuthorityRole.ICA: [r.value for r in ica_subjects]}
        issuers = [
            (name, role)
            for role, name in self._members
            if role in subject_roles and name not in self.deployment.deferred
        ]
        if not issuers:
            raise SimulationError("config-invalid: generated workload needs an RCA or ICA")
        # Validation requests come from the issuers and the RA.
        validators = [name for role, name in self._members if role in subject_roles or role == AuthorityRole.RA]
        actions: List[dict] = []
        # Open targets and alive rules in creation order, with their times
        # alongside: the ones old enough to act on are a prefix, found by
        # bisection, and a draw is an index into that prefix.
        open_targets: List[str] = []
        open_at: List[int] = []
        alive_rules: List[str] = []
        alive_at: List[int] = []
        n_subjects = 0
        n_rules = 0
        for i in range(count):
            t = start_ms + i * spacing
            eligible = bisect.bisect_right(open_at, t - safety)
            eligible_rules = bisect.bisect_right(alive_at, t - safety)
            roll = rng.random()
            if roll < 0.50 and roll >= 0.40 and eligible:
                index = rng.choice(range(eligible))
                target = open_targets.pop(index)
                del open_at[index]
                actions.append({"at_ms": t, "action": "revoke", "by": self._pg_name, "target": target})
            elif roll < 0.70 and roll >= 0.50 and eligible:
                actions.append(
                    {
                        "at_ms": t,
                        "action": "validate",
                        "submitter": rng.choice(validators),
                        "target": open_targets[rng.choice(range(eligible))],
                    }
                )
            elif roll >= 0.90 and eligible_rules:
                index = rng.choice(range(eligible_rules))
                rule = alive_rules.pop(index)
                del alive_at[index]
                actions.append(
                    {"at_ms": t, "action": "policy_revoke", "entity": "Consortium", "rule": rule}
                )
            elif roll >= 0.70:
                n_rules += 1
                rule = f"rule-{n_rules}"
                alive_rules.append(rule)
                alive_at.append(t)
                actions.append(
                    {
                        "at_ms": t,
                        "action": "policy_add",
                        "entity": "Consortium",
                        "rule": rule,
                        "body": {"value": rng.randint(1, 1000)},
                    }
                )
            else:
                issuer_name, issuer_role = rng.choice(issuers)
                n_subjects += 1
                subject = f"{rng.choice(subject_roles[issuer_role])}-w{n_subjects}"
                open_targets.append(subject)
                open_at.append(t)
                actions.append(
                    {"at_ms": t, "action": "issue", "issuer": issuer_name, "subject_name": subject}
                )
        return actions

    # ------------------------------------------------------------- event loop

    def _schedule(self, t_ms: int, fn: Callable, *args) -> None:
        heapq.heappush(self._heap, (t_ms, next(self._event_seq), fn, args))

    def _latency(self) -> int:
        return self._net_rng.randint(
            self.config.network.latency_min_ms, self.config.network.latency_max_ms
        )

    def run(self) -> SimulationReport:
        if self._ran:
            raise SimulationError("simulation instances are single-use")
        self._ran = True
        for action in self._actions:
            self._schedule(action["at_ms"], self._do_action, action)
        # The heap holds every action now, and frees each once it has run.
        self._actions = []
        for fault in self.config.faults:
            self._schedule(fault.crash_at_ms, self._crash_event, fault.node)
            if fault.recover_at_ms is not None:
                self._schedule(fault.recover_at_ms, self._recover_event, fault.node)
        while True:
            while self._heap:
                t, _seq, fn, args = heapq.heappop(self._heap)
                self.clock.advance_to(t)
                fn(*args)
            if not self._drain_pending():
                break
        self._settle_sync()
        return self._build_report()

    def _drain_pending(self) -> bool:
        """Force-cut leftovers once the event queue is empty; True if it did."""
        if not self.nodes[self.osp_name].is_live:
            return False
        did = False
        for channel in (Channel.GCCF, Channel.GPF):
            while self.orderer.pending_count(channel):
                block = self.orderer.cut_block(channel, now_ms=self.clock.now_ms, force=True)
                if block is None:
                    break
                self._commit_and_deliver(channel, block)
                did = True
        return did and bool(self._heap)

    # --------------------------------------------------------------- workload

    def _mint(self, name: str, issuer: Optional[Identity], validity: Tuple[int, int], now_s: float) -> Identity:
        """Derive a workload subject; a serial comes from its signer's stream."""
        serial = self._serial_rng(issuer.name if issuer else name).randbytes(16)
        ident = derive_identity(self.config.seed, name, issuer, validity=validity, serial=serial, now_s=now_s)
        self._identities[name] = ident
        return ident

    def _serial_rng(self, issuer: str):
        if issuer not in self._serial_rngs:
            self._serial_rngs[issuer] = derive_rng(self.config.seed, f"serial:{issuer}")
        return self._serial_rngs[issuer]

    def _reject(self, submitter: str, channel: str, function: str, reason: str, submit_ms: int) -> None:
        self.rejections.append(
            {
                "time_ms": self.clock.now_ms,
                "submitter": submitter,
                "channel": channel,
                "function": function,
                "reason": reason,
                "submit_ms": submit_ms,
            }
        )

    def _do_action(self, action: dict) -> None:
        kind = action["action"]
        now = self.clock.now_ms
        try:
            if kind == "commit_member":
                ident = self._identity(action["name"])
                issuer = self._identity(action["issuer"])
                tx = gccf.make_add_cert_tx(ident.cert, issuer.cert, issuer.key, now)
                self._submit(issuer.name, tx)
            elif kind == "issue":
                issuer = self._identity(action["issuer"])
                validity = (
                    action.get("not_before", self.config.validity[0]),
                    action.get("not_after", self.config.validity[1]),
                )
                subject = self._mint(action["subject_name"], issuer, validity, self.clock.now_s)
                tx = gccf.make_add_cert_tx(subject.cert, issuer.cert, issuer.key, now)
                self._submit(issuer.name, tx)
            elif kind == "new_root":
                if action["name"] not in self._identities:
                    self._mint(action["name"], None, self.config.validity, self.config.validity[0])
            elif kind == "revoke":
                by = self._identity(action.get("by", self._pg_name))
                target = self._identity(action["target"]).cert
                tx = gccf.make_revoke_cert_tx(target, by.cert, by.key, now)
                self._submit(by.name, tx)
            elif kind == "validate":
                submitter = self._identity(action["submitter"])
                target = self._identity(action["target"]).cert
                tx = gccf.make_validate_tx(target, submitter.cert, submitter.key, now)
                self._submit(submitter.name, tx)
            elif kind == "query":
                node = self._node(action["node"])
                target = self._identity(action["target"]).cert
                result = gccf.validate_cert(node.gccf_view, target, self.clock.now_s)
                self.queries.append({"time_ms": now, "node": node.name, "target": action["target"], **result.to_json()})
            elif kind == "policy_add":
                pg = self._identity(action.get("by", self._pg_name))
                record = gpf.PolicyRecord(
                    entity=action["entity"],
                    rule_name=action["rule"],
                    rule_body=dict(action.get("body", {})),
                    status=gpf.PolicyStatus.ALIVE,
                )
                tx = gpf.make_policy_tx(record, pg.cert, pg.key, now)
                self._submit(pg.name, tx)
            elif kind == "policy_revoke":
                pg = self._identity(action.get("by", self._pg_name))
                tx = gpf.make_revoke_policy_tx(
                    self._node(pg.name).gpf_view, action["entity"], action["rule"], pg.cert, pg.key, now
                )
                self._submit(pg.name, tx)
            elif kind == "endorse":
                elector = self._identity(action["elector"])
                etype = EndorsementType(action["type"])
                target = self._identity(action["target"]).cert
                view = self._node(elector.name).gccf_view
                endorsement = ballot_mod.create_endorsement(elector.key, elector.cert, etype, target, view)
                tx = ballot_mod.make_endorsement_tx(endorsement, target.serial_number, elector.cert, elector.key, now)
                self._submit(elector.name, tx)
            elif kind == "apply_ballot":
                elector = self._identity(action["elector"])
                etype = EndorsementType(action["type"])
                target = self._identity(action["target"]).cert
                view = self._node(elector.name).gccf_view
                tally = ballot_mod.tally_ballot(view, etype, sha256(canonical_encode(target)))
                tx = ballot_mod.apply_ballot(view, tally, elector.cert, elector.key, now)
                self._submit(elector.name, tx)
        except BallotError as exc:
            self._reject(action.get("elector", "?"), "GCCF", "Ballot", exc.reason, now)

    def _identity(self, name: str) -> Identity:
        """A workload action's signer or subject; a name the run does not know is config-invalid."""
        if name not in self._identities:
            raise SimulationError(f"config-invalid: unknown identity {name!r} at {self.clock.now_ms} ms")
        return self._identities[name]

    def _node(self, name: str) -> Node:
        if name not in self.nodes:
            raise SimulationError(f"config-invalid: unknown node {name!r} at {self.clock.now_ms} ms")
        return self.nodes[name]

    def _submit(self, submitter: str, tx: Transaction) -> None:
        node = self.nodes.get(submitter)
        if node is not None and not node.is_live:
            self._reject(submitter, tx.channel.value, tx.function.value, "submitter-crashed", self.clock.now_ms)
            return
        if node is not None and node.role == AuthorityRole.EE:
            self._reject(submitter, tx.channel.value, tx.function.value, "ee-read-only", self.clock.now_ms)
            return
        self._schedule(self.clock.now_ms + self._latency(), self._osp_receive, submitter, tx, self.clock.now_ms)

    # --------------------------------------------------------------- ordering

    def _osp_receive(self, submitter: str, tx: Transaction, submit_ms: int) -> None:
        if not self.nodes[self.osp_name].is_live:
            self._reject(submitter, tx.channel.value, tx.function.value, "osp-unavailable", submit_ms)
            return
        now = self.clock.now_ms
        try:
            self.orderer.submit_tx(tx, now_ms=now)
        except Rejected as exc:
            self._reject(submitter, tx.channel.value, tx.function.value, exc.reason, submit_ms)
            return
        lc = TxLifecycle(
            tx_id=tx.tx_id,
            channel=tx.channel.value,
            function=tx.function.value,
            submitter=submitter,
            submit_ms=submit_ms,
            admit_ms=now,
            size_bytes=tx.body_size,
        )
        self._lifecycles[tx.tx_id] = lc
        self._try_cut(tx.channel)
        if self.orderer.pending_count(tx.channel):
            timeout = gpf.block_timeout_ms(self.nodes[self.osp_name].gpf_view)
            self._schedule(now + timeout, self._cut_check, tx.channel)

    def _cut_check(self, channel: Channel) -> None:
        if not self.nodes[self.osp_name].is_live:
            return
        self._try_cut(channel)

    def _try_cut(self, channel: Channel) -> None:
        while True:
            block = self.orderer.cut_block(channel, now_ms=self.clock.now_ms)
            if block is None:
                return
            self._commit_and_deliver(channel, block)

    def _commit_and_deliver(self, channel: Channel, block: Block) -> None:
        now = self.clock.now_ms
        self.orderer.commit_own(channel, block)
        # A node commits a whole block at one instant: the block's lifecycles
        # share one commit-time mapping, which _record_commits extends.
        commits = {self.osp_name: now}
        for tx in block.transactions:
            lc = self._lifecycles.get(tx.tx_id)
            if lc is not None:
                lc.cut_ms = now
                lc.commits = commits
        for name, node in self.nodes.items():
            if name == self.osp_name:
                continue
            if not node.is_live:
                self._undelivered(name, channel, block, "crashed")
                continue
            if self._net_rng.random() < self.config.network.drop_for(name):
                self._undelivered(name, channel, block, "dropped")
                continue
            delay = self._latency()
            self.delay_trace.append(
                {"node": name, "channel": channel.value, "block": block.header.number, "delay_ms": delay}
            )
            self._schedule(now + delay, self._peer_receive, name, channel, block)

    def _undelivered(self, name: str, channel: Channel, block: Block, reason: str) -> None:
        self.undelivered.append({"node": name, "channel": channel.value, "block": block.header.number, "reason": reason})

    def _peer_receive(self, name: str, channel: Channel, block: Block) -> None:
        node = self.nodes[name]
        if not node.is_live:
            self._undelivered(name, channel, block, "crashed")
            return
        expected = node.ledger(channel).height
        if block.header.number < expected:
            return
        if block.header.number > expected:
            self._request_sync(name)
            return
        try:
            node.commit_block(channel, block)
        except BlockRefused as exc:
            self._reject(self.osp_name, channel.value, "Block", f"refused-by-{name}:{exc.reason}", self.clock.now_ms)
            return
        self._record_commits(name, block)

    def _record_commits(self, name: str, block: Block) -> None:
        """Note the node's commit once in the block's shared mapping (_commit_and_deliver)."""
        for tx in block.transactions:
            lc = self._lifecycles.get(tx.tx_id)
            if lc is not None:
                lc.commits.setdefault(name, self.clock.now_ms)
                return

    def _request_sync(self, name: str) -> None:
        if name in self._sync_scheduled:
            return
        self._sync_scheduled.add(name)
        self._schedule(self.clock.now_ms, self._sync_event, name)

    def _sync_event(self, name: str) -> None:
        self._sync_scheduled.discard(name)
        if not self.nodes[name].is_live:
            return
        try:
            self.sync_node(name)
        except SimulationError:
            pass

    # ----------------------------------------------------------------- faults

    def crash_node(self, name: str) -> None:
        node = self.nodes.get(name)
        if node is None:
            raise SimulationError("unknown-node")
        if not node.is_live:
            raise SimulationError("already-crashed")
        node.status = NodeStatus.CRASHED

    def recover_node(self, name: str) -> None:
        node = self.nodes.get(name)
        if node is None:
            raise SimulationError("unknown-node")
        if node.is_live:
            raise SimulationError("not-crashed")
        node.status = NodeStatus.LIVE

    def _crash_event(self, name: str) -> None:
        self.crash_node(name)
        logger.debug("node %s crashed at %d", name, self.clock.now_ms)

    def _recover_event(self, name: str) -> None:
        self.recover_node(name)
        self._request_sync(name)
        if name == self.osp_name:
            self._schedule(self.clock.now_ms, self._cut_check, Channel.GCCF)
            self._schedule(self.clock.now_ms, self._cut_check, Channel.GPF)

    # ------------------------------------------------------------------- sync

    def tamper_peer(self, name: str, mutate: Callable[[Block], Block]) -> None:
        """Test hook: the named peer serves mutated blocks to sync requests."""
        self._tamper_hooks[name] = mutate

    def _serve_block(self, peer_name: str, channel: Channel, number: int) -> Block:
        block = self.nodes[peer_name].ledger(channel).blocks[number]
        hook = self._tamper_hooks.get(peer_name)
        return hook(block) if hook else block

    def sync_node(self, name: str) -> int:
        """Pull, re-verify, and commit missing blocks from live peers.

        A block failing verification is discarded and fetched from the next
        peer.  Returns the number of blocks committed.
        """
        node = self.nodes.get(name)
        if node is None:
            raise SimulationError("unknown-node")
        if not node.is_live:
            raise SimulationError("node-crashed")
        peers = [p for p_name, p in self.nodes.items() if p_name != name and p.is_live]
        if not peers:
            raise SimulationError("no-live-peer")
        fetched = 0
        for channel in (Channel.GCCF, Channel.GPF):
            while True:
                height = node.ledger(channel).height
                ahead = sorted(
                    (p for p in peers if p.ledger(channel).height > height),
                    key=lambda p: (-p.ledger(channel).height, p.name),
                )
                if not ahead:
                    break
                progressed = False
                for peer in ahead:
                    block = self._serve_block(peer.name, channel, height)
                    try:
                        node.commit_block(channel, block)
                    except BlockRefused:
                        continue
                    fetched += 1
                    progressed = True
                    self._record_commits(name, block)
                    break
                if not progressed:
                    break
        return fetched

    def _settle_sync(self) -> None:
        for _round in range(len(self.nodes) + 2):
            progressed = False
            live = [n for n in self.nodes.values() if n.is_live]
            for channel in (Channel.GCCF, Channel.GPF):
                top = max((n.ledger(channel).height for n in live), default=0)
                for node in live:
                    if node.ledger(channel).height < top:
                        try:
                            if self.sync_node(node.name):
                                progressed = True
                        except SimulationError:
                            pass
            if not progressed:
                break

    # ----------------------------------------------------------------- report

    def assert_convergence(self, digests: Optional[Dict[str, bytes]] = None) -> ConvergenceResult:
        """Compare (GCCF head, GPF head, world-state digest) across live nodes.

        ``digests`` holds world-state digests already computed, by node name;
        without it, each distinct pair of live stores is hashed once.
        """
        live = [node for node in self.nodes.values() if node.is_live]
        if digests is None:
            digests = world_state_digests(live)
        summaries = {
            node.name: (node.head(Channel.GCCF), node.head(Channel.GPF), digests[node.name]) for node in live
        }
        if not summaries:
            return ConvergenceResult(ok=False, divergent=tuple(self.nodes))
        tallies = collections.Counter(summaries.values())
        majority = max(tallies.items(), key=lambda kv: (kv[1], kv[0]))[0]
        divergent = tuple(name for name, summary in summaries.items() if summary != majority)
        return ConvergenceResult(ok=not divergent, divergent=divergent)

    def _build_report(self) -> SimulationReport:
        digests = world_state_digests(self.nodes.values())
        convergence = self.assert_convergence(digests)
        osp_node = self.nodes[self.osp_name]
        pending_left = sum(self.orderer.pending_count(ch) for ch in (Channel.GCCF, Channel.GPF))
        stalled = pending_left > 0 and not osp_node.is_live
        nodes = [
            NodeReport(
                name=name,
                role=node.role.value,
                status=node.status.value,
                gccf_head=node.head(Channel.GCCF).hex(),
                gpf_head=node.head(Channel.GPF).hex(),
                gccf_height=node.ledger(Channel.GCCF).height,
                gpf_height=node.ledger(Channel.GPF).height,
                committed={ch.value: len(ledger.tx_ids) for ch, ledger in node.ledgers.items()},
                world_state_digest=digests[name].hex(),
            )
            for name, node in self.nodes.items()
        ]
        # In admission order: the orderer admits each transaction once.
        lifecycles = list(self._lifecycles.values())
        ledger_sizes = {ch.value: chain_size(osp_node.ledger(ch).blocks) for ch in Channel}
        return SimulationReport(
            seed=self.config.seed,
            config_digest=self.config.digest().hex(),
            end_ms=self.clock.now_ms,
            nodes=nodes,
            converged=convergence.ok,
            divergent=list(convergence.divergent),
            stalled=stalled,
            rejections=self.rejections,
            lifecycles=lifecycles,
            queries=self.queries,
            undelivered=self.undelivered,
            delay_trace=self.delay_trace,
            ledger_sizes=ledger_sizes,
        )

    def export_ledgers(self, directory) -> Dict[str, str]:
        """Write the sequencer's chains as ledger files, then its savepoint keyed to them; returns the paths.

        The files are written whole or not at all (deployment.write_chains).
        """
        import pathlib

        base = pathlib.Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        write_chains(base, self.nodes[self.osp_name])
        return {channel.value: str(base / name) for channel, name in CHAIN_FILES.items()}
