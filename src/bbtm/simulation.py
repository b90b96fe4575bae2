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
import heapq
import itertools
import json
import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import ballot as ballot_mod
from . import gccf, gpf
from .ballot import BallotError, EndorsementType
from .clock import VirtualClock
from .deployment import (
    DEFAULT_NOT_AFTER,
    DEFAULT_NOT_BEFORE,
    Deployment,
    build_deployment,
    derive_bytes,
    derive_rng,
    expand_node_counts,
)
from .identity import (
    AuthorityRole,
    CertificateRecord,
    Identity,
    Subject,
    UID_LEN,
    canonical_encode,
    generate_keypair,
    issue_certificate,
    role_of_name,
    sha256,
)
from .ledger import Block, Channel, Transaction, encode_chain
from .metrics import TxLifecycle
from .node import BlockRefused, Node, NodeStatus
from .ordering import OrderingService, Rejected

logger = logging.getLogger(__name__)

PROLOGUE_START_MS = 10
PROLOGUE_SPACING_MS = 15


class SimulationError(Exception):
    pass


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

    def policy_dict(self) -> Dict[str, int]:
        return dict(self.policies)

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
        network = obj.get("network", {})
        return cls(
            seed=obj["seed"],
            nodes=tuple((str(role), int(count)) for role, count in obj["nodes"]),
            network=NetworkParams(
                latency_min_ms=network.get("latency_min_ms", 5),
                latency_max_ms=network.get("latency_max_ms", 50),
                drop_rate=network.get("drop_rate", 0.0),
                link_drop=tuple(sorted((str(k), float(v)) for k, v in network.get("link_drop", {}).items())),
            ),
            workload=tuple(obj.get("workload", ())),
            generate=obj.get("generate"),
            faults=tuple(
                Fault(node=f["node"], crash_at_ms=f["crash_at_ms"], recover_at_ms=f.get("recover_at_ms"))
                for f in obj.get("faults", ())
            ),
            policies=tuple(sorted((str(k), int(v)) for k, v in obj.get("policies", {}).items())),
            validity=tuple(obj.get("validity", (DEFAULT_NOT_BEFORE, DEFAULT_NOT_AFTER))),
            defer_bootstrap=tuple(obj.get("defer_bootstrap", ())),
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
        return {
            "name": self.name,
            "role": self.role,
            "status": self.status,
            "gccf_head": self.gccf_head,
            "gpf_head": self.gpf_head,
            "gccf_height": self.gccf_height,
            "gpf_height": self.gpf_height,
            "committed": dict(sorted(self.committed.items())),
            "world_state_digest": self.world_state_digest,
        }


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
        return {
            "seed": self.seed,
            "config_digest": self.config_digest,
            "end_ms": self.end_ms,
            "nodes": [n.to_json() for n in self.nodes],
            "converged": self.converged,
            "divergent": list(self.divergent),
            "stalled": self.stalled,
            "rejections": list(self.rejections),
            "lifecycles": [lc.to_json() for lc in self.lifecycles],
            "queries": list(self.queries),
            "undelivered": list(self.undelivered),
            "delay_trace": list(self.delay_trace),
            "ledger_sizes": dict(sorted(self.ledger_sizes.items())),
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n").encode("utf-8")


class Simulation:
    """Single-use scenario executor over a virtual event loop."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._validate_config()
        members = expand_node_counts(config.nodes)
        self.deployment: Deployment = build_deployment(
            config.seed,
            members,
            config.policy_dict(),
            validity=config.validity,
            defer_bootstrap=frozenset(config.defer_bootstrap),
        )
        self.clock = VirtualClock()
        self.nodes: Dict[str, Node] = {}
        for _role, name in members:
            node = Node(self.deployment.identity(name))
            node.commit_genesis(self.deployment.genesis.gccf_genesis, self.deployment.genesis.gpf_genesis)
            self.nodes[name] = node
        self.osp_name = self.deployment.osp.name
        self.orderer = OrderingService(
            self.deployment.consortium, self.deployment.osp, self.nodes[self.osp_name]
        )
        self._net_rng = derive_rng(config.seed, "network")
        self._serial_rngs: Dict[str, object] = {}
        # Registry of every identity that can sign or be certified, including
        # synthetic workload subjects created on the fly.
        self._identities: Dict[str, Identity] = dict(self.deployment.identities)
        self._certs: Dict[str, CertificateRecord] = {
            name: ident.cert for name, ident in self.deployment.identities.items()
        }
        self._heap: List[Tuple[int, int, Callable, tuple]] = []
        self._event_seq = itertools.count()
        self._lifecycles: Dict[bytes, TxLifecycle] = {}
        self._lifecycle_order: List[bytes] = []
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
        counts: Dict[str, int] = {}
        for role_name, count in self.config.nodes:
            try:
                role = AuthorityRole(role_name)
            except ValueError as exc:
                raise SimulationError(f"config-invalid: unknown role {role_name!r}") from exc
            if count < 0:
                raise SimulationError("config-invalid: negative node count")
            counts[role.value] = counts.get(role.value, 0) + count
        if counts.get("OSP", 0) != 1:
            raise SimulationError("config-invalid: exactly one ordering service required")
        if counts.get("PG", 0) < 1:
            raise SimulationError("config-invalid: a policy generator is required")
        quorum = self.config.policy_dict().get("ballot_quorum", ballot_mod.DEFAULT_BALLOT_QUORUM)
        deferred_electors = sum(1 for n in self.config.defer_bootstrap if n.startswith("Elector-"))
        if counts.get("Elector", 0) - deferred_electors < quorum:
            raise SimulationError("config-invalid: fewer electors than the ballot quorum")
        net = self.config.network
        if not 0 <= net.drop_rate <= 1 or net.latency_min_ms < 0 or net.latency_max_ms < net.latency_min_ms:
            raise SimulationError("config-invalid: bad network parameters")
        if any(not 0 <= rate <= 1 for _name, rate in net.link_drop):
            raise SimulationError("config-invalid: bad link drop rate")
        names = {f"{role}-{i}" for role, count in self.config.nodes for i in range(1, count + 1)}
        for fault in self.config.faults:
            if fault.node not in names:
                raise SimulationError(f"config-invalid: fault names unknown node {fault.node}")

    def _expand_workload(self) -> List[dict]:
        actions: List[dict] = []
        t = PROLOGUE_START_MS
        if self.config.auto_commit_members:
            for ident in self.deployment.members_missing_from_genesis():
                issuer_uid = ident.cert.issuer_unique_id
                issuer = next(
                    (i for i in self.deployment.identities.values() if i.unique_id == issuer_uid),
                    None,
                )
                if issuer is None or issuer.name == ident.name:
                    continue
                actions.append(
                    {"at_ms": t, "action": "commit_member", "name": ident.name, "issuer": issuer.name}
                )
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
        count = int(spec["count"])
        spacing = int(spec.get("spacing_ms", 10))
        net = self.config.network
        # A target must have been submitted long enough ago that its add
        # cannot arrive at the sequencer after a later revoke of it.
        safety = net.latency_max_ms - net.latency_min_ms + spacing + 1

        issuers = [
            (name, AuthorityRole(role))
            for role, role_count in self.config.nodes
            for name in [f"{role}-{i}" for i in range(1, role_count + 1)]
            if role in ("RCA", "ICA") and name not in self.config.defer_bootstrap
        ]
        if not issuers:
            raise SimulationError("config-invalid: generated workload needs an RCA or ICA")
        pg_name = next(
            f"PG-{i}" for role, c in self.config.nodes if role == "PG" for i in range(1, c + 1)
        )
        validators = [
            f"{role}-{i}"
            for role, c in self.config.nodes
            for i in range(1, c + 1)
            if role in ("RA", "ICA", "RCA")
        ]
        subject_roles = {
            AuthorityRole.RCA: ["MA"],
            AuthorityRole.ICA: ["PCA", "RA", "ECA", "LA"],
        }
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
                actions.append({"at_ms": t, "action": "revoke", "by": pg_name, "target": target})
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

    def _identity_for(self, name: str, *, self_signed: bool = False) -> Identity:
        if name in self._identities:
            return self._identities[name]
        role = role_of_name(name)
        if role is None:
            raise SimulationError(f"cannot infer a role from name {name!r}")
        key = generate_keypair(derive_bytes(self.config.seed, f"key:{name}", 32))
        uid = derive_bytes(self.config.seed, f"uid:{name}", UID_LEN)
        nb, na = self.config.validity
        if not self_signed:
            raise SimulationError(f"unknown identity {name!r}")
        cert = issue_certificate(
            key,
            None,
            Subject(name=name, public_key=key.public_key, unique_id=uid, not_before=nb, not_after=na),
            now_s=nb,
            serial=self._serial_rng(name).randbytes(16),
        )
        ident = Identity(name=name, role=role, key=key, cert=cert)
        self._identities[name] = ident
        self._certs[name] = cert
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
                ident = self._identities[action["name"]]
                issuer = self._identities[action["issuer"]]
                tx = gccf.make_add_cert_tx(ident.cert, issuer.cert, issuer.key, now)
                self._submit(issuer.name, tx)
            elif kind == "issue":
                issuer = self._identities[action["issuer"]]
                subject_name = action["subject_name"]
                role = role_of_name(subject_name)
                if role is None:
                    raise SimulationError(f"subject name {subject_name!r} carries no role")
                key = generate_keypair(derive_bytes(self.config.seed, f"key:{subject_name}", 32))
                uid = derive_bytes(self.config.seed, f"uid:{subject_name}", UID_LEN)
                nb = action.get("not_before", self.config.validity[0])
                na = action.get("not_after", self.config.validity[1])
                cert = issue_certificate(
                    issuer.key,
                    issuer.cert,
                    Subject(name=subject_name, public_key=key.public_key, unique_id=uid, not_before=nb, not_after=na),
                    now_s=self.clock.now_s,
                    serial=self._serial_rng(issuer.name).randbytes(16),
                )
                self._identities[subject_name] = Identity(name=subject_name, role=role, key=key, cert=cert)
                self._certs[subject_name] = cert
                tx = gccf.make_add_cert_tx(cert, issuer.cert, issuer.key, now)
                self._submit(issuer.name, tx)
            elif kind == "new_root":
                self._identity_for(action["name"], self_signed=True)
            elif kind == "revoke":
                by = self._identities[action.get("by", self._first_of(AuthorityRole.PG))]
                target = self._certs[action["target"]]
                tx = gccf.make_revoke_cert_tx(target, by.cert, by.key, now)
                self._submit(by.name, tx)
            elif kind == "validate":
                submitter = self._identities[action["submitter"]]
                target = self._certs[action["target"]]
                tx = gccf.make_validate_tx(target, submitter.cert, submitter.key, now)
                self._submit(submitter.name, tx)
            elif kind == "query":
                node = self.nodes[action["node"]]
                target = self._certs[action["target"]]
                result = gccf.validate_cert(node.gccf_view, target, self.clock.now_s)
                self.queries.append(
                    {
                        "time_ms": now,
                        "node": node.name,
                        "target": action["target"],
                        "result": "Success" if result.ok else "NotVerify",
                        "reason": result.reason,
                        "path": [s.hex() for s in result.path],
                    }
                )
            elif kind == "policy_add":
                pg = self._identities[action.get("by", self._first_of(AuthorityRole.PG))]
                record = gpf.PolicyRecord(
                    entity=action["entity"],
                    rule_name=action["rule"],
                    rule_body=dict(action.get("body", {})),
                    status=gpf.PolicyStatus.ALIVE,
                )
                tx = gpf.make_policy_tx(record, pg.cert, pg.key, now)
                self._submit(pg.name, tx)
            elif kind == "policy_revoke":
                pg = self._identities[action.get("by", self._first_of(AuthorityRole.PG))]
                tx = gpf.make_revoke_policy_tx(
                    self.nodes[pg.name].gpf_view, action["entity"], action["rule"], pg.cert, pg.key, now
                )
                self._submit(pg.name, tx)
            elif kind == "endorse":
                elector = self._identities[action["elector"]]
                etype = EndorsementType(action["type"])
                target = self._certs[action["target"]]
                view = self.nodes[elector.name].gccf_view
                endorsement = ballot_mod.create_endorsement(elector.key, elector.cert, etype, target, view)
                tx = ballot_mod.make_endorsement_tx(endorsement, target.serial_number, elector.cert, elector.key, now)
                self._submit(elector.name, tx)
            elif kind == "apply_ballot":
                elector = self._identities[action["elector"]]
                etype = EndorsementType(action["type"])
                target = self._certs[action["target"]]
                node = self.nodes[elector.name]
                quorum = gpf.ballot_quorum(node.gpf_view)
                tally = ballot_mod.tally_ballot(node.gccf_view, etype, sha256(canonical_encode(target)), quorum)
                tx = ballot_mod.apply_ballot(node.gccf_view, tally, elector.cert, elector.key, now)
                self._submit(elector.name, tx)
            else:
                raise SimulationError(f"unknown workload action {kind!r}")
        except BallotError as exc:
            self._reject(action.get("elector", "?"), "GCCF", "Ballot", exc.reason, now)

    def _first_of(self, role: AuthorityRole) -> str:
        for name, ident in self.deployment.identities.items():
            if ident.role == role:
                return name
        raise SimulationError(f"no member with role {role.value}")

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
            tx_id=tx.tx_id.hex(),
            channel=tx.channel.value,
            function=tx.function.value,
            submitter=submitter,
            submit_ms=submit_ms,
            admit_ms=now,
            size_bytes=len(tx.canonical_body()),
        )
        self._lifecycles[tx.tx_id] = lc
        self._lifecycle_order.append(tx.tx_id)
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
        for tx in block.transactions:
            lc = self._lifecycles.get(tx.tx_id)
            if lc is not None:
                lc.cut_ms = now
                lc.commits[self.osp_name] = now
        for name, node in self.nodes.items():
            if name == self.osp_name:
                continue
            if not node.is_live:
                self.undelivered.append(
                    {"node": name, "channel": channel.value, "block": block.header.number, "reason": "crashed"}
                )
                continue
            if self._net_rng.random() < self.config.network.drop_for(name):
                self.undelivered.append(
                    {"node": name, "channel": channel.value, "block": block.header.number, "reason": "dropped"}
                )
                continue
            delay = self._latency()
            self.delay_trace.append(
                {"node": name, "channel": channel.value, "block": block.header.number, "delay_ms": delay}
            )
            self._schedule(now + delay, self._peer_receive, name, channel, block)

    def _peer_receive(self, name: str, channel: Channel, block: Block) -> None:
        node = self.nodes[name]
        if not node.is_live:
            self.undelivered.append(
                {"node": name, "channel": channel.value, "block": block.header.number, "reason": "crashed"}
            )
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
        now = self.clock.now_ms
        for tx in block.transactions:
            lc = self._lifecycles.get(tx.tx_id)
            if lc is not None and name not in lc.commits:
                lc.commits[name] = now

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

    def inject_fault(self, name: str, at_ms: int) -> None:
        """Schedule a crash during the run (the config's faults do the same)."""
        if name not in self.nodes:
            raise SimulationError("unknown-node")
        self._schedule(at_ms, self._crash_event, name)

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

    def assert_convergence(self) -> ConvergenceResult:
        """Compare (GCCF head, GPF head, world-state digest) across live nodes."""
        summaries: Dict[str, Tuple[bytes, bytes, bytes]] = {}
        for name, node in self.nodes.items():
            if node.is_live:
                summaries[name] = (
                    node.head(Channel.GCCF),
                    node.head(Channel.GPF),
                    node.world_state_digest(),
                )
        if not summaries:
            return ConvergenceResult(ok=False, divergent=tuple(self.nodes))
        tallies: Dict[Tuple[bytes, bytes, bytes], int] = {}
        for summary in summaries.values():
            tallies[summary] = tallies.get(summary, 0) + 1
        majority = max(tallies.items(), key=lambda kv: (kv[1], kv[0]))[0]
        divergent = tuple(name for name, summary in summaries.items() if summary != majority)
        return ConvergenceResult(ok=not divergent, divergent=divergent)

    def _build_report(self) -> SimulationReport:
        convergence = self.assert_convergence()
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
                committed={ch.value: count for ch, count in node.committed_txs.items()},
                world_state_digest=node.world_state_digest().hex(),
            )
            for name, node in self.nodes.items()
        ]
        lifecycles = [self._lifecycles[tx_id] for tx_id in self._lifecycle_order]
        ledger_sizes = {
            Channel.GCCF.value: len(encode_chain(osp_node.ledger(Channel.GCCF).blocks)),
            Channel.GPF.value: len(encode_chain(osp_node.ledger(Channel.GPF).blocks)),
        }
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
        """Write the sequencer's chains as ledger files; returns the paths."""
        import pathlib

        out = {}
        base = pathlib.Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        for channel, filename in ((Channel.GCCF, "gccf.chain"), (Channel.GPF, "gpf.chain")):
            path = base / filename
            path.write_bytes(encode_chain(self.nodes[self.osp_name].ledger(channel).blocks))
            out[channel.value] = str(path)
        return out


def run_scenario(config: ScenarioConfig) -> SimulationReport:
    return Simulation(config).run()


def inject_fault(sim: Simulation, node_id: str, at_ms: int) -> None:
    sim.inject_fault(node_id, at_ms)


def sync_node(sim: Simulation, node_id: str) -> int:
    return sim.sync_node(node_id)


def assert_convergence(sim: Simulation) -> ConvergenceResult:
    return sim.assert_convergence()
