"""Policy-file contract for the GPF channel.

Policies are per-entity rules with an alive/death status.  Only the policy
generator's committed certificate may write them; every other authority has
read access.  Death records are appended states, never deletions, so the
full lifecycle of a rule stays auditable in the blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Union

from . import wire
from .ballot import DEFAULT_BALLOT_QUORUM
from .gccf import ContractRejection, GccfView, holds_role
from .identity import AuthorityRole, CertificateRecord, KeyPair
from .ledger import Channel, StateEntry, Transaction, TxFunction, make_transaction

Scalar = Union[int, str, bool]

# The rules the rest of the system reads, by their short name in a config's
# "policies" section: ((entity, rule name), the body key that holds the
# value, the value used while the rule is absent or dead).
KNOWN_RULES = {
    "ballot_quorum": (("Elector", "ballot_quorum"), "min_endorsements", DEFAULT_BALLOT_QUORUM),
    "block_max_txs": (("OSP", "block_max_txs"), "value", 10),
    "block_timeout_ms": (("OSP", "block_timeout_ms"), "value", 500),
}
RULE_BALLOT_QUORUM = KNOWN_RULES["ballot_quorum"][0]


class PolicyStatus(str, Enum):
    ALIVE = "alive"
    DEATH = "death"


@dataclass(frozen=True)
class PolicyRecord:
    entity: str
    rule_name: str
    rule_body: Dict[str, Scalar]
    status: PolicyStatus
    updated_block: Optional[int] = None

    def __post_init__(self):
        if not self.entity:
            raise ValueError("policy entity must be non-empty")
        if not self.rule_name:
            raise ValueError("policy rule name must be non-empty")
        if not is_rule_body(self.rule_body):
            raise ValueError("policy rule body must map names to scalars")

    def to_json(self) -> dict:
        return {
            "entity": self.entity,
            "rule_name": self.rule_name,
            "rule_body": dict(self.rule_body),
            "status": self.status.value,
        }


def is_rule_body(body) -> bool:
    """True iff body can be a rule's body: a dict from strings to scalars."""
    return isinstance(body, dict) and all(
        isinstance(key, str) and isinstance(value, (int, str, bool)) for key, value in body.items()
    )


def policy_key(entity: str, rule_name: str) -> str:
    return f"policy/{entity}/{rule_name}"


def encode_policy(record: PolicyRecord) -> bytes:
    body = json.dumps(record.rule_body, sort_keys=True, separators=(",", ":"))
    return (
        wire.field(record.entity.encode("utf-8"))
        + wire.field(record.rule_name.encode("utf-8"))
        + wire.field(body.encode("utf-8"))
        + wire.field(record.status.value.encode("utf-8"))
    )


def decode_policy(data: bytes, updated_block: Optional[int] = None) -> PolicyRecord:
    """The record data encodes; malformed-rule for any payload that is not one.

    A body nested too deep for json.loads raises RecursionError: the PG signs
    its payloads, and a payload alone must not crash admission or a peer.
    """
    r = wire.Reader(data)
    try:
        entity = r.str_field()
        rule_name = r.str_field()
        body = json.loads(r.str_field())
        status = PolicyStatus(r.str_field())
        r.expect_end()
        return PolicyRecord(
            entity=entity, rule_name=rule_name, rule_body=body, status=status, updated_block=updated_block
        )
    except (ValueError, RecursionError) as exc:  # a WireError is a ValueError
        raise ContractRejection("malformed-rule") from exc


class GpfView:
    """Contract state of the policy channel for one node.

    Reads and writes the world state it is given: on a node, the channel
    ledger's own store.
    """

    def __init__(self, world: Optional[Dict[str, StateEntry]] = None):
        self.world: Dict[str, StateEntry] = {} if world is None else world

    def copy(self) -> "GpfView":
        """An independent view over a copy of the store."""
        return GpfView(dict(self.world))

    def entry(self, key: str) -> Optional[StateEntry]:
        return self.world.get(key)


def apply_tx(view: GpfView, gccf_view: GccfView, tx: Transaction, *, block_number: int) -> None:
    """Check one committed transaction, then write its entry: the channel's only state write.

    Only the PG may write, and only the genesis the ballot quorum, so the PG
    alone cannot change how many electors govern the roots.  An AddPolicy
    carries a rule with status alive; a RevokePolicy flips an existing rule
    to status death (a new appended state).
    """
    if tx.function not in (TxFunction.ADD_POLICY, TxFunction.REVOKE_POLICY):
        raise ContractRejection("wrong-channel")
    if not holds_role(gccf_view, tx.submitter_cert, AuthorityRole.PG):
        raise ContractRejection("not-PG")
    record = tx.decoded(decode_policy)
    status = PolicyStatus.ALIVE if tx.function == TxFunction.ADD_POLICY else PolicyStatus.DEATH
    if record.status != status or tx.key != policy_key(record.entity, record.rule_name):
        raise ContractRejection("malformed-rule")
    if block_number > 0 and tx.key == policy_key(*RULE_BALLOT_QUORUM):
        raise ContractRejection("genesis-rule")
    if status == PolicyStatus.DEATH and view.entry(tx.key) is None:
        raise ContractRejection("unknown-rule")
    view.world[tx.key] = tx.state_entry(block_number)


def get_rule(view: GpfView, entity: str, rule_name: str) -> Optional[PolicyRecord]:
    """Latest committed record for the rule, or None if never written.

    A returned record with status death means the rule is not in force.
    It is decoded afresh, so the caller may change it; the record the
    entry shares with its transaction never leaves this module.
    """
    entry = view.entry(policy_key(entity, rule_name))
    if entry is None:
        return None
    return decode_policy(entry.payload, updated_block=entry.block_number)


def rule_value(view: GpfView, entity: str, rule_name: str, body_key: str, default: Scalar) -> Scalar:
    entry = view.entry(policy_key(entity, rule_name))
    if entry is None:
        return default
    record = entry.decoded(decode_policy)
    if record.status != PolicyStatus.ALIVE:
        return default
    value = record.rule_body.get(body_key, default)
    return value if isinstance(value, (int, str, bool)) else default


def _known_rule(view: GpfView, short_name: str) -> int:
    """The rule's committed value as an integer; its default while the rule
    is absent or dead, or while its value is one that int() refuses."""
    (entity, rule_name), body_key, default = KNOWN_RULES[short_name]
    try:
        return int(rule_value(view, entity, rule_name, body_key, default))
    except ValueError:
        return default


def count_rule(short_name: str, value: int) -> int:
    """A count rule's value as it is read: its default below 1."""
    return value if value >= 1 else KNOWN_RULES[short_name][2]


def ballot_quorum(view: GpfView) -> int:
    """The genesis quorum, which GccfView.quorum holds; its default below 1,
    where a ballot with no endorsement would pass."""
    return count_rule("ballot_quorum", _known_rule(view, "ballot_quorum"))


def block_max_txs(view: GpfView) -> int:
    """The committed size threshold; its default below 1, where a cut would
    be a block of no transactions, which every peer refuses."""
    return count_rule("block_max_txs", _known_rule(view, "block_max_txs"))


def block_timeout_ms(view: GpfView) -> int:
    return _known_rule(view, "block_timeout_ms")


def make_policy_tx(
    record: PolicyRecord,
    pg_cert: CertificateRecord,
    pg_key: KeyPair,
    submit_time_ms: int,
) -> Transaction:
    function = TxFunction.ADD_POLICY if record.status == PolicyStatus.ALIVE else TxFunction.REVOKE_POLICY
    return make_transaction(
        channel=Channel.GPF,
        function=function,
        key=policy_key(record.entity, record.rule_name),
        payload=encode_policy(record),
        submitter_cert=pg_cert,
        submitter_key=pg_key,
        submit_time_ms=submit_time_ms,
    )


def death_record(view: GpfView, entity: str, rule_name: str) -> PolicyRecord:
    """The death record for a rule, carrying over its current body; make_policy_tx signs it as a RevokePolicy."""
    current = get_rule(view, entity, rule_name)
    body = dict(current.rule_body) if current is not None else {}
    return PolicyRecord(entity=entity, rule_name=rule_name, rule_body=body, status=PolicyStatus.DEATH)
