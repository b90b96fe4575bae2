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
from .gccf import ContractRejection, GccfView, holds_role
from .identity import AuthorityRole, CertificateRecord, KeyPair
from .ledger import Channel, StateEntry, Transaction, TxFunction, make_transaction

Scalar = Union[int, str, bool]

# Rule names the rest of the system reads, with their fallback values when
# the rule is absent or dead.
RULE_BALLOT_QUORUM = ("Elector", "ballot_quorum")
RULE_BLOCK_MAX_TXS = ("OSP", "block_max_txs")
RULE_BLOCK_TIMEOUT_MS = ("OSP", "block_timeout_ms")
DEFAULT_RULES = {
    RULE_BALLOT_QUORUM: 2,
    RULE_BLOCK_MAX_TXS: 10,
    RULE_BLOCK_TIMEOUT_MS: 500,
}


class NotPG(ContractRejection):
    """The submitter is not the committed, unrevoked policy generator."""

    def __init__(self):
        super().__init__("not-PG")


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
        if not self.entity or not self.rule_name:
            raise ContractRejection("malformed-rule")
        for key, value in self.rule_body.items():
            if not isinstance(key, str) or not isinstance(value, (int, str, bool)):
                raise ContractRejection("malformed-rule")

    def to_json(self) -> dict:
        return {
            "entity": self.entity,
            "rule_name": self.rule_name,
            "rule_body": dict(self.rule_body),
            "status": self.status.value,
        }


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
    r = wire.Reader(data)
    try:
        entity = r.str_field()
        rule_name = r.str_field()
        body = json.loads(r.str_field())
        status = PolicyStatus(r.str_field())
        r.expect_end()
    except (wire.WireError, ValueError) as exc:
        raise ContractRejection("malformed-rule") from exc
    if not isinstance(body, dict):
        raise ContractRejection("malformed-rule")
    return PolicyRecord(
        entity=entity, rule_name=rule_name, rule_body=body, status=status, updated_block=updated_block
    )


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


def _require_pg(gccf_view: GccfView, submitter: CertificateRecord) -> None:
    if not holds_role(gccf_view, submitter, AuthorityRole.PG):
        raise NotPG()


def add_policy(gccf_view: GccfView, tx: Transaction) -> None:
    """Check a rule with status alive; only the PG may write."""
    _require_pg(gccf_view, tx.submitter_cert)
    record = tx.decoded(decode_policy)
    if record.status != PolicyStatus.ALIVE:
        raise ContractRejection("malformed-rule")
    if tx.key != policy_key(record.entity, record.rule_name):
        raise ContractRejection("malformed-rule")


def revoke_policy(view: GpfView, gccf_view: GccfView, tx: Transaction) -> None:
    """Check the flip of an existing rule to status death (a new appended state)."""
    _require_pg(gccf_view, tx.submitter_cert)
    record = tx.decoded(decode_policy)
    if record.status != PolicyStatus.DEATH:
        raise ContractRejection("malformed-rule")
    if tx.key != policy_key(record.entity, record.rule_name):
        raise ContractRejection("malformed-rule")
    if view.entry(tx.key) is None:
        raise ContractRejection("unknown-rule")


def apply_tx(view: GpfView, gccf_view: GccfView, tx: Transaction, *, block_number: int) -> None:
    """Check one committed transaction, then write its entry: the channel's only state write."""
    if tx.channel != Channel.GPF:
        raise ContractRejection("wrong-channel")
    if tx.function == TxFunction.ADD_POLICY:
        add_policy(gccf_view, tx)
    elif tx.function == TxFunction.REVOKE_POLICY:
        revoke_policy(view, gccf_view, tx)
    else:
        raise ContractRejection("wrong-channel")
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


def ballot_quorum(view: GpfView) -> int:
    value = rule_value(view, *RULE_BALLOT_QUORUM, "min_endorsements", DEFAULT_RULES[RULE_BALLOT_QUORUM])
    return int(value)


def block_max_txs(view: GpfView) -> int:
    return int(rule_value(view, *RULE_BLOCK_MAX_TXS, "value", DEFAULT_RULES[RULE_BLOCK_MAX_TXS]))


def block_timeout_ms(view: GpfView) -> int:
    return int(rule_value(view, *RULE_BLOCK_TIMEOUT_MS, "value", DEFAULT_RULES[RULE_BLOCK_TIMEOUT_MS]))


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


def make_revoke_policy_tx(
    view: GpfView,
    entity: str,
    rule_name: str,
    pg_cert: CertificateRecord,
    pg_key: KeyPair,
    submit_time_ms: int,
) -> Transaction:
    """Build the death record for a rule, carrying over its current body."""
    current = get_rule(view, entity, rule_name)
    body = dict(current.rule_body) if current is not None else {}
    record = PolicyRecord(entity=entity, rule_name=rule_name, rule_body=body, status=PolicyStatus.DEATH)
    return make_policy_tx(record, pg_cert, pg_key, submit_time_ms)
