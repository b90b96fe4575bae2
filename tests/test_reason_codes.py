"""The contract reason codes that only a crafted transaction reaches.

Each row builds one transaction that a member signs but its contract
refuses.  The sequencer's admission must reject it with the documented code
(README "Rejection reasons"), and a block the ordering service cuts around
it must be refused by a node's commit, the check every peer runs, with the
same code, and leave the node's world state as it was.  Every code the
sources pass must be listed in README "Rejection reasons".
"""

import ast
import pathlib
import re
from dataclasses import replace

import pytest

import bbtm
from bbtm import gccf, wire
from bbtm.ballot import (
    Endorsement,
    EndorsementType,
    apply_ballot,
    ballot_key,
    create_endorsement,
    encode_endorsement,
    make_endorsement_tx,
    tally_ballot,
)
from bbtm.deployment import build_deployment, derive_bytes, derive_identity, expand_node_counts, genesis_node
from bbtm.gpf import PolicyRecord, PolicyStatus, encode_policy, policy_key
from bbtm.identity import CertFunction, canonical_encode, decode_certificate, resign_as, sha256
from bbtm.ledger import ZERO_HASH, Channel, TxFunction, make_block, make_transaction
from bbtm.node import BlockRefused, Node
from bbtm.ordering import OrderingService, Rejected

MEMBERS = [("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1)]


class World:
    """A deployment's sequencer with every member's record committed: the genesis, then ICA-1 and RA-1."""

    def __init__(self):
        self.dep = build_deployment(31, expand_node_counts(MEMBERS), {"ballot_quorum": 2})
        self.node = genesis_node(self.dep, self.dep.osp.cert)
        self.service = OrderingService(self.dep.consortium, self.dep.osp, self.node)
        for ident in self.dep.members_missing_from_genesis():
            issuer = next(i for i in self.dep.identities.values() if i.unique_id == ident.cert.issuer_unique_id)
            self.commit(gccf.make_add_cert_tx(ident.cert, issuer.cert, issuer.key, 0))

    def __getitem__(self, name):
        return self.dep.identity(name)

    def commit(self, tx):
        self.service.submit_tx(tx, now_ms=0)
        self.service.commit_own(tx.channel, self.service.cut_block(tx.channel, now_ms=0, force=True))

    def mint(self, name, issuer):
        """name's identity, with its deployment key and unique id, under a serial no member holds."""
        serial = derive_bytes(self.dep.seed, f"reason-code-serial:{name}", 16)
        return derive_identity(self.dep.seed, name, issuer, validity=self.dep.validity, serial=serial, now_s=0)

    def endorse(self, elector, etype, target):
        e = self[elector]
        endorsement = create_endorsement(e.key, e.cert, etype, target, self.node.gccf_view)
        return make_endorsement_tx(endorsement, target.serial_number, e.cert, e.key, 0)


def _tx(channel, function, key, payload, submitter):
    return make_transaction(channel, function, key, payload, submitter.cert, submitter.key, 0)


def _endorsement(elector, etype, target, *, signature=None):
    """elector's vote on target, signed by its key unless signature is given."""
    unsigned = Endorsement(etype, sha256(canonical_encode(target)), elector.unique_id, b"")
    return replace(unsigned, elector_signature=signature or elector.key.sign(unsigned.signing_bytes()))


# ------------------------------------------------------------ certificate additions


def addition_tagged_as_revocation(w):
    ica = w["ICA-1"]
    cert = replace(w.mint("PCA-5", ica).cert, function_type=CertFunction.REVOKE)
    return _tx(Channel.GCCF, TxFunction.ADD_CERT, cert.state_key, canonical_encode(cert), ica)


def subject_named_for_no_role(w):
    ica = w["ICA-1"]
    return gccf.make_add_cert_tx(w.mint("roadside", ica).cert, ica.cert, ica.key, 0)


def root_submitted_by_a_root(w):
    rca = w["RCA-1"]
    return gccf.make_add_cert_tx(w.mint("RCA-2", None).cert, rca.cert, rca.key, 0)


def accepted_root_with_a_forged_signature(w):
    forged = replace(w.mint("RCA-2", None).cert, digital_signature=bytes(64))
    for elector in ("Elector-1", "Elector-2"):
        w.commit(w.endorse(elector, EndorsementType.ADD_ROOT, forged))
    e = w["Elector-1"]
    return gccf.make_add_cert_tx(forged, e.cert, e.key, 0)


def issuer_carrying_another_record(w):
    # The issuer's own key and unique id, under a record the chain does not hold.
    ica = w["ICA-1"]
    reissued = w.mint("ICA-1", w["RCA-1"])
    return gccf.make_add_cert_tx(w.mint("PCA-5", ica).cert, reissued.cert, ica.key, 0)


# ---------------------------------------------------------- certificate revocations


def revocation_tagged_as_addition(w):
    ra = w["RA-1"].cert
    return _tx(Channel.GCCF, TxFunction.REVOKE_CERT, ra.state_key, canonical_encode(ra), w["PG-1"])


def revocation_of_another_serial(w):
    pg = w["PG-1"]
    return gccf.make_revoke_cert_tx(w.mint("RA-1", w["ICA-1"]).cert, pg.cert, pg.key, 0)


def root_revocation_without_a_ballot(w):
    e = w["Elector-1"]
    return gccf.make_revoke_cert_tx(w["RCA-1"].cert, e.cert, e.key, 0)


def revocation_signed_by_another(w):
    retagged = resign_as(w["RA-1"].cert, CertFunction.REVOKE, w["ICA-1"].key)
    return _tx(Channel.GCCF, TxFunction.REVOKE_CERT, retagged.state_key, canonical_encode(retagged), w["PG-1"])


# ------------------------------------------------------------------- endorsements


def undecodable_endorsement(w):
    key = ballot_key(EndorsementType.REVOKE_ROOT, w["RCA-1"].cert.serial_number)
    return _tx(Channel.GCCF, TxFunction.BALLOT_ENDORSE, key, b"not an endorsement", w["Elector-1"])


def endorsement_submitted_by_the_pg(w):
    pg, rca = w["PG-1"], w["RCA-1"].cert
    endorsement = _endorsement(w["Elector-1"], EndorsementType.REVOKE_ROOT, rca)
    return make_endorsement_tx(endorsement, rca.serial_number, pg.cert, pg.key, 0)


def endorsement_by_a_revoked_elector(w):
    target = w["Elector-3"].cert
    for elector in ("Elector-1", "Elector-2"):
        w.commit(w.endorse(elector, EndorsementType.REVOKE_ELECTOR, target))
    e1, view = w["Elector-1"], w.node.gccf_view
    tally = tally_ballot(view, EndorsementType.REVOKE_ELECTOR, sha256(canonical_encode(target)))
    revocation = apply_ballot(view, tally, e1.cert, e1.key, 0)
    w.commit(revocation)
    # Elector-3 carries its record as the chain now holds it: revoked.
    e3, rca = w["Elector-3"], w["RCA-1"].cert
    endorsement = _endorsement(e3, EndorsementType.REVOKE_ROOT, rca)
    return make_endorsement_tx(endorsement, rca.serial_number, revocation.decoded(decode_certificate), e3.key, 0)


def endorsement_with_a_forged_vote(w):
    e, rca = w["Elector-1"], w["RCA-1"].cert
    endorsement = _endorsement(e, EndorsementType.REVOKE_ROOT, rca, signature=bytes(64))
    return make_endorsement_tx(endorsement, rca.serial_number, e.cert, e.key, 0)


def endorsement_under_another_type(w):
    e, rca = w["Elector-1"], w["RCA-1"].cert
    endorsement = _endorsement(e, EndorsementType.REVOKE_ROOT, rca)
    key = ballot_key(EndorsementType.REVOKE_ELECTOR, rca.serial_number)
    return _tx(Channel.GCCF, TxFunction.BALLOT_ENDORSE, key, encode_endorsement(endorsement), e)


# ------------------------------------------------------- validations and channels


def validation_under_another_serial(w):
    return _tx(Channel.GCCF, TxFunction.VALIDATE_CERT, gccf.validate_key(bytes(16)),
               canonical_encode(w["RA-1"].cert), w["RA-1"])


def _rule(status=PolicyStatus.ALIVE):
    return PolicyRecord(entity="RA", rule_name="r0", rule_body={"value": 1}, status=status)


def policy_function_on_the_certificate_channel(w):
    return _tx(Channel.GCCF, TxFunction.ADD_POLICY, policy_key("RA", "r0"), encode_policy(_rule()), w["PG-1"])


def certificate_function_on_the_policy_channel(w):
    pg = w["PG-1"].cert
    return _tx(Channel.GPF, TxFunction.ADD_CERT, pg.state_key, canonical_encode(pg), w["PG-1"])


def rule_body_that_is_no_object(w):
    payload = b"".join(wire.field(part) for part in (b"RA", b"r0", b"[1]", PolicyStatus.ALIVE.value.encode()))
    return _tx(Channel.GPF, TxFunction.ADD_POLICY, policy_key("RA", "r0"), payload, w["PG-1"])


def rule_body_nested_too_deep_to_parse(w):
    # The policy generator is the authority the ledger distrusts: a body
    # json.loads cannot parse without overflowing its recursion is malformed.
    payload = b"".join(wire.field(part) for part in (b"RA", b"r0", b"[" * 100_000, PolicyStatus.ALIVE.value.encode()))
    return _tx(Channel.GPF, TxFunction.ADD_POLICY, policy_key("RA", "r0"), payload, w["PG-1"])


def death_record_under_an_addition(w):
    payload = encode_policy(_rule(PolicyStatus.DEATH))
    return _tx(Channel.GPF, TxFunction.ADD_POLICY, policy_key("RA", "r0"), payload, w["PG-1"])


CASES = [
    (addition_tagged_as_revocation, "bad-signature"),
    (subject_named_for_no_role, "role-violation"),
    (root_submitted_by_a_root, "role-violation"),
    (accepted_root_with_a_forged_signature, "bad-signature"),
    (issuer_carrying_another_record, "bad-signature"),
    (revocation_tagged_as_addition, "unknown-target"),
    (revocation_of_another_serial, "unknown-target"),
    (root_revocation_without_a_ballot, "not-PG"),
    (revocation_signed_by_another, "not-PG"),
    (undecodable_endorsement, "bad-endorsement"),
    (endorsement_submitted_by_the_pg, "not-elector"),
    (endorsement_by_a_revoked_elector, "revoked-elector"),
    (endorsement_with_a_forged_vote, "bad-endorsement"),
    (endorsement_under_another_type, "bad-endorsement"),
    (validation_under_another_serial, "bad-payload"),
    (policy_function_on_the_certificate_channel, "wrong-channel"),
    (certificate_function_on_the_policy_channel, "wrong-channel"),
    (rule_body_that_is_no_object, "malformed-rule"),
    (rule_body_nested_too_deep_to_parse, "malformed-rule"),
    (death_record_under_an_addition, "malformed-rule"),
]


@pytest.mark.parametrize("build, reason", CASES, ids=[build.__name__ for build, _reason in CASES])
def test_admission_and_a_peer_commit_refuse_with_the_documented_code(build, reason):
    w = World()
    tx = build(w)
    with pytest.raises(Rejected) as rejected:
        w.service.submit_tx(tx, now_ms=0)
    assert rejected.value.reason == reason
    ledger = w.node.ledger(tx.channel)
    heights = {channel: w.node.ledger(channel).height for channel in Channel}
    digest = w.node.world_state_digest()
    block = make_block(ledger.height, ledger.head_hash(), [tx], w.dep.osp.cert, w.dep.osp.key)
    with pytest.raises(BlockRefused) as refused:
        w.node.commit_block(tx.channel, block)
    assert refused.value.reason == reason
    assert {channel: w.node.ledger(channel).height for channel in Channel} == heights
    assert w.node.world_state_digest() == digest


def test_a_genesis_root_submitted_by_another_is_refused():
    # Only a genesis block can carry it: admission always checks against a later block number.
    dep = build_deployment(31, expand_node_counts(MEMBERS), {"ballot_quorum": 2})
    rca = dep.identity("RCA-1")
    rca2 = derive_identity(dep.seed, "RCA-2", None, validity=dep.validity, serial=bytes(16), now_s=0)
    txs = [*dep.genesis.gccf_genesis.transactions, gccf.make_add_cert_tx(rca2.cert, rca.cert, rca.key, 0)]
    with pytest.raises(BlockRefused) as refused:
        Node(dep.osp.cert).commit_block(Channel.GCCF, make_block(0, ZERO_HASH, txs, dep.osp.cert, dep.osp.key))
    assert refused.value.reason == "role-violation"


# The calls that carry a reason code, and the position of the code among their arguments.
CODE_ARGUMENT = {"ContractRejection": 0, "Rejected": 0, "BallotError": 0, "_decoded_cert": 1, "_reject": 3}


def _source_codes():
    """Each reason code the sources pass as a literal to a call of CODE_ARGUMENT, with where it is passed.

    A literal with a space in it is a message, not a code (a malformed
    endorsement's field sizes)."""
    codes = {}
    for path in sorted(pathlib.Path(bbtm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            position = CODE_ARGUMENT.get(name)
            if position is None or len(node.args) <= position:
                continue
            arg = node.args[position]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and " " not in arg.value:
                codes.setdefault(arg.value, f"{path.name}:{node.lineno}")
    return codes


def test_every_reason_code_is_documented():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = re.search(r"^## Rejection reasons\n(.*?)^## ", readme, re.S | re.M).group(1)
    codes = _source_codes()
    # The scan finds each kind of call: a sequencer, a contract, a ballot builder and a simulator code.
    assert {"duplicate-tx", "not-PG", "not-accepted", "osp-unavailable"} <= set(codes)
    undocumented = {code: where for code, where in codes.items() if f"`{code}`" not in section}
    assert undocumented == {}
