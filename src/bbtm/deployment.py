"""Deterministic consortium construction.

From a seed and a member list this derives every key, unique id, serial,
and certificate, builds the consortium configuration and the three genesis
blocks, and hands back the full credential set.  Identical inputs always
produce byte-identical genesis material, which is what makes simulation
runs and golden-digest tests exact.  It also owns the chain files of a
deployment directory and the checkpoint written beside them.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .gccf import BALLOT_GOVERNED, ISSUANCE_MATRIX, make_add_cert_tx
from .gpf import KNOWN_RULES, PolicyRecord, PolicyStatus, make_policy_tx
from .identity import (
    AuthorityRole,
    Identity,
    Subject,
    UID_LEN,
    dump_json,
    generate_keypair,
    issue_certificate,
    role_of_name,
    sha256,
    write_all_atomic,
)
from .ledger import Block, Channel, Transaction, blocks_within, encode_chain
from .ordering import ConsortiumConfig, GenesisBundle, Member, create_genesis

DEFAULT_NOT_BEFORE = 0
DEFAULT_NOT_AFTER = 10_000_000_000  # far beyond any simulated horizon

# The ledger files of a deployment directory, and of a simulator export.
CHAIN_FILES = {Channel.GCCF: "gccf.chain", Channel.GPF: "gpf.chain"}
# Beside them: per channel, the length and SHA-256 of a chain file prefix
# that this program verified in full when it wrote it (FORMAT.md "Checkpoint").
CHECKPOINT_FILE = "checkpoint.json"


def write_chains(directory: pathlib.Path, chains: Dict[Channel, Iterable[Block]]) -> None:
    """Write the chain files and the checkpoint that vouches for them, all or none.

    Pass only chains whose every block a node has committed: a later load
    skips the Ed25519 checks on the bytes written here.
    """
    images = {channel: encode_chain(blocks) for channel, blocks in chains.items()}
    checkpoint = {
        channel.value: {"bytes": len(data), "sha256": sha256(data).hex()} for channel, data in images.items()
    }
    files = [(directory / CHAIN_FILES[channel], data) for channel, data in images.items()]
    write_all_atomic(files + [(directory / CHECKPOINT_FILE, dump_json(checkpoint))])


def read_checkpoint(directory: pathlib.Path) -> dict:
    """The checkpoint written beside the chain files; {} if it is missing or not a JSON object."""
    try:
        checkpoint = json.loads((directory / CHECKPOINT_FILE).read_bytes())
    except (OSError, ValueError, RecursionError):  # RecursionError: nesting too deep to parse
        return {}
    return checkpoint if isinstance(checkpoint, dict) else {}


def verified_block_count(data: bytes, entry) -> int:
    """How many leading blocks of chain file image data lie wholly in the prefix entry vouches for.

    entry is a channel's checkpoint entry; unless it names a length of at
    most len(data) and the SHA-256 of data's first that many bytes, no block
    is vouched for.
    """
    if not isinstance(entry, dict):
        return 0
    length, digest = entry.get("bytes"), entry.get("sha256")
    if type(length) is not int or not 0 <= length <= len(data) or sha256(data[:length]).hex() != digest:
        return 0
    return blocks_within(data, length)


# Issuer role of each member role the two certifying authorities issue: the
# issuance matrix read from subject to issuer.  Every other member (electors,
# roots, the ordering service, end entities) is self-signed.
ISSUED_BY = {
    subject: issuer
    for issuer in (AuthorityRole.RCA, AuthorityRole.ICA)
    for subject in ISSUANCE_MATRIX[issuer]
}


def derive_bytes(seed: int, label: str, n: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(f"{seed}:{label}:{counter}".encode("utf-8")).digest()
        counter += 1
    return out[:n]


def derive_rng(seed: int, label: str) -> Random:
    return Random(int.from_bytes(derive_bytes(seed, label, 8), "big"))


@dataclass
class Deployment:
    seed: int
    consortium: ConsortiumConfig
    identities: Dict[str, Identity]
    osp: Identity
    genesis: GenesisBundle
    gccf_bootstrap_names: Tuple[str, ...]
    validity: Tuple[int, int]
    deferred: frozenset = frozenset()

    def identity(self, name: str) -> Identity:
        return self.identities[name]

    def members_missing_from_genesis(self) -> List[Identity]:
        """Members whose records must still be committed through the chain.

        Deferred members are excluded: their records only enter via ballots.
        """
        return [
            ident
            for name, ident in self.identities.items()
            if ident.role in ISSUED_BY and name not in self.gccf_bootstrap_names and name not in self.deferred
        ]


def expand_node_counts(node_counts: Sequence[Tuple[str, int]]) -> List[Tuple[AuthorityRole, str]]:
    """Turn [(role, count), ...] into named members Role-1..Role-n."""
    members = []
    for role_name, count in node_counts:
        role = AuthorityRole(role_name)
        for i in range(1, count + 1):
            members.append((role, f"{role.value}-{i}"))
    return members


def derive_identity(
    seed: int,
    name: str,
    issuer: Optional[Identity],
    *,
    validity: Tuple[int, int],
    serial: bytes,
    now_s: float,
    role: Optional[AuthorityRole] = None,
) -> Identity:
    """Mint ``name``: its key and unique id depend only on the seed and the name.

    Self-signed when ``issuer`` is None; ``role`` defaults to the name's prefix.
    """
    key = generate_keypair(derive_bytes(seed, f"key:{name}", 32))
    uid = derive_bytes(seed, f"uid:{name}", UID_LEN)
    not_before, not_after = validity
    subject = Subject(name=name, public_key=key.public_key, unique_id=uid, not_before=not_before, not_after=not_after)
    signer_key, signer_cert = (issuer.key, issuer.cert) if issuer else (key, None)
    cert = issue_certificate(signer_key, signer_cert, subject, now_s=now_s, serial=serial)
    return Identity(name=name, role=role if role is not None else role_of_name(name), key=key, cert=cert)


def build_deployment(
    seed: int,
    members: Sequence[Tuple[AuthorityRole, str]],
    policies: Optional[Dict[str, int]] = None,
    *,
    validity: Tuple[int, int] = (DEFAULT_NOT_BEFORE, DEFAULT_NOT_AFTER),
    defer_bootstrap: frozenset = frozenset(),
) -> Deployment:
    """Derive the whole consortium from the seed and the member list.

    The certificate-channel genesis commits the elector set, the root, and
    the PG; the policy-channel genesis commits the configured rules.  Every
    other member's record is pre-built here (signed by its proper issuer)
    but committed later through ordinary transactions.
    """
    member_list = list(members)
    # Every later block is cut by the one ordering service.  Checked before
    # the names, so two OSP entries get this message and not the vaguer one.
    osp_names = [name for role, name in member_list if role == AuthorityRole.OSP]
    if len(osp_names) != 1:
        raise ValueError("exactly one ordering service required")
    names = [name for _role, name in member_list]
    if len(set(names)) != len(names):
        raise ValueError("duplicate member names")
    serial_rng = derive_rng(seed, "serials")

    def make_identity(role: AuthorityRole, name: str, issuer: Optional[Identity]) -> Identity:
        return derive_identity(
            seed, name, issuer, validity=validity, serial=serial_rng.randbytes(16),
            now_s=validity[0], role=role,
        )

    identities: Dict[str, Identity] = {}
    osp = make_identity(AuthorityRole.OSP, osp_names[0], None)

    by_role: Dict[AuthorityRole, List[Identity]] = {}
    # Two passes: self-signed and root-issued first, then the ICA-issued
    # leaf authorities, so every issuer exists before its subjects.
    deferred = []
    for role, name in member_list:
        if role == AuthorityRole.OSP:
            identities[name] = osp
            continue
        if role not in ISSUED_BY:
            ident = make_identity(role, name, None)
        elif ISSUED_BY[role] == AuthorityRole.RCA:
            rca = by_role.get(AuthorityRole.RCA)
            if not rca:
                raise ValueError(f"{name} requires a root CA member before it")
            ident = make_identity(role, name, rca[0])
        else:
            deferred.append((role, name))
            continue
        identities[name] = ident
        by_role.setdefault(role, []).append(ident)
    for role, name in deferred:
        issuer_role = ISSUED_BY[role]
        issuers = by_role.get(issuer_role, [])
        if not issuers:
            raise ValueError(f"{name} requires an {issuer_role.value} member")
        ident = make_identity(role, name, issuers[0])
        identities[name] = ident
        by_role.setdefault(role, []).append(ident)

    config = ConsortiumConfig(
        osp_cert=osp.cert,
        members=tuple(
            Member(name=i.name, role=i.role, cert=i.cert)
            for i in (identities[n] for n in names)
            if i.role != AuthorityRole.OSP
        ),
    )

    # Bootstrap, as (record, submitter): electors and roots self-submit their
    # records, then the first root submits the PGs'.  All at virtual time zero.
    bootstrapped = [identities[n] for n in names if n not in defer_bootstrap]
    rcas = [i for i in bootstrapped if i.role == AuthorityRole.RCA]
    bootstrap = [(i, i) for i in bootstrapped if i.role in BALLOT_GOVERNED]
    bootstrap += [(i, rcas[0]) for i in bootstrapped if i.role == AuthorityRole.PG and rcas]
    gccf_txs = [make_add_cert_tx(i.cert, submitter.cert, submitter.key, 0) for i, submitter in bootstrap]

    gpf_txs: List[Transaction] = []
    pgs = [identities[n] for n in names if identities[n].role == AuthorityRole.PG]
    if policies and pgs:
        pg = pgs[0]
        for rule, value in sorted(policies.items()):
            # A rule the system does not read is a consortium-wide value.
            (entity, rule_name), body_key, _default = KNOWN_RULES.get(rule, (("Consortium", rule), "value", None))
            record = PolicyRecord(
                entity=entity, rule_name=rule_name, rule_body={body_key: int(value)}, status=PolicyStatus.ALIVE
            )
            gpf_txs.append(make_policy_tx(record, pg.cert, pg.key, 0))

    genesis = create_genesis(config, gccf_txs, gpf_txs, osp.key)
    return Deployment(
        seed=seed,
        consortium=config,
        identities=identities,
        osp=osp,
        genesis=genesis,
        gccf_bootstrap_names=tuple(i.name for i, _submitter in bootstrap),
        validity=validity,
        deferred=frozenset(defer_bootstrap),
    )
