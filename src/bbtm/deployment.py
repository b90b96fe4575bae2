"""Deterministic consortium construction, and the deployment directory.

From a seed and a member list this derives every key, unique id, serial,
and certificate, builds the consortium configuration and the three genesis
blocks, and hands back the full credential set.  Identical inputs always
produce byte-identical genesis material, which is what makes simulation
runs and golden-digest tests exact.

It also owns every file of a deployment directory (FORMAT.md): it writes
one (``write_deployment``), loads one as a one-node network
(``load_deployment``), and writes its chain files together with the
world-state savepoint, keyed to their bytes, that lets the next load skip
the replay (``write_chains``).
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import itertools
import json
import os
import pathlib
import struct
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from . import wire
from .ballot import BallotError, decode_endorsement, encode_endorsement
from .gccf import BALLOT_GOVERNED, ISSUANCE_MATRIX, make_add_cert_tx
from .gpf import KNOWN_RULES, RULE_BALLOT_QUORUM, PolicyRecord, PolicyStatus, ballot_quorum, make_policy_tx, policy_key
from .identity import (
    AuthorityRole,
    CertificateRecord,
    Identity,
    KeyPair,
    SEED_LEN,
    SERIAL_LEN,
    Subject,
    UID_LEN,
    canonical_encode,
    cert_from_json,
    cert_to_json,
    dump_json,
    generate_keypair,
    issue_certificate,
    role_of_name,
    sha256,
    write_all_atomic,
)
from .ledger import (
    Block,
    Channel,
    LedgerError,
    StateEntry,
    Transaction,
    TxFunction,
    decode_chain,
)
from .node import BlockRefused, Node
from .ordering import ConsortiumConfig, GenesisBundle, OrderingService, Rejected, create_genesis

DEFAULT_NOT_BEFORE = 0
DEFAULT_NOT_AFTER = 10_000_000_000  # far beyond any simulated horizon

CONSORTIUM_FILE = "consortium.json"
KEYS_FILE = "keys.json"
SYSTEM_BLOCK_FILE = "system.block"
# The ledger files of a deployment directory, and of a simulator export.
CHAIN_FILES = {Channel.GCCF: "gccf.chain", Channel.GPF: "gpf.chain"}
# The committed state of the node that wrote the chain files, keyed to
# their SHA-256 digests (FORMAT.md "Savepoint").
SAVEPOINT_FILE = "state.bin"
SAVEPOINT_MAGIC = b"BBTS"
SAVEPOINT_FORMAT_VERSION = 3
# Each entry's function as one byte: its position here (FORMAT.md "Savepoint").
SAVEPOINT_FUNCTIONS = (
    TxFunction.ADD_CERT,
    TxFunction.REVOKE_CERT,
    TxFunction.VALIDATE_CERT,
    TxFunction.ADD_POLICY,
    TxFunction.REVOKE_POLICY,
    TxFunction.BALLOT_ENDORSE,
)
_FUNCTION_CODES = {function: code for code, function in enumerate(SAVEPOINT_FUNCTIONS)}
DIGEST_LEN = 32  # a SHA-256 digest
TX_ID_LEN = DIGEST_LEN


class CliError(Exception):
    """A failure a command reports: its message and its exit code (1 failure, 2 usage error)."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------- savepoint


def encode_savepoint(node: Node, images: Dict[Channel, bytes]) -> bytes:
    """The node's committed state over its chain file images: per channel the image's SHA-256, its
    chain facts and world state, then the GCCF indexes, then the SHA-256 of all that."""
    parts = [SAVEPOINT_MAGIC, bytes([SAVEPOINT_FORMAT_VERSION])]
    for channel in CHAIN_FILES:
        ledger = node.ledger(channel)
        world = ledger.world_state
        parts += [
            wire.field(channel.value.encode("utf-8")),
            wire.field(sha256(images[channel])),
            wire.field(wire.u64(ledger.height)),
            wire.field(ledger.head_hash()),
            wire.field(ledger.creator_cert_bytes),
            *_world_columns(world),
            wire.field(b"".join(sorted(ledger.tx_ids))),
        ]
    view = node.gccf_view
    parts.append(wire.field(b"".join(sorted(view.serials))))
    parts.append(wire.field(wire.u32(len(view.endorsement_log))))
    for number, endorsement in view.endorsement_log:
        parts += [wire.field(wire.u64(number)), wire.field(encode_endorsement(endorsement))]
    body = b"".join(parts)
    return body + sha256(body)


def _world_columns(world: Dict[str, StateEntry]) -> List[bytes]:
    """The framed entry count and six framed columns of a world state, one value per entry in key order."""
    keys = sorted(world)
    entries = [world[key] for key in keys]
    encoded = [key.encode("utf-8") for key in keys]
    payloads = [entry.payload for entry in entries]
    n = len(keys)
    columns = [
        struct.pack(f">{n}I", *map(len, encoded)),
        struct.pack(f">{n}I", *map(len, payloads)),
        struct.pack(f">{n}Q", *[entry.block_number for entry in entries]),
        bytes([_FUNCTION_CODES[entry.function] for entry in entries]),
        b"".join(encoded),
        b"".join(payloads),
    ]
    return [wire.field(wire.u32(n)), *map(wire.field, columns)]


def _read_world(r: wire.Reader) -> Dict[str, StateEntry]:
    """The world state _world_columns wrote, read column by column; ValueError if the columns disagree."""
    n = r.u32_field()
    key_lengths, payload_lengths = _numbers(r.field(), "I", n), _numbers(r.field(), "I", n)
    numbers, codes, keys, payloads = _numbers(r.field(), "Q", n), r.field(), r.field(), r.field()
    if len(codes) != n:
        raise ValueError(f"savepoint column of {len(codes)} function codes for {n} entries")
    try:
        functions = [SAVEPOINT_FUNCTIONS[code] for code in codes]
    except IndexError as exc:
        raise ValueError("unknown function code in savepoint") from exc
    names = [key.decode("utf-8") for key in _cut(keys, key_lengths)]
    return dict(zip(names, map(StateEntry, _cut(payloads, payload_lengths), functions, numbers)))


def _numbers(column: bytes, code: str, n: int) -> Tuple[int, ...]:
    """The n big-endian integers a column packs as struct code; ValueError for a column of another length."""
    if len(column) != n * struct.calcsize(">" + code):
        raise ValueError(f"savepoint column of {len(column)} bytes does not hold {n} values")
    return struct.unpack(f">{n}{code}", column)


def _cut(column: bytes, lengths: Sequence[int]) -> List[bytes]:
    """column cut into consecutive values of the given lengths; ValueError unless they sum to its length."""
    if sum(lengths) != len(column):
        raise ValueError(f"savepoint column of {len(column)} bytes is not {len(lengths)} values long")
    ends = list(itertools.accumulate(lengths))
    return [column[start:end] for start, end in zip([0, *ends], ends)]


def _split(data: bytes, width: int) -> Set[bytes]:
    if len(data) % width:
        raise wire.WireError(f"{len(data)} bytes is not a whole number of {width}-byte values")
    return {data[i:i + width] for i in range(0, len(data), width)}


def restore_savepoint(node: Node, data: bytes, images: Dict[Channel, bytes], creator_cert_bytes: bytes) -> bool:
    """Fill a new node with the state savepoint data holds, if it stands for exactly the chain file images.

    Returns False, and leaves the node as it was, if data is not an intact
    savepoint of this format, names other chain bytes than images, names
    a chain creator other than the certificate encoding creator_cert_bytes,
    or holds a ballot quorum written after the genesis (a replay refuses it).
    """
    try:
        channels, serials, log = _decode_savepoint(data, images, creator_cert_bytes)
    except (ValueError, BallotError):
        return False
    for channel, height, head, world, tx_ids in channels:
        ledger = node.ledger(channel)
        ledger.restore(images[channel], height, head, creator_cert_bytes, tx_ids)
        ledger.world_state.update(world)
    node.gccf_view.serials.update(serials)
    node.gccf_view.endorsement_log.extend(log)
    node.gccf_view.quorum = ballot_quorum(node.gpf_view)
    return True


def _decode_savepoint(data: bytes, images: Dict[Channel, bytes], creator_cert_bytes: bytes):
    header = SAVEPOINT_MAGIC + bytes([SAVEPOINT_FORMAT_VERSION])
    body, digest = data[:-DIGEST_LEN], data[-DIGEST_LEN:]
    if not body.startswith(header) or sha256(body) != digest:
        raise ValueError("not an intact savepoint of this format")
    r = wire.Reader(body[len(header):])
    channels = []
    for channel in CHAIN_FILES:
        if r.str_field() != channel.value:
            raise ValueError(f"savepoint channels out of order at {channel.value}")
        if r.field() != sha256(images[channel]):
            raise ValueError(f"the savepoint stands for other {channel.value} chain bytes")
        height, head = r.u64_field(), r.field()
        if r.field() != creator_cert_bytes:
            raise ValueError(f"the {channel.value} chain was cut by another ordering service")
        world = _read_world(r)
        quorum = world.get(policy_key(*RULE_BALLOT_QUORUM))
        if quorum is not None and quorum.block_number > 0:
            raise ValueError("the savepoint holds a ballot quorum written after the genesis")
        channels.append((channel, height, head, world, _split(r.field(), TX_ID_LEN)))
    serials = _split(r.field(), SERIAL_LEN)
    log = [(r.u64_field(), decode_endorsement(r.field())) for _ in range(r.u32_field())]
    r.expect_end()
    return channels, serials, log


# ------------------------------------------------------- chains on the disk


@contextlib.contextmanager
def locked(directory) -> Iterator[None]:
    """Hold the exclusive lock of a deployment directory: one command at a time reads or writes it.

    The lock is an ``flock`` on the directory itself, so it adds no file;
    a second command waits for it.  A directory that cannot be opened is
    not locked: there is nothing in it to load.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        fd = None
    try:
        if fd is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        if fd is not None:
            os.close(fd)  # closing the descriptor releases the lock


def write_chains(directory: pathlib.Path, node: Node, first: Sequence[Tuple[pathlib.Path, bytes]] = ()) -> None:
    """Write the files in first, the node's chain files, then the savepoint keyed to them: all or none.

    Pass only a node that has committed every block of its chains: a later
    load of exactly these chain bytes restores the savepoint instead of
    replaying them.  The savepoint is written last, so a group cut short
    leaves one that names older chain bytes, which no load restores.
    """
    images = {channel: node.ledger(channel).chain_image() for channel in CHAIN_FILES}
    files = [*first] + [(directory / CHAIN_FILES[channel], data) for channel, data in images.items()]
    files.append((directory / SAVEPOINT_FILE, encode_savepoint(node, images)))
    write_all_atomic(files)


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


def check_int(value, what: str) -> int:
    """value, if it is an integer (a bool is not one); ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer")
    return value


def check_list(value, what: str) -> list:
    """value, if it is a list of a config's entries; ValueError otherwise."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list")
    return value


def check_objects(value, what: str, keys: str) -> List[dict]:
    """value, if it is a list of JSON objects (each with the keys named by keys); ValueError otherwise."""
    if not all(isinstance(entry, dict) for entry in check_list(value, what)):
        raise ValueError(f"{what} entries must be {keys} objects")
    return value


def read_node_counts(value) -> List[Tuple[str, int]]:
    """A config's nodes list as (role, count) pairs; each entry is a [role, count] pair or a
    {"role", "count"} object.  ValueError for any other entry."""
    pairs = []
    for entry in check_list(value, "nodes"):
        if isinstance(entry, dict):
            entry = (entry["role"], entry["count"])
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError('nodes entries must be [role, count] pairs or {"role", "count"} objects')
        pairs.append(tuple(entry))
    return pairs


def check_role(value) -> AuthorityRole:
    """The role value names; ValueError for a name that is no role."""
    try:
        return AuthorityRole(value)
    except ValueError:
        raise ValueError(f"unknown role {value!r}") from None


def expand_node_counts(node_counts: Sequence[Tuple[str, int]]) -> List[Tuple[AuthorityRole, str]]:
    """Turn [(role, count), ...] into named members Role-1..Role-n; ValueError for an unknown
    or repeated role, or a count that is not an integer or is negative."""
    members = []
    roles: Set[AuthorityRole] = set()
    for role_name, count in node_counts:
        role = check_role(role_name)
        if role in roles:
            raise ValueError(f"role {role.value} repeated in nodes")
        roles.add(role)
        if check_int(count, f"node count of {role.value}") < 0:
            raise ValueError("negative node count")
        members += [(role, f"{role.value}-{i}") for i in range(1, count + 1)]
    return members


def derive_identity(
    seed: int,
    name: str,
    issuer: Optional[Identity],
    *,
    validity: Tuple[int, int],
    serial: bytes,
    now_s: float,
) -> Identity:
    """Mint ``name``: its key and unique id depend only on the seed and the name.

    Self-signed when ``issuer`` is None.  The name's prefix is the role the certificate carries.
    An issued subject, which may never sign, gets a key pair that builds its signing key on its first signature.
    """
    key_seed = derive_bytes(seed, f"key:{name}", SEED_LEN)
    key = KeyPair.deferred(key_seed) if issuer else generate_keypair(key_seed)
    uid = derive_bytes(seed, f"uid:{name}", UID_LEN)
    not_before, not_after = validity
    subject = Subject(name=name, public_key=key.public_key, unique_id=uid, not_before=not_before, not_after=not_after)
    signer_key, signer_cert = (issuer.key, issuer.cert) if issuer else (key, None)
    cert = issue_certificate(signer_key, signer_cert, subject, now_s=now_s, serial=serial)
    return Identity(key=key, cert=cert)


def build_deployment(
    seed: int,
    members: Sequence[Tuple[AuthorityRole, str]],
    policies: Dict[str, int],
    *,
    validity: Tuple[int, int] = (DEFAULT_NOT_BEFORE, DEFAULT_NOT_AFTER),
    defer_bootstrap: Sequence[str] = (),
) -> Deployment:
    """Derive the whole consortium from the seed and the member list, minting each member once.

    ValueError if the seed, a policy value or a validity bound is no integer,
    policies is no mapping, validity is no pair, defer_bootstrap is no list of
    member names, or the list does not hold exactly one ordering service,
    repeats a name, names a member other than for its role (``ICA-2``), or
    lacks a member's issuer.  The certificate-channel genesis commits the
    elector set, the root, and the PG; the policy-channel genesis commits the
    configured rules.  Every other member's record is pre-built here (signed
    by its proper issuer) but committed later through ordinary transactions.
    """
    check_int(seed, "seed")
    if not isinstance(policies, dict):
        raise ValueError("policies must be an object")
    policies = {rule: check_int(value, f"policy {rule}") for rule, value in policies.items()}
    if not isinstance(validity, (list, tuple)) or len(validity) != 2:
        raise ValueError("validity must be a [not_before, not_after] pair")
    not_before, not_after = validity
    validity = (check_int(not_before, "validity not_before"), check_int(not_after, "validity not_after"))
    if not isinstance(defer_bootstrap, (list, tuple)) or not all(isinstance(name, str) for name in defer_bootstrap):
        raise ValueError("defer_bootstrap must be a list of names")
    member_list = list(members)
    # Every later block is cut by the one ordering service.  Checked before
    # the names, so two OSP entries get this message and not the vaguer one.
    osp_names = [name for role, name in member_list if role == AuthorityRole.OSP]
    if len(osp_names) != 1:
        raise ValueError("exactly one ordering service required")
    names = [name for _role, name in member_list]
    if len(set(names)) != len(names):
        raise ValueError("duplicate member names")
    unknown = sorted(set(defer_bootstrap) - set(names))
    if unknown:
        raise ValueError(f"defer_bootstrap names no member {unknown[0]!r}")
    serial_rng = derive_rng(seed, "serials")
    identities: Dict[str, Identity] = {}
    by_role: Dict[AuthorityRole, List[Identity]] = {}
    # One pass in a stable order: the ordering service first, then the
    # members in list order with the ICA-issued ones last, so every issuer
    # exists before its subjects.  Serials are drawn in this order.
    for role, name in sorted(
        member_list, key=lambda m: (m[0] != AuthorityRole.OSP, ISSUED_BY.get(m[0]) == AuthorityRole.ICA)
    ):
        if role_of_name(name) != role:
            raise ValueError(f"member {name!r} is not named for its role {role.value}")
        issuer_role = ISSUED_BY.get(role)
        issuers = by_role.get(issuer_role) if issuer_role else [None]
        if not issuers:
            if issuer_role == AuthorityRole.RCA:
                raise ValueError(f"{name} requires a root CA member before it")
            raise ValueError(f"{name} requires an {issuer_role.value} member")
        ident = derive_identity(
            seed, name, issuers[0], validity=validity, serial=serial_rng.randbytes(16), now_s=validity[0]
        )
        identities[name] = ident
        by_role.setdefault(role, []).append(ident)
    osp = identities[osp_names[0]]

    config = ConsortiumConfig(
        osp_cert=osp.cert,
        members=tuple(identities[n].cert for n in names if identities[n].role != AuthorityRole.OSP),
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
                entity=entity, rule_name=rule_name, rule_body={body_key: value}, status=PolicyStatus.ALIVE
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


# ------------------------------------------------------ deployment directory


@dataclass
class CliDeployment:
    """A loaded deployment directory: what its files say, and one node at the state of its chains.

    ``holders`` maps each name with a key in ``keys.json`` to its private key (hex) and certificate.
    A key pair is derived only for a signer (``identity``), the ordering service only to commit.
    """

    path: pathlib.Path
    seed: int
    consortium: ConsortiumConfig
    holders: Dict[str, Tuple[str, CertificateRecord]]
    node: Node
    validity: tuple

    def identity(self, name: str) -> Identity:
        if name not in self.holders:
            raise CliError(f"unknown identity {name!r} in deployment")
        private, cert = self.holders[name]
        try:
            return Identity(key=generate_keypair(bytes.fromhex(private)), cert=cert)
        except (TypeError, ValueError) as exc:
            raise CliError(f"not a deployment directory: {exc}") from exc

    def save_chains(self, first: Sequence[Tuple[pathlib.Path, bytes]] = ()) -> None:
        """Write the files in first with the node's chains, as one group (``write_chains``)."""
        write_chains(self.path, self.node, first)

    def register_extra(self, ident: Identity) -> Tuple[pathlib.Path, bytes]:
        """Hold ident's key; returns the keys file with it added, as (path, bytes) for the caller's write group."""
        self.holders[ident.name] = (ident.key.private_bytes().hex(), ident.cert)
        keys_path = self.path / KEYS_FILE
        try:
            payload = json.loads(keys_path.read_text())
            extras = payload.setdefault("extras", {})
            extras[ident.name] = {
                "role": ident.role.value,
                "private": ident.key.private_bytes().hex(),
                "cert": cert_to_json(ident.cert),
            }
        except (OSError, ValueError, TypeError, AttributeError, RecursionError) as exc:
            raise CliError(f"not a deployment directory: {exc}") from exc
        return keys_path, dump_json(payload)

    def submit_and_commit(self, tx, first: Sequence[Tuple[pathlib.Path, bytes]] = ()) -> int:
        """One-node network turn: admit, force-cut, commit, persist (with the files in first)."""
        orderer = OrderingService(self.consortium, self.identity(self.consortium.osp_cert.subject_name), self.node)
        try:
            orderer.submit_tx(tx, now_ms=0)
        except Rejected as exc:
            raise CliError(f"rejected: {exc.reason}") from exc
        block = orderer.cut_block(tx.channel, now_ms=0, force=True)
        assert block is not None
        try:
            orderer.commit_own(tx.channel, block)
        except BlockRefused as exc:  # pragma: no cover - admission prevents this
            raise CliError(f"commit refused: {exc.reason}") from exc
        self.save_chains(first)
        return block.header.number

    def submit_command(self, signer: Identity, build: Callable[..., Transaction], *args,
                       first: Sequence[Tuple[pathlib.Path, bytes]] = ()) -> int:
        """Commit ``build(*args, signer cert, signer key, submit_time_ms)`` with the time 0
        or, when that exact transaction is already on the chain (the same command run
        again: its signature is deterministic), with the first channel height that makes it new.
        The files in first are written with the chains."""
        sign = functools.partial(build, *args, signer.cert, signer.key)
        tx = sign(0)
        ledger = self.node.ledger(tx.channel)
        stamps = itertools.count(ledger.height)
        while ledger.has_tx(tx):
            tx = sign(next(stamps))
        return self.submit_and_commit(tx, first)


def genesis_node(dep: Deployment, cert: CertificateRecord) -> Node:
    """A new node of cert's member with both genesis blocks committed; ValueError if it refuses them.

    ``network init`` and ``sim run`` both build their nodes here and report that refusal as config-invalid.
    """
    node = Node(cert)
    try:
        node.commit_genesis(dep.genesis.gccf_genesis, dep.genesis.gpf_genesis)
    except BlockRefused as exc:
        raise ValueError(f"genesis does not commit: {exc}") from exc
    return node


def write_deployment(dep: Deployment, node: Node, out_dir: pathlib.Path) -> None:
    """Write a deployment directory from node, the ordering service's ``genesis_node``.

    All six files are one group (``write_chains``): a failed init over an old deployment leaves it as it was.
    The directory's lock (``locked``) is held from its creation to the last write.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "seed": dep.seed,
        "validity": list(dep.validity),
        "bootstrap": list(dep.gccf_bootstrap_names),
        "deferred": sorted(dep.deferred),
        "config": dep.consortium.to_json(),
    }
    keys = {
        "keys": {name: ident.key.private_bytes().hex() for name, ident in dep.identities.items()},
        "extras": {},
    }
    with locked(out_dir):
        write_chains(out_dir, node, [
            (out_dir / CONSORTIUM_FILE, dump_json(meta)),
            (out_dir / KEYS_FILE, dump_json(keys)),
            (out_dir / SYSTEM_BLOCK_FILE, dep.genesis.system_block.encode()),
        ])


def load_deployment(path_str: str, chains: Optional[Dict[Channel, List[Block]]] = None) -> CliDeployment:
    """Read a deployment directory and bring one node to the state of its chains.

    When ``state.bin`` is an intact savepoint keyed to both whole chain
    files, the node restores it and no block is decoded or replayed.
    Otherwise (no savepoint, or a stale, damaged or older-format one) every
    block of the chains replays on the node with every check.  ``chains``
    gives blocks to replay instead of the chain file of their channel;
    nothing is written.  Every chain must have been cut by the
    deployment's ordering service.

    A configuration that fails ``validate`` is not a deployment directory.
    The caller holds the directory's lock (``locked``).
    """
    path = pathlib.Path(path_str)
    try:
        meta = json.loads((path / CONSORTIUM_FILE).read_text())
        key_data = json.loads((path / KEYS_FILE).read_text())
        seed = meta["seed"]
        config = ConsortiumConfig.from_json(meta["config"])
        config.validate()
        keys = key_data["keys"]
        # The OSP, the members, then the extras; a later holder of a name replaces an earlier one.
        holders = {cert.subject_name: (keys[cert.subject_name], cert) for cert in (config.osp_cert, *config.members)}
        for extra in key_data.get("extras", {}).values():
            cert = cert_from_json(extra["cert"])
            holders[cert.subject_name] = (extra["private"], cert)
    except KeyError as exc:
        raise CliError(f"not a deployment directory: missing key {exc.args[0]!r}") from exc
    except (OSError, ValueError, TypeError, AttributeError, RecursionError) as exc:
        # RecursionError: JSON nested too deep to parse.
        raise CliError(f"not a deployment directory: {exc}") from exc

    node = Node(config.osp_cert)
    chains = dict(chains or {})
    images = {}
    for channel, filename in CHAIN_FILES.items():
        if channel not in chains:
            try:
                images[channel] = (path / filename).read_bytes()
            except OSError as exc:
                raise CliError(f"cannot load {filename}: {exc}") from exc
    state = None
    if not chains:
        try:
            state = (path / SAVEPOINT_FILE).read_bytes()
        except OSError:
            pass  # missing or unreadable: replay
    if state is None or not restore_savepoint(node, state, images, canonical_encode(config.osp_cert)):
        _replay(node, config, chains, images)
    return CliDeployment(
        path=path,
        seed=seed,
        consortium=config,
        holders=holders,
        node=node,
        validity=tuple(meta.get("validity", (DEFAULT_NOT_BEFORE, DEFAULT_NOT_AFTER))),
    )


def _replay(node: Node, config: ConsortiumConfig, chains: Dict[Channel, List[Block]],
            images: Dict[Channel, bytes]) -> None:
    """Commit every chain on the new node: the given blocks, else the decoded chain file image."""
    for channel, filename in CHAIN_FILES.items():
        if channel not in chains:
            try:
                chains[channel] = decode_chain(images[channel])
            except LedgerError as exc:
                raise CliError(f"cannot load {filename}: {exc}") from exc
        blocks = chains[channel]
        # An empty chain would load as a deployment with no state at all.
        if not blocks:
            raise CliError(f"{channel.value} chain has no genesis block")
        if blocks[0].creator_cert != config.osp_cert:
            raise CliError(f"{channel.value} chain was not cut by this deployment's ordering service")
    # The genesis pair sets the quorum, then certificate history first: policy commits authenticate against it.
    try:
        node.commit_genesis(chains[Channel.GCCF][0], chains[Channel.GPF][0])
        for channel in (Channel.GCCF, Channel.GPF):
            for block in chains[channel][1:]:
                node.commit_block(channel, block)
    except BlockRefused as exc:
        raise CliError(f"deployment chain does not replay: {exc}") from exc
