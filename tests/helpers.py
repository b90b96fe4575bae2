"""Shared builders for contract- and chain-level tests."""

from __future__ import annotations

from random import Random
from typing import Optional

from bbtm import gccf, gpf
from bbtm.deployment import derive_bytes, derive_identity
from bbtm.gccf import GccfView
from bbtm.gpf import GpfView, PolicyRecord, PolicyStatus
from bbtm.identity import CertificateRecord, Identity, canonical_encode, role_of_name
from bbtm.ledger import Channel, Ledger, LedgerError, StateEntry, Transaction, TxFunction

BIG = 10_000_000_000
SEED = 20_240_101


def make_identity(
    name: str,
    issuer: Optional[Identity] = None,
    *,
    not_before: int = 0,
    not_after: int = BIG,
    serial: Optional[bytes] = None,
    rng: Optional[Random] = None,
    seed: int = SEED,
    issue_now: Optional[float] = None,
) -> Identity:
    assert role_of_name(name) is not None, f"test identity name {name!r} needs a role prefix"
    # Sign at a time inside the issuer's own window; the subject's window is
    # independent so tests can mint already-expired or not-yet-valid records.
    if issue_now is None:
        issue_now = issuer.cert.not_before if issuer else not_before
    if serial is None:
        serial = rng.randbytes(16) if rng else derive_bytes(seed, f"serial:{name}", 16)
    return derive_identity(seed, name, issuer, validity=(not_before, not_after), serial=serial, now_s=issue_now)


class Bed:
    """A contract-level world: bootstrapped views plus helper identities.

    Mirrors what a genesis block produces: three committed electors, a
    committed root, a committed PG, plus one intermediate added in block 1.
    """

    def __init__(self, quorum: int = 2):
        self.rng = Random(7)
        self.view = GccfView()
        self.gpf_view = GpfView()
        self.electors = [make_identity(f"Elector-{i}", rng=self.rng) for i in (1, 2, 3)]
        self.rca = make_identity("RCA-1", rng=self.rng)
        self.pg = make_identity("PG-1", self.rca, rng=self.rng)
        self.ica = make_identity("ICA-1", self.rca, rng=self.rng)
        for ident in self.electors + [self.rca]:
            gccf.apply_tx(self.view, self._add_tx(ident.cert, ident), block_number=0)
        gccf.apply_tx(self.view, self._add_tx(self.pg.cert, self.rca), block_number=0)
        gccf.apply_tx(self.view, self._add_tx(self.ica.cert, self.rca), block_number=1)
        record = PolicyRecord(
            entity="Elector", rule_name="ballot_quorum",
            rule_body={"min_endorsements": quorum}, status=PolicyStatus.ALIVE,
        )
        gpf.apply_tx(
            self.gpf_view, self.view,
            gpf.make_policy_tx(record, self.pg.cert, self.pg.key, 0),
            block_number=0,
        )
        # As a node does once its policy genesis commits.
        self.view.quorum = gpf.ballot_quorum(self.gpf_view)
        self.next_block = 2

    def _add_tx(self, cert: CertificateRecord, submitter: Identity) -> Transaction:
        return gccf.make_add_cert_tx(cert, submitter.cert, submitter.key, 0)

    def add(self, cert: CertificateRecord, submitter: Identity) -> Transaction:
        tx = self._add_tx(cert, submitter)
        gccf.apply_tx(self.view, tx, block_number=self.next_block)
        self.next_block += 1
        return tx

    def revoke(self, target: CertificateRecord, authorizer: Optional[Identity] = None) -> Transaction:
        authorizer = authorizer or self.pg
        tx = gccf.make_revoke_cert_tx(target, authorizer.cert, authorizer.key, 0)
        gccf.apply_tx(self.view, tx, block_number=self.next_block)
        self.next_block += 1
        return tx

    def inject_committed(self, cert: CertificateRecord, block_number: int = 0) -> None:
        """Force a record into the view, bypassing contract checks."""
        self.view.world[gccf.cert_key(cert.subject_unique_id)] = StateEntry(
            canonical_encode(cert), TxFunction.ADD_CERT, block_number
        )
        self.view.serials.add(cert.serial_number)

    def inject_revoked(self, cert: CertificateRecord, block_number: int = 99) -> None:
        self.view.world[gccf.cert_key(cert.subject_unique_id)] = StateEntry(
            canonical_encode(cert), TxFunction.REVOKE_CERT, block_number
        )


def first_refused(channel: Channel, blocks) -> Optional[int]:
    """Position of the first block append_block refuses, for any reason, or None."""
    chain = Ledger(channel)
    for position, block in enumerate(blocks):
        try:
            chain.append_block(block)
        except LedgerError:
            return position
    return None
