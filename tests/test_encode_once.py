"""Encodings computed once per value, and one structural check per commit."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbtm import gpf, ledger, wire
from bbtm.identity import CertFunction, CertificateRecord, canonical_encode, decode_certificate, signing_bytes
from bbtm.ledger import (
    Block,
    BlockHeader,
    Channel,
    Ledger,
    Transaction,
    TxFunction,
    ZERO_HASH,
    decode_block,
    decode_transaction,
    make_block,
    make_transaction,
    replay_from_genesis,
    verify_chain,
)
from bbtm.node import BlockRefused, Node
from bbtm.simulation import ScenarioConfig, Simulation

from helpers import make_identity

BASE_NODES = (("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1), ("RA", 1))


@pytest.fixture(scope="module")
def osp():
    return make_identity("OSP-1")


@pytest.fixture(scope="module")
def submitter():
    return make_identity("RA-1")


@pytest.fixture(scope="module")
def grown():
    """A finished small simulation: its sequencer's chains and one peer's identity."""
    sim = Simulation(
        ScenarioConfig(
            seed=5,
            nodes=BASE_NODES,
            generate={"count": 30, "spacing_ms": 8},
            policies=(("ballot_quorum", 2),),
        )
    )
    sim.run()
    return sim


def _tx(submitter, payload=b"v", key="validate/aa", t=0) -> Transaction:
    return make_transaction(Channel.GCCF, TxFunction.VALIDATE_CERT, key, payload, submitter.cert, submitter.key, t)


class _Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def field_calls(monkeypatch):
    counter = _Counter(wire.field)
    monkeypatch.setattr(wire, "field", counter)
    return counter


class TestEncodeOnce:
    def test_second_transaction_encoding_frames_nothing(self, submitter, field_calls):
        tx = _tx(submitter, payload=b"fresh")
        first = tx.signing_bytes()
        body = tx.canonical_body()
        tx_id = tx.tx_id
        field_calls.calls = 0
        assert tx.signing_bytes() is first
        assert tx.canonical_body() is body
        assert tx.tx_id is tx_id
        assert field_calls.calls == 0

    def test_second_certificate_encoding_frames_nothing(self, field_calls):
        cert = make_identity("ICA-7").cert
        first = canonical_encode(cert)
        unsigned = signing_bytes(cert)
        field_calls.calls = 0
        assert canonical_encode(cert) is first
        assert signing_bytes(cert) is unsigned
        assert field_calls.calls == 0

    def test_header_hash_is_kept(self, osp, field_calls):
        header = make_block(0, ZERO_HASH, [], osp.cert, osp.key).header
        digest = header.hash()
        field_calls.calls = 0
        assert header.hash() is digest
        assert header.encode() is header.encode()
        assert field_calls.calls == 0

    def test_encodings_match_the_fields(self, submitter, osp):
        tx = _tx(submitter)
        assert tx.canonical_body() == tx.signing_bytes() + wire.field(tx.submitter_signature)
        assert decode_transaction(tx.canonical_body()) == tx
        block = make_block(0, ZERO_HASH, [tx], osp.cert, osp.key)
        assert block.header.hash() == ledger.sha256(block.header.encode())


class TestMemoIsInvisible:
    def _pairs(self, submitter, osp):
        tx = _tx(submitter, payload=b"twin")
        twin = dataclasses.replace(tx)
        cert = submitter.cert
        cert_twin = dataclasses.replace(cert)
        header = make_block(0, ZERO_HASH, [tx], osp.cert, osp.key).header
        header_twin = dataclasses.replace(header)
        # Fill the memo on one of each pair only.
        assert tx.tx_id == ledger.sha256(tx.canonical_body())
        assert canonical_encode(cert) and header.hash()
        return [(tx, twin), (cert, cert_twin), (header, header_twin)]

    def test_equality_hash_and_repr(self, submitter, osp):
        for filled, empty in self._pairs(submitter, osp):
            assert filled == empty
            assert hash(filled) == hash(empty)
            assert repr(filled) == repr(empty)
            assert "_body" not in repr(filled) and "_encoding" not in repr(filled)

    def test_memo_is_not_a_field(self):
        for cls in (Transaction, CertificateRecord, BlockHeader):
            names = {f.name for f in dataclasses.fields(cls)}
            assert not any(name.startswith("_") for name in names), cls
        assert "tx_id" not in {f.name for f in dataclasses.fields(Transaction)}

    def test_replaced_value_encodes_afresh(self, submitter):
        tx = _tx(submitter, payload=b"original")
        body = tx.canonical_body()
        changed = dataclasses.replace(tx, payload=b"changed")
        assert changed.canonical_body() != body
        assert changed.tx_id != tx.tx_id
        cert = submitter.cert
        encoded = canonical_encode(cert)
        renamed = dataclasses.replace(cert, subject_name="RA-2")
        assert canonical_encode(renamed) != encoded
        assert canonical_encode(renamed) == canonical_encode(dataclasses.replace(renamed))


class TestTamperedTransactionIsRefused:
    def _tampered(self, block: Block, rebuild: bool) -> Block:
        tx = block.transactions[0]
        # Hash the original first, so a stale memo would go unnoticed.
        tx.canonical_body()
        if rebuild:
            forged = Transaction(
                channel=tx.channel, function=tx.function, key=tx.key, payload=tx.payload + b"!",
                submitter_cert=tx.submitter_cert, submitter_signature=tx.submitter_signature,
                submit_time_ms=tx.submit_time_ms,
            )
        else:
            forged = dataclasses.replace(tx, payload=tx.payload + b"!")
        return dataclasses.replace(block, transactions=(forged,) + block.transactions[1:])

    @pytest.mark.parametrize("rebuild", [False, True], ids=["replace", "rebuild"])
    def test_node_refuses_with_data_hash_mismatch(self, grown, rebuild):
        source = grown.nodes[grown.osp_name].ledger(Channel.GCCF).blocks
        node = Node(grown.deployment.identity("RA-1"))
        node.commit_block(Channel.GCCF, source[0])
        with pytest.raises(BlockRefused) as info:
            node.commit_block(Channel.GCCF, self._tampered(source[1], rebuild))
        assert "data hash mismatch" in info.value.reason
        assert node.ledger(Channel.GCCF).height == 1

    @pytest.mark.parametrize("rebuild", [False, True], ids=["replace", "rebuild"])
    def test_ledger_refuses_with_data_hash_mismatch(self, osp, submitter, rebuild):
        genesis = make_block(0, ZERO_HASH, [], osp.cert, osp.key)
        block = make_block(1, genesis.header.hash(), [_tx(submitter, b"x"), _tx(submitter, b"y")], osp.cert, osp.key)
        chain = Ledger(Channel.GCCF)
        chain.append_block(genesis)
        with pytest.raises(ledger.BrokenLinkage, match="data hash mismatch"):
            chain.append_block(self._tampered(block, rebuild))
        assert chain.height == 1


class TestSingleCheckPerCommit:
    def test_commit_hashes_the_data_once(self, grown, monkeypatch):
        counter = _Counter(ledger.data_hash_of)
        monkeypatch.setattr(ledger, "data_hash_of", counter)
        source = grown.nodes[grown.osp_name]
        node = Node(grown.deployment.identity("RA-1"))
        for channel in (Channel.GCCF, Channel.GPF):
            for block in source.ledger(channel).blocks:
                before = counter.calls
                node.commit_block(channel, block)
                assert counter.calls - before == 1
        assert node.world_state_digest() == source.world_state_digest()

    def test_append_block_still_checks(self, osp, submitter):
        genesis = make_block(0, ZERO_HASH, [], osp.cert, osp.key)
        chain = Ledger(Channel.GCCF)
        chain.append_block(genesis)
        with pytest.raises(ledger.BrokenLinkage, match="does not extend the tip"):
            chain.append_block(make_block(1, ZERO_HASH, [_tx(submitter)], osp.cert, osp.key))
        assert chain.height == 1

    def test_verify_chain_and_replay_check_every_block(self, grown):
        blocks = grown.nodes[grown.osp_name].ledger(Channel.GCCF).blocks
        replayed = replay_from_genesis(Channel.GCCF, blocks)
        assert verify_chain(replayed) is None
        replayed.blocks[2] = dataclasses.replace(
            blocks[2], header=dataclasses.replace(blocks[2].header, data_hash=bytes(32))
        )
        assert verify_chain(replayed) == 2


class TestPolicyRuleReads:
    def _view(self, grown):
        return grown.nodes[grown.osp_name].gpf_view.copy()

    def test_rule_reads_decode_each_entry_once(self, grown, monkeypatch):
        view = self._view(grown)
        counter = _Counter(gpf.decode_policy)
        monkeypatch.setattr(gpf, "decode_policy", counter)
        first = [gpf.ballot_quorum(view), gpf.block_max_txs(view), gpf.block_timeout_ms(view)]
        decoded = counter.calls
        copied = view.copy()
        for _ in range(3):
            again = [gpf.ballot_quorum(copied), gpf.block_max_txs(copied), gpf.block_timeout_ms(copied)]
            assert again == first
        assert counter.calls == decoded

    def test_a_new_entry_is_read_afresh(self, grown):
        view = self._view(grown)
        pg = grown.deployment.identity("PG-1")
        quorum = gpf.ballot_quorum(view)
        record = gpf.PolicyRecord(
            entity="Elector", rule_name="ballot_quorum",
            rule_body={"min_endorsements": quorum + 1}, status=gpf.PolicyStatus.ALIVE,
        )
        tx = gpf.make_policy_tx(record, pg.cert, pg.key, 0)
        gpf.apply_tx(view, grown.nodes["PG-1"].gccf_view, tx, block_number=99)
        assert gpf.ballot_quorum(view) == quorum + 1
        assert gpf.ballot_quorum(self._view(grown)) == quorum

    def test_rule_body_handed_out_is_never_shared(self, grown):
        view = self._view(grown)
        gpf.ballot_quorum(view)
        got = gpf.get_rule(view, "Elector", "ballot_quorum")
        got.rule_body["min_endorsements"] = 999
        assert gpf.get_rule(view, "Elector", "ballot_quorum").rule_body["min_endorsements"] != 999
        assert gpf.ballot_quorum(view) != 999


# --------------------------------------------------------------- round trips

names = st.text(min_size=1, max_size=24)
certs = st.builds(
    lambda nb, span, **kw: CertificateRecord(not_before=nb, not_after=nb + span, hash_id="SHA-256",
                                             sign_id="Ed25519", **kw),
    nb=st.integers(min_value=0, max_value=10**12),
    span=st.integers(min_value=1, max_value=10**12),
    version=st.integers(min_value=0, max_value=0xFFFFFFFF),
    serial_number=st.binary(min_size=16, max_size=16),
    subject_name=names,
    issuer_name=names,
    subject_public_key=st.binary(min_size=32, max_size=32),
    subject_unique_id=st.binary(min_size=16, max_size=16),
    issuer_unique_id=st.binary(min_size=16, max_size=16),
    function_type=st.sampled_from(list(CertFunction)),
    digital_signature=st.binary(min_size=64, max_size=64),
)
transactions = st.builds(
    Transaction,
    channel=st.sampled_from(list(Channel)),
    function=st.sampled_from(list(TxFunction)),
    key=names,
    payload=st.binary(max_size=64),
    submitter_cert=certs,
    submitter_signature=st.binary(max_size=64),
    submit_time_ms=st.integers(min_value=0, max_value=2**64 - 1),
)
blocks = st.builds(
    Block,
    header=st.builds(
        BlockHeader,
        number=st.integers(min_value=0, max_value=2**64 - 1),
        prev_header_hash=st.binary(min_size=32, max_size=32),
        data_hash=st.binary(min_size=32, max_size=32),
    ),
    transactions=st.lists(transactions, max_size=4).map(tuple),
    creator_cert=certs,
    creator_signature=st.binary(max_size=64),
)


class TestRoundTrip:
    @given(cert=certs)
    @settings(max_examples=60, deadline=None)
    def test_certificate(self, cert):
        encoded = canonical_encode(cert)
        decoded = decode_certificate(encoded)
        assert decoded == cert
        assert canonical_encode(decoded) == encoded
        assert signing_bytes(decoded) == signing_bytes(cert)

    @given(tx=transactions)
    @settings(max_examples=60, deadline=None)
    def test_transaction(self, tx):
        body = tx.canonical_body()
        decoded = decode_transaction(body)
        assert decoded == tx
        assert decoded.canonical_body() == body
        assert decoded.signing_bytes() == tx.signing_bytes()
        assert decoded.tx_id == tx.tx_id

    @given(block=blocks)
    @settings(max_examples=40, deadline=None)
    def test_block(self, block):
        encoded = block.encode()
        decoded = decode_block(encoded)
        assert decoded == block
        assert decoded.encode() == encoded
        assert decoded.header.hash() == block.header.hash()
