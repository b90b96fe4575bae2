"""Hash chain integrity, world state, replay, and the ledger file format.

The ledger checks structure and signatures; world-state entries are written
only by the contracts, so the world-state oracles commit GPF policy blocks
through a Node.
"""

import dataclasses
from random import Random

import pytest

from bbtm import gpf
from bbtm.deployment import build_deployment, expand_node_counts
from bbtm.ledger import (
    Block,
    Channel,
    Ledger,
    LedgerError,
    Transaction,
    TxFunction,
    ZERO_HASH,
    decode_block,
    decode_chain,
    encode_chain,
    make_block,
    make_transaction,
    verify_chain,
)
from bbtm.node import BlockRefused, Node

from helpers import first_refused, make_identity

POLICY_NODES = (("Elector", 2), ("RCA", 1), ("PG", 1), ("OSP", 1))


@pytest.fixture(scope="module")
def osp():
    return make_identity("OSP-1")


@pytest.fixture(scope="module")
def submitter():
    return make_identity("RA-1")


def _tx(submitter, key: str, payload: bytes, t: int = 0, channel=Channel.GCCF) -> Transaction:
    return make_transaction(
        channel=channel,
        function=TxFunction.VALIDATE_CERT,
        key=key,
        payload=payload,
        submitter_cert=submitter.cert,
        submitter_key=submitter.key,
        submit_time_ms=t,
    )


@pytest.fixture(scope="module")
def dep():
    return build_deployment(55, expand_node_counts(POLICY_NODES), {"ballot_quorum": 2})


def _policy_node(dep) -> Node:
    node = Node(dep.osp.cert)
    node.commit_genesis(dep.genesis.gccf_genesis, dep.genesis.gpf_genesis)
    return node


def _policy_tx(dep, rule: str, value: int, t: int = 0, alive: bool = True) -> Transaction:
    pg = dep.identity("PG-1")
    record = gpf.PolicyRecord(
        entity="Consortium", rule_name=rule, rule_body={"value": value},
        status=gpf.PolicyStatus.ALIVE if alive else gpf.PolicyStatus.DEATH,
    )
    return gpf.make_policy_tx(record, pg.cert, pg.key, t)


def _commit_policies(node: Node, dep, txs) -> None:
    chain = node.ledger(Channel.GPF)
    node.commit_block(Channel.GPF, make_block(chain.height, chain.head_hash(), txs, dep.osp.cert, dep.osp.key))


def _policy_writes(dep, rng: Random, count: int, rules: int):
    """count seeded policy writes over rules rules: additions, re-additions and revocations."""
    added = set()
    txs = []
    for t in range(count):
        rule = f"rule-{rng.randrange(rules)}"
        alive = rule not in added or rng.random() < 0.7
        added.add(rule)
        txs.append(_policy_tx(dep, rule, rng.randrange(1000), t, alive))
    return txs


def _chain(osp, submitter, writes, txs_per_block=2):
    """Build a valid chain from (key, payload) writes; returns the blocks."""
    blocks = []
    prev = ZERO_HASH
    txs = [_tx(submitter, key, payload, t) for t, (key, payload) in enumerate(writes)]
    genesis = make_block(0, prev, [], osp.cert, osp.key)
    blocks.append(genesis)
    prev = genesis.header.hash()
    for i in range(0, len(txs), txs_per_block):
        chunk = txs[i:i + txs_per_block]
        block = make_block(len(blocks), prev, chunk, osp.cert, osp.key)
        blocks.append(block)
        prev = block.header.hash()
    return blocks


class TestAppendBlock:
    def test_genesis_onto_empty_ledger(self, osp):
        ledger = Ledger(Channel.GCCF)
        ledger.append_block(make_block(0, ZERO_HASH, [], osp.cert, osp.key))
        assert ledger.height == 1
        assert ledger.tip_number == 0

    def test_random_prev_hash_is_broken_linkage(self, osp, submitter):
        ledger = Ledger(Channel.GCCF)
        ledger.append_block(make_block(0, ZERO_HASH, [], osp.cert, osp.key))
        bad = make_block(1, bytes(Random(1).randbytes(32)), [_tx(submitter, "k", b"v")], osp.cert, osp.key)
        with pytest.raises(LedgerError, match="block 1 does not extend the tip"):
            ledger.append_block(bad)

    def test_non_monotone_number(self, osp):
        ledger = Ledger(Channel.GCCF)
        with pytest.raises(LedgerError, match="expected block 0, got 3"):
            ledger.append_block(make_block(3, ZERO_HASH, [], osp.cert, osp.key))

    def test_wrong_channel(self, osp, submitter):
        ledger = Ledger(Channel.GPF)
        with pytest.raises(LedgerError, match="transaction for GCCF in a GPF block"):
            ledger.append_block(make_block(0, ZERO_HASH, [_tx(submitter, "k", b"v")], osp.cert, osp.key))

    def test_non_osp_genesis_creator_rejected(self, submitter):
        ledger = Ledger(Channel.GCCF)
        with pytest.raises(LedgerError, match="genesis creator is not an ordering service"):
            ledger.append_block(make_block(0, ZERO_HASH, [], submitter.cert, submitter.key))

    def test_creator_switch_after_genesis_rejected(self, osp, submitter):
        other_osp = make_identity("OSP-2")
        ledger = Ledger(Channel.GCCF)
        ledger.append_block(make_block(0, ZERO_HASH, [], osp.cert, osp.key))
        bad = make_block(1, ledger.head_hash(), [_tx(submitter, "k", b"v")], other_osp.cert, other_osp.key)
        with pytest.raises(LedgerError, match="creator certificate differs from the genesis registration"):
            ledger.append_block(bad)

    def test_empty_non_genesis_rejected(self, osp):
        ledger = Ledger(Channel.GCCF)
        ledger.append_block(make_block(0, ZERO_HASH, [], osp.cert, osp.key))
        with pytest.raises(LedgerError):
            ledger.append_block(make_block(1, ledger.head_hash(), [], osp.cert, osp.key))

    def test_same_key_twice_in_one_block_keeps_second(self, dep):
        # Oracle: replay the block list by linear scan, last write wins.
        node = _policy_node(dep)
        _commit_policies(node, dep, [_policy_tx(dep, "k", 1), _policy_tx(dep, "k", 2, t=1)])
        ledger = node.ledger(Channel.GPF)
        expected = {}
        for block in ledger.blocks:
            for tx in block.transactions:
                expected[tx.key] = tx.payload
        key = gpf.policy_key("Consortium", "k")
        assert ledger.world_state.get(key).payload == _policy_tx(dep, "k", 2, t=1).payload
        assert ledger.world_state.get(key).payload == expected[key]


class TestWorldState:
    def test_absent_key(self, dep):
        ledger = _policy_node(dep).ledger(Channel.GPF)
        assert ledger.world_state.get("nope") is None

    def test_add_then_revoke_latest_function_wins(self, dep):
        node = _policy_node(dep)
        _commit_policies(node, dep, [_policy_tx(dep, "aa", 1)])
        _commit_policies(node, dep, [_policy_tx(dep, "aa", 1, t=1, alive=False)])
        entry = node.ledger(Channel.GPF).world_state.get(gpf.policy_key("Consortium", "aa"))
        assert entry.function == TxFunction.REVOKE_POLICY

    def test_equals_linear_scan_oracle(self, dep):
        rng = Random(42)
        txs = _policy_writes(dep, rng, 200, 20)
        node = _policy_node(dep)
        for i in range(0, len(txs), 7):
            _commit_policies(node, dep, txs[i:i + 7])
        ledger = node.ledger(Channel.GPF)
        # Brute-force scan over all blocks taking the last match per key.
        scan = {}
        for block in ledger.blocks:
            for tx in block.transactions:
                scan[tx.key] = (tx.payload, tx.function, block.header.number)
        assert {function for _payload, function, _number in scan.values()} == {
            TxFunction.ADD_POLICY, TxFunction.REVOKE_POLICY,
        }
        assert set(scan) == set(ledger.world_state)
        for key, (payload, function, number) in scan.items():
            entry = ledger.world_state.get(key)
            assert (entry.payload, entry.function, entry.block_number) == (payload, function, number)


class TestReplay:
    def test_replay_equals_incremental(self, dep):
        rng = Random(77)
        txs = _policy_writes(dep, rng, 1000, 50)
        incremental = _policy_node(dep)
        for i in range(0, len(txs), 13):
            _commit_policies(incremental, dep, txs[i:i + 13])
        replayed = Node(dep.osp.cert)
        for channel in (Channel.GCCF, Channel.GPF):
            for block in incremental.ledger(channel).blocks:
                replayed.commit_block(channel, block)
        for channel in (Channel.GCCF, Channel.GPF):
            assert replayed.head(channel) == incremental.head(channel)
            assert replayed.ledger(channel).world_state == incremental.ledger(channel).world_state
        assert replayed.world_state_digest() == incremental.world_state_digest()

    def test_replay_own_export_is_identical(self, dep):
        node = _policy_node(dep)
        _commit_policies(node, dep, [_policy_tx(dep, "a", 1), _policy_tx(dep, "b", 2, t=1)])
        again = Node(dep.osp.cert)
        for channel in (Channel.GCCF, Channel.GPF):
            for block in decode_chain(encode_chain(node.ledger(channel).blocks)):
                again.commit_block(channel, block)
        assert again.head(Channel.GPF) == node.head(Channel.GPF)
        assert again.ledger(Channel.GPF).world_state == node.ledger(Channel.GPF).world_state

    def test_replay_halts_at_first_invalid_block(self, osp, submitter):
        blocks = _chain(osp, submitter, [("a", b"1"), ("b", b"2"), ("c", b"3")], txs_per_block=1)
        bad = dataclasses.replace(blocks[2], header=dataclasses.replace(blocks[2].header, prev_header_hash=bytes(32)))
        with pytest.raises(LedgerError, match="block 2 does not extend the tip"):
            verify_chain(Channel.GCCF, [blocks[0], blocks[1], bad])


class TestVerifyChain:
    def test_honest_100_block_chain(self, osp, submitter):
        writes = [(f"k{i}", bytes([i % 256])) for i in range(99)]
        blocks = _chain(osp, submitter, writes, txs_per_block=1)
        assert len(blocks) == 100
        ledger, fail_at = verify_chain(Channel.GCCF, blocks)
        assert fail_at is None
        assert ledger.height == 100 and ledger.world_state == {}

    def test_payload_flip_detected_at_block(self, osp, submitter):
        writes = [(f"k{i}", bytes([i])) for i in range(60)]
        blocks = _chain(osp, submitter, writes, txs_per_block=1)
        target = blocks[42]
        tx = target.transactions[0]
        tampered_tx = make_transaction(tx.channel, tx.function, tx.key, b"TAMPERED",
                                       tx.submitter_cert, submitter.key, tx.submit_time_ms)
        # Keep the original header: the data hash no longer matches.
        blocks[42] = Block(
            header=target.header,
            transactions=(tampered_tx,),
            creator_cert=target.creator_cert,
            creator_signature=target.creator_signature,
        )
        assert first_refused(Channel.GCCF, blocks) == 42

    def test_resigned_by_non_osp_detected(self, osp, submitter):
        rogue = make_identity("OSP-9")
        writes = [(f"k{i}", bytes([i])) for i in range(60)]
        blocks = _chain(osp, submitter, writes, txs_per_block=1)
        target = blocks[42]
        blocks[42] = Block(
            header=target.header,
            transactions=target.transactions,
            creator_cert=rogue.cert,
            creator_signature=rogue.key.sign(target.header.encode()),
        )
        assert first_refused(Channel.GCCF, blocks) == 42

    def test_bad_tx_signature_detected(self, osp, submitter):
        blocks = _chain(osp, submitter, [("a", b"1")])
        tx = blocks[1].transactions[0]
        forged = Transaction(
            channel=tx.channel, function=tx.function, key=tx.key, payload=tx.payload,
            submitter_cert=tx.submitter_cert, submitter_signature=bytes(64),
            submit_time_ms=tx.submit_time_ms,
        )
        forged_block = make_block(1, blocks[0].header.hash(), [forged], osp.cert, osp.key)
        _ledger, fail_at = verify_chain(Channel.GCCF, [blocks[0], forged_block])
        assert fail_at == 1


class TestNodeAndLedgerAgree:
    def test_every_single_byte_tamper_is_refused_alike(self, dep):
        """A node refuses a flipped byte exactly when verify_chain does, for the same reason."""
        node = _policy_node(dep)
        for i in range(2):
            _commit_policies(node, dep, [_policy_tx(dep, f"t{i}", i, t=i)])
        blocks = node.ledger(Channel.GPF).blocks
        checked, fail_at = verify_chain(Channel.GPF, blocks)
        assert fail_at is None and checked.height == len(blocks) == 3
        assert checked.world_state == {}

        peer = Node(dep.osp.cert)
        peer.commit_block(Channel.GCCF, node.ledger(Channel.GCCF).blocks[0])
        flips = 0
        for index, block in enumerate(blocks):
            raw = block.encode()
            for pos in range(len(raw)):
                try:
                    mutated = decode_block(raw[:pos] + bytes([raw[pos] ^ 0x01]) + raw[pos + 1:])
                except LedgerError:
                    continue
                flips += 1
                try:
                    _checked, fail_at = verify_chain(Channel.GPF, blocks[:index] + [mutated])
                    ledger_reason = "bad-tx-signature" if fail_at == index else None
                except LedgerError as exc:
                    ledger_reason = str(exc)
                with pytest.raises(BlockRefused) as refused:
                    peer.commit_block(Channel.GPF, mutated)
                assert refused.value.reason == ledger_reason
            peer.commit_block(Channel.GPF, block)
        assert flips > 1000
        assert peer.world_state_digest() == node.world_state_digest()


class TestRepeatedTransactions:
    """A transaction is committed once: no block may carry it a second time."""

    def test_verify_chain_refuses_a_repeat(self, osp, submitter):
        blocks = _chain(osp, submitter, [("a", b"1"), ("b", b"2")], txs_per_block=1)
        again = make_block(3, blocks[2].header.hash(), blocks[1].transactions, osp.cert, osp.key)
        with pytest.raises(LedgerError, match="^block 3 repeats a transaction$"):
            verify_chain(Channel.GCCF, blocks + [again])

    def test_verify_chain_refuses_a_repeat_within_a_block(self, osp, submitter):
        tx = _tx(submitter, "a", b"1")
        genesis = make_block(0, ZERO_HASH, [], osp.cert, osp.key)
        twice = make_block(1, genesis.header.hash(), [tx, tx], osp.cert, osp.key)
        with pytest.raises(LedgerError, match="^block 1 repeats a transaction$"):
            verify_chain(Channel.GCCF, [genesis, twice])

    def test_peer_refuses_a_block_repeating_a_committed_transaction(self, dep):
        node = _policy_node(dep)
        add = _policy_tx(dep, "speed", 1)
        _commit_policies(node, dep, [add])
        _commit_policies(node, dep, [_policy_tx(dep, "speed", 1, t=1, alive=False)])
        before = node.world_state_digest()
        with pytest.raises(BlockRefused) as refused:
            _commit_policies(node, dep, [add])
        assert refused.value.reason == "block 3 repeats a transaction"
        assert node.ledger(Channel.GPF).height == 3
        assert node.world_state_digest() == before
        assert gpf.get_rule(node.gpf_view, "Consortium", "speed").status == gpf.PolicyStatus.DEATH


class TestChainFile:
    def test_roundtrip(self, osp, submitter):
        blocks = _chain(osp, submitter, [("a", b"1"), ("b", b"2"), ("c", b"3")])
        data = encode_chain(blocks)
        assert data[:4] == b"BBTM"
        decoded = decode_chain(data)
        assert [b.encode() for b in decoded] == [b.encode() for b in blocks]

    def test_bad_magic(self):
        with pytest.raises(LedgerError):
            decode_chain(b"NOPE\x01")

    def test_truncated_file(self, osp, submitter):
        data = encode_chain(_chain(osp, submitter, [("a", b"1")]))
        with pytest.raises(LedgerError):
            decode_chain(data[:-3])


class TestImmutability:
    def test_committed_structures_are_frozen(self, osp, submitter):
        blocks = _chain(osp, submitter, [("a", b"1")])
        block = blocks[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.creator_signature = b"x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.header.number = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.transactions[0].payload = b"y"
