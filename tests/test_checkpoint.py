"""Savepoint keys: a load restores only the savepoint written with exactly its whole chain files,
replays anything else with every check, and never changes an outcome."""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from bbtm import cli, identity
from bbtm.cli import main
from bbtm.deployment import CHAIN_FILES, SAVEPOINT_FILE, CliError
from bbtm.gpf import PolicyRecord, PolicyStatus, make_policy_tx
from bbtm.ledger import Block, Channel, data_hash_of, decode_chain, encode_chain, make_block
from bbtm.simulation import ScenarioConfig, Simulation

NODES = [("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1)]
CONFIG = {"seed": 77, "nodes": [{"role": r, "count": c} for r, c in NODES], "policies": {"ballot_quorum": 2}}


def _init(tmp_path: pathlib.Path, config: dict) -> pathlib.Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    dep = tmp_path / "dep"
    assert main(["network", "init", "--config", str(path), "--out", str(dep)]) == 0
    return dep


@pytest.fixture
def deployment(tmp_path):
    return _init(tmp_path, CONFIG)


def _real_verifications(run) -> int:
    """Ed25519 verifications run(), started with cold caches, actually makes."""
    identity._verify_raw.cache_clear()
    identity.decode_certificate.cache_clear()
    run()
    return identity._verify_raw.cache_info().misses


def _signatures(chain: pathlib.Path) -> int:
    """Distinct creator and submitter signatures in a chain file."""
    blocks = decode_chain(chain.read_bytes())
    return len(blocks) + sum(len(block.transactions) for block in blocks)


def _policy_add(dep: pathlib.Path, rule: str) -> None:
    assert main(["policy", "add", "--deployment", str(dep), "--entity", "RA", "--rule", rule]) == 0


class TestWorkCounts:
    def test_a_load_right_after_init_is_trusted(self, deployment):
        assert _real_verifications(lambda: cli.load_deployment(str(deployment))) <= 1

    def test_loads_after_each_write_trust_the_whole_chain(self, deployment, tmp_path):
        _policy_add(deployment, "r0")
        for _ in range(2):
            assert _real_verifications(lambda: cli.load_deployment(str(deployment))) <= 1
        assert main(["cert", "issue", "--deployment", str(deployment), "--issuer", "RCA-1", "--subject", "ICA-9",
                     "--out", str(tmp_path / "ica9.bin"), "--submit"]) == 0
        assert _real_verifications(lambda: cli.load_deployment(str(deployment))) <= 1
        heights = {c: cli.load_deployment(str(deployment)).node.ledger(c).height for c in CHAIN_FILES}
        assert heights == {Channel.GCCF: 2, Channel.GPF: 2}

    def test_a_simulator_export_loads_trusted(self, deployment):
        scenario = {"seed": CONFIG["seed"], "nodes": [list(n) for n in NODES], "policies": CONFIG["policies"],
                    "generate": {"count": 20, "spacing_ms": 10}}
        sim = Simulation(ScenarioConfig.from_json(scenario))
        sim.run()
        sim.export_ledgers(deployment)
        assert cli.load_deployment(str(deployment)).node.ledger(Channel.GCCF).height > 1
        assert _real_verifications(lambda: cli.load_deployment(str(deployment))) <= 1

    def test_ledger_verify_and_import_verify_in_full(self, deployment, tmp_path, capsys):
        for i in range(3):
            _policy_add(deployment, f"r{i}")
        exported = tmp_path / "gpf.export"
        assert main(["ledger", "export", "--deployment", str(deployment), "--channel", "GPF",
                     "--out", str(exported)]) == 0
        assert (deployment / SAVEPOINT_FILE).exists()
        for chain in (deployment / "gccf.chain", deployment / "gpf.chain"):
            assert _real_verifications(lambda: main(["ledger", "verify", str(chain)])) >= _signatures(chain)
        signatures = _signatures(exported)
        # Under --deployment both channels replay in full: the imported one and
        # the certificate channel read from its file, as on a load without a
        # savepoint.
        imported = _real_verifications(
            lambda: main(["ledger", "import", str(exported), "--channel", "GPF", "--deployment", str(deployment)])
        )
        (deployment / SAVEPOINT_FILE).unlink()
        replayed = _real_verifications(lambda: cli.load_deployment(str(deployment)))
        assert imported == replayed >= _signatures(deployment / "gccf.chain") + signatures
        capsys.readouterr()

    def test_cert_validate_verifies_the_presented_certificate(self, deployment, tmp_path, capsys):
        cert = tmp_path / "ica9.bin"
        assert main(["cert", "issue", "--deployment", str(deployment), "--issuer", "RCA-1", "--subject", "ICA-9",
                     "--out", str(cert), "--submit"]) == 0
        capsys.readouterr()
        real = _real_verifications(lambda: main(["cert", "validate", "--deployment", str(deployment),
                                                 "--cert", str(cert)]))
        path = json.loads(capsys.readouterr().out)["path"]
        # ICA-9 under RCA-1's key and RCA-1 under its own, after a trusted load.
        assert len(path) == 2 and real >= 1 + len(path)


def _outcome(dep: pathlib.Path):
    """What load_deployment makes of a directory: its error, or its heights, world-state digest,
    heads, GCCF indexes, ballot quorum and tx-id indexes."""
    try:
        node = cli.load_deployment(str(dep)).node
    except Exception as exc:  # any failure is an outcome to compare, whatever its type
        return type(exc).__name__, str(exc)
    ledgers = [node.ledger(c) for c in CHAIN_FILES]
    return (
        tuple(ledger.height for ledger in ledgers),
        node.world_state_digest(),
        tuple(ledger.head_hash() for ledger in ledgers),
        frozenset(node.gccf_view.serials),
        tuple(node.gccf_view.endorsement_log),
        node.gccf_view.quorum,
        tuple(frozenset(ledger.tx_ids) for ledger in ledgers),
    )


def _flips(data: bytes):
    for pos in range(len(data)):
        yield pos, data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:]


class TestTamper:
    """A savepoint never changes what a load makes of a deployment, however its files are tampered with."""

    @pytest.fixture
    def dep(self, tmp_path):
        """A small deployment whose savepoint is stale: it stands for the
        certificate chain's genesis block only, and the chain has one more."""
        dep = _init(tmp_path, {"seed": 55, "nodes": [{"role": "RCA", "count": 1}, {"role": "OSP", "count": 1}]})
        stale = (dep / SAVEPOINT_FILE).read_bytes()
        assert main(["cert", "issue", "--deployment", str(dep), "--issuer", "RCA-1", "--subject", "ICA-9",
                     "--out", str(tmp_path / "ica9.bin"), "--submit"]) == 0
        (dep / SAVEPOINT_FILE).write_bytes(stale)
        return dep

    @pytest.fixture
    def files(self, dep, monkeypatch):
        """The deployment's files, read from memory: the sweep loads thousands of variants of them."""
        files = {path: path.read_bytes() for path in dep.iterdir()}

        def read_bytes(path):
            if path not in files:
                raise FileNotFoundError(path)
            return files[path]

        monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)
        monkeypatch.setattr(pathlib.Path, "read_text", lambda path: read_bytes(path).decode("utf-8"))
        return files

    @staticmethod
    def _without_savepoint(dep: pathlib.Path, files: dict):
        kept = files.pop(dep / SAVEPOINT_FILE)
        try:
            return _outcome(dep)
        finally:
            files[dep / SAVEPOINT_FILE] = kept

    @staticmethod
    def _refresh(dep: pathlib.Path, files: dict) -> bytes:
        """Write a savepoint that stands for the chain files as they are, and return it."""
        cli.load_deployment(str(dep)).save_chains()
        with (dep / SAVEPOINT_FILE).open("rb") as fh:
            files[dep / SAVEPOINT_FILE] = fh.read()
        return files[dep / SAVEPOINT_FILE]

    def test_stale_savepoint_trusts_nothing(self, dep, files):
        """The savepoint names the certificate chain's first block only: the load replays it all."""
        expected = self._without_savepoint(dep, files)
        assert expected[0] == (2, 1)
        without = _real_verifications(lambda: self._without_savepoint(dep, files))
        assert _real_verifications(lambda: cli.load_deployment(str(dep))) == without > 1
        assert _outcome(dep) == expected

    def test_every_single_byte_flip_of_a_chain_loads_as_without_savepoint(self, dep, files):
        self._refresh(dep, files)
        for name in CHAIN_FILES.values():
            original = files[dep / name]
            for pos, flipped in _flips(original):
                files[dep / name] = flipped
                assert _outcome(dep) == self._without_savepoint(dep, files), f"{name} byte {pos}"
            files[dep / name] = original

    def test_every_single_byte_flip_of_the_savepoint_loads_as_without_it(self, dep, files):
        state = self._refresh(dep, files)
        expected = self._without_savepoint(dep, files)
        assert expected[0] == (2, 1)
        for pos, flipped in [(None, state), *_flips(state)]:
            files[dep / SAVEPOINT_FILE] = flipped
            assert _outcome(dep) == expected, f"{SAVEPOINT_FILE} byte {pos}"

    @pytest.mark.parametrize("case", ["empty", "truncated", "format-1", "magic", "trailing-digest",
                                      "other-chain-bytes"])
    def test_malformed_savepoint_verifies_in_full(self, dep, case):
        cli.load_deployment(str(dep)).save_chains()
        state = (dep / SAVEPOINT_FILE).read_bytes()
        body = state[:-32]
        if case == "empty":
            state = b""
        elif case == "truncated":
            state = state[:-1]
        elif case == "format-1":
            state = _sealed(body[:4] + bytes([1]) + body[5:])
        elif case == "magic":
            state = _sealed(b"BBTX" + body[4:])
        elif case == "trailing-digest":
            state = state[:-1] + bytes([state[-1] ^ 0x01])
        else:  # intact, but keyed to other certificate chain bytes
            gccf_digest = hashlib.sha256((dep / CHAIN_FILES[Channel.GCCF]).read_bytes()).digest()
            assert body.count(gccf_digest) == 1
            state = _sealed(body.replace(gccf_digest, bytes(32)))
        (dep / SAVEPOINT_FILE).write_bytes(state)
        real = _real_verifications(lambda: cli.load_deployment(str(dep)))
        outcome = _outcome(dep)
        (dep / SAVEPOINT_FILE).unlink()
        assert real == _real_verifications(lambda: cli.load_deployment(str(dep))) > 1
        assert outcome == _outcome(dep)

    def test_forged_creator_signature_is_refused(self, dep):
        """The creator signature lies outside the header hash; the savepoint's chain digest covers it."""
        chain = dep / "gccf.chain"
        honest = chain.read_bytes()
        blocks = decode_chain(honest)
        genesis = blocks[0]
        forged = Block(genesis.header, genesis.transactions, genesis.creator_cert,
                       bytes(b ^ 0xFF for b in genesis.creator_signature))
        image = encode_chain([forged] + blocks[1:])
        assert len(image) == len(honest)
        cli.load_deployment(str(dep)).save_chains()  # the savepoint now names the honest bytes
        chain.write_bytes(image)
        refused = ("CliError", "deployment chain does not replay: block 0 refused: block 0 creator signature invalid")
        assert _outcome(dep) == refused
        (dep / SAVEPOINT_FILE).unlink()
        assert _outcome(dep) == refused

    def test_forged_submitter_signature_is_refused_whatever_the_savepoint_says(self, deployment):
        """A savepoint that names the honest chain bytes does not spare forged ones a check."""
        _policy_add(deployment, "r0")
        chain = deployment / CHAIN_FILES[Channel.GPF]
        blocks = decode_chain(chain.read_bytes())
        last = blocks[-1]
        tx = last.transactions[-1]
        signature = bytes([tx.submitter_signature[0] ^ 0x01]) + tx.submitter_signature[1:]
        transactions = last.transactions[:-1] + (dataclasses.replace(tx, submitter_signature=signature),)
        header = dataclasses.replace(last.header, data_hash=data_hash_of(transactions))
        image = encode_chain(blocks[:-1] + [Block(header, transactions, last.creator_cert, last.creator_signature)])
        chain.write_bytes(image)
        with pytest.raises(CliError, match="^deployment chain does not replay: "):
            cli.load_deployment(str(deployment))
        (deployment / SAVEPOINT_FILE).unlink()
        with pytest.raises(CliError, match="^deployment chain does not replay: "):
            cli.load_deployment(str(deployment))


class TestGenesisQuorum:
    """The ballot quorum is the genesis's: a load reads it there, however it reaches the state."""

    @pytest.mark.parametrize("quorum", [1, 2])
    def test_a_root_ballot_loads_alike_restored_and_replayed(self, tmp_path, capsys, quorum):
        dep = _init(tmp_path, {**CONFIG, "policies": {"ballot_quorum": quorum}})
        target = tmp_path / "rca9.bin"
        assert main(["cert", "issue", "--deployment", str(dep), "--issuer", "RCA-9", "--subject", "RCA-9",
                     "--out", str(target)]) == 0
        ballot = ["--deployment", str(dep), "--type", "AddRootCert", "--target-cert", str(target)]
        for i in range(1, quorum + 1):
            assert main(["ballot", "endorse", *ballot, "--elector", f"Elector-{i}"]) == 0
        assert main(["ballot", "apply", *ballot, "--elector", "Elector-1"]) == 0
        capsys.readouterr()
        restored = _outcome(dep)
        assert restored[0] == (2 + quorum, 1) and restored[5] == quorum
        (dep / SAVEPOINT_FILE).unlink()
        assert _outcome(dep) == restored

    def test_a_quorum_written_after_the_genesis_is_refused_whatever_the_savepoint_says(self, deployment):
        """A chain and savepoint holding a later write of the quorum, as an older version wrote them: built by hand."""
        loaded = cli.load_deployment(str(deployment))
        pg, osp = loaded.identity("PG-1"), loaded.identity("OSP-1")
        record = PolicyRecord(entity="Elector", rule_name="ballot_quorum", rule_body={"min_endorsements": 1},
                              status=PolicyStatus.ALIVE)
        tx = make_policy_tx(record, pg.cert, pg.key, 0)
        ledger = loaded.node.ledger(Channel.GPF)
        block = make_block(ledger.height, ledger.head_hash(), [tx], osp.cert, osp.key)
        # Committed as the contract once did: the entry written, then the block linked.
        ledger.world_state[tx.key] = tx.state_entry(block.header.number)
        ledger._link(block)
        loaded.save_chains()
        refused = ("CliError", "deployment chain does not replay: block 1 refused: genesis-rule")
        assert _outcome(deployment) == refused
        (deployment / SAVEPOINT_FILE).unlink()
        assert _outcome(deployment) == refused


def _sealed(body: bytes) -> bytes:
    """A savepoint of body: body and its trailing SHA-256."""
    return body + hashlib.sha256(body).digest()
