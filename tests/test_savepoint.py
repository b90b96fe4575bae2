"""World-state savepoint: a matched load restores the node instead of replaying, and reaches the same state."""

import builtins
import hashlib
import json
import os
import pathlib
import struct

import pytest
from bbtm import deployment, identity, wire
from bbtm import ledger as ledger_mod
from bbtm.ballot import encode_endorsement
from bbtm.cli import main
from bbtm.deployment import (
    CHAIN_FILES,
    CONSORTIUM_FILE,
    KEYS_FILE,
    SAVEPOINT_FILE,
    SYSTEM_BLOCK_FILE,
    CliError,
    load_deployment,
)
from bbtm.gpf import PolicyRecord, PolicyStatus, make_policy_tx
from bbtm.ledger import Channel, decode_chain, encode_chain
from bbtm.node import Node
from bbtm.ordering import OrderingService
from bbtm.simulation import ScenarioConfig, Simulation

NODES = [("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1)]
CONFIG = {"seed": 77, "nodes": [{"role": r, "count": c} for r, c in NODES], "policies": {"ballot_quorum": 2}}
GROUP = [*CHAIN_FILES.values(), SAVEPOINT_FILE]
INIT_GROUP = [CONSORTIUM_FILE, KEYS_FILE, SYSTEM_BLOCK_FILE, *GROUP]


@pytest.fixture
def dep(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "dep"
    assert main(["network", "init", "--config", str(config), "--out", str(out)]) == 0
    return out


def _run(*argv) -> None:
    assert main(list(argv)) == 0


def _policy_add(dep: pathlib.Path, rule: str) -> None:
    _run("policy", "add", "--deployment", str(dep), "--entity", "RA", "--rule", rule)


class _Work:
    """Counts the block commits and chain decodes a load makes."""

    def __init__(self, monkeypatch):
        self.commits = 0
        self.decodes = 0
        commit = Node.commit_block

        def counted_commit(node, *args, **kwargs):
            self.commits += 1
            return commit(node, *args, **kwargs)

        def counted_decode(data):
            self.decodes += 1
            return decode_chain(data)

        monkeypatch.setattr(Node, "commit_block", counted_commit)
        for module in (deployment, ledger_mod):
            monkeypatch.setattr(module, "decode_chain", counted_decode)

    def load(self, dep: pathlib.Path):
        self.commits = self.decodes = 0
        return load_deployment(str(dep))


@pytest.fixture
def work(monkeypatch):
    return _Work(monkeypatch)


def _facts(node: Node) -> dict:
    """Everything a restore must reproduce of a replayed node."""
    return {
        "world_state_digest": node.world_state_digest(),
        "chains": {c: (node.ledger(c).height, node.ledger(c).head_hash()) for c in CHAIN_FILES},
        "serials": set(node.gccf_view.serials),
        "endorsement_log": list(node.gccf_view.endorsement_log),
        "tx_ids": {c: set(node.ledger(c).tx_ids) for c in CHAIN_FILES},
    }


def _assert_restore_equals_replay(dep: pathlib.Path, work: _Work) -> dict:
    restored = work.load(dep)
    assert (work.commits, work.decodes) == (0, 0), "a matched savepoint must restore"
    state = (dep / SAVEPOINT_FILE).read_bytes()
    (dep / SAVEPOINT_FILE).unlink()
    try:
        replayed = work.load(dep)
        assert work.commits == sum(replayed.node.ledger(c).height for c in CHAIN_FILES)
    finally:
        (dep / SAVEPOINT_FILE).write_bytes(state)
    facts = _facts(restored.node)
    assert facts == _facts(replayed.node)
    for channel, name in CHAIN_FILES.items():
        image = (dep / name).read_bytes()
        assert restored.node.ledger(channel).chain_image() == image == encode_chain(replayed.node.ledger(channel).blocks)
        assert restored.node.ledger(channel).blocks == replayed.node.ledger(channel).blocks
    return facts


class TestRestoreEqualsReplay:
    def test_network_init_writes_a_savepoint(self, dep, work):
        facts = _assert_restore_equals_replay(dep, work)
        assert facts["chains"][Channel.GCCF][0] == facts["chains"][Channel.GPF][0] == 1

    def test_policy_add(self, dep, work):
        _policy_add(dep, "r0")
        _policy_add(dep, "r1")
        facts = _assert_restore_equals_replay(dep, work)
        assert facts["chains"][Channel.GPF][0] == 3

    def test_cert_issue_submit(self, dep, work, tmp_path):
        _run("cert", "issue", "--deployment", str(dep), "--issuer", "RCA-1", "--subject", "ICA-9",
             "--out", str(tmp_path / "ica9.bin"), "--submit")
        facts = _assert_restore_equals_replay(dep, work)
        assert len(facts["serials"]) == 6

    def test_ballot_endorse_and_apply(self, dep, work, tmp_path):
        target = tmp_path / "elector4.bin"
        _run("cert", "issue", "--deployment", str(dep), "--issuer", "Elector-4", "--subject", "Elector-4",
             "--out", str(target))
        ballot = ["--deployment", str(dep), "--type", "AddElectorCert", "--target-cert", str(target)]
        for elector in ("Elector-1", "Elector-2"):
            _run("ballot", "endorse", *ballot, "--elector", elector)
        assert len(_assert_restore_equals_replay(dep, work)["endorsement_log"]) == 2
        _run("ballot", "apply", *ballot, "--elector", "Elector-1")
        facts = _assert_restore_equals_replay(dep, work)
        assert facts["chains"][Channel.GCCF][0] == 4
        _run("cert", "validate", "--deployment", str(dep), "--cert", str(target))

    def test_ledger_import_deployment(self, dep, work, tmp_path):
        for i in range(3):
            _policy_add(dep, f"r{i}")
        exported = tmp_path / "gpf.export"
        _run("ledger", "export", "--deployment", str(dep), "--channel", "GPF", "--out", str(exported))
        _policy_add(dep, "r3")
        _run("ledger", "import", str(exported), "--channel", "GPF", "--deployment", str(dep))
        facts = _assert_restore_equals_replay(dep, work)
        assert facts["chains"][Channel.GPF][0] == 4

    def test_simulator_export(self, dep, work):
        scenario = {"seed": CONFIG["seed"], "nodes": [list(n) for n in NODES], "policies": CONFIG["policies"],
                    "generate": {"count": 20, "spacing_ms": 10}}
        sim = Simulation(ScenarioConfig.from_json(scenario))
        sim.run()
        sim.export_ledgers(dep)
        facts = _assert_restore_equals_replay(dep, work)
        osp = sim.nodes[sim.osp_name]
        assert facts == _facts(osp)


class TestWorkCounts:
    def test_matched_load_commits_and_decodes_nothing(self, dep, work):
        _policy_add(dep, "r0")
        identity._verify_raw.cache_clear()
        identity.decode_certificate.cache_clear()
        work.load(dep)
        assert (work.commits, work.decodes) == (0, 0)
        assert identity._verify_raw.cache_info().misses <= 1

    def test_stale_savepoint_replays(self, dep, work):
        _policy_add(dep, "r0")
        stale = (dep / SAVEPOINT_FILE).read_bytes()
        _policy_add(dep, "r1")
        expected = _facts(work.load(dep).node)
        # The old savepoint beside the new chain files replays.
        (dep / SAVEPOINT_FILE).write_bytes(stale)
        assert _facts(work.load(dep).node) == expected
        assert work.commits == 1 + 3 and work.decodes == 2

    def test_savepoint_of_another_ordering_service_replays(self, dep, work, tmp_path):
        """A savepoint whose chains another ordering service cut is not restored: the replay refuses them."""
        other = tmp_path / "other"
        config = tmp_path / "other.json"
        config.write_text(json.dumps({**CONFIG, "seed": 78}))
        _run("network", "init", "--config", str(config), "--out", str(other))
        _policy_add(other, "r0")
        for name in GROUP:
            (dep / name).write_bytes((other / name).read_bytes())
        with pytest.raises(CliError, match="not cut by this deployment's ordering service"):
            work.load(dep)

    def test_ledger_export_writes_the_chain_file_bytes(self, dep, work, tmp_path, capsys):
        _policy_add(dep, "r0")
        for channel, name in CHAIN_FILES.items():
            out = tmp_path / f"{name}.export"
            work.decodes = 0
            _run("ledger", "export", "--deployment", str(dep), "--channel", channel.value, "--out", str(out))
            assert work.decodes == 0
            assert out.read_bytes() == (dep / name).read_bytes()
        capsys.readouterr()


def _listing(dep: pathlib.Path) -> dict:
    return {path.name: path.read_bytes() for path in dep.iterdir()}


def _fail_replace_at(monkeypatch, position: int) -> list:
    """Make the replace numbered position (from 0) fail; returns the names of the replaced files, in order."""
    real_replace = os.replace
    calls = []

    def failing(src, dst):
        calls.append(pathlib.Path(dst).name)
        if len(calls) == position + 1:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    return calls


class TestGroupWrite:
    """The chain files and the savepoint are written as one group, the savepoint last; init adds its other files first."""

    @pytest.mark.parametrize("position", range(len(GROUP)), ids=GROUP)
    def test_failure_at_each_position_restores_every_file(self, dep, monkeypatch, position):
        _policy_add(dep, "r0")
        before = _listing(dep)
        calls = _fail_replace_at(monkeypatch, position)
        with pytest.raises(OSError, match="disk full"):
            main(["policy", "add", "--deployment", str(dep), "--entity", "RA", "--rule", "r1"])
        assert calls[: position + 1] == GROUP[: position + 1]
        assert _listing(dep) == before

    @pytest.mark.parametrize("position", range(len(INIT_GROUP)), ids=INIT_GROUP)
    def test_a_failed_init_over_a_deployment_keeps_it(self, dep, tmp_path, monkeypatch, position):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**CONFIG, "seed": 78}))
        before = _listing(dep)
        calls = _fail_replace_at(monkeypatch, position)
        with pytest.raises(OSError, match="disk full"):
            main(["network", "init", "--config", str(other), "--out", str(dep)])
        monkeypatch.undo()
        assert calls[: position + 1] == INIT_GROUP[: position + 1]
        assert _listing(dep) == before
        assert load_deployment(str(dep)).seed == CONFIG["seed"]

    def test_failure_on_new_files_removes_them(self, tmp_path, monkeypatch):
        old, new = tmp_path / "old", tmp_path / "new"
        old.write_bytes(b"old")
        real_replace = os.replace

        def failing(src, dst):
            if pathlib.Path(dst) == old:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(OSError, match="disk full"):
            identity.write_all_atomic([(new, b"new"), (old, b"replaced")])
        assert _listing(tmp_path) == {"old": b"old"}

    def test_no_target_is_read_and_no_sibling_is_left(self, tmp_path, monkeypatch):
        targets = [tmp_path / name for name in ("a", "b", "c")]
        for path in targets[:2]:
            path.write_bytes(b"old " + path.name.encode())
        (tmp_path / "a.old").write_bytes(b"left by an interrupted write")
        reads = []
        real_open = builtins.open

        def watched_open(file, mode="r", *args, **kwargs):
            if "r" in mode or "+" in mode:
                reads.append(pathlib.Path(file).name)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", watched_open)
        monkeypatch.setattr(pathlib.Path, "read_bytes", lambda path: reads.append(path.name))
        identity.write_all_atomic([(path, b"new " + path.name.encode()) for path in targets])
        monkeypatch.undo()
        assert reads == []
        assert _listing(tmp_path) == {path.name: b"new " + path.name.encode() for path in targets}


class TestUnreadableDeployment:
    """Deeply nested JSON in a deployment's own files is a refusal, not a traceback."""

    @pytest.mark.parametrize("name", ["consortium.json", "keys.json"])
    def test_deep_json_is_not_a_deployment(self, dep, capsys, name):
        (dep / name).write_text("[" * 100_000)
        assert main(["policy", "get", "--deployment", str(dep), "--entity", "RA", "--rule", "x"]) == 1
        assert "not a deployment directory" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000, "[]"], ids=["deep", "array"])
    def test_register_extra_refuses_an_unreadable_keys_file(self, dep, text):
        loaded = load_deployment(str(dep))
        (dep / "keys.json").write_text(text)
        with pytest.raises(CliError, match="not a deployment directory"):
            loaded.register_extra(loaded.identity("RCA-1"))
        assert (dep / "keys.json").read_text() == text


def _vouch_for(dep: pathlib.Path, state: bytes) -> None:
    """Make state the savepoint, with its trailing digest recomputed, so that a load decodes it."""
    body = state[:-32]
    (dep / SAVEPOINT_FILE).write_bytes(body + hashlib.sha256(body).digest())


# Per channel, the savepoint body holds 13 framed fields (FORMAT.md "Savepoint"), and the world state is
# fields 5-11 of them: the entry count, then the columns.
CHANNEL_FIELDS = 13
COUNT, KEY_LENGTHS, PAYLOAD_LENGTHS, NUMBERS, CODES, KEYS = 5, 6, 7, 8, 9, 10


def _fields(state: bytes) -> list:
    """The framed fields of a savepoint's body, between its 5-byte header and its trailing digest."""
    r = wire.Reader(state[5:-32])
    out = []
    while r.remaining:
        out.append(r.field())
    return out


def _with_fields(state: bytes, fields: list) -> bytes:
    return state[:5] + b"".join(map(wire.field, fields)) + state[-32:]


def _tampered(state: bytes, channel: Channel, case: str) -> bytes:
    """state with one column of channel's world state made malformed."""
    fields = _fields(state)
    base = list(CHAIN_FILES).index(channel) * CHANNEL_FIELDS
    n = struct.unpack(">I", fields[base + COUNT])[0]
    assert n > 0
    if case == "unknown-function":
        column = fields[base + CODES]
        fields[base + CODES] = bytes([len(deployment.SAVEPOINT_FUNCTIONS)]) + column[1:]
    elif case == "one-code-too-many":
        fields[base + CODES] += fields[base + CODES][:1]
    elif case == "7-byte-block-number":
        column = fields[base + NUMBERS]
        fields[base + NUMBERS] = b"".join(column[i + 1:i + 8] for i in range(0, len(column), 8))
    elif case == "u64-key-lengths":
        lengths = struct.unpack(f">{n}I", fields[base + KEY_LENGTHS])
        fields[base + KEY_LENGTHS] = struct.pack(f">{n}Q", *lengths)
    elif case == "sums-disagree":
        lengths = list(struct.unpack(f">{n}I", fields[base + PAYLOAD_LENGTHS]))
        lengths[0] += 1
        fields[base + PAYLOAD_LENGTHS] = struct.pack(f">{n}I", *lengths)
    elif case == "key-not-utf8":
        fields[base + KEYS] = b"\xff" + fields[base + KEYS][1:]
    else:  # the world's entry count, past the end of the file
        fields[base + COUNT] = wire.u32(0xFFFFFFFF)
    return _with_fields(state, fields)


def _format_2(node: Node, images: dict) -> bytes:
    """The format-2 savepoint of node over images, laid out as earlier versions wrote it:
    one framed digest line per world-state entry in place of the columns."""
    parts = [deployment.SAVEPOINT_MAGIC, bytes([2])]
    for channel in CHAIN_FILES:
        ledger = node.ledger(channel)
        world = ledger.world_state
        parts += [wire.field(channel.value.encode("utf-8")), wire.field(hashlib.sha256(images[channel]).digest()),
                  wire.field(wire.u64(ledger.height)), wire.field(ledger.head_hash()),
                  wire.field(ledger.creator_cert_bytes), wire.field(wire.u32(len(world)))]
        for key in sorted(world):
            entry = world[key]
            parts += [wire.field(key.encode("utf-8")), wire.field(entry.payload),
                      wire.field(entry.function.value.encode("utf-8")), wire.field(wire.u64(entry.block_number))]
        parts.append(wire.field(b"".join(sorted(ledger.tx_ids))))
    view = node.gccf_view
    parts += [wire.field(b"".join(sorted(view.serials))), wire.field(wire.u32(len(view.endorsement_log)))]
    for number, endorsement in view.endorsement_log:
        parts += [wire.field(wire.u64(number)), wire.field(encode_endorsement(endorsement))]
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def _spy_restores(monkeypatch) -> list:
    """What each restore_savepoint call returns, in order."""
    restored = []
    restore = deployment.restore_savepoint

    def spy(*args):
        restored.append(restore(*args))
        return restored[-1]

    monkeypatch.setattr(deployment, "restore_savepoint", spy)
    return restored


class TestMalformedSavepoint:
    """An intact savepoint that does not decode is not restored: the load replays, as without it."""

    @pytest.mark.parametrize("channel", list(CHAIN_FILES))
    @pytest.mark.parametrize("case", ["unknown-function", "one-code-too-many", "7-byte-block-number",
                                      "u64-key-lengths", "sums-disagree", "key-not-utf8", "count-past-the-end"])
    def test_loads_as_without_it(self, dep, work, monkeypatch, case, channel):
        _policy_add(dep, "r0")
        state = (dep / SAVEPOINT_FILE).read_bytes()
        _vouch_for(dep, _tampered(state, channel, case))
        restored = _spy_restores(monkeypatch)
        loaded = work.load(dep)
        assert restored == [False]
        assert work.commits == sum(loaded.node.ledger(c).height for c in CHAIN_FILES)
        (dep / SAVEPOINT_FILE).unlink()
        assert _facts(loaded.node) == _facts(work.load(dep).node)

    def test_the_untampered_savepoint_restores(self, dep, work):
        _policy_add(dep, "r0")
        _vouch_for(dep, (dep / SAVEPOINT_FILE).read_bytes())
        work.load(dep)
        assert work.commits == 0

    def test_a_format_2_savepoint_replays_and_the_next_write_leaves_format_3(self, dep, work, monkeypatch):
        _policy_add(dep, "r0")
        node = work.load(dep).node
        images = {channel: (dep / name).read_bytes() for channel, name in CHAIN_FILES.items()}
        (dep / SAVEPOINT_FILE).write_bytes(_format_2(node, images))
        restored = _spy_restores(monkeypatch)
        loaded = work.load(dep)
        assert restored == [False]
        assert work.commits == sum(loaded.node.ledger(c).height for c in CHAIN_FILES)
        assert _facts(loaded.node) == _facts(node)
        _policy_add(dep, "r1")
        assert (dep / SAVEPOINT_FILE).read_bytes()[4] == deployment.SAVEPOINT_FORMAT_VERSION == 3
        del restored[:]
        work.load(dep)
        assert restored == [True] and work.commits == 0


def _with_rules(dep: pathlib.Path, count: int) -> None:
    """Commit count more policy rules in as few blocks as the ordering service cuts, and save the chains."""
    loaded = load_deployment(str(dep))
    pg = loaded.identity("PG-1")
    orderer = OrderingService(loaded.consortium, loaded.identity("OSP-1"), loaded.node)
    for i in range(count):
        record = PolicyRecord(entity="RA", rule_name=f"extra-{i}", rule_body={}, status=PolicyStatus.ALIVE)
        orderer.submit_tx(make_policy_tx(record, pg.cert, pg.key, 0), now_ms=0)
    while orderer.pending_count(Channel.GPF):
        orderer.commit_own(Channel.GPF, orderer.cut_block(Channel.GPF, now_ms=0, force=True))
    loaded.save_chains()


def _restore_field_reads(dep: pathlib.Path, work: _Work, monkeypatch) -> tuple:
    """The wire.Reader.field calls of one load of dep, and the GPF entries it restores."""
    calls = []
    field = wire.Reader.field

    def counted(reader):
        calls.append(1)
        return field(reader)

    with monkeypatch.context() as patch:
        patch.setattr(wire.Reader, "field", counted)
        loaded = work.load(dep)
    assert (work.commits, work.decodes) == (0, 0)
    return len(calls), len(loaded.node.ledger(Channel.GPF).world_state)


def test_a_restore_reads_as_many_fields_however_many_entries(tmp_path, monkeypatch):
    """The world state is read a column at a time, so the framed reads do not grow with its entries."""
    reads = {}
    for count in (10, 200):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        out = tmp_path / f"dep-{count}"
        _run("network", "init", "--config", str(config), "--out", str(out))
        _with_rules(out, count)
        reads[count] = _restore_field_reads(out, _Work(monkeypatch), monkeypatch)
    assert reads[200][1] == reads[10][1] + 190
    assert reads[200][0] == reads[10][0]


def test_a_replay_tallies_at_the_committed_quorum(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "policies": {"ballot_quorum": 1}}))
    dep = tmp_path / "dep"
    _run("network", "init", "--config", str(config), "--out", str(dep))
    target = tmp_path / "elector4.bin"
    _run("cert", "issue", "--deployment", str(dep), "--issuer", "Elector-4", "--subject", "Elector-4",
         "--out", str(target))
    ballot = ["--deployment", str(dep), "--type", "AddElectorCert", "--target-cert", str(target),
              "--elector", "Elector-1"]
    _run("ballot", "endorse", *ballot)
    _run("ballot", "apply", *ballot)
    validate = ["cert", "validate", "--deployment", str(dep), "--cert", str(target)]
    _run(*validate)  # restored from the savepoint
    (dep / SAVEPOINT_FILE).unlink()
    capsys.readouterr()
    # Replayed: the genesis pair commits first, so the tally reads the genesis quorum of 1.
    assert main(validate) == 0, capsys.readouterr().err
