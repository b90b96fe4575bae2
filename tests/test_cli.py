"""CLI verbs, file outputs, and exit codes."""

import argparse
import contextlib
import fcntl
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbtm import cli, deployment as deployment_mod, gccf, gpf, identity, metrics, wire
from bbtm import ledger as ledger_mod
from bbtm.cli import main
from bbtm.deployment import derive_identity
from bbtm.identity import verify_certificate_signature
from bbtm.ledger import Channel, encode_chain, make_block
from bbtm.simulation import ScenarioConfig, Simulation

from helpers import make_identity

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "samples" / "scenario.json"
SAMPLE_SCENARIO = json.loads(SAMPLE.read_text())

BASE_CONFIG = {
    "seed": 77,
    "nodes": [
        {"role": "Elector", "count": 3},
        {"role": "RCA", "count": 1},
        {"role": "ICA", "count": 1},
        {"role": "PG", "count": 1},
        {"role": "OSP", "count": 1},
    ],
    "policies": {"ballot_quorum": 2},
}
MEMBERS = [{"role": role, "name": f"{role}-{i}"} for role, count in
           (("Elector", 3), ("RCA", 1), ("ICA", 1), ("PG", 1), ("OSP", 1)) for i in range(1, count + 1)]


@pytest.fixture
def deployment(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    dep = tmp_path / "dep"
    assert main(["network", "init", "--config", str(config), "--out", str(dep)]) == 0
    return dep


def _last_json(capsys):
    return json.loads(capsys.readouterr().out)


DEPLOYMENT_FILES = {"consortium.json", "keys.json", "system.block", "gccf.chain", "gpf.chain", "state.bin"}


class TestNetworkInit:
    def test_creates_expected_files(self, deployment):
        assert {p.name for p in deployment.iterdir()} == DEPLOYMENT_FILES

    def test_each_committing_verb_keeps_exactly_the_deployment_files(self, deployment, tmp_path, capsys):
        d = ["--deployment", str(deployment)]
        target = str(tmp_path / "elector4.bin")
        ballot = [*d, "--type", "AddElectorCert", "--target-cert", target]
        exported = str(tmp_path / "gpf.export")
        for argv in (
            ["cert", "issue", *d, "--issuer", "RCA-1", "--subject", "ICA-9", "--out", str(tmp_path / "ica9.bin"),
             "--submit"],
            ["cert", "issue", *d, "--issuer", "Elector-4", "--subject", "Elector-4", "--out", target],
            ["ballot", "endorse", *ballot, "--elector", "Elector-1"],
            ["ballot", "endorse", *ballot, "--elector", "Elector-2"],
            ["ballot", "apply", *ballot, "--elector", "Elector-1"],
            ["policy", "add", *d, "--entity", "RA", "--rule", "r0"],
            ["policy", "revoke", *d, "--entity", "RA", "--rule", "r0"],
            ["ledger", "export", *d, "--channel", "GPF", "--out", exported],
            ["ledger", "import", exported, "--channel", "GPF", *d],
        ):
            assert main(argv) == 0, argv
            assert {p.name for p in deployment.iterdir()} == DEPLOYMENT_FILES, argv
        capsys.readouterr()

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["network", "init", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")]) == 2

    # The consortium faults that sim run shares are TestConsortiumFaults'; these concern network init alone.
    @pytest.mark.parametrize("config, message", [
        ({"seed": 1, "members": [{"role": "Elector", "name": "Elector-1"}, {"role": "RCA", "name": "RCA-1"},
                                 {"role": "OSP", "name": "OSP-1"}, {"role": "OSP", "name": "OSP-2"}]},
         "exactly one ordering service required"),
        ([1, 2], "a network config is a JSON object"),
        # A member's role is the prefix of its certificate's subject name.
        ({"seed": 1, "members": MEMBERS + [{"role": "RA", "name": "PCA-9"}]},
         "member 'PCA-9' is not named for its role RA"),
        ({"seed": 1, "members": MEMBERS + [{"role": "RA", "name": "roadside"}]},
         "member 'roadside' is not named for its role RA"),
        ({"seed": 1, "members": [m for m in MEMBERS if m["role"] != "OSP"] + [{"role": "OSP", "name": "orderer"}]},
         "member 'orderer' is not named for its role OSP"),
        ({"seed": 1, "members": MEMBERS + [{"role": "Bogus", "name": "Bogus-1"}]}, "unknown role 'Bogus'"),
        ({"seed": 1, "members": {"role": "OSP", "name": "OSP-1"}}, "members must be a list"),
        ({"seed": 1, "members": MEMBERS + ["RA-1"]}, 'members entries must be {"role", "name"} objects'),
        ({"seed": 1, "members": MEMBERS + [["RA", "RA-1"]]}, 'members entries must be {"role", "name"} objects'),
    ], ids=["two-osp-members", "not-an-object", "ra-named-pca", "ra-named-roadside", "osp-named-orderer",
            "member-of-unknown-role", "members-not-a-list", "string-member", "pair-member"])
    def test_config_errors_are_config_invalid(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "dep"
        assert main(["network", "init", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: config-invalid: {message}"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("filename, key", [("keys.json", "OSP-1"), ("consortium.json", "seed")])
    def test_deployment_missing_a_key_is_not_a_deployment(self, deployment, capsys, filename, key):
        path = deployment / filename
        data = json.loads(path.read_text())
        del (data["keys"] if filename == "keys.json" else data)[key]
        path.write_text(json.dumps(data))
        assert main(["policy", "get", "--deployment", str(deployment), "--entity", "Elector",
                     "--rule", "ballot_quorum"]) == 1
        assert capsys.readouterr().err.strip() == f"error: not a deployment directory: missing key {key!r}"

    @pytest.mark.parametrize("spoil, message", [
        (lambda members: members.append(members[0]), "duplicate member certificates"),
        (lambda members: members[0]["cert"].update(subject_name="roadside"),
         "member 'roadside' is not named for a role"),
    ], ids=["duplicate-member", "roleless-member"])
    def test_a_consortium_that_does_not_validate_is_not_a_deployment(self, deployment, capsys, spoil, message):
        path = deployment / "consortium.json"
        meta = json.loads(path.read_text())
        spoil(meta["config"]["members"])
        path.write_text(json.dumps(meta))
        assert main(["policy", "get", "--deployment", str(deployment), "--entity", "Elector",
                     "--rule", "ballot_quorum"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: not a deployment directory: {message}\n")

    def test_only_a_signing_verb_derives_key_pairs(self, deployment, monkeypatch, capsys):
        derived = []
        real = deployment_mod.generate_keypair
        monkeypatch.setattr(deployment_mod, "generate_keypair", lambda seed=None: derived.append(seed) or real(seed))
        d = ["--deployment", str(deployment)]
        assert main(["policy", "get", *d, "--entity", "Elector", "--rule", "ballot_quorum"]) == 0
        assert derived == []
        assert main(["policy", "add", *d, "--entity", "RA", "--rule", "r0"]) == 0
        keys = json.loads((deployment / "keys.json").read_text())["keys"]
        # The PG signs the transaction and the ordering service the block.
        assert [seed.hex() for seed in derived] == [keys["PG-1"], keys["OSP-1"]]
        capsys.readouterr()


# The consortium section both verbs read, with its nodes as (role, count) tuples, which _in_shape_of writes in
# either shape a nodes entry may take.
CONSORTIUM = {**BASE_CONFIG, "nodes": [(n["role"], n["count"]) for n in BASE_CONFIG["nodes"]]}


def _consortium(nodes=CONSORTIUM["nodes"], **fields):
    return {**CONSORTIUM, "nodes": nodes, **fields}


def _ica_count(count):
    return [(role, count if role == "ICA" else n) for role, n in CONSORTIUM["nodes"]]


def _without(role):
    return [(r, n) for r, n in CONSORTIUM["nodes"] if r != role]


def _in_shape_of(shape, consortium):
    """The consortium with each (role, count) tuple of its nodes written as a {"role", "count"} object or a
    [role, count] pair; any other entry stays as it is."""
    nodes = consortium["nodes"]
    if isinstance(nodes, list):
        nodes = [
            ({"role": entry[0], "count": entry[1]} if shape == "objects" else list(entry))
            if isinstance(entry, tuple) else entry
            for entry in nodes
        ]
    return {**consortium, "nodes": nodes}


def _run_verb(tmp_path, verb, consortium, shape=None):
    """Exit code of verb on the consortium, and whether it made its output directory.

    The nodes are objects for network init and pairs for sim run unless shape names one for both."""
    path = tmp_path / "config.json"
    shape = shape or ("objects" if verb == "network-init" else "pairs")
    path.write_text(json.dumps(_in_shape_of(shape, consortium)))
    out = tmp_path / "out"
    flag = "--config" if verb == "network-init" else "--scenario"
    return main([*verb.split("-"), flag, str(path), "--out", str(out)]), out.exists()


NODES_ENTRIES = 'nodes entries must be [role, count] pairs or {"role", "count"} objects'


class TestConsortiumFaults:
    """A fault of the consortium section is refused by network init and sim run alike, with one message."""

    @pytest.mark.parametrize("verb", ["network-init", "sim-run"])
    def test_both_verbs_take_the_base_consortium(self, tmp_path, capsys, verb):
        assert _run_verb(tmp_path, verb, CONSORTIUM) == (0, True)
        capsys.readouterr()

    @pytest.mark.parametrize("shape", ["objects", "pairs"])
    @pytest.mark.parametrize("verb", ["network-init", "sim-run"])
    def test_both_verbs_take_either_nodes_shape(self, tmp_path, capsys, verb, shape):
        assert _run_verb(tmp_path, verb, CONSORTIUM, shape) == (0, True)
        capsys.readouterr()

    @pytest.mark.parametrize("consortium, message", [
        ({key: value for key, value in CONSORTIUM.items() if key != "seed"}, "missing key 'seed'"),
        (_consortium({"a": 1}), "nodes must be a list"),
        (_consortium(CONSORTIUM["nodes"] + [("Bogus", 1)]), "unknown role 'Bogus'"),
        # A nodes entry is a [role, count] pair or a {"role", "count"} object.
        (_consortium(CONSORTIUM["nodes"] + ["RA"]), NODES_ENTRIES),
        (_consortium(CONSORTIUM["nodes"] + [["RA", 1, 2]]), NODES_ENTRIES),
        (_consortium(CONSORTIUM["nodes"] + [{"role": "RA"}]), "missing key 'count'"),
        (_consortium(CONSORTIUM["nodes"] + [("RA", 1), ("RA", 2)]), "role RA repeated in nodes"),
        (_consortium(CONSORTIUM["nodes"] + [("OSP", 1)]), "role OSP repeated in nodes"),
        (_consortium(_without("RCA")), "ICA-1 requires a root CA member before it"),
        (_consortium(_without("OSP")), "exactly one ordering service required"),
        # Counts, the seed and rule values are integers, never coerced.
        (_consortium(_ica_count(2.9)), "node count of ICA must be an integer"),
        (_consortium(_ica_count("2")), "node count of ICA must be an integer"),
        (_consortium(_ica_count(True)), "node count of ICA must be an integer"),
        (_consortium(CONSORTIUM["nodes"] + [("RA", -2)]), "negative node count"),
        (_consortium(seed="42"), "seed must be an integer"),
        (_consortium(seed=4.5), "seed must be an integer"),
        (_consortium(policies={"ballot_quorum": 1.7}), "policy ballot_quorum must be an integer"),
        (_consortium(policies={"ballot_quorum": True}), "policy ballot_quorum must be an integer"),
        (_consortium(policies=None), "policies must be an object"),
        (_consortium(policies=[]), "policies must be an object"),
        # Both validity bounds are integers, and the deferred members a list of member names.
        (_consortium(validity=[0.5, 1000.5]), "validity not_before must be an integer"),
        (_consortium(validity=[0, 1000.5]), "validity not_after must be an integer"),
        (_consortium(validity=5), "validity must be a [not_before, not_after] pair"),
        (_consortium(validity=None), "validity must be a [not_before, not_after] pair"),
        (_consortium(validity=[0, 1, 2]), "validity must be a [not_before, not_after] pair"),
        (_consortium(defer_bootstrap="PG-1"), "defer_bootstrap must be a list of names"),
        (_consortium(defer_bootstrap=["PG-1", 1]), "defer_bootstrap must be a list of names"),
        (_consortium(defer_bootstrap=["Nobody-9"]), "defer_bootstrap names no member 'Nobody-9'"),
        # The policy genesis is submitted by PG-1, whose record is deferred.
        (_consortium(defer_bootstrap=["PG-1"]), "genesis does not commit: block 0 refused: not-PG"),
    ], ids=["no-seed", "nodes-not-a-list", "unknown-role", "string-entry", "three-item-entry", "countless-entry",
            "repeated-role", "two-osp-nodes", "ica-without-rca",
            "no-osp", "float-count", "string-count", "bool-count", "negative-count", "string-seed", "float-seed",
            "float-rule", "bool-rule", "null-policies", "list-policies", "float-not-before", "float-not-after",
            "int-validity", "null-validity", "three-bound-validity", "string-defer", "non-name-defer",
            "non-member-defer", "genesis-does-not-commit"])
    @pytest.mark.parametrize("verb", ["network-init", "sim-run"])
    def test_both_verbs_refuse_with_one_message(self, tmp_path, capsys, verb, consortium, message):
        assert _run_verb(tmp_path, verb, consortium) == (2, False)
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: config-invalid: {message}\n")


def _bbtm(*argv) -> subprocess.Popen:
    """``python -m bbtm.cli argv`` in a process of its own, on this checkout's sources."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.Popen([sys.executable, "-m", "bbtm.cli", *argv], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


class TestDirectoryLock:
    """A verb on a deployment holds the directory's flock from before its load to after its last write."""

    def test_concurrent_commits_all_survive(self, deployment, capsys):
        rules = [f"c{i}" for i in range(4)]
        procs = [_bbtm("policy", "add", "--deployment", str(deployment), "--entity", "RA", "--rule", rule)
                 for rule in rules]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert json.loads(out)["committed"] is True
        for rule in rules:
            assert main(["policy", "get", "--deployment", str(deployment), "--entity", "RA", "--rule", rule]) == 0
        capsys.readouterr()
        assert cli.load_deployment(str(deployment)).node.ledger(Channel.GPF).height == 1 + len(rules)

    def test_a_command_waits_for_the_lock(self, deployment):
        before = {p.name: p.read_bytes() for p in deployment.iterdir()}
        fd = os.open(deployment, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            proc = _bbtm("policy", "add", "--deployment", str(deployment), "--entity", "RA", "--rule", "late")
            with pytest.raises(subprocess.TimeoutExpired):
                proc.wait(timeout=2)
            assert {p.name: p.read_bytes() for p in deployment.iterdir()} == before
        finally:
            os.close(fd)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert json.loads(out)["committed"] is True
        assert (deployment / "gpf.chain").read_bytes() != before["gpf.chain"]


class TestCertVerbs:
    def test_issue_validate_roundtrip(self, deployment, tmp_path, capsys):
        cert_path = tmp_path / "ica9.bin"
        rc = main([
            "cert", "issue", "--deployment", str(deployment),
            "--issuer", "RCA-1", "--subject", "ICA-9", "--out", str(cert_path), "--submit",
        ])
        assert rc == 0
        issued = _last_json(capsys)
        assert issued["submitted"] is True
        assert cert_path.exists() and cert_path.with_suffix(".bin.json").exists()
        rc = main(["cert", "validate", "--deployment", str(deployment), "--cert", str(cert_path)])
        assert rc == 0
        verdict = _last_json(capsys)
        assert verdict["result"] == "Success"
        assert len(verdict["path"]) == 2

    def test_unsubmitted_cert_fails_validation(self, deployment, tmp_path, capsys):
        cert_path = tmp_path / "ica8.bin"
        assert main([
            "cert", "issue", "--deployment", str(deployment),
            "--issuer", "RCA-1", "--subject", "ICA-8", "--out", str(cert_path),
        ]) == 0
        capsys.readouterr()
        rc = main(["cert", "validate", "--deployment", str(deployment), "--cert", str(cert_path)])
        assert rc == 1
        verdict = _last_json(capsys)
        assert verdict["result"] == "NotVerify" and verdict["reason"] == "missing-link"

    @pytest.mark.parametrize("issuer, subject, reason", [
        ("ICA-9", "RA-9", "unknown-member"),
        ("Elector-4", "Elector-4", "unknown-member"),
        ("RCA-1", "RCA-1", "duplicate-subject"),
    ], ids=["issuer-not-a-member", "self-signed", "self-signed-member"])
    def test_refused_submission_writes_no_file(self, deployment, tmp_path, capsys, issuer, subject, reason):
        assert main(["cert", "issue", "--deployment", str(deployment), "--issuer", "RCA-1", "--subject", "ICA-9",
                     "--out", str(tmp_path / "ica9.bin"), "--submit"]) == 0
        before = {p.name: p.read_bytes() for p in deployment.iterdir()}
        out = tmp_path / "refused.bin"
        capsys.readouterr()
        assert main(["cert", "issue", "--deployment", str(deployment), "--issuer", issuer, "--subject", subject,
                     "--out", str(out), "--submit"]) == 1
        assert capsys.readouterr().err == f"error: rejected: {reason}\n"
        assert not out.exists() and not out.with_suffix(".bin.json").exists()
        assert {p.name: p.read_bytes() for p in deployment.iterdir()} == before

    def test_self_issue_of_a_member_keeps_its_key(self, deployment, tmp_path, capsys):
        # Every stored key is the one its name derives to, so a member that
        # issues itself a new record keeps its key and unique id.
        keys = json.loads((deployment / "keys.json").read_text())["keys"]
        for name, private in keys.items():
            derived = derive_identity(BASE_CONFIG["seed"], name, None, validity=(0, 1), serial=bytes(16), now_s=0)
            assert derived.key.private_bytes().hex() == private
        member = cli.load_deployment(str(deployment)).identity("RCA-1").cert
        cert_path = tmp_path / "rca1.bin"
        assert main([
            "cert", "issue", "--deployment", str(deployment),
            "--issuer", "RCA-1", "--subject", "RCA-1", "--out", str(cert_path),
        ]) == 0
        cert = cli.read_cert_file(str(cert_path))
        assert cert.is_self_signed and cert.serial_number != member.serial_number
        assert (cert.subject_public_key, cert.subject_unique_id) == (member.subject_public_key, member.subject_unique_id)
        assert verify_certificate_signature(cert, member.subject_public_key)

    def test_revoked_cert_fails_revoked_on_path(self, deployment, tmp_path, capsys):
        cert_path = tmp_path / "ica9.bin"
        assert main([
            "cert", "issue", "--deployment", str(deployment),
            "--issuer", "RCA-1", "--subject", "ICA-9", "--out", str(cert_path), "--submit",
        ]) == 0
        capsys.readouterr()
        dep = cli.load_deployment(str(deployment))
        pg = dep.identity("PG-1")
        dep.submit_and_commit(gccf.make_revoke_cert_tx(cli.read_cert_file(str(cert_path)), pg.cert, pg.key, 0))
        rc = main(["cert", "validate", "--deployment", str(deployment), "--cert", str(cert_path)])
        assert rc == 1
        verdict = _last_json(capsys)
        assert verdict["result"] == "NotVerify" and verdict["reason"] == "revoked-on-path"

    def test_failed_replace_keeps_the_old_cert_files(self, deployment, tmp_path, monkeypatch):
        out = tmp_path / "ica9.bin"
        files = [out, tmp_path / "ica9.bin.json"]
        for path in files:
            path.write_bytes(b"old " + path.name.encode())
        monkeypatch.setattr(os, "replace", _fail_replace)
        with pytest.raises(OSError, match="disk full"):
            main(["cert", "issue", "--deployment", str(deployment), "--issuer", "RCA-1", "--subject", "ICA-9",
                  "--out", str(out)])
        assert [path.read_bytes() for path in files] == [b"old ica9.bin", b"old ica9.bin.json"]
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("ica9")) == ["ica9.bin", "ica9.bin.json"]

    def test_validate_accepts_json_cert_files(self, deployment, tmp_path, capsys):
        meta = json.loads((deployment / "consortium.json").read_text())
        rca = next(m for m in meta["config"]["members"] if m["name"] == "RCA-1")
        cert_json = tmp_path / "rca.json"
        cert_json.write_text(json.dumps(rca["cert"]))
        assert main(["cert", "validate", "--deployment", str(deployment), "--cert", str(cert_json)]) == 0

    @pytest.mark.parametrize("verb", [
        ["cert", "validate", "--cert"],
        ["ballot", "tally", "--type", "AddElectorCert", "--target-cert"],
    ], ids=["cert-validate", "ballot-tally"])
    def test_missing_cert_file_is_a_reported_failure(self, deployment, tmp_path, capsys, verb):
        missing = tmp_path / "never-written.bin"
        before = {p.name: p.read_bytes() for p in deployment.iterdir()}
        capsys.readouterr()
        assert main([verb[0], verb[1], "--deployment", str(deployment), *verb[2:], str(missing)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot read certificate: ") and str(missing) in err
        assert err.endswith("\n") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in deployment.iterdir()} == before


class TestPolicyVerbs:
    def test_add_get_revoke_lifecycle(self, deployment, capsys):
        assert main([
            "policy", "add", "--deployment", str(deployment),
            "--entity", "RA", "--rule", "batch", "--body", '{"limit": 9}',
        ]) == 0
        capsys.readouterr()
        assert main(["policy", "get", "--deployment", str(deployment), "--entity", "RA", "--rule", "batch"]) == 0
        record = _last_json(capsys)["record"]
        assert record["status"] == "alive" and record["rule_body"] == {"limit": 9}
        assert main(["policy", "revoke", "--deployment", str(deployment), "--entity", "RA", "--rule", "batch"]) == 0
        capsys.readouterr()
        main(["policy", "get", "--deployment", str(deployment), "--entity", "RA", "--rule", "batch"])
        assert _last_json(capsys)["record"]["status"] == "death"

    def test_replayed_policy_add_is_refused(self, deployment, capsys):
        # Any reader of the chain holds its transactions; bringing back the
        # rule's addition after its revocation must not revive the rule.
        rule = ["--deployment", str(deployment), "--entity", "Consortium", "--rule", "speed"]
        assert main(["policy", "add", *rule]) == 0
        kept = cli.load_deployment(str(deployment)).node.ledger(Channel.GPF).blocks[1].transactions[0]
        assert main(["policy", "revoke", *rule]) == 0
        dep = cli.load_deployment(str(deployment))
        with pytest.raises(cli.CliError, match="rejected: duplicate-tx"):
            dep.submit_and_commit(kept)
        assert cli.load_deployment(str(deployment)).node.ledger(Channel.GPF).height == 3
        capsys.readouterr()
        assert main(["policy", "get", *rule]) == 0
        assert _last_json(capsys)["record"]["status"] == "death"

    def test_repeated_policy_commands_each_commit(self, deployment, capsys):
        # The same command run again signs the same bytes at submit time 0;
        # it must still commit as a new transaction, not be taken for a replay.
        rule = ["--deployment", str(deployment), "--entity", "RA", "--rule", "batch"]
        for verb, status in [("add", "alive"), ("revoke", "death"), ("add", "alive"), ("revoke", "death")]:
            assert main(["policy", verb, *rule]) == 0
            capsys.readouterr()
            assert main(["policy", "get", *rule]) == 0
            assert _last_json(capsys)["record"]["status"] == status
        for body in ['{"limit": 1}', '{"limit": 2}', '{"limit": 1}']:
            assert main(["policy", "add", *rule, "--body", body]) == 0
            capsys.readouterr()
        assert main(["policy", "get", *rule]) == 0
        assert _last_json(capsys)["record"]["rule_body"] == {"limit": 1}
        chain = cli.load_deployment(str(deployment)).node.ledger(Channel.GPF)
        assert chain.height == 8
        stamps = [block.transactions[0].submit_time_ms for block in chain.blocks[1:]]
        # A first run keeps time 0; a repeat takes the height it is committed at.
        assert stamps == [0, 0, 3, 4, 0, 0, 7]

    @pytest.mark.parametrize("rule, body", [
        ("block_max_txs", '{"value": 0}'),
        ("block_max_txs", '{"value": -3}'),
        ("block_max_txs", '{"value": "abc"}'),
        ("block_timeout_ms", '{"value": "abc"}'),
    ])
    def test_a_known_rule_value_it_cannot_use_reads_as_its_default(self, deployment, capsys, rule, body):
        osp_rule = ["--deployment", str(deployment), "--entity", "OSP", "--rule", rule]
        assert main(["policy", "add", *osp_rule, "--body", body]) == 0
        assert main(["policy", "add", "--deployment", str(deployment), "--entity", "RA", "--rule", "r0"]) == 0
        assert main(["policy", "revoke", *osp_rule]) == 0
        capsys.readouterr()
        assert main(["policy", "get", *osp_rule]) == 0
        assert _last_json(capsys)["record"]["status"] == "death"
        assert cli.load_deployment(str(deployment)).node.ledger(Channel.GPF).height == 4

    def test_get_absent_rule_fails(self, deployment, capsys):
        assert main(["policy", "get", "--deployment", str(deployment), "--entity", "RA", "--rule", "nope"]) == 1

    def test_non_pg_submitter_rejected(self, deployment, capsys):
        rc = main([
            "policy", "add", "--deployment", str(deployment),
            "--entity", "RA", "--rule", "x", "--body", "{}", "--by", "RCA-1",
        ])
        assert rc == 1


class TestBallotVerbs:
    def test_full_ballot_flow(self, deployment, tmp_path, capsys):
        meta = json.loads((deployment / "consortium.json").read_text())
        elector3 = next(m for m in meta["config"]["members"] if m["name"] == "Elector-3")
        # A brand-new elector certificate is the ballot target; freeze its
        # bytes to a file the CLI can endorse.
        target = tmp_path / "elector4.bin"
        assert main([
            "cert", "issue", "--deployment", str(deployment),
            "--issuer", "Elector-4", "--subject", "Elector-4", "--out", str(target),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "ballot", "tally", "--deployment", str(deployment),
            "--type", "AddElectorCert", "--target-cert", str(target),
        ])
        assert rc == 0 and _last_json(capsys)["status"] == "open"
        for elector in ("Elector-1", "Elector-2"):
            assert main([
                "ballot", "endorse", "--deployment", str(deployment),
                "--type", "AddElectorCert", "--target-cert", str(target), "--elector", elector,
            ]) == 0
        capsys.readouterr()
        main(["ballot", "tally", "--deployment", str(deployment), "--type", "AddElectorCert", "--target-cert", str(target)])
        assert _last_json(capsys)["status"] == "accepted"
        assert main([
            "ballot", "apply", "--deployment", str(deployment),
            "--type", "AddElectorCert", "--target-cert", str(target), "--elector", "Elector-1",
        ]) == 0
        capsys.readouterr()
        assert main(["cert", "validate", "--deployment", str(deployment), "--cert", str(target)]) == 0

    def test_apply_without_quorum_fails(self, deployment, tmp_path, capsys):
        target = tmp_path / "e5.bin"
        assert main([
            "cert", "issue", "--deployment", str(deployment),
            "--issuer", "Elector-5", "--subject", "Elector-5", "--out", str(target),
        ]) == 0
        rc = main([
            "ballot", "apply", "--deployment", str(deployment),
            "--type", "AddElectorCert", "--target-cert", str(target), "--elector", "Elector-1",
        ])
        assert rc == 1


class TestLedgerVerbs:
    def test_export_verify_import(self, deployment, tmp_path, capsys):
        out = tmp_path / "gccf.export"
        assert main(["ledger", "export", "--deployment", str(deployment), "--channel", "GCCF", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["ledger", "verify", str(out)]) == 0
        assert _last_json(capsys)["ok"] is True
        assert main(["ledger", "import", str(out), "--channel", "GCCF", "--deployment", str(deployment)]) == 0
        assert _last_json(capsys)["ok"] is True

    def test_import_without_a_deployment_is_a_usage_error(self, deployment, tmp_path, capsys):
        out = tmp_path / "gccf.export"
        assert main(["ledger", "export", "--deployment", str(deployment), "--channel", "GCCF", "--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["ledger", "import", str(out), "--channel", "GCCF"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: the following arguments are required: --deployment\n")

    def test_import_needs_the_channel(self, tmp_path, capsys):
        # With no policy rules the policy genesis holds no transaction, so nothing in the file names its channel.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value for key, value in BASE_CONFIG.items() if key != "policies"}))
        deployment = tmp_path / "dep"
        d = ["--deployment", str(deployment)]
        assert main(["network", "init", "--config", str(config), "--out", str(deployment)]) == 0
        exported = tmp_path / "gpf.export"
        assert main(["ledger", "export", *d, "--channel", "GPF", "--out", str(exported)]) == 0
        chain = (deployment / "gccf.chain").read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["ledger", "import", str(exported), *d])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: the following arguments are required: --channel\n")
        assert (deployment / "gccf.chain").read_bytes() == chain
        assert main(["ledger", "import", str(exported), "--channel", "GPF", *d]) == 0
        assert main(["policy", "add", *d, "--entity", "RA", "--rule", "r0"]) == 0
        capsys.readouterr()

    def test_failed_export_replace_keeps_the_old_file(self, deployment, tmp_path, monkeypatch):
        out = tmp_path / "gccf.export"
        out.write_bytes(b"old export")
        monkeypatch.setattr(os, "replace", _fail_replace)
        with pytest.raises(OSError, match="disk full"):
            main(["ledger", "export", "--deployment", str(deployment), "--channel", "GCCF", "--out", str(out)])
        assert out.read_bytes() == b"old export"
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("gccf.export")) == ["gccf.export"]

    def test_verify_flags_corruption(self, deployment, tmp_path, capsys):
        out = tmp_path / "gpf.export"
        assert main(["ledger", "export", "--deployment", str(deployment), "--channel", "GPF", "--out", str(out)]) == 0
        data = bytearray(out.read_bytes())
        data[len(data) // 2] ^= 0xFF
        corrupted = tmp_path / "gpf.corrupt"
        corrupted.write_bytes(bytes(data))
        assert main(["ledger", "verify", str(corrupted)]) == 1

    def test_chain_with_no_blocks_is_refused(self, tmp_path, capsys):
        empty = tmp_path / "empty.chain"
        empty.write_bytes(encode_chain([]))
        assert main(["ledger", "verify", str(empty)]) == 1
        assert capsys.readouterr().out.strip() == "verification failed: GCCF chain has no genesis block"


class TestGccfExport:
    def test_snapshot_files(self, deployment, tmp_path, capsys):
        base = tmp_path / "snapshot"
        assert main(["gccf", "export", "--deployment", str(deployment), "--out", str(base)]) == 0
        summary = _last_json(capsys)
        assert base.with_suffix(".bin").exists() and base.with_suffix(".json").exists()
        snapshot = json.loads(base.with_suffix(".json").read_text())
        assert snapshot["version"] == summary["version"]
        assert "Elector" in snapshot["certificates"]

    def test_failed_replace_keeps_the_old_snapshot(self, deployment, tmp_path, monkeypatch):
        base = tmp_path / "snapshot"
        files = [base.with_suffix(".bin"), base.with_suffix(".json")]
        for path in files:
            path.write_bytes(b"old " + path.name.encode())
        monkeypatch.setattr(os, "replace", _fail_replace)
        with pytest.raises(OSError, match="disk full"):
            main(["gccf", "export", "--deployment", str(deployment), "--out", str(base)])
        assert [path.read_bytes() for path in files] == [b"old snapshot.bin", b"old snapshot.json"]
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("snapshot")) == [
            "snapshot.bin", "snapshot.json",
        ]


def _grown_for_export(tmp_path: pathlib.Path) -> pathlib.Path:
    """A deployment grown by a 60-transaction simulation, then one CLI endorsement of a new elector."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    dep = tmp_path / "dep"
    assert main(["network", "init", "--config", str(config), "--out", str(dep)]) == 0
    nodes = [[n["role"], n["count"]] for n in BASE_CONFIG["nodes"]]
    scenario = {"seed": BASE_CONFIG["seed"], "nodes": nodes, "policies": BASE_CONFIG["policies"],
                "generate": {"count": 60, "spacing_ms": 10}}
    sim = Simulation(ScenarioConfig.from_json(scenario))
    sim.run()
    sim.export_ledgers(dep)
    target = tmp_path / "elector4.bin"
    assert main(["cert", "issue", "--deployment", str(dep), "--issuer", "Elector-4", "--subject", "Elector-4",
                 "--out", str(target)]) == 0
    assert main(["ballot", "endorse", "--deployment", str(dep), "--type", "AddElectorCert",
                 "--target-cert", str(target), "--elector", "Elector-1"]) == 0
    return dep


class TestGccfExportOfAGrownDeployment:
    def test_files_keep_their_digests(self, tmp_path, capsys):
        dep = _grown_for_export(tmp_path)
        capsys.readouterr()
        base = tmp_path / "snapshot"
        assert main(["gccf", "export", "--deployment", str(dep), "--out", str(base)]) == 0
        summary = _last_json(capsys)
        assert (summary["certificates"], summary["ballots"], summary["version"]) == (23, 1, 6)
        digests = {suffix: hashlib.sha256(base.with_suffix(suffix).read_bytes()).hexdigest()
                   for suffix in (".bin", ".json")}
        assert digests == {
            ".bin": "2b7444141d93b8f11d841b5dc111179c9e8d81e0144efd8550fdac40b423ff90",
            ".json": "0351ba733fc1e7b199c6c4573f2b55704e5d1f3a34c8f15ee54b1d1b8527f056",
        }

    def test_encode_frames_the_committed_bytes(self, tmp_path, monkeypatch):
        dep = _grown_for_export(tmp_path)
        node = cli.load_deployment(str(dep)).node
        snapshot = gccf.export_gccf(node.gccf_view, node.ledger(Channel.GCCF).tip_number)
        calls = []
        for module in (identity, gccf):
            original = module.canonical_encode
            monkeypatch.setattr(module, "canonical_encode", lambda cert, f=original: calls.append(cert) or f(cert))
        data = snapshot.encode()
        assert calls == []
        monkeypatch.undo()
        assert snapshot.encodings == tuple(identity.canonical_encode(c) for c in snapshot.certificates)
        assert data.endswith(b"".join(map(wire.field, snapshot.encodings)))


class TestSimAndMetrics:
    def test_sim_run_and_metrics_report(self, tmp_path, capsys):
        scenario = {
            "seed": 5,
            "nodes": [["Elector", 3], ["RCA", 1], ["ICA", 1], ["PG", 1], ["OSP", 1], ["RA", 1]],
            "network": {"latency_min_ms": 5, "latency_max_ms": 20, "drop_rate": 0.0},
            "generate": {"count": 30, "spacing_ms": 8},
            "policies": {"ballot_quorum": 2},
        }
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario))
        report_path = tmp_path / "report.json"
        ledger_dir = tmp_path / "ledgers"
        csv_path = tmp_path / "lifecycles.csv"
        rc = main([
            "sim", "run", "--scenario", str(scenario_path),
            "--report", str(report_path), "--out", str(ledger_dir), "--lifecycles", str(csv_path),
        ])
        assert rc == 0
        assert _last_json(capsys)["converged"] is True
        assert report_path.exists() and csv_path.exists()
        assert main(["ledger", "verify", str(ledger_dir / "gccf.chain")]) == 0
        capsys.readouterr()
        assert main(["metrics", "report", "--report", str(report_path), "--format", "json"]) == 0
        computed = _last_json(capsys)
        assert computed["committed"] > 0
        out_csv = tmp_path / "metrics.csv"
        assert main(["metrics", "report", "--report", str(report_path), "--format", "csv", "--out", str(out_csv)]) == 0
        assert out_csv.read_text().splitlines()[0] == "section,name,value"

    def test_seed_override_changes_digest(self, tmp_path, capsys):
        scenario = {
            "seed": 5,
            "nodes": [["Elector", 2], ["RCA", 1], ["PG", 1], ["OSP", 1]],
            "workload": [{"at_ms": 100, "action": "policy_add", "entity": "RA", "rule": "r", "body": {}}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        reports = []
        for seed in ("9", "10"):
            rp = tmp_path / f"r{seed}.json"
            assert main(["sim", "run", "--scenario", str(path), "--seed", seed, "--report", str(rp)]) == 0
            reports.append(json.loads(rp.read_text()))
        assert reports[0]["seed"] == 9 and reports[1]["seed"] == 10


def _fail_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("argv, names", [
    (["cert", "issue", "--issuer", "RCA-1", "--subject", "ICA-9", "--out", "ica9.bin"], ["ica9.bin", "ica9.bin.json"]),
    (["gccf", "export", "--out", "snapshot"], ["snapshot.bin", "snapshot.json"]),
], ids=["cert-issue", "gccf-export"])
def test_failed_second_replace_keeps_the_old_pair(deployment, tmp_path, monkeypatch, argv, names):
    files = [tmp_path / name for name in names]
    for path in files:
        path.write_bytes(b"old " + path.name.encode())
    real_replace = os.replace
    calls = []

    def fail_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_second)
    with pytest.raises(OSError, match="disk full"):
        main([*argv[:2], "--deployment", str(deployment), *argv[2:-1], str(tmp_path / argv[-1])])
    assert [path.read_bytes() for path in files] == [b"old " + name.encode() for name in names]
    stem = names[0].split(".")[0]
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(stem)) == names


class TestMetricsReportFile:
    @pytest.fixture
    def report_path(self, tmp_path):
        path = tmp_path / "report.json"
        assert main(["sim", "run", "--scenario", str(SAMPLE), "--report", str(path)]) == 0
        return path

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_is_the_printed_report_encoded_once(self, report_path, tmp_path, capsys, monkeypatch, fmt):
        capsys.readouterr()
        calls = []
        for name in ("report_to_json_bytes", "report_to_csv"):
            original = getattr(metrics, name)
            monkeypatch.setattr(metrics, name, lambda report, _f=original: calls.append(1) or _f(report))
        out = tmp_path / f"metrics.{fmt}"
        assert main(["metrics", "report", "--report", str(report_path), "--format", fmt, "--out", str(out)]) == 0
        assert len(calls) == 1
        assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_failed_replace_keeps_the_old_file(self, report_path, tmp_path, monkeypatch):
        out = tmp_path / "metrics.json"
        out.write_bytes(b"old metrics\n")
        monkeypatch.setattr(os, "replace", _fail_replace)
        with pytest.raises(OSError, match="disk full"):
            main(["metrics", "report", "--report", str(report_path), "--out", str(out)])
        assert out.read_bytes() == b"old metrics\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json", "report.json"]


_LIFECYCLE = {
    "tx_id": "aa", "channel": "GPF", "function": "AddPolicy", "submitter": "PG-1",
    "submit_ms": 10, "admit_ms": 20, "cut_ms": 30, "commits": {"OSP-1": 30, "RA-1": 45}, "size_bytes": 300,
}
_LIFECYCLE_FIELDS = {
    "tx_id": st.binary(max_size=4).map(bytes.hex), "channel": st.sampled_from(["GCCF", "GPF"]),
    "function": st.text(max_size=4), "submitter": st.text(max_size=4), "submit_ms": st.integers(0, 500),
    "admit_ms": st.integers(0, 500), "cut_ms": st.none() | st.integers(0, 500), "size_bytes": st.integers(0, 500),
    "commits": st.dictionaries(st.text(max_size=3), st.integers(501, 1000), min_size=1, max_size=3),
}
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _mutated(lifecycle, key, junk, drop):
    """The lifecycle with key dropped or set to junk; unchanged when key is None."""
    if key is None:
        return lifecycle
    if drop:
        return {k: v for k, v in lifecycle.items() if k != key}
    return {**lifecycle, key: junk}


# Report-shaped values: a lifecycle loses one field or holds any JSON value in it.
_SHAPED_REPORT = st.fixed_dictionaries({}, optional={
    "lifecycles": st.lists(
        st.builds(_mutated, st.fixed_dictionaries(_LIFECYCLE_FIELDS),
                  st.none() | st.sampled_from(sorted(_LIFECYCLE_FIELDS)), _ANY_JSON, st.booleans()),
        min_size=1, max_size=3,
    ) | _ANY_JSON,
    "ledger_sizes": st.dictionaries(st.sampled_from(["GCCF", "GPF"]), st.integers(0, 10**6) | _ANY_JSON) | _ANY_JSON,
})


class TestMalformedMetricsReport:
    """A report that is JSON but not a report is a usage error, never a traceback."""

    @pytest.mark.parametrize("report, message", [
        ([], "a report is a JSON object"),
        ({}, "report lacks 'lifecycles'"),
        ({"lifecycles": [{k: v for k, v in _LIFECYCLE.items() if k != "channel"}]}, "lifecycle lacks 'channel'"),
        ({"lifecycles": [_LIFECYCLE], "ledger_sizes": {"GPF": "abc"}}, "ledger size of 'GPF' must be an integer in [0, 2**63)"),
        ({"lifecycles": "abc"}, "report lifecycles must be a list"),
        ({"lifecycles": [7]}, "a lifecycle is a JSON object"),
        ({"lifecycles": [{**_LIFECYCLE, "commits": [["OSP-1", 30]]}]}, "lifecycle commits must map names to times"),
        ({"lifecycles": [{**_LIFECYCLE, "submit_ms": 10**400}]}, "lifecycle submit_ms must be an integer in [0, 2**63)"),
        ({"lifecycles": [{**_LIFECYCLE, "cut_ms": True}]}, "lifecycle cut_ms must be an integer in [0, 2**63)"),
        ({"lifecycles": [{**_LIFECYCLE, "channel": ["GPF"]}]}, "lifecycle channel must be a string"),
        ({"lifecycles": [_LIFECYCLE], "ledger_sizes": [1]}, "report ledger_sizes must map channels to sizes"),
        ({"lifecycles": [{**_LIFECYCLE, "tx_id": "tx-1"}]}, "lifecycle tx_id must be lowercase hex"),
    ], ids=["list", "empty-object", "no-channel", "size-not-a-number", "lifecycles-a-string", "lifecycle-a-number",
            "commits-a-list", "huge-time", "bool-time", "list-channel", "sizes-a-list", "id-not-hex"])
    def test_exits_2_with_cannot_read_report(self, tmp_path, capsys, report, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["metrics", "report", "--report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: cannot read report: {message}\n"

    def test_a_well_formed_report_still_computes(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"lifecycles": [_LIFECYCLE], "ledger_sizes": {"GPF": 2048}}))
        assert main(["metrics", "report", "--report", str(path)]) == 0
        computed = _last_json(capsys)
        assert computed["committed"] == 1 and computed["channels"]["GPF"]["ledger_size_kb"] == 2.0

    @settings(max_examples=200, deadline=None)
    @given(report=_ANY_JSON | _SHAPED_REPORT)
    def test_any_json_value_computes_or_prints_an_error(self, tmp_path_factory, report):
        path = tmp_path_factory.mktemp("report") / "report.json"
        path.write_text(json.dumps(report))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["metrics", "report", "--report", str(path)])
        if code == 0:
            assert err.getvalue() == "" and json.loads(out.getvalue())["committed"] >= 1
        else:
            assert code in (1, 2) and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestSimRunFiles:
    """``sim run`` writes its report, lifecycle and chain files whole or not at all."""

    def test_report_file_is_the_report_bytes(self, tmp_path):
        report_path, csv_path = tmp_path / "report.json", tmp_path / "lifecycles.csv"
        assert main(["sim", "run", "--scenario", str(SAMPLE), "--report", str(report_path),
                     "--lifecycles", str(csv_path)]) == 0
        expected = Simulation(ScenarioConfig.from_json(json.loads(SAMPLE.read_text()))).run()
        assert report_path.read_bytes() == expected.to_json_bytes() == identity.dump_json(expected.to_json())
        assert csv_path.read_text() == metrics.lifecycles_to_csv(expected.lifecycles)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lifecycles.csv", "report.json"]

    def test_failed_replace_keeps_the_old_report(self, tmp_path, monkeypatch):
        report_path = tmp_path / "report.json"
        report_path.write_bytes(b"old report\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            main(["sim", "run", "--scenario", str(SAMPLE), "--report", str(report_path)])
        assert report_path.read_bytes() == b"old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_failed_replace_keeps_the_old_chains(self, tmp_path, monkeypatch):
        out = tmp_path / "dep"
        out.mkdir()
        for name in cli.CHAIN_FILES.values():
            (out / name).write_bytes(b"old chain")
        monkeypatch.setattr(os, "replace", _fail_replace)
        with pytest.raises(OSError, match="disk full"):
            main(["sim", "run", "--scenario", str(SAMPLE), "--out", str(out)])
        assert _chain_files(out) == {name: b"old chain" for name in cli.CHAIN_FILES.values()}
        assert sorted(p.name for p in out.iterdir()) == sorted(cli.CHAIN_FILES.values())

    @pytest.mark.parametrize("old", [True, False], ids=["old-chains", "no-chains"])
    def test_failed_second_replace_keeps_the_old_pair(self, tmp_path, monkeypatch, old):
        out = tmp_path / "dep"
        out.mkdir()
        before = {name: f"old {name}".encode() for name in cli.CHAIN_FILES.values()} if old else {}
        for name, data in before.items():
            (out / name).write_bytes(data)
        real_replace = os.replace
        calls = []

        def fail_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_second)
        with pytest.raises(OSError, match="disk full"):
            main(["sim", "run", "--scenario", str(SAMPLE), "--out", str(out)])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_chunks_failing_midway_keep_the_old_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_bytes(b"old report\n")

        def chunks():
            yield b"{\n"
            raise RuntimeError("encoder failed")

        with pytest.raises(RuntimeError, match="encoder failed"):
            cli.write_atomic(target, chunks())
        assert target.read_bytes() == b"old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        cli.write_atomic(target, iter([b"{", b"}\n"]))
        assert target.read_bytes() == b"{}\n"

    def test_a_directory_target_is_refused_before_any_chunk(self, tmp_path):
        target = tmp_path / "report.json"
        target.mkdir()

        def chunks():
            raise AssertionError("a chunk was asked for")
            yield b""

        with pytest.raises(IsADirectoryError) as exc:
            cli.write_atomic(target, chunks())
        assert exc.value.filename == str(target)
        assert list(tmp_path.iterdir()) == [target]


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["ledger", "explode"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["cert", "validate", "--cert", "x"])
        assert exc.value.code == 2


def _parsed(parse, argv):
    """What parse(argv) writes and exits with: (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _usage_argvs(verb):
    """-h and usage errors of one verb: no arguments, an unknown flag, an extra argument, each bad choice."""
    head = [verb.group, verb.name]
    required = []
    for flags, kwargs in verb.arguments:
        if not flags[0].startswith("-"):
            required.append("x")
        elif kwargs.get("required"):
            required += [flags[0], kwargs.get("choices", ["x"])[0]]
    yield head + ["-h"]
    yield head
    yield head + required + ["--no-such-flag"]
    yield head + required + ["extra"]
    for flags, kwargs in verb.arguments:
        if "choices" in kwargs:
            yield head + required + [flags[0], "bogus"]


class TestOneVerbParser:
    """main builds only the parser of the verb argv names, and it reads exactly as the whole tree's."""

    @pytest.mark.parametrize("verb", cli.VERBS, ids=[f"{v.group}-{v.name}" for v in cli.VERBS])
    def test_help_and_usage_errors_match_the_whole_tree(self, verb):
        for argv in _usage_argvs(verb):
            whole = _parsed(cli.build_parser().parse_args, argv)
            assert whole[0] is not None, argv
            assert _parsed(main, argv) == whole, argv

    @pytest.mark.parametrize("argv", [[], ["-h"], ["nope"], ["ledger", "explode"], ["cert"],
                                      *([group, "-h"] for group in cli.GROUPS)])
    def test_help_and_usage_errors_outside_a_verb_match_the_whole_tree(self, argv):
        whole = _parsed(cli.build_parser().parse_args, argv)
        assert whole[0] is not None
        assert _parsed(main, argv) == whole

    def test_every_verb_is_in_the_whole_tree(self):
        groups = cli.build_parser()._subparsers._group_actions[0].choices
        listed = [(g, v) for g, p in groups.items() for v in p._subparsers._group_actions[0].choices]
        assert listed == [(v.group, v.name) for v in cli.VERBS]
        assert list(groups) == list(cli.GROUPS)

    @pytest.mark.parametrize("from_sys_argv", [False, True], ids=["argv", "sys.argv"])
    def test_a_restored_policy_get_builds_three_parsers(self, deployment, monkeypatch, capsys, from_sys_argv):
        assert main(["policy", "add", "--deployment", str(deployment), "--entity", "RA", "--rule", "r0"]) == 0
        capsys.readouterr()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argv = ["policy", "get", "--deployment", str(deployment), "--entity", "RA", "--rule", "r0"]
        if from_sys_argv:
            monkeypatch.setattr(sys, "argv", ["bbtm", *argv])
        assert (main() if from_sys_argv else main(argv)) == 0
        assert _last_json(capsys)["found"] is True
        assert len(built) <= 3

    def test_console_entry_reads_its_own_arguments(self, deployment, tmp_path):
        """``python -m bbtm.cli``, like the ``bbtm`` script, calls main() with no argv."""
        meta = json.loads((deployment / "consortium.json").read_text())
        rca = next(m for m in meta["config"]["members"] if m["name"] == "RCA-1")
        cert = tmp_path / "rca.json"
        cert.write_text(json.dumps(rca["cert"]))
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}

        def run(*argv):
            done = subprocess.run([sys.executable, "-m", "bbtm.cli", *argv], env=env, capture_output=True,
                                  text=True, timeout=120)
            return done.returncode, json.loads(done.stdout) if done.returncode in (0, 1) else done.stderr

        assert run("cert", "validate", "--deployment", str(deployment), "--cert", str(cert))[1]["result"] == "Success"
        code, out = run("policy", "get", "--deployment", str(deployment), "--entity", "Elector",
                        "--rule", "ballot_quorum")
        assert code == 0 and out["record"]["rule_body"] == {"min_endorsements": 2}
        code, err = run("policy", "get", "--deployment", str(deployment))
        assert code == 2 and "the following arguments are required: --entity, --rule" in err


class TestScenarioErrors:
    @pytest.mark.parametrize("scenario, message", [
        ({"seed": 1}, "missing key 'nodes'"),
        ({"seed": 1, "nodes": [["Elector", 3], ["RCA", 1], ["PG", 1], ["OSP", 1]],
          "faults": [{"crash_at_ms": 5}]}, "missing key 'node'"),
        ([1, 2], "a scenario is a JSON object"),
        ({**SAMPLE_SCENARIO, "generate": {"count": "x"}}, "generate count must be an integer"),
        ({**SAMPLE_SCENARIO, "generate": {"spacing_ms": 10}}, "generate count must be an integer"),
        ({**SAMPLE_SCENARIO, "workload": [{"action": "query", "node": "RA-1", "target": "RA-1"}]},
         "workload action at_ms must be an integer"),
        ({**SAMPLE_SCENARIO, "network": {**SAMPLE_SCENARIO["network"], "latency_min_ms": "a"}},
         "network latency_min_ms must be an integer"),
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 100, "action": "query", "node": "X-1", "target": "RA-1"}]},
         "unknown node 'X-1' at 100 ms"),
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 100, "action": "issue", "issuer": "ICA-9",
                                           "subject_name": "PCA-w0"}]},
         "unknown identity 'ICA-9' at 100 ms"),
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 100, "action": "query", "node": "RA-1"}]},
         "query action needs a string 'target'"),
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 100, "action": "endorse", "elector": "Elector-1",
                                           "type": "AddEveryone", "target": "RCA-1"}]},
         "unknown endorsement type 'AddEveryone'"),
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 100, "action": "explode"}]}, "unknown workload action 'explode'"),
        ({**SAMPLE_SCENARIO, "faults": [{"node": "RA-1", "crash_at_ms": "soon"}]}, "fault crash_at_ms must be an integer"),
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 100, "action": "policy_add", "entity": "Consortium", "rule": "x",
                                           "body": {"x": [1]}}]},
         "policy_add action body must map names to scalars"),
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 100, "action": "revoke", "target": "RA-1", "by": ["PG-1"]}]},
         "revoke action needs a string 'by'"),
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 100, "action": "issue", "issuer": "ICA-1",
                                           "subject_name": "PCA-w0", "not_after": "later"}]},
         "issue action not_after must be an integer"),
        ({**SAMPLE_SCENARIO, "faults": [{"node": "nobody", "crash_at_ms": 10}]}, "fault names unknown node nobody"),
        # Drop rates are numbers, never parsed, and a bool is not one.
        ({**SAMPLE_SCENARIO, "network": {**SAMPLE_SCENARIO["network"], "link_drop": {"RA-1": "0.5"}}},
         "network link_drop rates must be numbers"),
        ({**SAMPLE_SCENARIO, "network": {**SAMPLE_SCENARIO["network"], "link_drop": {"RA-1": True}}},
         "network link_drop rates must be numbers"),
        ({**SAMPLE_SCENARIO, "network": {**SAMPLE_SCENARIO["network"], "drop_rate": True}},
         "network drop_rate must be a number"),
        # Nor is anything but a JSON boolean read for its truth.
        ({**SAMPLE_SCENARIO, "generate": {"count": 20}, "auto_commit_members": "no"},
         "auto_commit_members must be true or false"),
        ({**SAMPLE_SCENARIO, "generate": {"count": 20}, "auto_commit_members": 0},
         "auto_commit_members must be true or false"),
        # A section of entries is a list.
        ({**SAMPLE_SCENARIO, "faults": {"node": "RA-1"}}, "faults must be a list"),
        ({**SAMPLE_SCENARIO, "faults": ["RA-1"]}, 'faults entries must be {"node", "crash_at_ms"} objects'),
        ({**SAMPLE_SCENARIO, "faults": [["RA-1", 5]]}, 'faults entries must be {"node", "crash_at_ms"} objects'),
        ({**SAMPLE_SCENARIO, "workload": {"action": "query"}}, "workload must be a list"),
        # A minted subject is named for its role, checked before the run and not when the action runs.
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": 10**9, "action": "issue", "issuer": "RCA-1",
                                           "subject_name": "Nobody-1"}]},
         "subject name 'Nobody-1' carries no role"),
        # Not counted against the quorum first: the message names the real fault.
        ({**SAMPLE_SCENARIO, "defer_bootstrap": ["Elector-8", "Elector-9"]},
         "defer_bootstrap names no member 'Elector-8'"),
        # A time before zero would move the virtual clock backwards.
        ({**SAMPLE_SCENARIO, "workload": [{"at_ms": -1, "action": "query", "node": "RA-1", "target": "RA-1"}]},
         "workload action at_ms cannot be negative"),
        ({**SAMPLE_SCENARIO, "faults": [{"node": "RA-1", "crash_at_ms": -5}]}, "fault crash_at_ms cannot be negative"),
        ({**SAMPLE_SCENARIO, "faults": [{"node": "RA-1", "crash_at_ms": 5, "recover_at_ms": -1}]},
         "fault recover_at_ms cannot be negative"),
        ({**SAMPLE_SCENARIO, "generate": {"count": 20, "start_ms": -50}}, "generate start_ms cannot be negative"),
        ({**SAMPLE_SCENARIO, "generate": {"count": 200, "spacing_ms": -10}}, "generate spacing_ms cannot be negative"),
        ({**SAMPLE_SCENARIO, "generate": {"count": -3}}, "generate count cannot be negative"),
        # A fault must crash its node before it can recover it.
        ({**SAMPLE_SCENARIO, "faults": [{"node": "RA-1", "crash_at_ms": 5000, "recover_at_ms": 100}]},
         "fault of RA-1 recovers at 100 ms, before it crashes at 5000 ms"),
        # Two faults on one node whose down windows share an instant would crash it twice, in either order.
        ({**SAMPLE_SCENARIO, "generate": {"count": 20},
          "faults": [{"node": "RA-1", "crash_at_ms": 100, "recover_at_ms": 500},
                     {"node": "RA-1", "crash_at_ms": 300, "recover_at_ms": 800}]},
         "faults of RA-1 overlap: down 100-500 ms and 300-800 ms"),
        ({**SAMPLE_SCENARIO, "generate": {"count": 20},
          "faults": [{"node": "RA-1", "crash_at_ms": 100}, {"node": "RA-1", "crash_at_ms": 300, "recover_at_ms": 400}]},
         "faults of RA-1 overlap: down from 100 ms and 300-400 ms"),
        ({**SAMPLE_SCENARIO, "generate": {"count": 20},
          "faults": [{"node": "RA-1", "crash_at_ms": 100, "recover_at_ms": 300},
                     {"node": "RA-1", "crash_at_ms": 300, "recover_at_ms": 500}]},
         "faults of RA-1 overlap: down 100-300 ms and 300-500 ms"),
        ({**SAMPLE_SCENARIO, "generate": {"count": 20},
          "faults": [{"node": "RA-1", "crash_at_ms": 300, "recover_at_ms": 500},
                     {"node": "RA-1", "crash_at_ms": 100, "recover_at_ms": 300}]},
         "faults of RA-1 overlap: down 300-500 ms and 100-300 ms"),
        # A generated issue needs an issuer in the genesis.
        ({"seed": 1, "nodes": [["Elector", 2], ["RCA", 1], ["PG", 1], ["OSP", 1]], "generate": {"count": 3},
          "defer_bootstrap": ["RCA-1"]}, "generated workload needs an RCA or ICA"),
        # A quorum below 1 is read as the default of 2, which one elector cannot reach.
        ({**SAMPLE_SCENARIO, "nodes": [["Elector", 1] if r == "Elector" else [r, c] for r, c in SAMPLE_SCENARIO["nodes"]],
          "policies": {"ballot_quorum": 0}}, "fewer electors than the ballot quorum"),
    ])
    def test_sim_run_exits_2_with_config_invalid(self, tmp_path, capsys, scenario, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["sim", "run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: config-invalid: {message}\n"

    def test_seed_override_fills_a_missing_seed(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"nodes": [["Elector", 3], ["RCA", 1], ["PG", 1], ["OSP", 1]]}))
        assert main(["sim", "run", "--scenario", str(path), "--seed", "4"]) == 0

    def test_a_fault_that_recovers_as_it_crashes_runs(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SAMPLE_SCENARIO, "generate": {"count": 5},
                                    "faults": [{"node": "RA-1", "crash_at_ms": 300, "recover_at_ms": 300}]}))
        assert main(["sim", "run", "--scenario", str(path)]) == 0
        assert _last_json(capsys)["converged"] is True


_TIMES = st.integers(-60, 600)
_RULE_VALUES = st.integers(-3, 3)


@st.composite
def _boundary_scenarios(draw):
    """A run of at most ten transactions whose count, times, spacing, fault times
    and known-rule values are drawn with zero and negative values among them;
    a drawn fault may recover before it crashes, and two may share a node."""
    (entity, rule), body_key, _default = gpf.KNOWN_RULES[draw(st.sampled_from(sorted(gpf.KNOWN_RULES)))]
    generate = {"count": draw(st.integers(-2, 6)), "spacing_ms": draw(st.integers(-20, 20))}
    if draw(st.booleans()):
        generate["start_ms"] = draw(_TIMES)
    faults = [{"node": node, "crash_at_ms": crash, "recover_at_ms": recover}
              for node, crash, recover in draw(st.lists(
                  st.tuples(st.sampled_from(["RA-1", "OSP-1"]), _TIMES, st.none() | _TIMES), max_size=2))]
    return {
        "seed": draw(st.integers(0, 3)),
        "nodes": [["Elector", 3], ["RCA", 1], ["ICA", 1], ["PG", 1], ["OSP", 1], ["RA", 1]],
        "network": {"latency_min_ms": 5, "latency_max_ms": 20, "drop_rate": 0.0},
        "generate": generate,
        "policies": draw(st.dictionaries(st.sampled_from(sorted(gpf.KNOWN_RULES)), _RULE_VALUES, max_size=3)),
        "workload": [{"at_ms": draw(_TIMES), "action": "policy_add", "entity": entity, "rule": rule,
                      "body": {body_key: draw(_RULE_VALUES | st.just("abc"))}}],
        "faults": faults,
    }


class TestScenarioBoundaries:
    @settings(max_examples=15, deadline=None)
    @given(scenario=_boundary_scenarios())
    def test_a_run_ends_or_is_config_invalid(self, tmp_path_factory, scenario):
        path = tmp_path_factory.mktemp("scenario") / "scenario.json"
        path.write_text(json.dumps(scenario))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sim", "run", "--scenario", str(path)])
        if code == 2:
            assert err.getvalue().startswith("error: config-invalid: ") and err.getvalue().count("\n") == 1
            # Refused before the run, never stopped in it by a second crash of one node.
            assert "already-crashed" not in err.getvalue()
        else:
            assert code in (0, 1) and err.getvalue() == "" and "converged" in json.loads(out.getvalue())
            # Only a scenario that passed every check before the run gets to run.
            assert scenario["generate"]["count"] >= 0
            assert all(f["recover_at_ms"] is None or f["recover_at_ms"] >= f["crash_at_ms"] for f in scenario["faults"])
            if len(scenario["faults"]) == 2:
                first, second = sorted(scenario["faults"], key=lambda f: f["crash_at_ms"])
                assert first["node"] != second["node"] or (
                    first["recover_at_ms"] is not None and first["recover_at_ms"] < second["crash_at_ms"])


def _chain_files(dep):
    return {name: (dep / name).read_bytes() for name in cli.CHAIN_FILES.values()}


class TestAtomicImport:
    """``ledger import --deployment`` changes the deployment only if it still loads."""

    def _export(self, dep, tmp_path, capsys, channel="GCCF"):
        out = tmp_path / f"{dep.name}.{channel}.export"
        assert main(["ledger", "export", "--deployment", str(dep), "--channel", channel, "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_foreign_chain_is_refused_and_target_still_loads(self, deployment, tmp_path, capsys):
        other_config = tmp_path / "other.json"
        other_config.write_text(json.dumps({**BASE_CONFIG, "seed": 78}))
        other = tmp_path / "other"
        assert main(["network", "init", "--config", str(other_config), "--out", str(other)]) == 0
        foreign = self._export(other, tmp_path, capsys)
        before = _chain_files(deployment)
        assert main(["ledger", "import", str(foreign), "--channel", "GCCF", "--deployment", str(deployment)]) == 1
        assert "not cut by this deployment's ordering service" in capsys.readouterr().err
        assert _chain_files(deployment) == before
        assert sorted(p.name for p in deployment.iterdir() if p.name.endswith(".tmp")) == []
        cli.load_deployment(str(deployment))
        assert main(["gccf", "export", "--deployment", str(deployment), "--out", str(tmp_path / "snap")]) == 0

    def test_chain_that_does_not_replay_is_refused_and_nothing_written(self, deployment, tmp_path, capsys):
        # Cut by the deployment's own ordering service and validly signed, so
        # only the contract replay can refuse it: ICA-1 may not certify an MA.
        dep = cli.load_deployment(str(deployment))
        ica = dep.identity("ICA-1")
        osp = dep.identity(dep.consortium.osp_cert.subject_name)
        chain = dep.node.ledger(Channel.GCCF)
        bad = gccf.make_add_cert_tx(make_identity("MA-7", ica).cert, ica.cert, ica.key, 0)
        block = make_block(chain.height, chain.head_hash(), [bad], osp.cert, osp.key)
        path = tmp_path / "bad.chain"
        path.write_bytes(encode_chain(chain.blocks + [block]))
        before = _chain_files(deployment)
        assert main(["ledger", "import", str(path), "--channel", "GCCF", "--deployment", str(deployment)]) == 1
        assert "does not replay" in capsys.readouterr().err
        assert _chain_files(deployment) == before
        cli.load_deployment(str(deployment))

    def test_chain_without_genesis_is_refused(self, deployment, tmp_path, capsys):
        empty = tmp_path / "empty.chain"
        empty.write_bytes(encode_chain([]))
        assert len(empty.read_bytes()) == 5
        before = _chain_files(deployment)
        assert main(["ledger", "import", str(empty), "--deployment", str(deployment), "--channel", "GPF"]) == 1
        assert "GPF chain has no genesis block" in capsys.readouterr().err
        assert _chain_files(deployment) == before
        get = ["policy", "get", "--deployment", str(deployment), "--entity", "Elector", "--rule", "ballot_quorum"]
        assert main(get) == 0
        assert _last_json(capsys)["found"] is True
        (deployment / "gpf.chain").write_bytes(empty.read_bytes())
        assert main(get) == 1
        assert "GPF chain has no genesis block" in capsys.readouterr().err

    def test_valid_import_replaces_the_chain(self, deployment, tmp_path, capsys):
        source = tmp_path / "ica9.bin"
        exported = self._export(deployment, tmp_path, capsys)
        assert main(["cert", "issue", "--deployment", str(deployment), "--issuer", "RCA-1", "--subject", "ICA-9",
                     "--out", str(source), "--submit"]) == 0
        capsys.readouterr()
        grown = (deployment / "gccf.chain").read_bytes()
        assert main(["ledger", "import", str(exported), "--channel", "GCCF", "--deployment", str(deployment)]) == 0
        assert (deployment / "gccf.chain").read_bytes() == exported.read_bytes() != grown
        assert cli.load_deployment(str(deployment)).node.ledger(Channel.GCCF).height == 1

    def test_import_checks_each_block_once(self, deployment, tmp_path, capsys, monkeypatch):
        for i in range(5):
            assert main(["policy", "add", "--deployment", str(deployment), "--entity", "RA", "--rule", f"r{i}"]) == 0
        exported = self._export(deployment, tmp_path, capsys, channel="GPF")
        calls = []
        original = ledger_mod.data_hash_of
        monkeypatch.setattr(ledger_mod, "data_hash_of", lambda txs: calls.append(1) or original(txs))
        assert main(["ledger", "import", str(exported), "--channel", "GPF", "--deployment", str(deployment)]) == 0
        # One check per block: the 1-block GCCF chain and the 6-block GPF chain.
        assert len(calls) == 7
        chain = cli.load_deployment(str(deployment)).node.ledger(Channel.GPF)
        assert _last_json(capsys) == {"ok": True, "channel": "GPF", "height": 6, "head": chain.head_hash().hex()}

    def test_failed_write_keeps_the_old_file(self, deployment, monkeypatch):
        target = deployment / "gccf.chain"
        before = target.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            cli.write_atomic(target, b"partial")
        assert target.read_bytes() == before
        assert not (deployment / "gccf.chain.tmp").exists()


GENESIS = SAMPLE.parent / "genesis.json"


@pytest.fixture
def sample_deployment(tmp_path):
    """A fresh deployment of samples/genesis.json."""
    dep = tmp_path / "sample-dep"
    assert main(["network", "init", "--config", str(GENESIS), "--out", str(dep)]) == 0
    return dep


# SHA-256 of the consortium file and system block network init writes for samples/genesis.json.
SAMPLE_CONSORTIUM_SHA256 = "83b9264de62a307ccf446814bb6a35e2561bdebe260661017ab87f926e20c6e7"
SAMPLE_SYSTEM_BLOCK_SHA256 = "4284b5e264871c58b90754a75aa5ddbc3ad4ad357c2b9ed05ab7fae222986791"


class TestProtocolConstants:
    """consortium.json records the channel writers and the consensus name, which the protocol fixes."""

    def test_network_init_writes_the_pinned_files(self, sample_deployment):
        digests = {name: hashlib.sha256((sample_deployment / name).read_bytes()).hexdigest()
                   for name in ("consortium.json", "system.block")}
        assert digests == {"consortium.json": SAMPLE_CONSORTIUM_SHA256, "system.block": SAMPLE_SYSTEM_BLOCK_SHA256}

    @pytest.mark.parametrize("spoil, message", [
        (lambda config: config["channel_policies"]["GCCF"]["writers"].remove("RCA"),
         "channel_policies must be the protocol's channel writers"),
        (lambda config: config["channel_policies"]["GPF"]["writers"].append("RA"),
         "channel_policies must be the protocol's channel writers"),
        (lambda config: config["channel_policies"]["GCCF"]["readers"].remove("EE"),
         "channel_policies must be the protocol's channel writers"),
        (lambda config: config.update(consensus_id="pbft"), "consensus_id must be 'single-sequencer'"),
    ], ids=["gccf-without-rca", "gpf-with-ra", "gccf-without-ee-readers", "other-consensus"])
    def test_an_edited_protocol_is_not_a_deployment(self, sample_deployment, tmp_path, capsys, spoil, message):
        path = sample_deployment / "consortium.json"
        meta = json.loads(path.read_text())
        spoil(meta["config"])
        path.write_text(json.dumps(meta))
        chain = (sample_deployment / "gccf.chain").read_bytes()
        capsys.readouterr()
        assert main(["cert", "issue", "--deployment", str(sample_deployment), "--issuer", "RCA-1",
                     "--subject", "ICA-7", "--out", str(tmp_path / "ica7.bin"), "--submit"]) == 1
        assert capsys.readouterr() == ("", f"error: not a deployment directory: {message}\n")
        assert (sample_deployment / "gccf.chain").read_bytes() == chain


class TestUnwritableOutput:
    """An output path that cannot be written is a reported failure naming it, never a traceback."""

    @pytest.mark.parametrize("flag", ["--report", "--lifecycles"])
    def test_sim_run_file_onto_a_directory(self, tmp_path, capsys, flag):
        target = tmp_path / "a-directory"
        target.mkdir()
        assert main(["sim", "run", "--scenario", str(SAMPLE), flag, str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]

    def test_sim_run_chains_into_a_file(self, tmp_path, capsys):
        target = tmp_path / "a-file"
        target.write_bytes(b"kept")
        assert main(["sim", "run", "--scenario", str(SAMPLE), "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
        assert target.read_bytes() == b"kept"

    @pytest.mark.parametrize("verb", [["ledger", "export", "--channel", "GCCF"], ["gccf", "export"]],
                             ids=["ledger-export", "gccf-export"])
    @pytest.mark.parametrize("where", ["a-directory", "missing/x"])
    def test_export_to_an_unwritable_path(self, deployment, tmp_path, capsys, verb, where):
        (tmp_path / "a-directory").mkdir()
        if verb[0] == "gccf":
            (tmp_path / "a-directory.bin").mkdir()
        target = tmp_path / where
        before = _chain_files(deployment)
        assert main([*verb, "--deployment", str(deployment), "--out", str(target)]) == 1
        # gccf export writes <out>.bin first, and the error names that file.
        named = target.with_suffix(".bin") if verb[0] == "gccf" else target
        assert capsys.readouterr().err.startswith(f"error: cannot write {named}: ")
        assert _chain_files(deployment) == before

    def test_network_init_into_a_file_and_metrics_onto_a_directory(self, tmp_path, capsys):
        target = tmp_path / "a-file"
        target.write_bytes(b"kept")
        assert main(["network", "init", "--config", str(GENESIS), "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
        assert target.read_bytes() == b"kept"
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"lifecycles": [_LIFECYCLE]}))
        assert main(["metrics", "report", "--report", str(report), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot write {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("submit", [True, False], ids=["submit", "no-submit"])
    def test_cert_issue_to_a_missing_directory_commits_nothing(self, sample_deployment, tmp_path, capsys, submit):
        d = ["--deployment", str(sample_deployment)]
        files = {p.name: p.read_bytes() for p in sample_deployment.iterdir()}
        issue = ["cert", "issue", *d, "--issuer", "RCA-1", "--subject", "ICA-9"] + (["--submit"] if submit else [])
        missing = tmp_path / "missing" / "p.bin"
        assert main([*issue, "--out", str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")
        assert {p.name: p.read_bytes() for p in sample_deployment.iterdir()} == files
        # Nothing was committed, so the same command succeeds once the path is writable,
        # and the new subject's key is kept: it can issue in turn.
        assert main([*issue, "--out", str(tmp_path / "p.bin")]) == 0
        assert _last_json(capsys)["submitted"] is submit
        assert main(["cert", "issue", *d, "--issuer", "ICA-9", "--subject", "PCA-9",
                     "--out", str(tmp_path / "pca9.bin")]) == 0

    def test_cert_issue_names_the_deployment_file_it_cannot_write(self, sample_deployment, tmp_path, capsys):
        files = {p.name: p.read_bytes() for p in sample_deployment.iterdir()}
        (sample_deployment / "state.bin.tmp").mkdir()  # state.bin's temp file cannot be opened
        out = tmp_path / "p.bin"
        assert main(["cert", "issue", "--deployment", str(sample_deployment), "--issuer", "RCA-1",
                     "--subject", "ICA-9", "--submit", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {sample_deployment / 'state.bin'}: Is a directory\n"
        (sample_deployment / "state.bin.tmp").rmdir()
        assert {p.name: p.read_bytes() for p in sample_deployment.iterdir()} == files
        assert not out.exists()


class TestPolicyBody:
    @pytest.mark.parametrize("body", ["[1]", "null", '{"a":[1]}', '{"a":1.5}', '"text"', '{"a":null}'])
    def test_a_body_that_is_not_an_object_of_scalars_is_a_usage_error(self, deployment, capsys, body):
        before = _chain_files(deployment)
        assert main(["policy", "add", "--deployment", str(deployment), "--entity", "RA", "--rule", "r",
                     "--body", body]) == 2
        assert capsys.readouterr().err == "error: --body must be a JSON object of scalars\n"
        assert _chain_files(deployment) == before


class TestGenesisQuorum:
    """Only the genesis sets the ballot quorum: a later write of it is refused and changes no tally."""

    QUORUM = ["--entity", "Elector", "--rule", "ballot_quorum"]

    @pytest.mark.parametrize("verb", [["add", "--body", '{"min_endorsements": 1}'], ["revoke"]],
                             ids=["add", "revoke"])
    def test_a_write_of_the_quorum_is_refused(self, sample_deployment, capsys, verb):
        before = {p.name: p.read_bytes() for p in sample_deployment.iterdir()}
        assert main(["policy", verb[0], "--deployment", str(sample_deployment), *self.QUORUM, *verb[1:]]) == 1
        assert capsys.readouterr() == ("", "error: rejected: genesis-rule\n")
        assert {p.name: p.read_bytes() for p in sample_deployment.iterdir()} == before

    def test_one_endorsement_stays_short_of_the_genesis_quorum(self, sample_deployment, tmp_path, capsys):
        d = ["--deployment", str(sample_deployment)]
        assert main(["policy", "add", *d, *self.QUORUM, "--body", '{"min_endorsements": 1}']) == 1
        target = tmp_path / "rca7.bin"
        assert main(["cert", "issue", *d, "--issuer", "RCA-7", "--subject", "RCA-7", "--out", str(target)]) == 0
        ballot = [*d, "--type", "AddRootCert", "--target-cert", str(target), "--elector", "Elector-1"]
        assert main(["ballot", "endorse", *ballot]) == 0
        capsys.readouterr()
        assert main(["ballot", "apply", *ballot]) == 1
        assert capsys.readouterr().err == "error: cannot apply ballot: not-accepted\n"
        assert main(["cert", "validate", *d, "--cert", str(target)]) == 1
        assert _last_json(capsys)["result"] == "NotVerify"


class TestQuorumBelowOne:
    """A genesis ballot_quorum below 1 is read as its default, so no ballot passes without endorsements."""

    @pytest.mark.parametrize("quorum", [0, -1])
    def test_no_ballot_passes_unendorsed(self, tmp_path, capsys, quorum):
        config = tmp_path / "genesis.json"
        genesis = json.loads(GENESIS.read_text())
        config.write_text(json.dumps({**genesis, "policies": {**genesis["policies"], "ballot_quorum": quorum}}))
        sample_deployment = tmp_path / "dep"
        assert main(["network", "init", "--config", str(config), "--out", str(sample_deployment)]) == 0
        d = ["--deployment", str(sample_deployment)]
        new_root = tmp_path / "rca2.bin"
        assert main(["cert", "issue", *d, "--issuer", "RCA-2", "--subject", "RCA-2", "--out", str(new_root)]) == 0
        capsys.readouterr()
        assert main(["ballot", "tally", *d, "--type", "AddRootCert", "--target-cert", str(new_root)]) == 0
        tally = _last_json(capsys)
        assert (tally["status"], tally["valid_count"]) == ("open", 0)
        meta = json.loads((sample_deployment / "consortium.json").read_text())
        rca = tmp_path / "rca1.json"
        rca.write_text(json.dumps(next(m for m in meta["config"]["members"] if m["name"] == "RCA-1")["cert"]))
        before = _chain_files(sample_deployment)
        assert main(["ballot", "apply", *d, "--type", "RevokeRootCert", "--target-cert", str(rca),
                     "--elector", "Elector-1"]) == 1
        assert capsys.readouterr().err == "error: cannot apply ballot: not-accepted\n"
        assert _chain_files(sample_deployment) == before
        assert main(["cert", "validate", *d, "--cert", str(rca)]) == 0
        assert _last_json(capsys)["result"] == "Success"


class TestLevelThreeWithoutADeployment:
    """ROADMAP item 2: no verb checks a chain through the contracts without a deployment."""

    @pytest.fixture
    def forbidden_issue(self, sample_deployment, tmp_path):
        """The sample GCCF chain plus a block, cut by the real OSP, in which RA-1 issues RCA-5."""
        dep = cli.load_deployment(str(sample_deployment))
        osp, ra = dep.identity("OSP-1"), dep.identity("RA-1")
        rca5 = derive_identity(dep.seed, "RCA-5", ra, validity=dep.validity, serial=bytes(16),
                               now_s=dep.validity[0])
        chain = dep.node.ledger(Channel.GCCF)
        block = make_block(chain.height, chain.head_hash(), [gccf.make_add_cert_tx(rca5.cert, ra.cert, ra.key, 0)],
                           osp.cert, osp.key)
        path = tmp_path / "forbidden.chain"
        path.write_bytes(chain.chain_image() + wire.field(block.encode()))
        return path

    def test_the_deployment_refuses_the_block(self, sample_deployment, forbidden_issue, capsys):
        assert main(["ledger", "import", str(forbidden_issue), "--channel", "GCCF",
                     "--deployment", str(sample_deployment)]) == 1
        assert "role-violation" in capsys.readouterr().err

    @pytest.mark.xfail(strict=True, reason="ledger verify checks levels 1-2 only (ROADMAP item 2)")
    @pytest.mark.parametrize("verb", [["ledger", "verify"]], ids=["verify"])
    def test_a_chain_check_without_a_deployment_refuses_it(self, forbidden_issue, capsys, verb):
        assert main([*verb, str(forbidden_issue)]) == 1
