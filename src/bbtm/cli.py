"""Command-line interface.

``network init`` materializes a deployment directory (keys, consortium
config, the three genesis blocks); the ledger, certificate, policy, and
ballot verbs operate on such a directory as a one-node network, committing
one block per mutating command; ``sim run`` executes scenario files on the
in-process simulator and ``metrics report`` post-processes its report.

Exit codes: 0 success, 1 verification or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

from . import ballot as ballot_mod
from . import gccf, gpf, metrics
from .deployment import (  # CHAIN_FILES: re-exported
    CHAIN_FILES,
    CliDeployment,
    CliError,
    build_deployment,
    check_objects,
    check_role,
    derive_bytes,
    derive_identity,
    expand_node_counts,
    genesis_node,
    load_deployment,
    locked,
    read_node_counts,
    write_deployment,
)
from .identity import (
    AuthorityRole,
    CertificateError,
    CertificateRecord,
    Identity,
    canonical_encode,
    cert_from_json,
    cert_to_json,
    decode_certificate,
    dump_json,
    role_of_name,
    sha256,
    write_all_atomic,
    write_atomic,
)
from .ledger import Channel, LedgerError, decode_chain, infer_channel, verify_chain
from .simulation import ScenarioConfig, Simulation, SimulationError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _print_json(obj) -> None:
    sys.stdout.write(dump_json(obj).decode("utf-8"))


# The errors that say an output path cannot be written at all.  Any other
# OSError (a full disk, say) propagates as it did.
UNWRITABLE = (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


@contextlib.contextmanager
def writing(path) -> Iterator[None]:
    """Report a file the block cannot write (path, a file beside it, a
    deployment file) as a failure that names it; write_atomic and
    write_all_atomic name the file a failed write was to replace."""
    try:
        yield
    except UNWRITABLE as exc:
        raise CliError(f"cannot write {exc.filename if exc.filename is not None else path}: {exc.strerror}") from exc


def read_cert_file(path_str: str) -> CertificateRecord:
    try:
        data = pathlib.Path(path_str).read_bytes()
        if data.lstrip().startswith(b"{"):
            return cert_from_json(json.loads(data.decode("utf-8")))
        return decode_certificate(data)
    except (CertificateError, OSError, ValueError) as exc:
        raise CliError(f"cannot read certificate: {exc}") from exc


# ------------------------------------------------------------------ commands


def cmd_network_init(args) -> int:
    try:
        config = json.loads(pathlib.Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config: {exc}", EXIT_USAGE) from exc
    if not isinstance(config, dict):
        raise CliError("config-invalid: a network config is a JSON object", EXIT_USAGE)
    try:
        if "members" in config:
            entries = check_objects(config["members"], "members", '{"role", "name"}')
            members = [(check_role(m["role"]), m["name"]) for m in entries]
        elif "nodes" in config:
            members = expand_node_counts(read_node_counts(config["nodes"]))
        else:
            raise CliError("config-invalid: config needs a 'members' or 'nodes' section", EXIT_USAGE)
        # build_deployment checks the fields and holds the defaults.
        given = {key: config[key] for key in ("validity", "defer_bootstrap") if key in config}
        dep = build_deployment(config["seed"], members, config.get("policies", {}), **given)
        node = genesis_node(dep, dep.osp.cert)
    except KeyError as exc:
        raise CliError(f"config-invalid: missing key {exc.args[0]!r}", EXIT_USAGE) from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise CliError(f"config-invalid: {exc}", EXIT_USAGE) from exc
    with writing(args.out):
        write_deployment(dep, node, pathlib.Path(args.out))
    _print_json(
        {
            "deployment": args.out,
            "members": len(dep.consortium.members),
            "gccf_genesis_txs": len(dep.genesis.gccf_genesis.transactions),
            "gpf_genesis_txs": len(dep.genesis.gpf_genesis.transactions),
        }
    )
    return EXIT_OK


def cmd_sim_run(args) -> int:
    try:
        scenario = json.loads(pathlib.Path(args.scenario).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read scenario: {exc}", EXIT_USAGE) from exc
    if not isinstance(scenario, dict):
        raise CliError("config-invalid: a scenario is a JSON object", EXIT_USAGE)
    if args.seed is not None:
        scenario["seed"] = args.seed
    try:
        sim = Simulation(ScenarioConfig.from_json(scenario))
        report = sim.run()
    except SimulationError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    if args.report:
        with writing(args.report):
            write_atomic(pathlib.Path(args.report), report.iter_json())
    if args.out:
        with writing(args.out):
            sim.export_ledgers(args.out)
    if args.lifecycles:
        with writing(args.lifecycles):
            write_atomic(pathlib.Path(args.lifecycles), metrics.lifecycles_to_csv(report.lifecycles).encode("utf-8"))
    summary = {
        "converged": report.converged,
        "stalled": report.stalled,
        "nodes": len(report.nodes),
        "committed_lifecycles": sum(1 for lc in report.lifecycles if lc.commits),
        "rejections": len(report.rejections),
        "end_ms": report.end_ms,
    }
    try:
        import resource

        # Informational only; never part of the deterministic report file.
        summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except ImportError:  # pragma: no cover - non-POSIX
        pass
    _print_json(summary)
    return EXIT_OK if report.converged and not report.stalled else EXIT_FAIL


def cmd_ledger_verify(args) -> int:
    try:
        blocks = decode_chain(pathlib.Path(args.file).read_bytes())
        ledger, fail_at = verify_chain(infer_channel(blocks), blocks)
    except (OSError, LedgerError) as exc:
        print(f"verification failed: {exc}")
        return EXIT_FAIL
    if fail_at is None:
        _print_json({"ok": True, "height": ledger.height, "head": ledger.head_hash().hex()})
        return EXIT_OK
    _print_json({"ok": False, "fail_at": fail_at})
    return EXIT_FAIL


def cmd_ledger_export(args) -> int:
    dep = load_deployment(args.deployment)
    channel = Channel(args.channel)
    data = dep.node.ledger(channel).chain_image()
    with writing(args.out):
        write_atomic(pathlib.Path(args.out), data)
    _print_json({"channel": channel.value, "bytes": len(data), "height": dep.node.ledger(channel).height})
    return EXIT_OK


def cmd_ledger_import(args) -> int:
    try:
        blocks = decode_chain(pathlib.Path(args.file).read_bytes())
    except (OSError, LedgerError) as exc:
        print(f"import failed: {exc}")
        return EXIT_FAIL
    channel = Channel(args.channel)
    # The deployment's replay of the imported chain is the gate: it runs
    # verify_chain's levels and the contracts, so a refusal is reported as a
    # deployment error, and the chain files change only once it passes.  The
    # other channel's file is written back as it was read.
    dep = load_deployment(args.deployment, chains={channel: blocks})
    ledger = dep.node.ledger(channel)
    dep.save_chains()
    _print_json({"ok": True, "channel": channel.value, "height": ledger.height, "head": ledger.head_hash().hex()})
    return EXIT_OK


def cmd_cert_issue(args) -> int:
    dep = load_deployment(args.deployment)
    subject_name = args.subject
    if role_of_name(subject_name) is None:
        raise CliError(f"subject name {subject_name!r} must start with a role prefix", EXIT_USAGE)
    not_before = args.not_before if args.not_before is not None else dep.validity[0]
    not_after = args.not_after if args.not_after is not None else dep.validity[1]
    serial = derive_bytes(
        dep.seed, f"cli-serial:{subject_name}:{dep.node.ledger(Channel.GCCF).height}", 16
    )
    # Naming the subject as its own issuer mints a self-signed record.
    issuer = None if args.issuer == subject_name else dep.identity(args.issuer)
    try:
        ident = derive_identity(
            dep.seed, subject_name, issuer, validity=(not_before, not_after), serial=serial, now_s=not_before
        )
    except CertificateError as exc:
        raise CliError(str(exc)) from exc
    cert = ident.cert
    result = {"cert": args.out, "serial": cert.serial_number.hex(), "submitted": False}
    out = pathlib.Path(args.out)
    # The record's two files and its key are one write group; a submission
    # writes them with the chains that commit it, so a subject is committed
    # exactly when its key is kept, and a refusal writes nothing.
    files = [
        (out, canonical_encode(cert)),
        (out.with_suffix(out.suffix + ".json"), dump_json(cert_to_json(cert))),
        dep.register_extra(ident),
    ]
    with writing(args.out):
        if args.submit:
            block = dep.submit_command(ident if issuer is None else issuer, gccf.make_add_cert_tx, cert, first=files)
            result.update({"submitted": True, "block": block})
        else:
            write_all_atomic(files)
    _print_json(result)
    return EXIT_OK


def cmd_cert_validate(args) -> int:
    dep = load_deployment(args.deployment)
    cert = read_cert_file(args.cert)
    at = args.at if args.at is not None else cert.not_before
    result = gccf.validate_cert(dep.node.gccf_view, cert, at)
    _print_json(result.to_json())
    return EXIT_OK if result.ok else EXIT_FAIL


def cmd_gccf_export(args) -> int:
    dep = load_deployment(args.deployment)
    snapshot = gccf.export_gccf(dep.node.gccf_view, dep.node.ledger(Channel.GCCF).tip_number)
    base = pathlib.Path(args.out)
    with writing(args.out):
        write_all_atomic(
            [(base.with_suffix(".bin"), snapshot.encode()), (base.with_suffix(".json"), snapshot.to_json_bytes())]
        )
    _print_json(
        {
            "version": snapshot.version,
            "certificates": len(snapshot.certificates),
            "ballots": len(snapshot.ballots),
            "files": [str(base.with_suffix(".bin")), str(base.with_suffix(".json"))],
        }
    )
    return EXIT_OK


def _pg_identity(dep: CliDeployment) -> Identity:
    for name, (_private, cert) in dep.holders.items():
        if cert.subject_role == AuthorityRole.PG:
            return dep.identity(name)
    raise CliError("deployment has no policy generator")


def cmd_policy_add(args) -> int:
    dep = load_deployment(args.deployment)
    pg = dep.identity(args.by) if args.by else _pg_identity(dep)
    try:
        body = json.loads(args.body) if args.body else {}
    except ValueError as exc:
        raise CliError(f"--body must be JSON: {exc}", EXIT_USAGE) from exc
    if not gpf.is_rule_body(body):
        raise CliError("--body must be a JSON object of scalars", EXIT_USAGE)
    record = gpf.PolicyRecord(
        entity=args.entity, rule_name=args.rule, rule_body=body, status=gpf.PolicyStatus.ALIVE
    )
    block = dep.submit_command(pg, gpf.make_policy_tx, record)
    _print_json({"committed": True, "block": block, "record": record.to_json()})
    return EXIT_OK


def cmd_policy_revoke(args) -> int:
    dep = load_deployment(args.deployment)
    pg = dep.identity(args.by) if args.by else _pg_identity(dep)
    block = dep.submit_command(pg, gpf.make_revoke_policy_tx, dep.node.gpf_view, args.entity, args.rule)
    _print_json({"committed": True, "block": block})
    return EXIT_OK


def cmd_policy_get(args) -> int:
    dep = load_deployment(args.deployment)
    record = gpf.get_rule(dep.node.gpf_view, args.entity, args.rule)
    if record is None:
        _print_json({"found": False})
        return EXIT_FAIL
    _print_json({"found": True, "record": record.to_json(), "updated_block": record.updated_block})
    return EXIT_OK


def cmd_ballot_endorse(args) -> int:
    dep = load_deployment(args.deployment)
    elector = dep.identity(args.elector)
    target = read_cert_file(args.target_cert)
    etype = ballot_mod.EndorsementType(args.type)
    try:
        endorsement = ballot_mod.create_endorsement(
            elector.key, elector.cert, etype, target, dep.node.gccf_view
        )
    except ballot_mod.BallotError as exc:
        raise CliError(f"endorsement refused: {exc.reason}") from exc
    block = dep.submit_command(elector, ballot_mod.make_endorsement_tx, endorsement, target.serial_number)
    _print_json(
        {"committed": True, "block": block, "endorsement": ballot_mod.endorsement_to_json(endorsement)}
    )
    return EXIT_OK


def _tally(dep: CliDeployment, args) -> ballot_mod.Ballot:
    """The ``--type`` ballot on the ``--target-cert`` bytes, at the genesis quorum."""
    target = read_cert_file(args.target_cert)
    etype = ballot_mod.EndorsementType(args.type)
    return ballot_mod.tally_ballot(dep.node.gccf_view, etype, sha256(canonical_encode(target)))


def cmd_ballot_tally(args) -> int:
    _print_json(_tally(load_deployment(args.deployment), args).to_json())
    return EXIT_OK


def cmd_ballot_apply(args) -> int:
    dep = load_deployment(args.deployment)
    elector = dep.identity(args.elector)
    tally = _tally(dep, args)
    try:
        block = dep.submit_command(elector, ballot_mod.apply_ballot, dep.node.gccf_view, tally)
    except ballot_mod.BallotError as exc:
        raise CliError(f"cannot apply ballot: {exc.reason}") from exc
    _print_json({"committed": True, "block": block, "ballot": tally.to_json()})
    return EXIT_OK


def cmd_metrics_report(args) -> int:
    try:
        lifecycles, ledger_sizes = metrics.read_report(json.loads(pathlib.Path(args.report).read_text()))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read report: {exc}", EXIT_USAGE) from exc
    try:
        computed = metrics.compute_metrics(lifecycles, ledger_sizes)
    except metrics.MetricsError as exc:
        raise CliError(str(exc)) from exc
    data = metrics.encode_report(computed, args.format)
    if args.out:
        with writing(args.out):
            write_atomic(pathlib.Path(args.out), data)
    sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


# -------------------------------------------------------------------- parser


class Verb(NamedTuple):
    """One ``bbtm <group> <verb>`` command: its help, its handler and its arguments."""

    group: str
    name: str
    help: Optional[str]
    handler: Callable[[argparse.Namespace], int]
    arguments: Tuple[Tuple[Tuple[str, ...], dict], ...]


def arg(*flags: str, **kwargs) -> Tuple[Tuple[str, ...], dict]:
    """One add_argument call of a verb: its flags and keyword arguments."""
    return flags, kwargs


# Each group's help, in the order `bbtm -h` lists the groups.
GROUPS = {
    "network": "deployment setup",
    "sim": "simulator",
    "ledger": "ledger files",
    "cert": "certificates",
    "gccf": "certificate chain file",
    "policy": "policy rules",
    "ballot": "elector ballots",
    "metrics": "performance reports",
}

_DEPLOYMENT = arg("--deployment", required=True)
_CHANNELS = [c.value for c in Channel]
_BALLOT = (
    _DEPLOYMENT,
    arg("--type", required=True, choices=[t.value for t in ballot_mod.EndorsementType]),
    arg("--target-cert", required=True, dest="target_cert"),
)
_ELECTOR = arg("--elector", required=True)

# Every verb, in the order `bbtm <group> -h` lists them.
VERBS = (
    Verb("network", "init", "create a deployment directory from a genesis config", cmd_network_init, (
        arg("--config", required=True),
        arg("--out", required=True),
    )),
    Verb("sim", "run", "run a scenario file", cmd_sim_run, (
        arg("--scenario", required=True),
        arg("--seed", type=int),
        arg("--report", help="write the full simulation report JSON here"),
        arg("--out", help="export the sequencer's ledger files to this directory"),
        arg("--lifecycles", help="write per-transaction lifecycle CSV here"),
    )),
    Verb("ledger", "verify", "verify a ledger file end to end", cmd_ledger_verify, (arg("file"),)),
    Verb("ledger", "export", "export a deployment channel to a ledger file", cmd_ledger_export, (
        _DEPLOYMENT,
        arg("--channel", required=True, choices=_CHANNELS),
        arg("--out", required=True),
    )),
    Verb("ledger", "import", "verify a ledger file and install it in a deployment", cmd_ledger_import, (
        arg("file"),
        _DEPLOYMENT,
        arg("--channel", required=True, choices=_CHANNELS),
    )),
    Verb("cert", "issue", "issue a certificate from a deployment identity", cmd_cert_issue, (
        _DEPLOYMENT,
        arg("--issuer", required=True),
        arg("--subject", required=True, help="subject name with role prefix, e.g. ICA-9"),
        arg("--not-before", type=int, dest="not_before"),
        arg("--not-after", type=int, dest="not_after"),
        arg("--out", required=True),
        arg("--submit", action="store_true", help="also commit the record on the chain"),
    )),
    Verb("cert", "validate", "validate a certificate against the chain of trust", cmd_cert_validate, (
        _DEPLOYMENT,
        arg("--cert", required=True),
        arg("--at", type=float, help="virtual time in seconds (default: the record's not_before)"),
    )),
    Verb("gccf", "export", "export the chain-file snapshot (binary + JSON)", cmd_gccf_export, (
        _DEPLOYMENT,
        arg("--out", required=True, help="output base path; .bin and .json are appended"),
    )),
    Verb("policy", "add", None, cmd_policy_add, (
        _DEPLOYMENT,
        arg("--entity", required=True),
        arg("--rule", required=True),
        arg("--body", help="rule body as a JSON object"),
        arg("--by", help="submitting identity (defaults to the PG)"),
    )),
    Verb("policy", "revoke", None, cmd_policy_revoke, (
        _DEPLOYMENT,
        arg("--entity", required=True),
        arg("--rule", required=True),
        arg("--by"),
    )),
    Verb("policy", "get", None, cmd_policy_get, (
        _DEPLOYMENT,
        arg("--entity", required=True),
        arg("--rule", required=True),
    )),
    Verb("ballot", "endorse", None, cmd_ballot_endorse, (*_BALLOT, _ELECTOR)),
    Verb("ballot", "tally", None, cmd_ballot_tally, _BALLOT),
    Verb("ballot", "apply", None, cmd_ballot_apply, (*_BALLOT, _ELECTOR)),
    Verb("metrics", "report", "compute metrics from a simulation report", cmd_metrics_report, (
        arg("--report", required=True),
        arg("--format", choices=["csv", "json"], default="json"),
        arg("--out"),
    )),
)


def build_parser(verbs: Sequence[Verb] = VERBS) -> argparse.ArgumentParser:
    """The ``bbtm`` parser, with a branch for each of verbs."""
    parser = argparse.ArgumentParser(prog="bbtm", description=__doc__)
    # A tree of fewer verbs names every group in its usage line all the same,
    # so that its usage errors read as the whole tree's.  The whole tree
    # leaves that to argparse, which then also names a missing or unknown
    # group "command" in its errors.
    every_group = "{" + ",".join(GROUPS) + "}" if len(verbs) < len(VERBS) else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every_group)
    groups = {}
    for verb in verbs:
        if verb.group not in groups:
            groups[verb.group] = sub.add_parser(verb.group, help=GROUPS[verb.group]).add_subparsers(
                dest="subcommand", required=True
            )
        # Without help a verb is listed only in its group's choices.
        p = groups[verb.group].add_parser(verb.name, **({"help": verb.help} if verb.help else {}))
        for flags, kwargs in verb.arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=verb.handler)
    return parser


def parser_for(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv: only the verb it names, or the whole tree for help and usage errors."""
    head = tuple(argv[:2])
    verbs = [verb for verb in VERBS if (verb.group, verb.name) == head]
    return build_parser(verbs or VERBS)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parser_for(argv).parse_args(argv)
    # A verb on a deployment holds its directory's lock until it returns.
    directory = getattr(args, "deployment", None)
    try:
        with locked(directory) if directory else contextlib.nullcontext():
            return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (LedgerError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
