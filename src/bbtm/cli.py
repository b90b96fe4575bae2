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
import json
import pathlib
import sys

from . import ballot as ballot_mod
from . import gccf, gpf, metrics
from .deployment import (  # CHAIN_FILES: re-exported
    CHAIN_FILES,
    DEFAULT_NOT_AFTER,
    DEFAULT_NOT_BEFORE,
    CliDeployment,
    CliError,
    build_deployment,
    derive_bytes,
    derive_identity,
    expand_node_counts,
    load_deployment,
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
    iter_json,
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


def read_cert_file(path_str: str) -> CertificateRecord:
    data = pathlib.Path(path_str).read_bytes()
    try:
        if data.lstrip().startswith(b"{"):
            return cert_from_json(json.loads(data.decode("utf-8")))
        return decode_certificate(data)
    except (CertificateError, ValueError) as exc:
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
            members = [(AuthorityRole(m["role"]), m["name"]) for m in config["members"]]
        elif "nodes" in config:
            members = expand_node_counts([(n["role"], n["count"]) for n in config["nodes"]])
        else:
            raise CliError("config-invalid: config needs a 'members' or 'nodes' section", EXIT_USAGE)
        validity = tuple(config.get("validity", (DEFAULT_NOT_BEFORE, DEFAULT_NOT_AFTER)))
        dep = build_deployment(
            int(config["seed"]),
            members,
            {str(k): int(v) for k, v in config.get("policies", {}).items()},
            validity=validity,
            defer_bootstrap=frozenset(config.get("defer_bootstrap", ())),
        )
    except KeyError as exc:
        raise CliError(f"config-invalid: missing key {exc.args[0]!r}", EXIT_USAGE) from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise CliError(f"config-invalid: {exc}", EXIT_USAGE) from exc
    write_deployment(dep, pathlib.Path(args.out))
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
        message = str(exc)
        if not message.startswith("config-invalid"):
            message = f"config-invalid: {message}"
        raise CliError(message, EXIT_USAGE) from exc
    if args.report:
        write_atomic(pathlib.Path(args.report), iter_json(report.to_json()))
    if args.out:
        sim.export_ledgers(args.out)
    if args.lifecycles:
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
    write_atomic(pathlib.Path(args.out), data)
    _print_json({"channel": channel.value, "bytes": len(data), "height": dep.node.ledger(channel).height})
    return EXIT_OK


def cmd_ledger_import(args) -> int:
    try:
        blocks = decode_chain(pathlib.Path(args.file).read_bytes())
    except (OSError, LedgerError) as exc:
        print(f"import failed: {exc}")
        return EXIT_FAIL
    channel = Channel(args.channel) if args.channel else infer_channel(blocks)
    if args.deployment:
        # The deployment's replay of the imported chain is the gate: it runs
        # verify_chain's levels and the contracts, so a refusal is reported as
        # a deployment error, and the chain files change only once it passes.
        # The other channel's file is written back as it was read.
        dep = load_deployment(args.deployment, chains={channel: blocks})
        ledger = dep.node.ledger(channel)
        dep.save_chains()
    else:
        try:
            ledger, fail_at = verify_chain(channel, blocks)
        except LedgerError as exc:
            print(f"import failed: {exc}")
            return EXIT_FAIL
        if fail_at is not None:
            _print_json({"ok": False, "fail_at": fail_at})
            return EXIT_FAIL
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
    out = pathlib.Path(args.out)
    write_all_atomic(
        [(out, canonical_encode(cert)), (out.with_suffix(out.suffix + ".json"), dump_json(cert_to_json(cert)))]
    )
    dep.register_extra(ident)
    result = {"cert": args.out, "serial": cert.serial_number.hex(), "submitted": False}
    if args.submit:
        submitter = dep.identity(args.issuer)
        block = dep.submit_command(submitter, gccf.make_add_cert_tx, cert)
        result.update({"submitted": True, "block": block})
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
    quorum = gpf.ballot_quorum(dep.node.gpf_view)
    snapshot = gccf.export_gccf(dep.node.gccf_view, dep.node.ledger(Channel.GCCF).tip_number, quorum)
    base = pathlib.Path(args.out)
    write_all_atomic(
        [(base.with_suffix(".bin"), snapshot.encode()), (base.with_suffix(".json"), dump_json(snapshot.to_json()))]
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
    for ident in dep.identities.values():
        if ident.role == AuthorityRole.PG:
            return ident
    raise CliError("deployment has no policy generator")


def cmd_policy_add(args) -> int:
    dep = load_deployment(args.deployment)
    pg = dep.identity(args.by) if args.by else _pg_identity(dep)
    try:
        body = json.loads(args.body) if args.body else {}
    except ValueError as exc:
        raise CliError(f"--body must be JSON: {exc}", EXIT_USAGE) from exc
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
    """The ``--type`` ballot on the ``--target-cert`` bytes, at the committed quorum."""
    target = read_cert_file(args.target_cert)
    etype = ballot_mod.EndorsementType(args.type)
    quorum = gpf.ballot_quorum(dep.node.gpf_view)
    return ballot_mod.tally_ballot(dep.node.gccf_view, etype, sha256(canonical_encode(target)), quorum)


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
        report_obj = json.loads(pathlib.Path(args.report).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read report: {exc}", EXIT_USAGE) from exc
    lifecycles = [metrics.TxLifecycle.from_json(lc) for lc in report_obj["lifecycles"]]
    ledger_sizes = {k: int(v) for k, v in report_obj.get("ledger_sizes", {}).items()}
    try:
        computed = metrics.compute_metrics(lifecycles, ledger_sizes)
    except metrics.MetricsError as exc:
        raise CliError(str(exc)) from exc
    data = metrics.encode_report(computed, args.format)
    if args.out:
        write_atomic(pathlib.Path(args.out), data)
    sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bbtm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    network = sub.add_parser("network", help="deployment setup").add_subparsers(
        dest="subcommand", required=True
    )
    p = network.add_parser("init", help="create a deployment directory from a genesis config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_network_init)

    sim = sub.add_parser("sim", help="simulator").add_subparsers(dest="subcommand", required=True)
    p = sim.add_parser("run", help="run a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", help="write the full simulation report JSON here")
    p.add_argument("--out", help="export the sequencer's ledger files to this directory")
    p.add_argument("--lifecycles", help="write per-transaction lifecycle CSV here")
    p.set_defaults(func=cmd_sim_run)

    ledger = sub.add_parser("ledger", help="ledger files").add_subparsers(
        dest="subcommand", required=True
    )
    p = ledger.add_parser("verify", help="verify a ledger file end to end")
    p.add_argument("file")
    p.set_defaults(func=cmd_ledger_verify)
    p = ledger.add_parser("export", help="export a deployment channel to a ledger file")
    p.add_argument("--deployment", required=True)
    p.add_argument("--channel", required=True, choices=[c.value for c in Channel])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ledger_export)
    p = ledger.add_parser("import", help="verify a ledger file and optionally install it")
    p.add_argument("file")
    p.add_argument("--deployment")
    p.add_argument("--channel", choices=[c.value for c in Channel])
    p.set_defaults(func=cmd_ledger_import)

    cert = sub.add_parser("cert", help="certificates").add_subparsers(dest="subcommand", required=True)
    p = cert.add_parser("issue", help="issue a certificate from a deployment identity")
    p.add_argument("--deployment", required=True)
    p.add_argument("--issuer", required=True)
    p.add_argument("--subject", required=True, help="subject name with role prefix, e.g. ICA-9")
    p.add_argument("--not-before", type=int, dest="not_before")
    p.add_argument("--not-after", type=int, dest="not_after")
    p.add_argument("--out", required=True)
    p.add_argument("--submit", action="store_true", help="also commit the record on the chain")
    p.set_defaults(func=cmd_cert_issue)
    p = cert.add_parser("validate", help="validate a certificate against the chain of trust")
    p.add_argument("--deployment", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--at", type=float, help="virtual time in seconds (default: the record's not_before)")
    p.set_defaults(func=cmd_cert_validate)

    gccf_cmd = sub.add_parser("gccf", help="certificate chain file").add_subparsers(
        dest="subcommand", required=True
    )
    p = gccf_cmd.add_parser("export", help="export the chain-file snapshot (binary + JSON)")
    p.add_argument("--deployment", required=True)
    p.add_argument("--out", required=True, help="output base path; .bin and .json are appended")
    p.set_defaults(func=cmd_gccf_export)

    policy = sub.add_parser("policy", help="policy rules").add_subparsers(
        dest="subcommand", required=True
    )
    p = policy.add_parser("add")
    p.add_argument("--deployment", required=True)
    p.add_argument("--entity", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--body", help="rule body as a JSON object")
    p.add_argument("--by", help="submitting identity (defaults to the PG)")
    p.set_defaults(func=cmd_policy_add)
    p = policy.add_parser("revoke")
    p.add_argument("--deployment", required=True)
    p.add_argument("--entity", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--by")
    p.set_defaults(func=cmd_policy_revoke)
    p = policy.add_parser("get")
    p.add_argument("--deployment", required=True)
    p.add_argument("--entity", required=True)
    p.add_argument("--rule", required=True)
    p.set_defaults(func=cmd_policy_get)

    ballot = sub.add_parser("ballot", help="elector ballots").add_subparsers(
        dest="subcommand", required=True
    )
    for verb, func in (("endorse", cmd_ballot_endorse), ("tally", cmd_ballot_tally), ("apply", cmd_ballot_apply)):
        p = ballot.add_parser(verb)
        p.add_argument("--deployment", required=True)
        p.add_argument("--type", required=True, choices=[t.value for t in ballot_mod.EndorsementType])
        p.add_argument("--target-cert", required=True, dest="target_cert")
        if verb != "tally":
            p.add_argument("--elector", required=True)
        p.set_defaults(func=func)

    met = sub.add_parser("metrics", help="performance reports").add_subparsers(
        dest="subcommand", required=True
    )
    p = met.add_parser("report", help="compute metrics from a simulation report")
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (LedgerError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
