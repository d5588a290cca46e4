"""Command-line interface.

Commands: decompose, simulate, verify, counterexample, canonicalize.
Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource
cap exceeded.  Given the same inputs and seed, every command writes
byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import circuits as cio
from . import dense, stabilizer
from .dense import DEFAULT_DENSE_CAP
from .errors import (BackendCapabilityError, NotSymplecticError,
                     PreconditionFailedError, ReductionError, ResourceCapError)
from .groups import canonicalize, parse_group
from .protocols import cx_insufficiency_certificate
from .symplectic import decompose, decompose_clifford, sequence_image
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3


def _emit(doc: dict, out_path, stream) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stream.write(text)


def cmd_decompose(args, stdout) -> int:
    doc = cio.load_document(args.input)
    kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
    if kind == "symplectic_map":
        target = cio.symplectic_from_json(doc)
    elif kind == "clifford_tableau":
        target = cio.tableau_from_json(doc)
    else:
        raise ValueError(f"cannot decompose a {kind!r} document")
    group = target.group
    if args.group and parse_group(args.group) != group:
        raise ValueError("--group does not match the input document")
    if kind == "symplectic_map":
        seq = decompose(target)
        if args.verify:
            if sequence_image(seq, group).matrix.entries != target.matrix.entries:
                stdout.write("verification failed: image mismatch\n")
                return EXIT_VERIFY_FAILED
    else:
        seq = decompose_clifford(target)
        if args.verify:
            from .clifford import sequence_tableau
            if sequence_tableau(seq, group) != target:
                stdout.write("verification failed: tableau mismatch\n")
                return EXIT_VERIFY_FAILED
    _emit(cio.sequence_to_json(seq, group), args.out, stdout)
    counts: dict[str, int] = {}
    for gate in seq:
        name = type(gate).__name__.removesuffix("Gate").lower()
        counts[name] = counts.get(name, 0) + 1
    total = len(seq)
    d = group.num_factors
    stdout.write(f"gates: {total} (bound {total}/(d+1)^2 = "
                 f"{total / (d * d):.2f})\n")
    for name in sorted(counts):
        stdout.write(f"  {name}: {counts[name]}\n")
    if args.verify:
        stdout.write("verified: recomposition matches\n")
    return EXIT_OK


def cmd_simulate(args, stdout) -> int:
    circuit = cio.circuit_from_json(cio.load_document(args.input))
    if args.branches:
        if args.backend != "dense":
            raise ValueError("--branches needs the dense backend")
        rows = []
        for record, _state, prob in dense.enumerate_branches(circuit, args.dense_cap):
            rows.append({"record": dict(sorted(record.items())),
                         "probability": prob})
        rows.sort(key=lambda r: tuple(sorted(r["record"].items())))
        doc = {"format_version": 1, "type": "branch_table",
               "group": circuit.base.literal(), "qudits": circuit.n,
               "branches": rows}
        _emit(doc, args.out, stdout)
        return EXIT_OK
    if args.seed is None:
        raise ValueError("--seed is required when sampling")
    if args.backend == "dense":
        backend = dense._Backend(circuit, args.dense_cap)
        state = dense._initial_vector(circuit, args.dense_cap)
    else:
        backend, state = stabilizer._Backend, stabilizer._initial_state(circuit)
    frequencies: dict[str, dict[int, int]] = {}
    for record in cio.sample_records(circuit, backend, state,
                                     random.Random(args.seed), args.shots):
        for reg, val in record.items():
            frequencies.setdefault(reg, {})[val] = \
                frequencies.setdefault(reg, {}).get(val, 0) + 1
    doc = {"format_version": 1, "type": "simulation_report",
           "group": circuit.base.literal(), "qudits": circuit.n,
           "backend": args.backend, "shots": args.shots, "seed": args.seed,
           "frequencies": {reg: {str(k): v for k, v in sorted(vals.items())}
                           for reg, vals in sorted(frequencies.items())}}
    _emit(doc, args.out, stdout)
    return EXIT_OK


def cmd_verify(args, stdout) -> int:
    group = parse_group(args.group)
    report = run_suite(group, seed=args.seed, dense_cap=args.dense_cap)
    for check in report["checks"]:
        status = "FAIL" if not check["passed"] else "skip" if check.get("skipped") else "pass"
        detail = f" ({check['detail']})" if check["detail"] else ""
        stdout.write(f"{status}  {check['name']}{detail}\n")
    if args.out:
        _emit(report, args.out, stdout)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def cmd_counterexample(args, stdout) -> int:
    group = parse_group(args.group)
    if sorted(group.orders) != [2, 4]:
        raise ValueError("the insufficiency certificate is specific to Z2 x Z4")
    report = cx_insufficiency_certificate(run_bfs=args.bfs, bfs_cap=args.bfs_cap)
    doc = report.to_json()
    _emit(doc, args.out, stdout)
    if report.passed:
        stdout.write("certificate: every generator satisfies the mod-2 "
                     "invariant; the target controlled shift violates it "
                     "and is not in the generated subgroup\n")
        return EXIT_OK
    stdout.write("certificate FAILED\n")
    return EXIT_VERIFY_FAILED


def cmd_protocol(args, stdout) -> int:
    from .forms import standard_nondegenerate_form
    from .protocols import (build_cx_protocol, build_magic_injection,
                            build_split_fourier, build_triple, builtin_magic_table,
                            check_cx_protocol, check_magic_injection,
                            check_split_fourier, check_triple_identity)
    group = parse_group(args.group)
    circuit = None
    report = None
    if args.name == "cx":
        circuit = build_cx_protocol(group)
        if args.check:
            report = check_cx_protocol(group, args.dense_cap)
    elif args.name == "magic":
        if args.table:
            doc = cio.load_document(args.table)
            if not isinstance(doc, dict) or doc.get("type") != "phase_table":
                raise ValueError("--table must be a phase_table document")
            table = cio.decode_phase_table(group, doc["table"])
        else:
            table = builtin_magic_table(group)
            if table is None:
                raise ValueError("no built-in magic table for this group; "
                                 "provide one with --table")
        circuit, spec = build_magic_injection(group, table)
        if args.check:
            report = check_magic_injection(group, table, args.dense_cap)
    elif args.name == "triple":
        xi = standard_nondegenerate_form(group)
        if args.out:
            cio.dump_document(cio.sequence_to_json(build_triple(xi), group), args.out)
        report = check_triple_identity(xi, args.dense_cap)
    elif args.name == "split-fourier":
        spectator = parse_group(args.spectator)
        xi = standard_nondegenerate_form(group)
        circuit = build_split_fourier(xi, spectator)
        if args.check:
            report = check_split_fourier(xi, spectator, cap=args.dense_cap)
    else:
        raise ValueError(f"unknown protocol {args.name!r}")
    if circuit is not None and args.out:
        cio.dump_document(cio.circuit_to_json(circuit), args.out)
    if report is not None:
        _emit(report.to_json(), args.report, stdout)
        if not report.passed:
            return EXIT_VERIFY_FAILED
    elif circuit is not None and not args.out:
        _emit(cio.circuit_to_json(circuit), None, stdout)
    return EXIT_OK


def cmd_canonicalize(args, stdout) -> int:
    group = parse_group(args.group)
    canon, iso = canonicalize(group)
    doc = {"format_version": 1, "type": "canonical_form",
           "group": group.literal(), "canonical": canon.literal(),
           "forward": [list(r) for r in iso.forward.entries],
           "backward": [list(r) for r in iso.backward.entries]}
    _emit(doc, args.out, stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gclifford",
        description="Exact Pauli/Clifford algebra, compilation and "
                    "stabilizer simulation over finite abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="split a symplectic map or "
                         "tableau into generator gates")
    dec.add_argument("--group", help="expected group literal, e.g. 4,2")
    dec.add_argument("--in", dest="input", required=True)
    dec.add_argument("--out")
    dec.add_argument("--verify", action="store_true",
                     help="recompose and check the result")
    dec.set_defaults(fn=cmd_decompose)

    sim = sub.add_parser("simulate", help="run a circuit file")
    sim.add_argument("--in", dest="input", required=True)
    sim.add_argument("--backend", choices=("tableau", "dense"),
                     default="tableau")
    sim.add_argument("--shots", type=int, default=1)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--branches", action="store_true",
                     help="print the exact branch table (dense only)")
    sim.add_argument("--dense-cap", type=int, default=DEFAULT_DENSE_CAP)
    sim.add_argument("--out")
    sim.set_defaults(fn=cmd_simulate)

    ver = sub.add_parser("verify", help="run the verification suite for a group")
    ver.add_argument("--group", required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--dense-cap", type=int, default=1024)
    ver.add_argument("--out")
    ver.set_defaults(fn=cmd_verify)

    ctr = sub.add_parser("counterexample", help="emit the two-qudit "
                         "insufficiency certificate for Z2 x Z4")
    ctr.add_argument("--group", default="2,4")
    ctr.add_argument("--bfs", action="store_true",
                     help="also enumerate the generated subgroup")
    ctr.add_argument("--bfs-cap", type=int, default=1 << 20)
    ctr.add_argument("--out")
    ctr.set_defaults(fn=cmd_counterexample)

    pro = sub.add_parser("protocol", help="emit a named protocol circuit "
                         "and (with --check) its dense verification report")
    pro.add_argument("--name", required=True,
                     choices=("cx", "magic", "triple", "split-fourier"))
    pro.add_argument("--group", required=True)
    pro.add_argument("--spectator", default="2",
                     help="spectator group for split-fourier")
    pro.add_argument("--table", help="phase_table document for magic")
    pro.add_argument("--check", action="store_true")
    pro.add_argument("--dense-cap", type=int, default=DEFAULT_DENSE_CAP)
    pro.add_argument("--out", help="circuit (or sequence) file")
    pro.add_argument("--report", help="report file (stdout otherwise)")
    pro.set_defaults(fn=cmd_protocol)

    can = sub.add_parser("canonicalize", help="divisibility-chain form of a group")
    can.add_argument("--group", required=True)
    can.add_argument("--out")
    can.set_defaults(fn=cmd_canonicalize)
    return parser


# parsing leaves the parser unchanged, so one serves every call to main
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        for cap_name in ("dense_cap", "bfs_cap", "shots"):
            if getattr(args, cap_name, 1) is not None and \
                    getattr(args, cap_name, 1) < 1:
                raise ValueError(f"--{cap_name.replace('_', '-')} must be positive")
        return args.fn(args, stdout)
    except ResourceCapError as exc:
        stdout.write(f"error[resource-cap]: {exc}\n")
        return EXIT_RESOURCE_CAP
    except (NotSymplecticError, PreconditionFailedError) as exc:
        stdout.write(f"error[{type(exc).__name__}]: {exc}\n")
        return EXIT_INPUT_ERROR
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            BackendCapabilityError) as exc:
        stdout.write(f"error[{type(exc).__name__}]: {exc}\n")
        return EXIT_INPUT_ERROR
    except ReductionError as exc:
        stdout.write(f"error[internal-reduction]: {exc}\n")
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
