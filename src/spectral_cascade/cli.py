"""Command-line interface.

Subcommands: gen, check, split, cascade, find-n, prove, verify.  Exit codes:
0 success, 1 condition or certificate failure, 2 numeric failure, 3 search
exhausted, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize
from .cascade import (
    cascade_decompose,
    check_exponent,
    choose_parameters,
    prove_instance,
    stage_input,
)
from .errors import ConditionFailure, SpectralCascadeError, VerificationFailure
from .graph_transform import invariant_pair, item_text
from .scenario import check_angle_independence, check_L_conditions, generate_instance
from .verify import instance_of, verify_artifact

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _parse_structure(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad structure {text!r}; expected e.g. 1,2,2")


def _load_instance(path: str):
    try:
        obj = serialize.load_artifact(path)
        if obj["kind"] == serialize.KIND_INSTANCE:
            return instance_of(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # as verify_artifact does
        raise ConditionFailure(f"{path}: malformed instance artifact: {exc!r}") from exc
    raise ConditionFailure(f"{path}: expected an instance artifact, got {obj['kind']}")


def _cmd_gen(args) -> int:
    spec = generate_instance(
        args.structure, seed=args.seed, ratio=args.ratio, coupling=args.coupling,
        c=args.c, rho_seq=args.rho, a=args.a, b=args.b,
    )
    serialize.save_artifact(args.out, serialize.instance_to_json(spec))
    angles = spec.model.rotation_angles
    print(f"instance written to {args.out}")
    print(f"  structure {list(spec.model.structure.sizes)}, "
          f"moduli {[round(b.modulus, 6) for b in spec.model.diag_blocks]}")
    if angles:
        print(f"  rotation angles {[round(t, 6) for t in angles.values()]}")
    return 0


def _cmd_check(args) -> int:
    spec = _load_instance(args.instance)
    report = check_L_conditions(spec.L, spec.model.structure)
    for line in report.lines:
        status = "ok" if line.passed else "FAIL"
        print(f"  [{status}] {line.name} (margin {line.margin:.3g})")
    if not report.passed:
        raise ConditionFailure("instance fails genericity conditions")
    angles = list(spec.model.rotation_angles.values())
    if angles:
        margin = check_angle_independence(angles)
        print(f"  [ok] rotation angles independent (margin {margin:.3g})")
    print("all conditions hold")
    return 0


def _cmd_split(args) -> int:
    spec = _load_instance(args.instance)
    check_exponent(spec.model, args.n)
    cascade = choose_parameters(spec.model, spec.L, args.eps0, law=spec.law)
    k = cascade.k0 if args.k is None else args.k
    J = stage_input(spec.L_n(k), args.n, cascade, args.level)
    stage = cascade.stages[args.level - 1]
    cert = invariant_pair(stage.problem, J, args.n, stage.constants)
    serialize.save_artifact(args.out, serialize.certificate_to_json(cert, stage.problem))
    print(f"split certificate at level {args.level}, n={args.n} written to {args.out}")
    for key, val in cert.residuals.items():
        print(f"  {key}: {val:.3g}")
    return 0


def _cmd_cascade(args) -> int:
    spec = _load_instance(args.instance)
    check_exponent(spec.model, args.n)
    cascade = choose_parameters(spec.model, spec.L, args.eps0, law=spec.law)
    k = cascade.k0 if args.k is None else args.k
    result = cascade_decompose(spec.L_n(k), args.n, spec.model, cascade)
    serialize.save_artifact(
        args.out, serialize.cascade_result_to_json(result, spec, args.eps0, k)
    )
    print(f"decomposition at k={k}, n={args.n} written to {args.out}")
    for lv in result.levels:
        print(f"  level {lv.j}: drift {lv.drift:.3g}, det {lv.det:.3g}")
    print(f"  limits_ok={result.limits_ok} domination_ok={result.domination_ok}")
    if not (result.limits_ok and result.domination_ok):
        raise ConditionFailure("decomposition bounds violated")
    return 0


def _cmd_search(args) -> int:
    spec = _load_instance(args.instance)
    check_exponent(spec.model, spec.a * args.n_max + spec.b)
    report = prove_instance(spec, eps0=args.eps0, count=args.count,
                            n_max=args.n_max, csv_path=args.csv)
    if args.out:
        serialize.save_artifact(args.out, serialize.prove_report_to_json(report, args.eps0))
        print(f"report written to {args.out}")
    for h in report.search.hits:
        print(f"  n={h.n} exponent={h.exponent} min_gap={h.min_gap:.3g} "
              f"oracle_mismatch={h.oracle_mismatch:.3g}")
    return 0


def _cmd_verify(args) -> int:
    try:
        obj = serialize.load_artifact(args.artifact)
    except (json.JSONDecodeError, ValueError, OSError) as exc:
        raise VerificationFailure(f"{args.artifact}: unreadable artifact: {exc}")
    report = verify_artifact(obj)
    print(f"{args.artifact}: {report['kind']} artifact verifies")
    if report["kind"] == serialize.KIND_SPLIT_CERT:  # each item with its bound
        for name, entry in report["report"].items():
            if isinstance(entry, dict):
                print(f"  {item_text(name, entry)} {'ok' if entry['passed'] else 'FAIL'}")
        print(f"  eta_norm = {report['report']['eta_norm']:.3g}")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on first use and shared by every later ``main`` call.

    ``parse_args`` leaves the parser as it is and fills a fresh namespace, so
    calls stay independent; the handlers read module globals when they run.
    """
    parser = _Parser(prog="spectral-cascade",
                     description="Recursive spectrum decomposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a random valid instance")
    p.add_argument("--structure", type=_parse_structure, required=True,
                   help="comma-separated block sizes, e.g. 1,2,2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--ratio", type=float, default=1.35)
    p.add_argument("--coupling", type=float, default=0.08)
    p.add_argument("--c", type=float, default=0.05)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="report the genericity conditions of an instance")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("split", help="certify one dominated split")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps0", type=float, default=1e-3)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--k", type=int, default=None)  # None: the scan floor k0
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("cascade", help="run the full decomposition at one (k, n)")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps0", type=float, default=1e-3)
    p.add_argument("--k", type=int, default=None)  # None: the scan floor k0
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cascade)

    for name, text in (("find-n", "search real-simple exponents"),
                       ("prove", "parameters plus search, end to end")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--instance", required=True)
        p.add_argument("--eps0", type=float, default=1e-3)
        p.add_argument("--count", type=int, default=3)
        p.add_argument("--n-max", type=int, default=100_000)
        p.add_argument("--csv", default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="independently revalidate an artifact")
    p.add_argument("--artifact", required=True)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SpectralCascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
