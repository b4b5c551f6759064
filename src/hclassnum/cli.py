"""Command-line front-end.

Commands: hurwitz, hurwitz-table, qexp, lattice-sum, hsum, cross-check,
verify, ec-traces.  Every command accepts --format text|json; JSON output
is the envelope {"command": ..., "result": ..., "reports": [...]} with all
rationals as canonical Fraction strings, never floats, and with stable key
order so that parse + re-serialize is byte-identical.  Each subparser
carries its handler, which takes the parsed argparse.Namespace and calls the
package directly.  The three series commands (hurwitz-table, qexp,
lattice-sum) share one printer.  One table lists the parts each verify
--suite runs, with their --pmax floor and cap and the identities that cap
--overshoot.  One helper refuses every size argument below its floor or
above its cap; lattice-sum, hsum and ec-traces report the ValueError of the
package function they call as a usage error, so those checks live in one
place.

Exit codes: 0 on success (for verification commands: all verdicts true),
1 when a verification found mismatches or a cross-check's prime range
missed a case row, 2 on usage errors, among them a size argument above its
cap (verify --suite ec alone warns and clamps --pmax to its cap instead),
and 141 (128 + SIGPIPE) when the reader closes stdout before the output
ends, as `| head` does; nothing goes to stderr then.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import eccount, formulas, verify
from .forms import CM_CHARACTER, d_series, e2_series, psi_series, theta_mM
from .hurwitz import hurwitz, hurwitz_series
from .qseries import QSeries
from .sums import g_series, lambda_series, mu_series, t_series

__all__ = ["build_parser", "run", "main"]

# largest H(n) counted from its reduced forms, in O(n) time: hurwitz
# 199999999 and hurwitz 200000000 --format json each take 0.63 s (16 MB) on
# a 2-core x86-64 host with Python 3.11
_HURWITZ_MAX_N = 2 * 10**8
# Above the caps below a size argument is refused with exit 2.  Times are
# wall clock for one request at the cap, in a fresh process on the same host
# as above, with JSON output to /dev/null and peak RSS from os.wait4 (medians
# of 7 unless a range is given; python -c pass alone takes 0.04-0.07 s and
# 13 MB there); none needs more than 48 MB resident.  tests/test_cli_caps.py
# runs the requests marked "tested" at their caps and holds each under the
# bound it quotes.
#
# largest p the curve sweeps accept: ec-traces --p 499 takes 0.18-0.22 s
# (16 MB; tested under 32 MB)
_EC_MAX_P = 500
# largest H-table limit: hurwitz-table --limit, and at most 4*pmax + 1 for
# cross-check and the classical suite.  cross-check --modulus 8 --pmax 10^5
# takes 1.0-1.1 s (30 MB; tested under 48 MB), hurwitz-table --limit 400001
# 1.2-1.6 s (29 MB in text and in JSON, each tested under 48 MB); the table
# build alone takes 0.75-0.86 s at 4*10^5 and 2.3-2.7 s at 8*10^5 (fresh
# processes, 3 runs each, 2 shared x86-64 cores, Python 3.11)
_TABLE_MAX = 400_001
_TABLE_MAX_PMAX = (_TABLE_MAX - 1) // 4
# largest series precision: qexp --terms, lattice-sum --terms, and the
# product (H * theta) | U_4 of the identity suites, which has
# 4*overshoot*bound + 1 terms.  At 10^5 terms qexp --form psi3 takes
# 0.22-0.34 s (23 MB; tested under 48 MB) and verify --suite mod6
# --overshoot 260 1.0-1.2 s (23 MB); at twice the precision they take 0.37 s
# and 3.2 s
_SERIES_MAX = 100_000
# largest moment exponent of lattice-sum --ell; the paper and the lemma
# suite use ell <= 3.  At --terms 10^5 and modulus 1 lambda takes 0.75-0.85 s
# (32 MB; tested under 48 MB), mu 0.40-0.50 s (44 MB; tested under 56 MB)
# and G 0.4 s (37 MB; tested under 48 MB); mu needs 67 MB at ell = 150
_ELL_MAX = 80
# largest coefficient range of the lemma suite (verify --pmax with --suite
# lemmas or all): verify --suite lemmas takes 0.3-0.4 s and 23 MB at 4000,
# 0.3 s and 19 MB at 2000
_LEMMA_MAX_N = 4_000


def _curve_reports(pmax: int, overshoot: int) -> list:
    if pmax > _EC_MAX_P:
        print(f"warning: ec suite capped at p <= {_EC_MAX_P}", file=sys.stderr)
    return [eccount.verify_curve_counts(min(pmax, _EC_MAX_P))]


# The parts of each --suite, in run order.  A part is (the least --pmax at
# which it checks something, its --pmax cap or None, the identity specs whose
# Sturm bounds cap --overshoot, its reports).  The classical sums start at
# p = 2 and the curve oracle at p = 5; the identity parts read no --pmax.
_SUITES = {
    "mod6": ((1, None, verify.MOD6_IDENTITIES,
              lambda pmax, overshoot: verify.verify_mod6(overshoot)),),
    "mod8": ((1, None, verify.MOD8_IDENTITIES,
              lambda pmax, overshoot: verify.verify_mod8(overshoot)),),
    "lemmas": ((1, _LEMMA_MAX_N, (),
                lambda pmax, overshoot: [verify.verify_lemmas(pmax)]),),
    "classical": ((2, _TABLE_MAX_PMAX, (),
                   lambda pmax, overshoot: [verify.verify_classical(pmax)]),),
    "ec": ((5, None, (), _curve_reports),),
}
_SUITES["all"] = (_SUITES["mod6"] + _SUITES["mod8"] + _SUITES["lemmas"]
                  + _SUITES["classical"])


class UsageError(Exception):
    pass


def _check_size(flag: str, value: int, floor: int | None, cap: int | None,
                where: str = "") -> None:
    """Refuse a size argument below floor or above cap; None sets no bound."""
    if floor is not None and value < floor:
        raise UsageError(f"{flag} must be >= {floor}{where}")
    if cap is not None and value > cap:
        raise UsageError(f"{flag} is capped at {cap}{where}")


def canonical_json(payload: dict) -> str:
    """Stable serialization; loads() then dumps() reproduces it exactly."""
    return json.dumps(payload, indent=2)


def _emit(args: argparse.Namespace, result, reports: list[dict],
          text_lines: list[str]) -> None:
    if args.format == "json":
        # the bytes of print(canonical_json(...)), written as they are made
        json.dump({"command": args.command, "result": result, "reports": reports},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _emit_series(args: argparse.Namespace, series: QSeries) -> None:
    """The coefficients: in JSON as Fraction strings, in text one
    "n:numerator/denominator" line each, denominator always written.  The
    Fractions are made one at a time and the output is written as it is
    made, never held as one document."""
    if args.format == "json":
        # the bytes of print(canonical_json(...)) with the coefficient strings
        # as the result; a Fraction's string needs no JSON escaping
        head, _, tail = canonical_json({"command": args.command, "result": [None],
                                        "reports": []}).partition("null")
        coeffs = iter(series)
        sys.stdout.write(f'{head}"{next(coeffs)}"')
        sys.stdout.writelines(f',\n    "{c}"' for c in coeffs)
        sys.stdout.write(tail + "\n")
    else:
        sys.stdout.writelines(f"{n}:{c.numerator}/{c.denominator}\n"
                              for n, c in enumerate(series))


def _invalid_choice(value, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _one_of(choices, convert=str) -> dict:
    """The type= and metavar= of an option that takes one of choices.

    argparse's own choices= words a refusal differently from one Python
    release to the next (3.13.13 drops the quotes around the options and
    quotes an int); this keeps the words of 3.10-3.12 on every release.  A
    value that convert rejects still reads "invalid int value: 'x'"."""
    def check(text: str):
        value = convert(text)
        if value not in choices:
            raise argparse.ArgumentTypeError(_invalid_choice(value, choices))
        return value

    check.__name__ = convert.__name__
    return {"type": check, "metavar": "{" + ",".join(map(str, choices)) + "}"}


def build_parser() -> argparse.ArgumentParser:
    """The parser; its commands attribute lists the command names."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default="text", **_one_of(("text", "json")))

    parser = argparse.ArgumentParser(
        prog="hclassnum",
        description="Exact Hurwitz class numbers, restricted sums, and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", parents=[common],
                       help="one Hurwitz class number H(n)")
    p.add_argument("n", type=int, help="argument of H")
    p.set_defaults(handler=_cmd_hurwitz)

    p = sub.add_parser("hurwitz-table", parents=[common],
                       help="H(0..limit-1) as a table")
    p.add_argument("--limit", type=int, required=True,
                   help="tabulate H(n) for n < limit")
    p.set_defaults(handler=_cmd_hurwitz_table)

    p = sub.add_parser("qexp", parents=[common],
                       help="q-expansion of a named series")
    p.add_argument("--form", required=True,
                   help="psi3 | psi4 | psi2 | D | E2 | theta:m:M")
    p.add_argument("--terms", type=int, required=True,
                   help="number of coefficients to emit")
    p.set_defaults(handler=_cmd_qexp)

    p = sub.add_parser("lattice-sum", parents=[common],
                       help="lambda/G/T/mu lattice-sum series")
    p.add_argument("--variant", required=True, **_one_of(("lambda", "G", "T", "mu")))
    p.add_argument("--ell", type=int, required=True, help="moment exponent")
    p.add_argument("--m", type=int, default=None,
                   help="residue class of t (lambda, G and T only; default 0)")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--terms", type=int, required=True,
                   help="number of coefficients to emit")
    p.add_argument("--a", type=int, default=None, help="t-residue (mu only)")
    p.add_argument("--b", type=int, default=None, help="s-residue (mu only)")
    p.set_defaults(handler=_cmd_lattice_sum)

    p = sub.add_parser("hsum", parents=[common],
                       help="closed-form H_{m,M}(p) for M = 6 or 8")
    p.add_argument("--modulus", required=True, **_one_of((6, 8), int))
    p.add_argument("--m", type=int, required=True, help="residue class of t")
    p.add_argument("--p", type=int, required=True, help="prime argument")
    p.add_argument("--explain", action="store_true",
                   help="also print the case row and representation used")
    p.set_defaults(handler=_cmd_hsum)

    p = sub.add_parser("cross-check", parents=[common],
                       help="closed forms vs brute force over a prime range")
    p.add_argument("--modulus", required=True, **_one_of((6, 8), int))
    p.add_argument("--pmax", type=int, default=500,
                   help="check all primes up to this bound")
    p.set_defaults(handler=_cmd_cross_check)

    p = sub.add_parser("verify", parents=[common],
                       help="run verification suites")
    p.add_argument("--suite", default="all", **_one_of(tuple(_SUITES)),
                   help="which battery to run (all = mod6+mod8+lemmas+classical)")
    p.add_argument("--pmax", type=int, default=500,
                   help="prime range for classical/ec, coefficient range for lemmas")
    p.add_argument("--overshoot", type=int, default=4,
                   help="check this multiple of each Sturm bound")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("ec-traces", parents=[common],
                       help="weighted curve counts by trace over F_p")
    p.add_argument("--p", type=int, required=True,
                   help=f"prime field size (3 < p <= {_EC_MAX_P})")
    p.set_defaults(handler=_cmd_ec_traces)

    parser.commands = tuple(sub.choices)
    return parser


def _parse_form(name: str, terms: int) -> QSeries:
    for k, chi in CM_CHARACTER.items():
        if name == f"psi{k}":
            return psi_series(k, chi, terms)
    if name == "D":
        return d_series(terms)
    if name == "E2":
        return e2_series(terms)
    if name.startswith("theta:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise UsageError("theta form must look like theta:m:M")
        try:
            m, M = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError("theta residues must be integers") from exc
        if M < 1:
            raise UsageError("theta modulus must be positive")
        return theta_mM(m, M, terms)
    raise UsageError(f"unknown form {name!r}")


def _cmd_hurwitz(args: argparse.Namespace) -> int:
    if args.n % 4 in (0, 3):
        _check_size("n", args.n, None, _HURWITZ_MAX_N, " unless H(n) = 0")
    value = hurwitz(args.n)
    _emit(args, str(value), [], [str(value)])
    return 0


def _cmd_hurwitz_table(args: argparse.Namespace) -> int:
    _check_size("--limit", args.limit, 1, _TABLE_MAX)
    _emit_series(args, hurwitz_series(args.limit))
    return 0


def _cmd_qexp(args: argparse.Namespace) -> int:
    _check_size("--terms", args.terms, 1, _SERIES_MAX)
    _emit_series(args, _parse_form(args.form, args.terms))
    return 0


_LATTICE_SERIES = {"lambda": lambda_series, "G": g_series, "T": t_series}


def _cmd_lattice_sum(args: argparse.Namespace) -> int:
    _check_size("--terms", args.terms, 1, _SERIES_MAX)
    _check_size("--ell", args.ell, None, _ELL_MAX)
    if args.variant == "mu":
        if args.a is None or args.b is None:
            raise UsageError("the mu variant needs --a and --b")
        if args.m is not None:
            raise UsageError("--m applies to the lambda, G and T variants only")
    elif args.a is not None or args.b is not None:
        raise UsageError("--a/--b apply to the mu variant only")
    try:
        if args.variant == "mu":
            series = mu_series(args.ell, args.a, args.b, args.modulus, args.terms)
        else:
            m = 0 if args.m is None else args.m
            series = _LATTICE_SERIES[args.variant](args.ell, m, args.modulus, args.terms)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit_series(args, series)
    return 0


def _cmd_hsum(args: argparse.Namespace) -> int:
    try:
        result = formulas.h_formula(args.modulus, args.p, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = [str(result.value)]
    payload: object = str(result.value)
    if args.explain:
        rep = result.representation
        rep_dict = None
        lines.append(f"branch: {result.branch}")
        if rep is not None:
            rep_dict = {"x": rep.x, "y": rep.y, "n": rep.n}
            lines.append(f"representation: p = x^2 + {rep.n}*y^2 with x={rep.x}, y={rep.y}")
        payload = {"value": str(result.value), "branch": result.branch,
                   "representation": rep_dict}
    _emit(args, payload, [], lines)
    return 0


def _report_text(report: dict) -> str:
    status = "ok" if report["verdict"] else "FAILED"
    extra = ""
    if "bound" in report["details"]:
        extra = f", bound {report['details']['bound']}"
    return (f"{report['name']}: {status} "
            f"(checked {report['checked']}{extra}, "
            f"mismatches {report['mismatch_count']})")


def _cmd_cross_check(args: argparse.Namespace) -> int:
    _check_size("--pmax", args.pmax, formulas.FIRST_PRIME[args.modulus], None,
                f" for modulus {args.modulus}")
    _check_size("--pmax", args.pmax, None, _TABLE_MAX_PMAX)
    report = formulas.cross_check(args.modulus, args.pmax).to_dict()
    ok = report["verdict"] and report["details"]["branch_coverage_complete"]
    lines = [_report_text(report),
             "branch coverage: "
             + ("complete" if report["details"]["branch_coverage_complete"]
                else "INCOMPLETE")]
    _emit(args, {"all_verdicts_true": ok}, [report], lines)
    return 0 if ok else 1


def _check_verify_caps(suite: str, pmax: int, overshoot: int) -> None:
    """Refuse a --pmax or --overshoot outside the bounds of the suite's parts."""
    floors, caps, part_specs, _ = zip(*_SUITES[suite])
    specs = sum(part_specs, ())
    where = f" for --suite {suite}"
    _check_size("--pmax", pmax, max(floors), None, where)
    _check_size("--overshoot", overshoot, 1, None)
    _check_size("--pmax", pmax, None, min(filter(None, caps), default=None), where)
    if specs:
        bound = max(verify.sturm_bound(spec.group) for spec in specs)
        _check_size("--overshoot", overshoot, None, (_SERIES_MAX - 1) // (4 * bound), where)


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_verify_caps(args.suite, args.pmax, args.overshoot)
    reports = [r.to_dict() for *_, part_reports in _SUITES[args.suite]
               for r in part_reports(args.pmax, args.overshoot)]
    all_ok = all(r["verdict"] for r in reports)
    lines = [_report_text(r) for r in reports]
    lines.append("all identities verified" if all_ok else "VERIFICATION FAILED")
    _emit(args, {"suite": args.suite, "all_verdicts_true": all_ok}, reports, lines)
    return 0 if all_ok else 1


def _cmd_ec_traces(args: argparse.Namespace) -> int:
    p = args.p
    _check_size("p", p, None, _EC_MAX_P)
    try:
        counts = eccount.trace_distribution(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # N_A(p; t) = counts[t] / (p - 1)
    weights = {t: Fraction(c, p - 1) for t, c in counts.items()}
    mass = Fraction(sum(counts.values()), p - 1)
    lines = [f"{t}: {w}" for t, w in weights.items()]
    lines.append(f"mass: {mass}")
    result = {
        "p": p,
        "mass": str(mass),
        "weights": {str(t): str(w) for t, w in weights.items()},
    }
    _emit(args, result, [], lines)
    return 0


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        # an unknown command, refused in the words of argparse 3.10-3.12
        if argv and not argv[0].startswith("-") and argv[0] not in parser.commands:
            parser.error(f"argument command: {_invalid_choice(argv[0], parser.commands)}")
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return 0 if exc.code == 0 else 2
    try:
        return ns.handler(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit stays quiet, and exit as a SIGPIPE death would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
