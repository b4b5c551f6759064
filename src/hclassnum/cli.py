"""Command-line front-end.

Commands: hurwitz, hurwitz-table, qexp, lattice-sum, hsum, cross-check,
verify, ec-traces.  Every command accepts --format text|json; JSON output
is the envelope {"command": ..., "result": ..., "reports": [...]} with all
rationals as canonical Fraction strings, never floats, and with stable key
order so that parse + re-serialize is byte-identical.  Each handler takes
the parsed argparse.Namespace and calls the package directly.  The three
series commands (hurwitz-table, qexp, lattice-sum) share one printer.
lattice-sum, hsum and ec-traces report the ValueError of the package
function they call as a usage error, so those checks live in one place.

Exit codes: 0 on success (for verification commands: all verdicts true),
1 when a verification found mismatches or a cross-check's prime range
missed a case row, 2 on usage errors, a size argument above its cap among
them.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import eccount, formulas, verify
from .forms import CM_CHARACTER, d_series, e2_series, psi_series, theta_mM
from .hurwitz import hurwitz, hurwitz_series
from .qseries import QSeries
from .sums import g_series, lambda_series, mu_series, t_series

__all__ = ["build_parser", "run", "main"]

# largest p the curve sweeps accept
_EC_MAX_P = 500
# largest H(n) counted from its reduced forms, in O(n) time: about 0.8 s at
# 2*10^8 on a 2-core x86-64 host with Python 3.11
_HURWITZ_MAX_N = 2 * 10**8
# smallest --pmax that leaves a prime to check: the classical sums start at
# p = 2, the curve oracle at p = 5
_VERIFY_MIN_PMAX = {"classical": 2, "all": 2, "ec": 5}
# Above the caps below a size argument is refused with exit 2.  Times are
# wall clock for one request at the cap, in a fresh process on the same host
# as above, with JSON output to /dev/null and peak RSS from os.wait4 (medians
# of 7; python -c pass alone takes 0.04-0.07 s and 13 MB there); none needs
# more than 64 MB resident.  tests/test_cli_caps.py runs the requests marked
# "tested" at their caps and holds each under the bound it quotes.
#
# largest H-table limit: hurwitz-table --limit, and at most 4*pmax + 1 for
# cross-check and the classical suite.  cross-check --modulus 8 --pmax 10^5
# takes 1.3-1.7 s (30 MB; tested under 48 MB), hurwitz-table --limit 400001
# 1.6-2.8 s (29 MB in text, tested under 48 MB; 54 MB in JSON, tested under
# 64 MB); the table build alone takes 1.0-1.3 s at 4*10^5 and 5.1 s at
# 8*10^5
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
# suite use ell <= 3.  At --terms 10^5 and modulus 1 lambda takes 0.6-0.7 s
# (39 MB) and mu 0.4-0.7 s (60 MB; tested under 72 MB); mu needs 93 MB at
# ell = 150
_ELL_MAX = 80
# largest coefficient range of the lemma suite (verify --pmax with --suite
# lemmas or all): verify --suite lemmas takes 0.3-0.4 s and 23 MB at 4000,
# 0.3 s and 19 MB at 2000
_LEMMA_MAX_N = 4_000


class UsageError(Exception):
    pass


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
        _emit(args, series.to_strings(), [], [])
    else:
        sys.stdout.writelines(f"{n}:{c.numerator}/{c.denominator}\n"
                              for n, c in enumerate(series))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="hclassnum",
        description="Exact Hurwitz class numbers, restricted sums, and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", parents=[common],
                       help="one Hurwitz class number H(n)")
    p.add_argument("n", type=int, help="argument of H")

    p = sub.add_parser("hurwitz-table", parents=[common],
                       help="H(0..limit-1) as a table")
    p.add_argument("--limit", type=int, required=True,
                   help="tabulate H(n) for n < limit")

    p = sub.add_parser("qexp", parents=[common],
                       help="q-expansion of a named series")
    p.add_argument("--form", required=True,
                   help="psi3 | psi4 | psi2 | D | E2 | theta:m:M")
    p.add_argument("--terms", type=int, required=True,
                   help="number of coefficients to emit")

    p = sub.add_parser("lattice-sum", parents=[common],
                       help="lambda/G/T/mu lattice-sum series")
    p.add_argument("--variant", choices=("lambda", "G", "T", "mu"), required=True)
    p.add_argument("--ell", type=int, required=True, help="moment exponent")
    p.add_argument("--m", type=int, default=None,
                   help="residue class of t (lambda, G and T only; default 0)")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--terms", type=int, required=True,
                   help="number of coefficients to emit")
    p.add_argument("--a", type=int, default=None, help="t-residue (mu only)")
    p.add_argument("--b", type=int, default=None, help="s-residue (mu only)")

    p = sub.add_parser("hsum", parents=[common],
                       help="closed-form H_{m,M}(p) for M = 6 or 8")
    p.add_argument("--modulus", type=int, choices=(6, 8), required=True)
    p.add_argument("--m", type=int, required=True, help="residue class of t")
    p.add_argument("--p", type=int, required=True, help="prime argument")
    p.add_argument("--explain", action="store_true",
                   help="also print the case row and representation used")

    p = sub.add_parser("cross-check", parents=[common],
                       help="closed forms vs brute force over a prime range")
    p.add_argument("--modulus", type=int, choices=(6, 8), required=True)
    p.add_argument("--pmax", type=int, default=500,
                   help="check all primes up to this bound")

    p = sub.add_parser("verify", parents=[common],
                       help="run verification suites")
    p.add_argument("--suite",
                   choices=("mod6", "mod8", "lemmas", "classical", "ec", "all"),
                   default="all",
                   help="which battery to run (all = mod6+mod8+lemmas+classical)")
    p.add_argument("--pmax", type=int, default=500,
                   help="prime range for classical/ec, coefficient range for lemmas")
    p.add_argument("--overshoot", type=int, default=4,
                   help="check this multiple of each Sturm bound")

    p = sub.add_parser("ec-traces", parents=[common],
                       help="weighted curve counts by trace over F_p")
    p.add_argument("--p", type=int, required=True,
                   help=f"prime field size (3 < p <= {_EC_MAX_P})")

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
    if args.n > _HURWITZ_MAX_N and args.n % 4 in (0, 3):
        raise UsageError(f"n is capped at {_HURWITZ_MAX_N} unless H(n) = 0")
    value = hurwitz(args.n)
    _emit(args, str(value), [], [str(value)])
    return 0


def _cmd_hurwitz_table(args: argparse.Namespace) -> int:
    if args.limit < 1:
        raise UsageError("--limit must be >= 1")
    if args.limit > _TABLE_MAX:
        raise UsageError(f"--limit is capped at {_TABLE_MAX}")
    _emit_series(args, hurwitz_series(args.limit))
    return 0


def _check_terms(terms: int) -> None:
    if terms < 1:
        raise UsageError("--terms must be >= 1")
    if terms > _SERIES_MAX:
        raise UsageError(f"--terms is capped at {_SERIES_MAX}")


def _cmd_qexp(args: argparse.Namespace) -> int:
    _check_terms(args.terms)
    _emit_series(args, _parse_form(args.form, args.terms))
    return 0


_LATTICE_SERIES = {"lambda": lambda_series, "G": g_series, "T": t_series}


def _cmd_lattice_sum(args: argparse.Namespace) -> int:
    _check_terms(args.terms)
    if args.ell > _ELL_MAX:
        raise UsageError(f"--ell is capped at {_ELL_MAX}")
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
    if "bound" in report:
        extra = f", bound {report['bound']}"
    return (f"{report['name']}: {status} "
            f"(checked {report['checked']}{extra}, "
            f"mismatches {report['mismatch_count']})")


def _cmd_cross_check(args: argparse.Namespace) -> int:
    p_min = formulas.FIRST_PRIME[args.modulus]
    if args.pmax < p_min:
        raise UsageError(f"--pmax must be >= {p_min} for modulus {args.modulus}")
    if args.pmax > _TABLE_MAX_PMAX:
        raise UsageError(f"--pmax is capped at {_TABLE_MAX_PMAX}")
    report = formulas.cross_check(args.modulus, args.pmax).to_dict()
    ok = report["verdict"] and report["details"]["branch_coverage_complete"]
    lines = [_report_text(report),
             "branch coverage: "
             + ("complete" if report["details"]["branch_coverage_complete"]
                else "INCOMPLETE")]
    _emit(args, {"all_verdicts_true": ok}, [report], lines)
    return 0 if ok else 1


def _suite_reports(suite: str, pmax: int, overshoot: int) -> list[dict]:
    """The report dicts of a suite, in order."""
    reports = []
    if suite in ("mod6", "all"):
        reports += [r.to_dict() for r in verify.verify_mod6(overshoot)]
    if suite in ("mod8", "all"):
        reports += [r.to_dict() for r in verify.verify_mod8(overshoot)]
    if suite in ("lemmas", "all"):
        reports.append(verify.verify_lemmas(pmax).to_dict())
    if suite in ("classical", "all"):
        reports.append(verify.verify_classical(pmax).to_dict())
    if suite == "ec":
        if pmax > _EC_MAX_P:
            print(f"warning: ec suite capped at p <= {_EC_MAX_P}", file=sys.stderr)
        reports.append(eccount.verify_curve_counts(min(pmax, _EC_MAX_P)).to_dict())
    return reports


def _check_verify_caps(suite: str, pmax: int, overshoot: int) -> None:
    """Refuse a --pmax or --overshoot past the cap of a resource the suite uses."""
    pmax_caps = []
    if suite in ("lemmas", "all"):
        pmax_caps.append(_LEMMA_MAX_N)
    if suite in ("classical", "all"):
        pmax_caps.append(_TABLE_MAX_PMAX)
    if pmax_caps and pmax > min(pmax_caps):
        raise UsageError(f"--pmax is capped at {min(pmax_caps)} for --suite {suite}")
    specs = ((verify.MOD6_IDENTITIES if suite in ("mod6", "all") else ())
             + (verify.MOD8_IDENTITIES if suite in ("mod8", "all") else ()))
    if specs:
        bound = max(verify.sturm_bound(2, spec.group) for spec in specs)
        cap = (_SERIES_MAX - 1) // (4 * bound)
        if overshoot > cap:
            raise UsageError(f"--overshoot is capped at {cap} for --suite {suite}")


def _cmd_verify(args: argparse.Namespace) -> int:
    need = _VERIFY_MIN_PMAX.get(args.suite, 1)
    if args.pmax < need:
        raise UsageError(f"--pmax must be >= {need} for --suite {args.suite}")
    if args.overshoot < 1:
        raise UsageError("--overshoot must be >= 1")
    _check_verify_caps(args.suite, args.pmax, args.overshoot)
    reports = _suite_reports(args.suite, args.pmax, args.overshoot)
    all_ok = all(r["verdict"] for r in reports)
    lines = [_report_text(r) for r in reports]
    lines.append("all identities verified" if all_ok else "VERIFICATION FAILED")
    _emit(args, {"suite": args.suite, "all_verdicts_true": all_ok}, reports, lines)
    return 0 if all_ok else 1


def _cmd_ec_traces(args: argparse.Namespace) -> int:
    p = args.p
    if p > _EC_MAX_P:
        raise UsageError(f"p is capped at {_EC_MAX_P}")
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


_HANDLERS = {
    "hurwitz": _cmd_hurwitz,
    "hurwitz-table": _cmd_hurwitz_table,
    "qexp": _cmd_qexp,
    "lattice-sum": _cmd_lattice_sum,
    "hsum": _cmd_hsum,
    "cross-check": _cmd_cross_check,
    "verify": _cmd_verify,
    "ec-traces": _cmd_ec_traces,
}


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return 0 if exc.code == 0 else 2
    try:
        return _HANDLERS[ns.command](ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
