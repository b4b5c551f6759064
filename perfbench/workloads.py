"""The four benchmark workloads: what each runs and how its answers are checked.

identities, sweeps and curves are fixed jobs of public hclassnum calls; the
seed does not change them.  Each pass runs one job in a fresh process, so
every pass starts from the same cold H-table.  The expected number of
checks is part of the gate: a change cannot get faster by checking less.

cli is a closed loop with one client.  The seed draws a script of requests,
one per stratum of each input range, so every seed gets the same spread of
sizes; the client replays the script round after round, and every request
is a fresh `python -m hclassnum.cli ... --format json` process.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

from references import (
    chi_minus3,
    chi_minus4,
    g_coeffs,
    is_probable_prime,
    lambda_coeffs,
    mu_coeffs,
    psi_coeffs,
    t_coeffs,
    theta_coeffs,
)

IN_PROCESS = ("identities", "sweeps", "curves")
WORKLOADS = IN_PROCESS + ("cli",)

SWEEP_P = 50_000
CURVE_P = 499  # the largest prime under the CLI cap of 500

EXPECTED_CHECKS = {"identities": 121_049, "sweeps": 82_105, "curves": 5_180}


def run_job(workload: str, hc) -> list:
    """The reports of one pass; `hc` is the imported hclassnum package."""
    if workload == "identities":
        return [*hc.verify_mod6(16), *hc.verify_mod8(16), hc.verify_lemmas(600)]
    if workload == "sweeps":
        return [
            hc.cross_check(6, SWEEP_P),
            hc.cross_check(8, SWEEP_P),
            hc.verify_classical(SWEEP_P),
        ]
    if workload == "curves":
        return [hc.verify_curve_counts(CURVE_P)]
    raise ValueError(f"no in-process job {workload!r}")


def gate_reports(reports: list) -> dict:
    """Checks made, mismatches, false verdicts, and whether the JSON round-trips.

    A cross_check report without full case-table coverage counts as a
    false verdict, as it does in `hclassnum cross-check`.
    """
    dicts = [r.to_dict() for r in reports]
    text = json.dumps(dicts, indent=2)
    false_verdicts = sum(
        not d["verdict"]
        or d.get("details", {}).get("branch_coverage_complete") is False
        for d in dicts
    )
    return {
        "checked": sum(d["checked"] for d in dicts),
        "mismatches": sum(d["mismatch_count"] for d in dicts),
        "false_verdicts": false_verdicts,
        "roundtrip_ok": json.dumps(json.loads(text), indent=2) == text,
    }


# -- the cli request script ------------------------------------------------------

H_RANGE = (10_000, 150_000)
H_STRATA = 3
HSUM_RANGE = (10**10, 10**11)
TERMS_RANGE = (2_000, 6_000)
QEXP_FORMS = ("psi3", "psi4", "psi2", "D", "E2", "theta")


def _prime(rng: random.Random, lo: int, hi: int, modulus: int, residue: int) -> int:
    while True:
        p = rng.randrange(lo, hi) // modulus * modulus + residue
        if is_probable_prime(p):
            return p


def cli_script(seed: int) -> list[list[str]]:
    """One round of requests, drawn from the seed.

    Three H(N) lookups, one per third of H_RANGE, with N = 0 or 3 (mod 4)
    so that each one needs the table; two closed-form sums at primes whose
    case rows call `represent`; one qexp per named form; one lattice sum.
    """
    rng = random.Random(seed)
    script = []
    lo, hi = H_RANGE
    width = (hi - lo) // H_STRATA
    for k in range(H_STRATA):
        n = rng.randrange(lo + k * width, lo + (k + 1) * width) // 4 * 4
        script.append(["hurwitz", str(n + rng.choice((0, 3)))])
    for modulus, residue, mod in ((6, 1, 3), (8, 1, 8)):
        p = _prime(rng, *HSUM_RANGE, mod, residue)
        script.append(["hsum", "--modulus", str(modulus), "--m",
                       str(rng.randrange(modulus)), "--p", str(p), "--explain"])
    for form in QEXP_FORMS:
        if form == "theta":
            big_m = rng.randrange(1, 9)
            form = f"theta:{rng.randrange(big_m)}:{big_m}"
        script.append(["qexp", "--form", form, "--terms",
                       str(rng.randrange(*TERMS_RANGE))])
    variant = rng.choice(("lambda", "G", "T", "mu"))
    big_m = rng.choice((6, 8))
    request = ["lattice-sum", "--variant", variant, "--ell",
               str(rng.choice((0, 1, 3))), "--modulus", str(big_m),
               "--terms", str(rng.randrange(*TERMS_RANGE))]
    if variant == "mu":
        request += ["--a", str(rng.randrange(big_m)), "--b", str(rng.randrange(big_m))]
    else:
        request += ["--m", str(rng.randrange(big_m))]
    script.append(request)
    return [argv + ["--format", "json"] for argv in script]


# -- independent checks of cli answers -----------------------------------------


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _canonical_fractions(items) -> list[Fraction] | None:
    values = [Fraction(s) for s in items]
    if [str(v) for v in values] != list(items):
        return None
    return values


def _hsum_form(modulus: int, m: int) -> int:
    """n in p = x^2 + n*y^2 for the case rows at these residues."""
    if modulus == 6:
        return 3
    r = m % 8
    return 4 if min(r, 8 - r) % 2 == 0 else 2


def _expected_series(argv: list[str], terms: int) -> list[Fraction]:
    from sympy import divisor_sigma

    if argv[0] == "qexp":
        form = _option(argv, "--form")
        if form in ("D", "E2"):
            sigma = [0] + [int(divisor_sigma(n)) for n in range(1, terms)]
            if form == "D":
                return [Fraction(s) for s in sigma]
            return [Fraction(1)] + [Fraction(-24 * s) for s in sigma[1:]]
        if form.startswith("theta:"):
            _, m, big_m = form.split(":")
            return theta_coeffs(int(m), int(big_m), terms)
        k, chi = {"psi3": (3, chi_minus3), "psi4": (4, chi_minus4),
                  "psi2": (2, chi_minus4)}[form]
        return psi_coeffs(k, chi, terms)
    variant = _option(argv, "--variant")
    ell = int(_option(argv, "--ell"))
    big_m = int(_option(argv, "--modulus"))
    if variant == "mu":
        a, b = int(_option(argv, "--a")), int(_option(argv, "--b"))
        return mu_coeffs(ell, a, b, big_m, terms)
    m = int(_option(argv, "--m"))
    coeffs = {"lambda": lambda_coeffs, "G": g_coeffs, "T": t_coeffs}[variant]
    return coeffs(ell, m, big_m, terms)


def check_answer(argv: list[str], returncode: int, out: str, hurwitz_naive) -> str | None:
    """None when the answer is right, otherwise what is wrong with it."""
    if returncode != 0:
        return f"exit {returncode}"
    text = out.rstrip("\n")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    if json.dumps(payload, indent=2) != text:
        return "JSON does not re-serialize byte-identically"
    if payload.get("command") != argv[0]:
        return "wrong command in envelope"
    result = payload["result"]
    if argv[0] == "hurwitz":
        if result != str(hurwitz_naive(int(argv[1]))):
            return "H(N) differs from the naive class-number oracle"
        return None
    if argv[0] == "hsum":
        from sympy.solvers.diophantine.diophantine import cornacchia

        p = int(_option(argv, "--p"))
        modulus, m = int(_option(argv, "--modulus")), int(_option(argv, "--m"))
        n = _hsum_form(modulus, m)
        rep = result["representation"]
        if rep is None or rep["n"] != n:
            return "representation missing or for the wrong form"
        if (rep["x"], rep["y"]) not in cornacchia(1, n, p):
            return "representation differs from sympy's cornacchia"
        if _canonical_fractions([result["value"]]) is None:
            return "value is not a canonical rational"
        return None
    terms = int(_option(argv, "--terms"))
    got = _canonical_fractions(result) if isinstance(result, list) else None
    if got is None or got != _expected_series(argv, terms):
        return "coefficients differ from the independent computation"
    return None
