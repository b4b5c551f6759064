"""Acceptance battery: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
comparison is exact; there are no tolerances to tune.
"""
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from hclassnum.eccount import verify_curve_counts
from hclassnum.formulas import MOD6_BRANCHES, MOD8_BRANCHES, cross_check
from hclassnum.forms import psi_series, theta0, theta_weighted
from hclassnum.hurwitz import moment_sum, table_at_least
from hclassnum.numtheory import (
    CHI_MINUS3,
    CHI_MINUS4,
    DirichletCharacter,
    primes_up_to,
)
from hclassnum.qseries import QSeries
from hclassnum.sums import lambda_series, lambda_u4_twist
from hclassnum.verify import verify_lemmas, verify_mod6, verify_mod8
from oracles import cauchy_naive


def _conclude(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def test_criterion_1_eichler_identity():
    start = time.perf_counter()
    table_at_least(4 * 1999 + 1)
    bad = [p for p in primes_up_to(1999) if moment_sum(0, 0, 1, p) != 2 * p]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    _conclude(ok, "criterion 1: full class-number sum equals 2p for all "
                  f"primes p < 2000 ({elapsed:.2f}s)")


def test_criterion_2_mod6_identities():
    reports = verify_mod6(overshoot=4)
    ok = (
        [r.bound for r in reports] == [48, 96, 96, 96]
        and all(r.verdict for r in reports)
        and all(not r.mismatches for r in reports)
        and all(r.checked == 4 * r.bound + 1 for r in reports)
    )
    _conclude(ok, "criterion 2: all 4 modulus-6 identities verified to their "
                  "Sturm bounds with 4x overshoot, zero mismatches")


def test_criterion_3_mod8_identities():
    reports = verify_mod8(overshoot=4)
    ok = (
        [r.bound for r in reports] == [64, 256, 64, 256, 64]
        and all(r.verdict for r in reports)
        and all(not r.mismatches for r in reports)
        and all(r.checked == 4 * r.bound + 1 for r in reports)
    )
    _conclude(ok, "criterion 3: all 5 modulus-8 identities verified to their "
                  "Sturm bounds with 4x overshoot, zero mismatches")


def test_criterion_4_closed_forms_to_ten_thousand():
    start = time.perf_counter()
    rep6 = cross_check(6, 10**4)
    rep8 = cross_check(8, 10**4)
    elapsed = time.perf_counter() - start
    ok = (
        rep6.verdict and rep8.verdict
        and set(rep6.details["branches_hit"]) == set(MOD6_BRANCHES)
        and set(rep8.details["branches_hit"]) == set(MOD8_BRANCHES)
        and elapsed < 60.0
    )
    _conclude(ok, "criterion 4: closed forms equal brute force for every "
                  f"residue and prime up to 10^4, all branches hit ({elapsed:.2f}s)")


def test_criterion_5_cm_prefixes_and_product_construction():
    prec = 2000
    goldens = {
        (3, CHI_MINUS3): {1: 1, 7: -4, 13: 2, 19: 8},
        (4, CHI_MINUS4): {1: 1, 5: 2, 9: -3, 13: -6},
        (2, CHI_MINUS4): {1: 1, 3: 2, 9: -1, 11: -6},
    }
    horizon = {3: 20, 4: 16, 2: 16}
    ok = True
    for (k, chi), golden in goldens.items():
        enum = psi_series(k, chi, prec)
        product = theta_weighted(chi, prec) * theta0(prec).v_operator(k)
        ok = ok and enum == product.truncate(prec)
        for n in range(1, horizon[k]):
            ok = ok and enum[n] == golden.get(n, 0)
    _conclude(ok, "criterion 5: CM prefix goldens match and lattice "
                  "enumeration equals the theta product to 2000 terms")


def test_criterion_6_lemma_equivalences():
    report = verify_lemmas(600)
    zero_ok = all(
        lambda_u4_twist(ell, m, M, 600).is_zero()
        and lambda_series(ell, m, M, 2400).u_operator(4).twist(
            DirichletCharacter.principal(M)).is_zero()
        for M in (6, 8)
        for ell in (0, 1, 3)
        for m in range(1, M, 2)
    )
    ok = report.verdict and zero_ok
    _conclude(ok, "criterion 6: literal lattice sums equal their closed forms "
                  "for M = 6, 8 (ell in {0,1,3}, n <= 600); odd residues "
                  "exactly zero")


def test_criterion_7_h05_regression():
    ok = True
    for p in primes_up_to(1000):
        if p < 7:
            continue
        r = p % 5
        want = (Fraction(p + 1, 2) if r == 1
                else Fraction(p + 1, 3) if r in (2, 3)
                else Fraction(p - 3, 2))
        ok = ok and moment_sum(0, 0, 5, p) == want
    _conclude(ok, "criterion 7: H_{0,5}(p) matches its 3-case evaluation for "
                  "primes 7 <= p <= 1000")


def test_criterion_8_curve_counting_oracle():
    report = verify_curve_counts(13)
    ok = report.verdict and report.checked > 0
    _conclude(ok, "criterion 8: 2 N_A(p;t) = H(4p - t^2) and the mass law "
                  "for 5 <= p <= 13")


@pytest.mark.slow
def test_criterion_8_curve_counting_oracle_extended():
    report = verify_curve_counts(97)
    _conclude(report.verdict, "criterion 8 (slow suite): curve-count identity "
                              "extended to p <= 97")


def test_criterion_9_operator_property_suite():
    rng = random.Random(0x5D1A)
    cases = 0

    def random_series(max_len=30):
        length = rng.randint(1, max_len)
        return QSeries(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(length)
        )

    for _ in range(140):
        f = random_series()
        g = random_series()
        m = rng.randint(1, 9)
        r = rng.randint(-4, 12)

        assert f.v_operator(m).u_operator(m) == f
        cases += 1

        total = QSeries.zero(f.precision)
        for res in range(m):
            total = total + f.sieve(m, res)
        assert total == f
        cases += 1

        sieved = f.sieve(m, r)
        assert sieved.sieve(m, r) == sieved
        cases += 1
        if m > 1:
            assert sieved.sieve(m, r + 1).is_zero()
            cases += 1

        chi0 = DirichletCharacter.principal(m)
        coprime = QSeries.zero(f.precision)
        for res in range(m):
            if gcd(res, m) == 1:
                coprime = coprime + f.sieve(m, res)
        assert f.twist(chi0) == coprime
        cases += 1

        assert list((f * g).coeffs) == cauchy_naive(list(f.coeffs), list(g.coeffs))
        cases += 1

        assert (f * g).precision == min(f.precision, g.precision)
        assert (f + g).precision == min(f.precision, g.precision)
        assert f.u_operator(m).precision == -(-f.precision // m)
        assert f.v_operator(m).precision == m * (f.precision - 1) + 1
        assert f.sieve(m, r).precision == f.precision
        assert f.twist(chi0).precision == f.precision
        cases += 3

    ok = cases >= 1000
    _conclude(ok, f"criterion 9: operator-algebra property suite passed on "
                  f"{cases} randomized cases")
