import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from hclassnum import formulas
from hclassnum.formulas import (
    CASE_ROWS,
    FIRST_PRIME,
    cross_check,
    h_formula,
)
from hclassnum.forms import psi_series
from hclassnum.hurwitz import moment_sum
from hclassnum.numtheory import CHI_MINUS3, CHI_MINUS4, primes_up_to, represent
from hclassnum.qseries import QSeries
from hclassnum.sums import lambda_u4_twist
from hclassnum.verify import MOD6_IDENTITIES, MOD8_IDENTITIES


def branches(M):
    """The branch labels of the modulus-M table, in its printed order."""
    return tuple(row.label for row in CASE_ROWS[M])


def test_mod6_pinned_values():
    r = h_formula(6, 7, 0)
    assert r.value == 2
    assert r.representation is not None and (r.representation.x,
                                             r.representation.y) == (2, 1)
    assert h_formula(6, 5, 0).value == 2
    assert h_formula(6, 5, 3).value == 2
    assert h_formula(6, 5, 3).branch == "m=2,3,4 (6), p=2 (3)"


def test_mod8_pinned_values():
    assert h_formula(8, 5, 0).value == 2
    assert h_formula(8, 3, 0).value == Fraction(4, 3)
    assert h_formula(8, 7, 1).value == Fraction(4, 3)
    assert h_formula(8, 3, 1).value == 1


def test_rejects_small_primes_and_composites():
    for p in (2, 3, 9):
        with pytest.raises(ValueError):
            h_formula(6, p, 0)
    for p in (2, 15):
        with pytest.raises(ValueError):
            h_formula(8, p, 0)
    with pytest.raises(ValueError):
        h_formula(7, 11, 0)


@pytest.mark.parametrize("field", ["value", "branch", "representation"])
def test_formula_results_are_frozen(field):
    with pytest.raises(AttributeError):
        setattr(h_formula(6, 7, 0), field, None)


@pytest.mark.parametrize("field", ["label", "form"])
def test_case_rows_are_frozen(field):
    with pytest.raises(AttributeError):
        setattr(CASE_ROWS[8][0], field, None)


def test_residue_folding():
    for p in (5, 7, 11, 13):
        for m in range(6):
            assert h_formula(6, p, m).value == h_formula(6, p, -m).value
            assert h_formula(6, p, m).value == h_formula(6, p, m + 6).value
        for m in range(8):
            assert h_formula(8, p, m).value == h_formula(8, p, -m).value


def test_values_match_brute_force_small():
    for p in primes_up_to(200):
        if p >= 5:
            for m in range(6):
                assert h_formula(6, p, m).value == moment_sum(0, m, 6, p), (p, m)
        if p >= 3:
            for m in range(8):
                assert h_formula(8, p, m).value == moment_sum(0, m, 8, p), (p, m)


def test_residue_classes_sum_to_eichler():
    for p in primes_up_to(1000):
        if p < 5:
            continue
        total6 = sum(h_formula(6, p, m).value for m in range(6))
        total8 = sum(h_formula(8, p, m).value for m in range(8))
        assert total6 == 2 * p
        assert total8 == 2 * p


def test_branch_coverage_by_200():
    hit6 = {h_formula(6, p, m).branch for p in primes_up_to(200) if p >= 5
            for m in range(6)}
    assert hit6 == set(branches(6))
    hit8 = {h_formula(8, p, m).branch for p in primes_up_to(200) if p >= 3
            for m in range(8)}
    assert hit8 == set(branches(8))


def test_character_term_sign_invariance():
    # the tables consume chi(x) * x from a representation with x >= 0; the
    # value must not change if a negative representative were picked instead
    for p in primes_up_to(300):
        if p < 5:
            continue
        if p % 3 == 1:
            r = h_formula(6, p, 0).representation
            assert CHI_MINUS3(r.x) * r.x == CHI_MINUS3(-r.x) * -r.x
        if p % 4 == 1:
            r = h_formula(8, p, 0).representation
            assert CHI_MINUS4(r.x) * r.x == CHI_MINUS4(-r.x) * -r.x


@pytest.mark.parametrize("M", [6, 8])
def test_cross_check_small_range(M):
    report = cross_check(M, 500)
    assert report.verdict, report.mismatches[:5]
    assert report.details["branch_coverage_complete"]


# the paper's printed rows: H_{m,M}(p) = (a*p + b)/c + chi_coeff*chi(x)*x
PRINTED_ROWS = {
    "m=0 (6), p=1 (3)": (1, 1, 3, Fraction(1, 3)),
    "m=0 (6), p=2 (3)": (2, -4, 3, 0),
    "m=1,5 (6), p=1 (3)": (1, 1, 4, Fraction(1, 6)),
    "m=1,5 (6), p=2 (3)": (1, 1, 6, 0),
    "m=2,4 (6), p=1 (3)": (1, -1, 2, Fraction(-1, 6)),
    "m=2,3,4 (6), p=2 (3)": (1, 1, 3, 0),
    "m=3 (6), p=1 (3)": (1, 1, 6, Fraction(-1, 3)),
    "m=0 (8), p=1 (4)": (1, 1, 4, Fraction(1, 2)),
    "m=0 (8), p=3 (8)": (1, 1, 3, 0),
    "m=0 (8), p=7 (8)": (1, -3, 2, 0),
    "m=2,6 (8), p=1 (4)": (5, -7, 12, 0),
    "m=2,6 (8), p=3 (4)": (1, 1, 4, 0),
    "m=4 (8), p=1 (4)": (1, 1, 4, Fraction(-1, 2)),
    "m=4 (8), p=3 (8)": (1, -3, 2, 0),
    "m=4 (8), p=7 (8)": (1, 1, 3, 0),
    "m=1,7 (8), p=1,3 (8)": (1, 1, 6, Fraction(1, 3)),
    "m odd (8), p=5,7 (8)": (1, 1, 6, 0),
    "m=3,5 (8), p=1,3 (8)": (1, 1, 6, Fraction(-1, 3)),
}


@pytest.mark.parametrize("M, checked_at_first", [(6, 6), (8, 8)])
def test_first_prime_is_the_least_pmax_that_checks_something(M, checked_at_first):
    p = formulas.FIRST_PRIME[M]
    assert formulas.cross_check(M, p - 1).checked == 0
    assert formulas.cross_check(M, p).checked == checked_at_first


def test_each_residue_and_prime_class_is_served_by_one_row():
    prime_classes = {6: (1, 2), 8: (1, 3, 5, 7)}
    assert set(formulas._ROWS) == {(M, r) for M in prime_classes for r in prime_classes[M]}
    for M, rows in CASE_ROWS.items():
        for m in range(M):
            for r in prime_classes[M]:
                serving = [row for row in rows
                           if min(m, M - m) in row.residues and r in row.prime_classes]
                assert len(serving) == 1, (M, m, r, serving)
                forms, layout = formulas._ROWS[M, r]
                assert layout[m][0] is serving[0], (M, m, r)
    assert set(PRINTED_ROWS) == set(branches(6) + branches(8))
    # the integers derived for each slot are its printed row's value; a slot
    # holds the coefficient of psi_k(p) = 2*chi(x)*x
    for forms, layout in formulas._ROWS.values():
        assert forms == tuple(sorted({row.form for row, *_ in layout} - {None}))
        for row, a, b, c, d in layout:
            pa, pb, pc, chi_coeff = PRINTED_ROWS[row.label]
            assert (Fraction(a, d), Fraction(b, d), 2 * Fraction(c, d)) == \
                (Fraction(pa, pc), Fraction(pb, pc), chi_coeff), row.label


@pytest.mark.parametrize("M,p", [(8, 17), (8, 13), (8, 11), (8, 7), (6, 7), (6, 5)])
def test_h_formula_represents_once_when_its_row_reads_a_form(M, p, monkeypatch):
    calls = []

    def counting_represent(q, n):
        calls.append((q, n))
        return represent(q, n)

    monkeypatch.setattr(formulas, "represent", counting_represent)
    layout = formulas._ROWS[M, p % formulas._PRIME_CLASS_MODULUS[M]][1]
    for m in range(M):
        calls.clear()
        result = h_formula(M, p, m)
        form = layout[m][0].form
        # the k = 0 row "m=2,6 (8), p=1 (4)" reads x^2 + 4y^2 too, for --explain
        assert calls == ([(p, form)] if form else []), (m, calls)
        assert result.representation == (represent(p, form) if form else None)


@pytest.mark.parametrize("M", [6, 8])
def test_cross_check_represents_only_in_the_recheck(M, monkeypatch):
    rechecks, running, calls = [], [], []
    scalar = formulas.h_formula

    def recheck(modulus, p, m):
        rechecks.append(p)
        running.append(p)
        try:
            return scalar(modulus, p, m)
        finally:
            running.pop()

    def counting_represent(q, n):
        calls.append((q, running[-1] if running else None))
        return represent(q, n)

    monkeypatch.setattr(formulas, "h_formula", recheck)
    monkeypatch.setattr(formulas, "represent", counting_represent)
    report = cross_check(M, 5000)
    assert report.verdict and report.details["branch_coverage_complete"]
    assert len(rechecks) == len(CASE_ROWS[M])
    assert 0 < len(calls) <= len(CASE_ROWS[M])
    assert all(q == p for q, p in calls), calls


@pytest.mark.parametrize("M,form,p_wrong", [(6, 3, 7), (6, 3, 4999), (8, 4, 101),
                                            (8, 2, 107), (8, 2, 4993)])
def test_a_wrong_psi_coefficient_is_flagged_at_its_prime_only(M, form, p_wrong,
                                                              monkeypatch):
    # chi(x)*x comes off psi_k in the sweep and off Cornacchia in the
    # recheck; a psi_k off by one at one prime shows there and nowhere else
    def wrong_psi(k, chi, precision):
        series = psi_series(k, chi, precision)
        if k != form:
            return series
        return QSeries([c + (n == p_wrong) for n, c in enumerate(series.coeffs)])

    monkeypatch.setattr(formulas, "psi_series", wrong_psi)
    report = cross_check(M, 5000)
    assert not report.verdict
    assert {bad[0] for bad in report.mismatches} == {p_wrong}


def test_case_rows_follow_from_the_identities():
    """Every slot of _ROWS is the coefficient of q^p in one identity.

    At a prime p that does not divide M, the identity for H_{m,M} reads
    H_{m,M}(p) + Lambda(p)/2 = alpha*(p + 1) + cm_coeff*psi_k[p], where
    alpha sums the coeff of each d_term with p = residue (mod modulus).
    Lambda is the lambda_u4_twist(1, m, M) term; at a prime only d = 1 is a
    divisor below sqrt(p), and T vanishes off the squares, so Lambda is one
    constant on each class of p (checked below 193 as well).  psi_k[p] is
    2*chi(x)*x when p = x^2 + k*y^2 and 0 otherwise, which
    tests/test_forms.py:test_psi_at_primes_is_the_hecke_character checks.
    Every sieve modulus and prime-class modulus divides 24, so a class of p
    mod 24 fixes both the sieves and the row; through H_{m,M} = H_{-m,M}
    the identities cover every residue m mod M.  The package derives each
    slot from the least prime of its class; this reads every prime below 193.
    """
    primes = primes_up_to(192)
    served = set()
    for spec in MOD6_IDENTITIES + MOD8_IDENTITIES:
        M = spec.modulus
        lam = lambda_u4_twist(1, spec.m, M, 193)
        for c in range(24):
            in_class = [p for p in primes if p % 24 == c and p >= FIRST_PRIME[M]]
            if not in_class:
                continue
            assert {lam[p] for p in in_class} == {lam[in_class[0]]}, (spec.name, c)
            alpha = sum((coeff for coeff, modulus, residue in spec.d_terms
                         if (c - residue) % modulus == 0), Fraction(0))
            beta = alpha - lam[in_class[0]] / 2
            for m in {spec.m % M, -spec.m % M}:
                layout = formulas._ROWS[M, c % formulas._PRIME_CLASS_MODULUS[M]][1]
                row, a, b, cm, d = layout[m]
                served.add(row)
                assert (Fraction(a, d), Fraction(b, d)) == (alpha, beta), (spec.name, m, c)
                if spec.cm is None:
                    assert cm == 0, (spec.name, m, c)
                elif row.form is not None:
                    assert (Fraction(cm, d), row.form) == spec.cm, (spec.name, m, c)
                else:
                    assert cm == 0, (spec.name, m, c)
                    assert all(represent(p, spec.cm[1]) is None for p in in_class), \
                        (spec.name, m, c)
    assert served == set(CASE_ROWS[6] + CASE_ROWS[8])


def test_branch_labels_keep_their_printed_order():
    # cross_check's "branches_expected" lists them in this order
    assert branches(6) == (
        "m=0 (6), p=1 (3)",
        "m=0 (6), p=2 (3)",
        "m=1,5 (6), p=1 (3)",
        "m=1,5 (6), p=2 (3)",
        "m=2,4 (6), p=1 (3)",
        "m=2,3,4 (6), p=2 (3)",
        "m=3 (6), p=1 (3)",
    )
    assert branches(8) == (
        "m=0 (8), p=1 (4)",
        "m=0 (8), p=3 (8)",
        "m=0 (8), p=7 (8)",
        "m=2,6 (8), p=1 (4)",
        "m=2,6 (8), p=3 (4)",
        "m=4 (8), p=1 (4)",
        "m=4 (8), p=3 (8)",
        "m=4 (8), p=7 (8)",
        "m=1,7 (8), p=1,3 (8)",
        "m odd (8), p=5,7 (8)",
        "m=3,5 (8), p=1,3 (8)",
    )


@pytest.mark.parametrize("M", [6, 8])
def test_prime_table_script_prints_every_prime_without_mismatch(M, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_prime_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_prime_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.print_table(M, 60)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"H_(m,{M})(p):"
    rows = [line.split() for line in lines[2:] if line]
    assert [int(row[0]) for row in rows] == \
        [p for p in primes_up_to(60) if p >= FIRST_PRIME[M]]
    assert all(len(row) == M + 1 for row in rows)
    assert "*" not in "".join(lines)


def test_cross_check_rejects_other_moduli():
    with pytest.raises(ValueError):
        cross_check(5, 100)


@pytest.mark.parametrize("M,checked", [(6, 13560), (8, 18088)])
def test_cross_check_counts_every_prime_and_residue_once(M, checked):
    report = cross_check(M, 2 * 10**4)
    assert report.checked == checked
    assert report.verdict and report.details["branch_coverage_complete"]


@pytest.mark.parametrize("M,index", [(M, i) for M in (6, 8) for i in range(len(CASE_ROWS[M]))])
def test_cross_check_catches_a_wrong_row(M, index, monkeypatch):
    row = CASE_ROWS[M][index]
    for key, (forms, layout) in formulas._ROWS.items():
        if key[0] == M:
            # off by one everywhere the row serves: B + D over D
            wrong = tuple((r, a, b + d, c, d) if r is row else (r, a, b, c, d)
                          for r, a, b, c, d in layout)
            monkeypatch.setitem(formulas._ROWS, key, (forms, wrong))
    report = cross_check(M, 100)
    assert not report.verdict
    assert report.mismatches and {bad[-1] for bad in report.mismatches} == {row.label}


_D_TERMS = [(spec, i) for spec in MOD6_IDENTITIES + MOD8_IDENTITIES
            for i in range(len(spec.d_terms))]


@pytest.mark.parametrize("spec,index", _D_TERMS,
                         ids=[f"{spec.name}-term{i}" for spec, i in _D_TERMS])
def test_a_wrong_identity_coefficient_reaches_only_its_rows(spec, index, monkeypatch):
    # the rows are derived from the identities, so a wrong d_terms coefficient
    # shows up in exactly the rows of residue m at the primes its sieve reads
    M = spec.modulus
    coeff, modulus, residue = spec.d_terms[index]
    reached = {h_formula(M, p, spec.m).branch for p in primes_up_to(100)
               if p >= FIRST_PRIME[M] and (p - residue) % modulus == 0}
    terms = list(spec.d_terms)
    terms[index] = (coeff + Fraction(1, 12), modulus, residue)
    specs = tuple(s._replace(d_terms=tuple(terms)) if s is spec else s
                  for s in formulas._IDENTITIES[M])
    monkeypatch.setitem(formulas._IDENTITIES, M, specs)
    for key in formulas._ROWS:
        if key[0] == M:
            monkeypatch.setitem(formulas._ROWS, key, formulas._class_layout(*key))
    report = cross_check(M, 100)
    assert reached and {bad[-1] for bad in report.mismatches} == reached


def test_cross_check_compares_the_scalar_paths(monkeypatch):
    # one cell per row also goes through h_formula and moment_sum; a scalar
    # value that disagrees with the batched one is a mismatch of its own,
    # and these extra cells are not counted as checks
    clean = cross_check(8, 60)
    monkeypatch.setattr(formulas, "moment_sum",
                        lambda kappa, m, M, n: moment_sum(kappa, m, M, n) + 1)
    report = cross_check(8, 60)
    assert report.checked == clean.checked
    assert len(report.mismatches) == len(CASE_ROWS[8])
    for p, m, value, brute, label in report.mismatches:
        assert brute == moment_sum(0, m, 8, p) + 1 and value == h_formula(8, p, m).value
