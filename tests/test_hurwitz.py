import importlib.util
import sys
import types
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from hclassnum.forms import theta_mM
from hclassnum.hurwitz import (
    _forms12,
    _residue_sums12,
    build_table,
    hurwitz,
    hurwitz_series,
    moment_sum,
    table_at_least,
)
from hclassnum.numtheory import primes_up_to
from oracles import build_table_strides, hurwitz_naive, restricted_series


def test_pinned_values():
    assert hurwitz(0) == Fraction(-1, 12)
    assert hurwitz(3) == Fraction(1, 3)
    assert hurwitz(4) == Fraction(1, 2)
    assert hurwitz(23) == 3
    assert hurwitz(-8) == 0
    assert hurwitz(1) == 0 and hurwitz(2) == 0
    assert hurwitz(5) == 0 and hurwitz(6) == 0


def test_package_attribute_is_the_module():
    from hclassnum import hurwitz as module

    assert isinstance(module, types.ModuleType)
    assert module.hurwitz(0) == Fraction(-1, 12)
    assert callable(module.table_at_least)


def test_against_canonical_reduction_oracle():
    table = table_at_least(2001)
    for n in range(2001):
        assert Fraction(table[n], 12) == hurwitz_naive(n), n


def test_table_scaling_and_positivity():
    table = table_at_least(10**4 + 1)
    for n in range(10**4 + 1):
        v12 = table[n]
        assert isinstance(v12, int)  # 12*H(n) integral by construction
        if n > 0 and n % 4 in (0, 3):
            assert v12 > 0
        elif n > 0:
            assert v12 == 0
    assert (12 * hurwitz(10**4)).denominator == 1


def test_merged_columns_match_one_walk_per_tail():
    # every small limit, then each residue of the limit mod 4 near 10^5
    for limit in [*range(1, 401), *range(10**5, 10**5 + 4)]:
        assert list(build_table(limit)) == build_table_strides(limit), limit


def test_form_count_matches_the_table():
    table = build_table(2 * 10**4)
    for n in range(1, len(table)):
        if n % 4 in (0, 3):
            assert _forms12(n) == table[n], n


def test_form_count_matches_naive_oracle_past_the_table():
    for n in (10_003, 55_504, 65_160, 99_999, 137_524, 149_999):
        assert Fraction(_forms12(n), 12) == hurwitz_naive(n), n


def test_lookup_past_the_table_leaves_it_alone():
    from hclassnum import hurwitz as module

    table = table_at_least(1)
    n = 4 * len(table) + 3
    assert hurwitz(n) == Fraction(_forms12(n), 12)
    assert module._table is table


def test_table_at_least_growth_rule(monkeypatch):
    from hclassnum import hurwitz as module

    small = build_table(10)
    monkeypatch.setattr(module, "_table", small)
    assert table_at_least(10) is small  # covered: the same object
    # uncovered: grown to max(limit, 2 * old, 1024) and shared from then on
    for limit, grown in ((11, 1024), (1500, 2048), (5000, 5000)):
        table = table_at_least(limit)
        assert len(table) == grown, limit
        assert module._table is table
        assert table_at_least(limit - 1) is table


def test_oracles_load_without_the_package(monkeypatch):
    # perfbench/references.py loads tests/oracles.py by path for
    # hurwitz_naive, where hclassnum is not importable; a cached submodule
    # would still import, so hide those too
    for name in ["hclassnum", *(n for n in sys.modules if n.startswith("hclassnum."))]:
        monkeypatch.setitem(sys.modules, name, None)
    path = Path(__file__).with_name("oracles.py")
    spec = importlib.util.spec_from_file_location("oracles_standalone", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.hurwitz_naive(23) == 3


def test_table_bounds():
    with pytest.raises(ValueError):
        build_table(0)
    assert len(build_table(5)) == 5


def test_tables_are_read_only():
    # the shared table is handed to every caller, so none may change it
    for table in (build_table(10), table_at_least(2000)):
        with pytest.raises(TypeError):
            table[3] = 0
        with pytest.raises(TypeError):
            table[:2] = table[2:4]


def test_series_prefix():
    h = hurwitz_series(8)
    assert h.precision == 8
    assert h[0] == Fraction(-1, 12)
    assert h[1] == 0 and h[2] == 0
    assert h[3] == Fraction(1, 3)
    assert h[4] == Fraction(1, 2)
    assert h[7] == 1


def test_series_rejects_precision_below_one():
    # a grown table must not let a negative precision slice from the end
    table_at_least(100)
    for precision in (0, -3):
        with pytest.raises(ValueError, match="^precision must be >= 1$"):
            hurwitz_series(precision)


def test_eichler_sum():
    for p in primes_up_to(500):
        assert moment_sum(0, 0, 1, p) == 2 * p


# P_k(t, p) = (rho^(k-1) - rhobar^(k-1)) / (rho - rhobar) with rho + rhobar = t
# and rho*rhobar = p, for the weights k = 4, 6 at which SL_2(Z) has no cusp
# forms.  The Eichler-Selberg trace formula (Zagier's appendix to Lang,
# Introduction to Modular Forms, 1976) then reads, at every prime p,
# 0 = tr T_p = -1/2 sum_{t^2 <= 4p} P_k(t, p) H(4p - t^2) - 1/2 (1 + 1).
ES_POLYNOMIALS = {4: lambda t, p: t * t - p,
                  6: lambda t, p: t**4 - 3 * p * t * t + p * p}
ES_BOUND = 2000


def eichler_selberg_failures(table, bound):
    """The primes p <= bound at which sum_t P_k(t, p) * 12*H(4p - t^2) is not
    -24 for k = 4 or 6, reading 12*H from table."""
    failed = set()
    for p in primes_up_to(bound):
        r = isqrt(4 * p)
        for P in ES_POLYNOMIALS.values():
            if sum(P(t, p) * table[4 * p - t * t] for t in range(-r, r + 1)) != -24:
                failed.add(p)
    return failed


def test_table_satisfies_the_eichler_selberg_trace_formula():
    # a classical identity for the table that does not rest on the paper
    assert eichler_selberg_failures(table_at_least(4 * ES_BOUND + 1), ES_BOUND) == set()


@pytest.mark.parametrize("n", [3, 4, 7, 12, 19, 5, 1000, 4003, 7963, 7996])
def test_eichler_selberg_flags_every_prime_that_reads_a_wrong_entry(n):
    # P_4 and P_6 vanish at no prime (t^2 = p, or t^2 = p*(3 +- sqrt 5)/2),
    # so an entry off by one shows at exactly the primes p with 4p - n a
    # square; n = 1, 2 (mod 4) is never read
    table = list(table_at_least(4 * ES_BOUND + 1))
    table[n] += 1
    reading = {p for p in primes_up_to(ES_BOUND) if 4 * p >= n
               and isqrt(4 * p - n) ** 2 == 4 * p - n}
    assert eichler_selberg_failures(table, ES_BOUND) == reading
    assert bool(reading) == (n % 4 in (0, 3))


def test_h05_example():
    assert moment_sum(0, 0, 5, 19) == 8


def test_first_moment_vanishes_by_symmetry():
    for n in range(0, 200):
        assert moment_sum(1, 0, 1, n) == 0


def test_small_restricted_values():
    # t = +-1 both land in the residue class 1 mod 2
    assert moment_sum(0, 1, 2, 1) == Fraction(2, 3)
    # t = 2 contributes H(0) when 4n is t^2
    assert moment_sum(0, 2, 6, 1) == Fraction(-1, 12)


def test_residue_classes_partition_the_full_sum():
    for n in range(501):
        full = moment_sum(0, 0, 1, n)
        for M in range(2, 11):
            parts = sum(moment_sum(0, m, M, n) for m in range(M))
            assert parts == full, (n, M)


def test_restricted_sum_symmetric_in_sign_of_residue():
    for M in (2, 5, 6, 8):
        for m in range(M):
            for n in range(0, 120):
                assert moment_sum(0, m, M, n) == moment_sum(0, -m, M, n)


@pytest.mark.parametrize("m,M", [(0, 2), (1, 2), (0, 6), (1, 6), (2, 6), (0, 8), (3, 8)])
def test_restricted_series_matches_operator_pipeline(m, M):
    prec = 150
    direct = restricted_series(m, M, prec)
    inner = 4 * prec - 3
    built = (hurwitz_series(inner) * theta_mM(m, M, inner)).u_operator(4)
    assert built.precision == prec
    assert direct == built


def test_moment_sum_validates():
    with pytest.raises(ValueError):
        moment_sum(-1, 0, 1, 5)
    with pytest.raises(ValueError):
        moment_sum(0, 0, 0, 5)
    with pytest.raises(ValueError):
        moment_sum(0, 0, 1, -1)


def test_residue_sums_match_moment_sum():
    primes = primes_up_to(5000)
    for M in (1, 5, 6, 8):
        for p, sums12 in zip(primes, _residue_sums12(M, primes), strict=True):
            sums = [Fraction(s, 12) for s in sums12]
            assert sums == [moment_sum(0, m, M, p) for m in range(M)], (M, p)
    [sums12] = _residue_sums12(3, [0])
    assert [Fraction(s, 12) for s in sums12] == [Fraction(-1, 12), 0, 0]


def test_integer_residue_sums_are_twelve_times_the_fractions():
    ns = [0] + primes_up_to(5000)
    for M in (1, 3, 5, 6, 8):
        for p, sums12 in zip(ns, _residue_sums12(M, ns), strict=True):
            assert all(type(s) is int for s in sums12)
            assert sums12 == [12 * moment_sum(0, m, M, p) for m in range(M)], (M, p)


@pytest.mark.parametrize("M", range(1, 9))
def test_residue_sums_over_consecutive_n(M):
    # every n from 0 on, so the getter is rebuilt at every new isqrt(4n)
    ns = range(3001)
    got = list(_residue_sums12(M, ns))
    assert got == [[12 * moment_sum(0, m, M, n) for m in range(M)] for n in ns]


def test_residue_sums_of_no_n_is_empty():
    assert list(_residue_sums12(6, [])) == []


@pytest.mark.parametrize("n", [0, 1, 2, 25, 1234])
def test_residue_sums_read_the_last_entry_of_an_exact_table(n, monkeypatch):
    from hclassnum import hurwitz as module

    # 4n + 1 is exactly the table's length, so an offset past 4n must fail
    monkeypatch.setattr(module, "_table", build_table(4 * n + 1))
    for M in (1, 2, 5, 8):
        [sums12] = _residue_sums12(M, [n])
        assert len(module._table) == 4 * n + 1
        assert sums12 == [12 * moment_sum(0, m, M, n) for m in range(M)], (M, n)
