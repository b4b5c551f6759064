import random
from fractions import Fraction
from math import isqrt

import pytest

from hclassnum import eccount
from hclassnum.eccount import (
    _correlation,
    _slot_code,
    trace_distribution,
    verify_curve_counts,
)
from hclassnum.hurwitz import hurwitz, moment_sum
from hclassnum.numtheory import is_prime, primes_up_to

from oracles import trace_distribution_pairs


def test_rejects_bad_p():
    for p in (2, 3, 4, 15):
        with pytest.raises(ValueError):
            trace_distribution(p)


def test_p5_distribution_pinned():
    # counts are (p - 1) * N_A(p; t), here over p - 1 = 4
    counts = trace_distribution(5)
    assert counts == {-4: 1, -3: 2, -2: 3, -1: 2, 0: 4, 1: 2, 2: 3, 3: 2, 4: 1}
    for t in (1, 2, 3, 4, -1, -2, -3, -4):
        assert Fraction(2 * counts[t], 4) == hurwitz(20 - t * t), t


def test_mass_formula():
    # every prime below the ec-traces cap of 500: integer counts summing to
    # (p - 1) * p, the mass p over the denominator p - 1
    for p in primes_up_to(499):
        if p > 3:
            counts = trace_distribution(p)
            assert all(type(t) is int and type(c) is int
                       for t, c in counts.items()), p
            assert sum(counts.values()) == p * (p - 1), p


def test_hasse_bound_and_integrality():
    for p in (5, 7, 11, 13):
        counts = trace_distribution(p)
        tmax = isqrt(4 * p)
        assert list(counts) == sorted(counts)
        for t, c in counts.items():
            assert t * t <= 4 * p
            assert abs(t) <= tmax
            assert 12 * c % (p - 1) == 0  # 12 N_A(p;t) is an integer
            assert c > 0


def test_twist_symmetry_off_p():
    # the quadratic twist flips the trace, matching weighted counts at +-t
    for p in (5, 7, 11, 13):
        counts = trace_distribution(p)
        for t in range(1, isqrt(4 * p) + 1):
            if t % p:
                assert counts.get(t, 0) == counts.get(-t, 0), (p, t)


def test_j_sweep_matches_raw_pair_sweep():
    # p = 5 .. 97 covers every class of p mod 12, so the j = 0 and j = 1728
    # loci each appear both split and inert
    primes = [p for p in primes_up_to(97) if p > 3]
    assert {p % 12 for p in primes} == {1, 5, 7, 11}
    for p in primes:
        assert trace_distribution(p) == trace_distribution_pairs(p), p


def _legendre(v: int, p: int) -> int:
    r = pow(v, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _shifted_weights(rng: random.Random, p: int, total: int) -> list[int]:
    """Signed weights whose shift by their minimum is >= 0 and sums to total."""
    cuts = sorted(rng.randrange(total + 1) for _ in range(p - 2))
    parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
    parts.insert(rng.randrange(p), 0)
    low = rng.randrange(total + 1)
    return [v - low for v in parts]


def test_packed_correlation_matches_double_loop():
    rng = random.Random(20240)
    # 2 * sum(w - min w) bounds every slot; these totals put it on each
    # side of every change of slot width
    edges = {127: "B", 128: "H", 2**15 - 1: "H", 2**15: "I",
             2**31 - 1: "I", 2**31: "Q"}
    for total, code in edges.items():
        assert _slot_code(2 * total) == code, total
    for p in (5, 7, 13, 43, 101):
        chi = [_legendre(v, p) for v in range(p)]
        e = [c + 1 for c in chi]
        cases = [_shifted_weights(rng, p, total) for total in (0, *edges)]
        cases += [[rng.randint(-3, 3) for _ in range(p)] for _ in range(3)]
        for w in cases:
            naive = [sum(w[u] * chi[(u + k) % p] for u in range(p)) for k in range(p)]
            assert _correlation(w, e) == naive, (p, w)


def test_mass_and_hasse_range_past_sixteen_bit_sums():
    p = 20011  # the generic correlation's slots need 32 bits here
    assert is_prime(p)
    counts = trace_distribution(p)
    assert sum(counts.values()) == p * (p - 1)
    assert all(t * t <= 4 * p and c > 0 for t, c in counts.items())


def test_curve_count_identity_small():
    report = verify_curve_counts(13)
    assert report.verdict, report.mismatches[:5]
    assert report.checked == sum(2 * isqrt(4 * p) for p in (5, 7, 11, 13))


@pytest.mark.slow
def test_curve_count_identity_extended():
    # every prime below the ec-traces cap of 500, as the curves benchmark runs it
    report = verify_curve_counts(499)
    assert report.verdict, report.mismatches[:5]
    assert report.checked == 5180


def test_passing_curve_counts_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing check built a Fraction")

    monkeypatch.setattr(eccount, "Fraction", refuse)
    report = verify_curve_counts(97)
    assert report.verdict and report.checked > 0


def test_curve_count_mismatches_carry_fractions(monkeypatch):
    # the checks compare integers; a wrong count is still reported as the
    # rationals 2 * N_A(p; t) and H(4p - t^2), and a wrong mass as N_A's sum
    def shifted(p):
        counts = trace_distribution(p)
        counts[1] += 1  # N_A(p; 1) up by 1 / (p - 1)
        return counts

    monkeypatch.setattr(eccount, "trace_distribution", shifted)
    report = verify_curve_counts(13)
    assert report.checked == sum(2 * isqrt(4 * p) for p in (5, 7, 11, 13))
    assert [bad[:2] for bad in report.mismatches] == [
        (kind, p) for p in (5, 7, 11, 13) for kind in ("mass", "trace")]
    for bad in report.mismatches:
        if bad[0] == "mass":
            _, p, mass, want = bad
            assert mass == p + Fraction(1, p - 1) and want == p
        else:
            _, p, t, lhs, rhs = bad
            assert t == 1 and isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
            assert lhs - rhs == Fraction(2, p - 1) and rhs == hurwitz(4 * p - 1)


def test_restricted_closure_against_class_number_sums():
    # summing 2 N_A(p;t) over t = m (mod M) with p not dividing t recovers
    # H_{m,M}(p) minus the p | t contributions (only t = 0 in this range)
    for p in (5, 7, 11, 13):
        counts = trace_distribution(p)
        tmax = isqrt(4 * p)
        for M in (6, 8):
            for m in range(M):
                curve_side = Fraction(sum(
                    2 * counts.get(t, 0)
                    for t in range(-tmax, tmax + 1)
                    if t % p and (t - m) % M == 0
                ), p - 1)
                excluded = hurwitz(4 * p) if m % M == 0 else Fraction(0)
                assert curve_side == moment_sum(0, m, M, p) - excluded, (p, M, m)
