import json
from fractions import Fraction
from pathlib import Path

import pytest

from hclassnum import verify
from hclassnum.forms import d_series, theta_mM
from hclassnum.formulas import cross_check
from hclassnum.hurwitz import hurwitz_series
from hclassnum.numtheory import DirichletCharacter, primes_up_to
from hclassnum.reporting import CheckReport
from hclassnum.sums import lambda_series, lambda_u4_twist, mu_closed, mu_coeff
from hclassnum.verify import (
    MOD6_IDENTITIES,
    MOD8_IDENTITIES,
    GroupSpec,
    group_index,
    identity_lhs,
    identity_rhs,
    sturm_bound,
    verify_classical,
    verify_identity,
    verify_lemmas,
    verify_mod6,
    verify_mod8,
)
from oracles import restricted_series


def test_group_index_pinned():
    assert group_index(GroupSpec(36)) == 72
    assert group_index(GroupSpec(144)) == 288
    assert group_index(GroupSpec(256)) == 384
    assert group_index(GroupSpec(144, 6)) == 576
    assert group_index(GroupSpec(256, 8)) == 1536
    assert group_index(GroupSpec(1)) == 1


def test_sturm_bound_pinned():
    assert sturm_bound(GroupSpec(36)) == 12
    assert sturm_bound(GroupSpec(144)) == 48
    assert sturm_bound(GroupSpec(144, 6)) == 96
    assert sturm_bound(GroupSpec(256)) == 64
    assert sturm_bound(GroupSpec(256, 8)) == 256


def test_group_spec_validates():
    with pytest.raises(ValueError):
        GroupSpec(12, 5)
    with pytest.raises(ValueError):
        GroupSpec(0)
    with pytest.raises(ValueError):
        GroupSpec(144)._replace(n2=5)


@pytest.mark.parametrize("record, field", [
    (GroupSpec(144, 6), "n2"),
    (MOD6_IDENTITIES[0], "cm"),
])
def test_records_are_frozen(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_check_reports_do_not_share_defaults():
    first, second = CheckReport("x", 1), CheckReport("x", 1)
    first.mismatches.append(("bad",))
    first.details["key"] = 1
    assert second.mismatches == [] and second.details == {}
    assert first.mismatches is not second.mismatches
    assert first.details is not second.details
    assert second.verdict and not first.verdict


def test_verdict_needs_more_coefficients_than_the_bound():
    # Sturm: agreement proves nothing until coefficients 0..bound all agree
    assert not CheckReport("x", 48, details={"bound": 48}).verdict
    assert CheckReport("x", 49, details={"bound": 48}).verdict


def test_mod6_reports():
    reports = verify_mod6(overshoot=1)
    assert [r.details["bound"] for r in reports] == [48, 96, 96, 96]
    for r in reports:
        assert r.verdict, (r.name, r.mismatches[:3])
        assert r.checked == r.details["bound"] + 1
        assert r.details["bound"] == 2 * group_index(GroupSpec(**r.details["group"])) // 12
        assert not r.mismatches


def test_mod8_reports():
    reports = verify_mod8(overshoot=1)
    assert [r.details["bound"] for r in reports] == [64, 256, 64, 256, 64]
    for r in reports:
        assert r.verdict, (r.name, r.mismatches[:3])
        assert r.details["bound"] == 2 * group_index(GroupSpec(**r.details["group"])) // 12


@pytest.mark.parametrize("spec", MOD6_IDENTITIES + MOD8_IDENTITIES,
                         ids=lambda s: s.name)
def test_both_lhs_pipelines_agree(spec):
    prec = 120
    m, M = spec.m, spec.modulus
    brute = (restricted_series(m, M, prec).twist(DirichletCharacter.principal(M))
             + Fraction(1, 2) * lambda_u4_twist(1, m, M, prec))
    assert identity_lhs(spec, prec) == brute


@pytest.mark.parametrize("spec", MOD6_IDENTITIES + MOD8_IDENTITIES,
                         ids=lambda s: s.name)
def test_strided_product_equals_product_then_u4(spec):
    # the product identity_lhs takes at overshoot 16, built both ways
    inner = 4 * (16 * sturm_bound(spec.group) + 1) - 3
    h, theta = hurwitz_series(inner), theta_mM(spec.m, spec.modulus, inner)
    assert h.mul_u(theta, 4) == (h * theta).u_operator(4)


def test_mod8_odd_cases_differ_only_in_cm_sign():
    one, three = MOD8_IDENTITIES[1], MOD8_IDENTITIES[3]
    assert one.d_terms == three.d_terms  # shared divisor-sum term
    assert one.cm[1] == three.cm[1] == 2
    assert one.cm[0] == -three.cm[0]


def test_perturbed_constant_flips_the_verdict():
    spec = MOD6_IDENTITIES[0]
    assert spec.cm == (Fraction(1, 6), 3)
    bad = spec._replace(cm=(Fraction(1, 5), 3))  # 1/6 -> 1/5
    report = verify_identity(bad, overshoot=1)
    assert not report.verdict
    assert report.mismatches


def test_report_dict_shape():
    report = verify_identity(MOD6_IDENTITIES[0], overshoot=1)
    d = report.to_dict()
    assert d["verdict"] is True
    assert d["details"]["bound"] == 48
    assert d["details"]["group"] == {"n1": 144, "n2": 1}
    assert d["details"]["index"] == 288
    assert d["mismatches"] == []


def test_overshoot_validation():
    with pytest.raises(ValueError):
        verify_identity(MOD6_IDENTITIES[0], overshoot=0)


def test_verify_lemmas_small():
    report = verify_lemmas(150)
    assert report.verdict, report.mismatches[:5]
    # Lambda: 3 * (6 + 8) * 150 coefficients; mu: 3 * (6^2 * 50 + 8^2 * 75)
    assert report.checked == 26_100


def test_verify_lemmas_at_the_cli_cap():
    # verify --pmax caps the lemma suite at cli._LEMMA_MAX_N = 4000
    report = verify_lemmas(4000)
    assert report.verdict, report.mismatches[:5]
    # Lambda: 3 * (6 + 8) * 4000 coefficients; mu: 3 * (6^2 * 1333 + 8^2 * 2000)
    assert report.checked == 695_964


def test_verify_lemmas_reports_a_wrong_mu_value(monkeypatch):
    closed_rows = verify._mu_closed_rows

    def off_by_one(ell, M, n_max):
        rows = closed_rows(ell, M, n_max)
        if (ell, M) == (1, 8):
            rows[105][6 * M] += 1  # (a, b) = (6, 0) at n = 105, where mu = 20
        return rows

    monkeypatch.setattr(verify, "_mu_closed_rows", off_by_one)
    report = verify_lemmas(150)
    assert not report.verdict
    assert mu_coeff(1, 6, 0, 8, 105) == mu_closed(1, 6, 0, 8, 105) == 20
    assert report.mismatches == [("mu", 8, 1, 6, 0, 105, 20, 21)]
    assert report.checked == 26_100


def test_verify_lemmas_reports_a_wrong_lambda_value(monkeypatch):
    literal_rows = verify._literal_rows

    def off_by_a_half(ell, M, n_max):
        lam, mu = literal_rows(ell, M, n_max)
        if (ell, M) == (1, 8):
            lam[2][105] += 1  # m = 2 at n = 105, where 2 * Lambda(420) = 64
        return lam, mu

    monkeypatch.setattr(verify, "_literal_rows", off_by_a_half)
    report = verify_lemmas(150)
    assert not report.verdict
    assert lambda_series(1, 2, 8, 421)[420] == lambda_u4_twist(1, 2, 8, 150)[105] == 32
    assert report.mismatches == [("lambda", 8, 1, 2, 105, Fraction(65, 2), 32)]
    assert report.checked == 26_100


def test_verify_classical():
    report = verify_classical(500)
    assert report.verdict, report.mismatches[:5]
    # the p = 5 edge: only the full sum is checked there
    assert all(kind != "h05" or p >= 7 for kind, p, *_ in report.mismatches)


def test_verify_classical_counts():
    # every prime once for the full sum, every prime from 7 on for H_{0,5}
    report = verify_classical(2 * 10**4)
    assert report.checked == 4521
    assert report.verdict, report.mismatches[:5]


def test_verify_classical_reports_a_wrong_h05_form(monkeypatch):
    # the sweep compares integers 12*H; a mismatch still carries Fractions
    expected12 = verify._h05_expected12
    monkeypatch.setattr(verify, "_h05_expected12", lambda p: expected12(p) + 1)
    report = verify_classical(200)
    assert not report.verdict
    assert len(report.mismatches) == sum(1 for p in primes_up_to(200) if p >= 7)
    for kind, p, got, want in report.mismatches:
        assert kind == "h05"
        assert isinstance(got, Fraction) and isinstance(want, Fraction)
        assert want == Fraction(expected12(p) + 1, 12) and want - got == Fraction(1, 12)
    dumped = report.to_dict()["mismatches"][0]
    assert dumped == ["h05", 7, str(report.mismatches[0][2]), str(report.mismatches[0][3])]


def test_sweep_reports_match_the_pinned_json():
    pinned = json.loads((Path(__file__).parent / "sweep_reports_2000.json").read_text())
    assert cross_check(6, 2000).to_dict() == pinned["cross_check(6, 2000)"]
    assert cross_check(8, 2000).to_dict() == pinned["cross_check(8, 2000)"]
    assert verify_classical(2000).to_dict() == pinned["verify_classical(2000)"]


def test_identity_rhs_builds_one_divisor_sum(monkeypatch):
    """Every sieved D term of a right side reads the same d_series."""
    calls = []

    def counted(precision):
        calls.append(precision)
        return d_series(precision)

    monkeypatch.setattr(verify, "d_series", counted)
    for spec in MOD6_IDENTITIES + MOD8_IDENTITIES:
        calls.clear()
        identity_rhs(spec, 97)
        assert calls == [97], spec.name

