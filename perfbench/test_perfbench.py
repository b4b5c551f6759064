"""Tests of the benchmark's own arithmetic and hooks.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

import references  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, _mul_work, covered, root_time, self_by_name, self_times  # noqa: E402
from summary import TAIL_BEYOND, spread, tail  # noqa: E402


def test_self_time_is_span_minus_covered_child_intervals():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 20, 50, 0),  # overlaps a: the union is counted once
        ("c", 90, 120, 0),  # runs past its parent: only [90, 100) is covered
        ("d", 12, 15, 1),  # grandchild: covered by a, not by root
    ]
    assert covered(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert self_times(spans) == [50, 17, 30, 30, 3]


def test_self_times_sum_to_traced_wall_without_gaps_or_double_counting():
    tracer = Tracer("t")

    def leaf(n):
        return sum(i * i for i in range(n))

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle(n):
        return traced_leaf(n) + traced_leaf(n // 2) + leaf(n)

    traced_middle = tracer.wrap("middle", middle)
    root = tracer.open("root")
    for n in (1000, 5000, 20000):
        traced_middle(n)
        traced_leaf(n)
    tracer.close(root)
    spans = tracer.spans()
    by_name = self_by_name(spans)
    assert set(by_name) == {"root", "middle", "leaf"}
    assert sum(by_name.values()) == root_time(spans) == spans[0][2] - spans[0][1]
    assert tracer.counts == {"leaf.calls": 9, "middle.calls": 3}


@pytest.mark.parametrize("n", [TAIL_BEYOND + 1, 12, 25, 48, 100, 1000])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    value, pct, count = tail(values)
    assert count == n
    # exactly ten beyond: the next rank up would leave only nine
    assert sum(v > value for v in values) == TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail([1.0] * TAIL_BEYOND)


def test_spread_is_interquartile_range_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_mul_work_counts_pairs_and_inner_loop_iterations():
    from hclassnum.qseries import QSeries

    a = QSeries([1, 0, 2, 0, 0, 3])  # support {0, 2, 5}
    b = QSeries([0, 1, 1, 1, 1, 1])  # support {1, ..., 5}
    work = dict(_mul_work(a, b, result=None))
    # pairs (i, j) with i + j < 6: i=0 -> j=1..5, i=2 -> j=1..3, i=5 -> none
    assert work["qseries.mul.pairs"] == 8
    # the sparser factor a runs outside; the inner loop covers j < 6 - i
    assert work["qseries.mul.iterations"] == 6 + 4 + 1


def test_cli_script_is_drawn_from_the_seed():
    assert workloads.cli_script(7) == workloads.cli_script(7)
    assert workloads.cli_script(7) != workloads.cli_script(8)
    for seed in range(20):
        script = workloads.cli_script(seed)
        ns = [int(argv[1]) for argv in script if argv[0] == "hurwitz"]
        assert len(ns) == workloads.H_STRATA
        assert all(n % 4 in (0, 3) for n in ns)
        assert ns == sorted(ns)
        assert all(argv[-2:] == ["--format", "json"] for argv in script)


def test_references_agree_with_the_package_on_small_inputs():
    from hclassnum import forms, sums
    from hclassnum.numtheory import CHI_MINUS3, CHI_MINUS4

    terms = 300
    assert list(forms.psi_series(3, CHI_MINUS3, terms)) == references.psi_coeffs(
        3, references.chi_minus3, terms)
    assert list(forms.psi_series(2, CHI_MINUS4, terms)) == references.psi_coeffs(
        2, references.chi_minus4, terms)
    assert list(forms.theta_mM(2, 5, terms)) == references.theta_coeffs(2, 5, terms)
    for big_m in (6, 8):
        for m in range(big_m):
            for ell in (0, 1, 3):
                assert list(sums.lambda_series(ell, m, big_m, terms)) == \
                    references.lambda_coeffs(ell, m, big_m, terms)
                assert list(sums.g_series(ell, m, big_m, terms)) == \
                    references.g_coeffs(ell, m, big_m, terms)
                assert list(sums.t_series(ell, m, big_m, terms)) == \
                    references.t_coeffs(ell, m, big_m, terms)
                assert list(sums.mu_series(ell, m, (m + 3) % big_m, big_m, terms)) == \
                    references.mu_coeffs(ell, m, (m + 3) % big_m, big_m, terms)


def test_probable_prime_matches_trial_division():
    def slow(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if references.is_probable_prime(n)] == \
        [n for n in range(3000) if slow(n)]


@pytest.mark.parametrize("argv", [
    ["qexp", "--form", "E2", "--terms", "40", "--format", "json"],
    ["lattice-sum", "--variant", "G", "--ell", "1", "--modulus", "6", "--terms", "40",
     "--m", "1", "--format", "json"],
])
def test_check_answer_accepts_the_cli_and_rejects_a_wrong_value(argv):
    naive = references.load_hurwitz_naive(ROOT)
    proc = subprocess.run([sys.executable, "-m", "hclassnum.cli", *argv],
                          capture_output=True, text=True, env=ENV, check=True)
    assert workloads.check_answer(argv, 0, proc.stdout, naive) is None
    payload = json.loads(proc.stdout)
    payload["result"][7] = str(Fraction(payload["result"][7]) + 1)
    assert workloads.check_answer(argv, 0, json.dumps(payload, indent=2), naive) is not None
    assert workloads.check_answer(argv, 1, proc.stdout, naive) == "exit 1"


def test_hooks_see_names_bound_by_from_imports():
    # run in a child so the hooks never leak into this test process
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from spans import Tracer, install, self_by_name;"
        "t = Tracer('x'); install(t);"
        "from hclassnum import formulas;"
        "formulas.cross_check(8, 60);"
        "print(sorted(self_by_name(t.spans())))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                          text=True, env=ENV, check=True)
    names = ast.literal_eval(proc.stdout)
    for name in ("formulas.cross_check", "formulas.h_formula", "hurwitz.moment_sum",
                 "hurwitz.build_table", "numtheory.represent", "numtheory.is_prime",
                 "numtheory.primes_up_to"):
        assert name in names


def test_every_declared_per_layer_metric_is_produced_with_its_unit():
    import run

    record = {"self_ns": {"bench.pass": 7, "qseries.mul": 5}, "root_ns": 12,
              "counts": {"qseries.mul.calls": 1}, "import_s": 0.2, "spawn_s": 0.1,
              "t_start": 0.0, "t_end": 1.0}
    metrics, problems = run.layer_metrics([run.process_layers(record)], [1.0], [0.9])
    assert problems == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in declared["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"], m["name"]
