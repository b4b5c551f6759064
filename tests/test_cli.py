import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hclassnum import cli, eccount, verify
from hclassnum.cli import canonical_json, run

README = Path(__file__).resolve().parents[1] / "README.md"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hurwitz_command(capsys):
    code, out, _ = invoke(capsys, "hurwitz", "0")
    assert code == 0
    assert out.strip() == "-1/12"
    code, out, _ = invoke(capsys, "hurwitz", "23")
    assert out.strip() == "3"


def test_hurwitz_json_envelope(capsys):
    code, out, _ = invoke(capsys, "hurwitz", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"command": "hurwitz", "result": "1/3", "reports": []}


def test_json_round_trip_is_byte_identical(capsys):
    for argv in (["hurwitz", "4", "--format", "json"],
                 ["hurwitz-table", "--limit", "8", "--format", "json"],
                 ["hurwitz-table", "--limit", "1", "--format", "json"],
                 ["qexp", "--form", "D", "--terms", "6", "--format", "json"],
                 ["hsum", "--modulus", "8", "--m", "0", "--p", "3",
                  "--explain", "--format", "json"],
                 ["ec-traces", "--p", "5", "--format", "json"],
                 ["verify", "--suite", "classical", "--pmax", "50",
                  "--format", "json"]):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0, argv
        emitted = out.rstrip("\n")
        assert canonical_json(json.loads(emitted)) == emitted, argv


def test_hurwitz_table_text(capsys):
    code, out, _ = invoke(capsys, "hurwitz-table", "--limit", "5")
    assert code == 0
    assert out.splitlines() == ["0:-1/12", "1:0/1", "2:0/1", "3:1/3", "4:1/2"]


def test_series_text_format(capsys):
    # one "n:numerator/denominator" line per coefficient, denominator always
    # written, matching the JSON coefficients exactly
    argv = ["lattice-sum", "--variant", "lambda", "--ell", "0", "--m", "1",
            "--modulus", "6", "--terms", "4"]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["0:0/1", "1:1/2", "2:0/1", "3:0/1"]
    code, out, _ = invoke(capsys, "qexp", "--form", "E2", "--terms", "3")
    assert out.splitlines() == ["0:1/1", "1:-24/1", "2:-72/1"]
    for argv in (argv, ["hurwitz-table", "--limit", "9"]):
        _, text, _ = invoke(capsys, *argv)
        _, js, _ = invoke(capsys, *argv, "--format", "json")
        parsed = [Fraction(line.partition(":")[2]) for line in text.splitlines()]
        assert [str(c) for c in parsed] == json.loads(js)["result"]


def test_qexp_psi3(capsys):
    code, out, _ = invoke(capsys, "qexp", "--form", "psi3", "--terms", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1:1/1"
    assert lines[7] == "7:-4/1"


def test_qexp_theta_form(capsys):
    code, out, _ = invoke(capsys, "qexp", "--form", "theta:1:2", "--terms", "10",
                          "--format", "json")
    payload = json.loads(out)
    assert payload["result"] == ["0", "2", "0", "0", "0", "0", "0", "0", "0", "2"]


def test_qexp_bad_form(capsys):
    code, _, err = invoke(capsys, "qexp", "--form", "nope", "--terms", "5")
    assert code == 2
    assert "error" in err


def test_lattice_sum_commands(capsys):
    code, out, _ = invoke(capsys, "lattice-sum", "--variant", "lambda",
                          "--ell", "1", "--m", "0", "--modulus", "6",
                          "--terms", "40", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"][36] == "6"
    code, out, _ = invoke(capsys, "lattice-sum", "--variant", "mu",
                          "--ell", "1", "--modulus", "6", "--a", "3",
                          "--b", "1", "--terms", "10")
    assert code == 0
    code, _, err = invoke(capsys, "lattice-sum", "--variant", "mu",
                          "--ell", "1", "--modulus", "6", "--terms", "10")
    assert code == 2
    code, _, err = invoke(capsys, "lattice-sum", "--variant", "G",
                          "--ell", "1", "--modulus", "6", "--a", "1",
                          "--terms", "10")
    assert code == 2


def test_lattice_sum_refuses_m_for_mu(capsys):
    # mu reads --a/--b only; a --m it would ignore is a usage error
    for m in ("5", "0"):
        code, out, err = invoke(capsys, "lattice-sum", "--variant", "mu", "--ell", "1",
                                "--m", m, "--modulus", "6", "--a", "2", "--b", "4",
                                "--terms", "10")
        assert code == 2 and out == "", m
        assert "--m applies to the lambda, G and T variants only" in err
    # without --m, the other variants read m = 0
    for variant in ("lambda", "G", "T"):
        argv = ["lattice-sum", "--variant", variant, "--ell", "1", "--modulus", "6",
                "--terms", "10"]
        assert invoke(capsys, *argv) == invoke(capsys, *argv, "--m", "0"), variant


def test_hsum_command(capsys):
    code, out, _ = invoke(capsys, "hsum", "--modulus", "8", "--m", "0",
                          "--p", "3")
    assert code == 0
    assert out.strip() == "4/3"
    code, out, _ = invoke(capsys, "hsum", "--modulus", "6", "--m", "0",
                          "--p", "7", "--explain")
    lines = out.splitlines()
    assert lines[0] == "2"
    assert lines[1].startswith("branch:")
    assert "x=2" in lines[2]
    code, _, err = invoke(capsys, "hsum", "--modulus", "6", "--m", "0", "--p", "4")
    assert code == 2
    # past the proven range of is_prime there is no answer to give
    code, out, err = invoke(capsys, "hsum", "--modulus", "8", "--m", "1",
                            "--p", "318665857834031151167461")
    assert code == 2
    assert out == "" and "proven only below" in err


def test_hsum_at_a_large_prime(capsys):
    # 10^18 + 3 = 1 (mod 3) and 3 (mod 8): rows that read x^2 + 3y^2 and
    # x^2 + 2y^2, far past the reach of a scan over y
    p = 1000000000000000003
    for modulus, m, n in (("6", "0", 3), ("8", "1", 2)):
        code, out, _ = invoke(capsys, "hsum", "--modulus", modulus, "--m", m,
                              "--p", str(p), "--explain", "--format", "json")
        assert code == 0
        rep = json.loads(out)["result"]["representation"]
        assert rep["n"] == n and rep["x"] ** 2 + n * rep["y"] ** 2 == p


def test_cross_check_command(capsys):
    code, out, _ = invoke(capsys, "cross-check", "--modulus", "6",
                          "--pmax", "300", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_verdicts_true"] is True
    assert payload["reports"][0]["details"]["branch_coverage_complete"] is True


def test_verify_suites(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "classical",
                          "--pmax", "200")
    assert code == 0
    assert "all identities verified" in out
    code, out, _ = invoke(capsys, "verify", "--suite", "mod6",
                          "--overshoot", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["all_verdicts_true"] is True
    assert [r["details"]["bound"] for r in payload["reports"]] == [48, 96, 96, 96]


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "all", "--pmax", "100"),
    ("verify", "--suite", "ec", "--pmax", "60"),
    ("cross-check", "--modulus", "8", "--pmax", "300"),
])
def test_every_json_report_has_the_same_six_keys(capsys, argv):
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports
    for report in reports:
        assert list(report) == ["name", "checked", "mismatch_count",
                                "mismatches", "details", "verdict"]


def test_verify_all_default_invocation(capsys):
    # the canonical full run: every suite except ec, default 4x overshoot
    code, out, _ = invoke(capsys, "verify", "--suite", "all", "--pmax", "500")
    assert code == 0
    assert "all identities verified" in out


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def broken(pmax):
        from hclassnum.reporting import CheckReport
        return CheckReport(name="broken", checked=1,
                           mismatches=[("x", 1, 2)])

    monkeypatch.setattr("hclassnum.verify.verify_classical", broken)
    code, out, _ = invoke(capsys, "verify", "--suite", "classical")
    assert code == 1
    assert "VERIFICATION FAILED" in out


def test_ec_traces_command(capsys):
    code, out, _ = invoke(capsys, "ec-traces", "--p", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-4: 1/4"
    assert lines[-1] == "mass: 5"
    code, out, _ = invoke(capsys, "ec-traces", "--p", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["result"]["mass"] == "5"
    assert payload["result"]["weights"]["0"] == "1"


def test_ec_traces_caps_p(capsys):
    code, _, err = invoke(capsys, "ec-traces", "--p", "701")
    assert code == 2
    assert "capped" in err


def test_ec_traces_below_the_cap_is_quiet(capsys):
    code, out, err = invoke(capsys, "ec-traces", "--p", "499")
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == "mass: 499"


def test_ec_suite_small(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "ec", "--pmax", "7")
    assert code == 0
    assert "ok" in out


def test_ec_suite_clamps_pmax(capsys):
    code, out, err = invoke(capsys, "verify", "--suite", "ec", "--pmax", "9999",
                            "--format", "json")
    assert code == 0
    assert err == "warning: ec suite capped at p <= 500\n"
    [report] = json.loads(out)["reports"]
    assert report["checked"] == 5180 and report["verdict"] is True


def test_hurwitz_caps_n(capsys):
    # counting the forms of -10^10 would take minutes; refuse instead
    code, out, err = invoke(capsys, "hurwitz", "10000000000")
    assert code == 2
    assert out == "" and "capped" in err
    # where H(n) = 0 by congruence or sign, any size is answered
    for n in ("10000000001", "10000000002", "-10000000000"):
        assert invoke(capsys, "hurwitz", n)[:2] == (0, "0\n"), n


_LATTICE_RESIDUES = (
    ("lambda", ["--m", "0", "--modulus", "1"]),
    ("G", ["--m", "0", "--modulus", "1"]),
    ("T", ["--m", "0", "--modulus", "1"]),
    ("mu", ["--a", "0", "--b", "0", "--modulus", "2"]),
)


# one past each cap; the overshoot caps are where the identity product
# 4*overshoot*bound + 1 would pass 10^5 terms (bound 96 mod 6, 256 mod 8)
@pytest.mark.parametrize("argv", [
    ["hurwitz-table", "--limit", str(cli._TABLE_MAX + 1)],
    ["qexp", "--form", "psi3", "--terms", str(cli._SERIES_MAX + 1)],
    ["lattice-sum", "--variant", "G", "--ell", "1", "--m", "1", "--modulus", "6",
     "--terms", str(cli._SERIES_MAX + 1)],
    *(["lattice-sum", "--variant", variant, "--ell", str(cli._ELL_MAX + 1), *residues,
       "--terms", "10"] for variant, residues in _LATTICE_RESIDUES),
    # past Python's int-to-str digit limit, which used to end in a traceback
    ["lattice-sum", "--variant", "T", "--ell", "20000", "--m", "0", "--modulus", "1",
     "--terms", "10"],
    ["cross-check", "--modulus", "6", "--pmax", str(cli._TABLE_MAX_PMAX + 1)],
    ["verify", "--suite", "classical", "--pmax", str(cli._TABLE_MAX_PMAX + 1)],
    ["verify", "--suite", "lemmas", "--pmax", str(cli._LEMMA_MAX_N + 1)],
    ["verify", "--suite", "all", "--pmax", str(cli._LEMMA_MAX_N + 1)],
    ["verify", "--suite", "mod6", "--overshoot", "261"],
    ["verify", "--suite", "mod8", "--overshoot", "98"],
    ["verify", "--suite", "all", "--overshoot", "98"],
], ids=" ".join)
def test_size_caps_refuse(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == "" and "capped" in err


@pytest.mark.parametrize("variant, residues", _LATTICE_RESIDUES,
                         ids=[variant for variant, _ in _LATTICE_RESIDUES])
def test_ell_cap_admits_its_own_value(capsys, variant, residues):
    code, out, _ = invoke(capsys, "lattice-sum", "--variant", variant,
                          "--ell", str(cli._ELL_MAX), *residues, "--terms", "10")
    assert code == 0 and len(out.splitlines()) == 10


def test_overshoot_caps_admit_their_own_value():
    # checked without running: the suites at the cap take seconds
    for suite, cap in (("mod6", 260), ("mod8", 97), ("all", 97)):
        cli._check_verify_caps(suite, 500, cap)
        with pytest.raises(cli.UsageError):
            cli._check_verify_caps(suite, 500, cap + 1)
    cli._check_verify_caps("all", cli._LEMMA_MAX_N, 4)


@pytest.mark.parametrize("suite, check, checked_at_floor", [
    ("lemmas", verify.verify_lemmas, 342),
    ("classical", verify.verify_classical, 1),
    ("ec", eccount.verify_curve_counts, 8),
])
def test_each_pmax_floor_is_the_least_that_checks_something(suite, check,
                                                            checked_at_floor):
    [(floor, *_)] = cli._SUITES[suite]
    assert check(floor).checked == checked_at_floor
    if floor == 1:
        with pytest.raises(ValueError):
            check(0)
    else:
        assert check(floor - 1).checked == 0


def _readme_commands():
    """The argv after `hclassnum` of each command in README.md's shell blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = (shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines())
    return [argv[1:] for argv in lines if argv[:1] == ["hclassnum"]]


def test_readme_examples_answer(capsys):
    commands = _readme_commands()
    assert len(commands) == 14
    outputs = {}
    for argv in commands:
        code, outputs[" ".join(argv)], _ = invoke(capsys, *argv)
        assert code == 0, argv
    # the values the README's comments state
    assert outputs["hurwitz 0"] == "-1/12\n"
    assert outputs["hsum --modulus 8 --m 0 --p 17 --explain"].splitlines()[0] == "5"


def _src_env():
    """The environment of a new interpreter that imports the package from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def _fresh_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env())


def test_cli_requests_leave_numpy_unimported():
    proc = _fresh_python(
        "import sys\n"
        "import hclassnum.cli as cli\n"
        "assert cli.run(['hurwitz', '137524']) == 0\n"
        "assert cli.run(['ec-traces', '--p', '97']) == 0\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "114"


def test_closed_pipe_exits_141_quietly():
    # more output than a pipe buffer holds, so the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "hclassnum.cli", "hurwitz-table",
                             "--limit", "20000"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_src_env())
    assert proc.stdout.readline() == b"0:-1/12\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("request_code", [
    "import hclassnum.cli\n",
    # what `python -m hclassnum.cli hurwitz 12 --format json` runs
    "sys.argv = ['hclassnum.cli', 'hurwitz', '12', '--format', 'json']\n"
    "try:\n"
    "    runpy.run_module('hclassnum.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as stop:\n"
    "    assert stop.code == 0, stop.code\n",
], ids=["import", "python-m-hurwitz"])
def test_cli_leaves_dataclasses_and_inspect_unimported(request_code):
    proc = _fresh_python("import runpy, sys\n" + request_code
                         + "print(*sorted(sys.modules))\n")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert "hclassnum.verify" in loaded, loaded
    assert not {"dataclasses", "inspect"} & set(loaded), loaded


def test_usage_errors(capsys):
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2
    code, _, _ = invoke(capsys, "hurwitz", "3", "--bogus-flag")
    assert code == 2
    code, _, _ = invoke(capsys, "hurwitz")
    assert code == 2
    code, _, _ = invoke(capsys, "hurwitz-table", "--limit", "0")
    assert code == 2
    code, _, _ = invoke(capsys)
    assert code == 2


def test_ranges_with_nothing_to_check_are_refused(capsys):
    # each range holds no prime the suite checks, so there is no verdict to give
    for argv in (["verify", "--suite", "classical", "--pmax", "1"],
                 ["verify", "--suite", "all", "--pmax", "1"],
                 ["verify", "--suite", "ec", "--pmax", "4"],
                 ["cross-check", "--modulus", "6", "--pmax", "4"],
                 ["cross-check", "--modulus", "8", "--pmax", "2"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "--pmax must be >=" in err, argv
    # the smallest ranges that do hold one are checked; a cross-check this
    # short misses case rows (full coverage starts at --pmax 7), so it
    # exits 1 although no value disagrees
    for argv, code_expected in ((["verify", "--suite", "classical", "--pmax", "2"], 0),
                                (["verify", "--suite", "ec", "--pmax", "5"], 0),
                                (["cross-check", "--modulus", "6", "--pmax", "5"], 1),
                                (["cross-check", "--modulus", "8", "--pmax", "3"], 1)):
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        report = payload["reports"][-1]
        assert report["checked"] > 0 and report["verdict"] is True, argv
        assert code == code_expected, argv
        if argv[0] == "cross-check":
            assert payload["result"] == {"all_verdicts_true": False}, argv
            assert report["details"]["branch_coverage_complete"] is False, argv


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "hclassnum" in out
