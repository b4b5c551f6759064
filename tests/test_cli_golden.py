"""Byte-for-byte pins of the CLI: stdout, stderr and exit code per invocation.

tests/cli_golden.json maps each invocation below to the sha256 of its stdout,
the sha256 of its stderr, and its exit code.  A change that alters any of
them on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in its change notes which outputs moved and why.
"""
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("cli_golden.json")

P_LARGE = str(10**18 + 3)

INVOCATIONS = [
    ["hurwitz", "23"],
    ["hurwitz", "1000003", "--format", "json"],
    ["hurwitz-table", "--limit", "1"],
    ["hurwitz-table", "--limit", "2"],
    ["hurwitz-table", "--limit", "3"],
    ["hurwitz-table", "--limit", "4"],
    ["hurwitz-table", "--limit", "4", "--format", "json"],
    ["hurwitz-table", "--limit", "200", "--format", "json"],
    # every 12*H(n) up to the CLI cap, byte for byte
    ["hurwitz-table", "--limit", "400001", "--format", "json"],
    ["qexp", "--form", "psi3", "--terms", "60"],
    ["qexp", "--form", "theta:2:6", "--terms", "60", "--format", "json"],
    ["qexp", "--form", "E2", "--terms", "30", "--format", "json"],
    ["lattice-sum", "--variant", "lambda", "--ell", "1", "--m", "2", "--modulus", "6",
     "--terms", "60"],
    ["lattice-sum", "--variant", "G", "--ell", "2", "--m", "1", "--modulus", "8",
     "--terms", "60", "--format", "json"],
    ["lattice-sum", "--variant", "T", "--ell", "3", "--m", "1", "--modulus", "4",
     "--terms", "60"],
    ["lattice-sum", "--variant", "mu", "--ell", "1", "--modulus", "6", "--a", "2",
     "--b", "4", "--terms", "60", "--format", "json"],
    # every lattice-sum usage error
    ["lattice-sum", "--variant", "mu", "--ell", "1", "--modulus", "6", "--terms", "10"],
    ["lattice-sum", "--variant", "mu", "--ell", "1", "--modulus", "6", "--a", "2",
     "--terms", "10"],
    ["lattice-sum", "--variant", "G", "--ell", "1", "--modulus", "6", "--a", "1",
     "--terms", "10"],
    ["lattice-sum", "--variant", "T", "--ell", "1", "--modulus", "6", "--b", "1",
     "--terms", "10"],
    ["lattice-sum", "--variant", "lambda", "--ell", "-1", "--modulus", "6",
     "--terms", "10"],
    ["lattice-sum", "--variant", "mu", "--ell", "-1", "--modulus", "6", "--a", "0",
     "--b", "0", "--terms", "10"],
    ["lattice-sum", "--variant", "G", "--ell", "1", "--modulus", "0", "--terms", "10"],
    ["lattice-sum", "--variant", "mu", "--ell", "1", "--modulus", "-2", "--a", "0",
     "--b", "0", "--terms", "10"],
    ["lattice-sum", "--variant", "T", "--ell", "-1", "--modulus", "0", "--terms", "10"],
    ["lattice-sum", "--variant", "G", "--ell", "1", "--modulus", "6", "--terms", "0"],
    ["lattice-sum", "--variant", "G", "--ell", "-1", "--modulus", "0", "--terms", "0"],
    ["lattice-sum", "--variant", "G", "--ell", "1", "--modulus", "6",
     "--terms", "100001"],
    ["lattice-sum", "--variant", "H", "--ell", "1", "--modulus", "6", "--terms", "10"],
    ["hsum", "--modulus", "8", "--m", "3", "--p", "101"],
    ["hsum", "--modulus", "6", "--m", "0", "--p", P_LARGE, "--explain"],
    ["hsum", "--modulus", "8", "--m", "1", "--p", P_LARGE, "--explain",
     "--format", "json"],
    ["cross-check", "--modulus", "6", "--pmax", "300"],
    ["cross-check", "--modulus", "8", "--pmax", "300", "--format", "json"],
    ["verify", "--suite", "all"],
    ["verify", "--suite", "all", "--format", "json"],
    ["verify", "--suite", "ec", "--pmax", "9999"],
    ["verify", "--suite", "ec", "--pmax", "60", "--format", "json"],
    ["ec-traces", "--p", "13"],
    ["ec-traces", "--p", "13", "--format", "json"],
    # every size refusal: below a floor or above a cap
    ["hurwitz", "200000004"],
    ["hurwitz-table", "--limit", "0"],
    ["hurwitz-table", "--limit", "400002"],
    ["qexp", "--form", "psi3", "--terms", "0"],
    ["qexp", "--form", "psi3", "--terms", "100001"],
    ["lattice-sum", "--variant", "lambda", "--ell", "81", "--m", "0", "--modulus", "6",
     "--terms", "10"],
    ["cross-check", "--modulus", "6", "--pmax", "4"],
    ["cross-check", "--modulus", "6", "--pmax", "100001"],
    ["verify", "--suite", "mod6", "--pmax", "0"],
    ["verify", "--suite", "classical", "--pmax", "1"],
    ["verify", "--suite", "ec", "--pmax", "4"],
    ["verify", "--suite", "lemmas", "--pmax", "4001"],
    ["verify", "--suite", "classical", "--pmax", "100001"],
    ["verify", "--suite", "all", "--pmax", "4001"],
    ["verify", "--suite", "mod6", "--overshoot", "0"],
    ["verify", "--suite", "mod6", "--overshoot", "261"],
    ["verify", "--suite", "all", "--overshoot", "98"],
    ["ec-traces", "--p", "501"],
    # every refusal of a value outside an option's choices, and of an unknown
    # command (`lattice-sum --variant H` is above)
    ["hurwitz", "23", "--format", "xml"],
    ["verify", "--suite", "bogus"],
    ["hsum", "--modulus", "7", "--m", "0", "--p", "5"],
    ["cross-check", "--modulus", "7"],
    ["frobnicate"],
]


def _key(argv):
    return " ".join(argv)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _record(argv):
    from hclassnum.cli import run

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue()),
            "stderr_sha256": _sha256(err.getvalue())}


@pytest.fixture(autouse=True)
def _fixed_usage_width(monkeypatch):
    # argparse wraps its usage lines to the terminal width; at 200 none wraps
    monkeypatch.setenv("COLUMNS", "200")


def test_golden_file_lists_exactly_these_invocations():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(map(_key, INVOCATIONS))


@pytest.mark.parametrize("argv", INVOCATIONS, ids=_key)
def test_cli_output_is_byte_identical(argv):
    expected = json.loads(GOLDEN.read_text())[_key(argv)]
    assert _record(argv) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "200"
    golden = {_key(argv): _record(argv) for argv in INVOCATIONS}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden)} entries to {GOLDEN}")
