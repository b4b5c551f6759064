"""Caps as checked facts: a capped request answers in bounded time and memory
at its cap, and one step past the cap is refused with exit 2.

Each request runs in a fresh grandchild with its output sent to /dev/null.  A
small Python process forks it, sets its limits, and reads its peak RSS from
os.wait4.  The fork goes through that small process because a child's
ru_maxrss also counts the resident size of the process it was forked from,
so a fork from the test runner would report the runner's own memory.  The
limits bind the grandchild only.

The caps that run here are the H-table limit (through cross-check and
hurwitz-table), the series precision (through qexp), the lattice-sum moment
exponent (through mu, the variant that needs the most memory, lambda, the
slowest, and G) and the curve sweep's field size (through ec-traces);
src/hclassnum/cli.py quotes these runs next to _TABLE_MAX, _SERIES_MAX,
_ELL_MAX and _EC_MAX_P.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# generous: each run below takes at most about 3 s on a 2-core x86-64 host
TIMEOUT_S = 60
# address space of the grandchild, far above what any capped request needs
ADDRESS_SPACE = 2**30

_SPAWN = f"""
import os, resource, sys
pid = os.fork()
if pid == 0:
    try:
        resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
        resource.setrlimit(resource.RLIMIT_CPU, ({TIMEOUT_S}, {TIMEOUT_S}))
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execv(sys.executable, [sys.executable, "-m", "hclassnum.cli", *sys.argv[1:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_capped(argv: list[str]) -> tuple[int, float]:
    """Exit code and peak RSS in MB of `hclassnum argv` in a fresh grandchild."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _SPAWN, *argv], env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    code, maxrss_kb = proc.stdout.split()
    return int(code), int(maxrss_kb) / 1024


_MU = ["lattice-sum", "--variant", "mu", "--modulus", "1", "--a", "0", "--b", "0",
       "--terms", "100000"]
_LAMBDA = ["lattice-sum", "--variant", "lambda", "--modulus", "1", "--terms", "100000"]
_G = ["lattice-sum", "--variant", "G", "--modulus", "1", "--terms", "100000"]

# (request at its cap, the same request one step past it, peak RSS bound in
# MB); python -c pass alone peaks at about 13 MB.  cross-check and qexp
# peaked at 30 and 23 MB; hurwitz-table at 29 MB in text and in JSON, mu at
# 44 MB, lambda at 32 MB, G at 37 MB and ec-traces at 16 MB.  The series
# bounds fail a JSON printer that holds every coefficient string at once: it
# peaked at 54 MB (hurwitz-table) and 60 MB (mu)
CAPS = [
    pytest.param(["cross-check", "--modulus", "8", "--pmax", "100000", "--format", "json"],
                 ["cross-check", "--modulus", "8", "--pmax", "100001"], 48,
                 id="cross-check"),
    pytest.param(["qexp", "--form", "psi3", "--terms", "100000", "--format", "json"],
                 ["qexp", "--form", "psi3", "--terms", "100001"], 48, id="qexp"),
    pytest.param(["hurwitz-table", "--limit", "400001", "--format", "text"],
                 ["hurwitz-table", "--limit", "400002"], 48, id="hurwitz-table-text"),
    pytest.param(["hurwitz-table", "--limit", "400001", "--format", "json"],
                 ["hurwitz-table", "--limit", "400002"], 48, id="hurwitz-table-json"),
    pytest.param([*_MU, "--ell", "80", "--format", "json"], [*_MU, "--ell", "81"], 56,
                 id="lattice-sum-mu"),
    pytest.param([*_LAMBDA, "--ell", "80", "--format", "json"], [*_LAMBDA, "--ell", "81"], 48,
                 id="lattice-sum-lambda"),
    pytest.param([*_G, "--ell", "80", "--format", "json"], [*_G, "--ell", "81"], 48,
                 id="lattice-sum-G"),
    pytest.param(["ec-traces", "--p", "499", "--format", "json"], ["ec-traces", "--p", "501"],
                 32, id="ec-traces"),
]


@pytest.mark.parametrize("at_cap,past_cap,rss_mb", CAPS)
def test_capped_request_answers_in_bounded_memory_and_one_past_is_refused(
        at_cap, past_cap, rss_mb):
    code, peak = run_capped(at_cap)
    assert code == 0
    assert peak < rss_mb, f"peak RSS {peak:.1f} MB"
    assert run_capped(past_cap)[0] == 2
