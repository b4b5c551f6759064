"""Caps as checked facts: a capped request answers in bounded time and memory
at its cap, and one step past the cap is refused with exit 2.

Each request runs in a fresh grandchild with its JSON sent to /dev/null.  A
small Python process forks it, sets its limits, and reads its peak RSS from
os.wait4.  The fork goes through that small process because a child's
ru_maxrss also counts the resident size of the process it was forked from,
so a fork from the test runner would report the runner's own memory.  The
limits bind the grandchild only.

Only the caps that the closed-form sweep and the CM series touch run here;
src/hclassnum/cli.py quotes these runs next to _TABLE_MAX and _SERIES_MAX.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# generous: the runs below take about 2 s and 0.3 s on a 2-core x86-64 host
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


# (request at its cap, the same request one step past it, peak RSS bound in
# MB); both peaked at about 31 MB, against 13 MB for python -c pass
CAPS = [
    (["cross-check", "--modulus", "8", "--pmax", "100000"],
     ["cross-check", "--modulus", "8", "--pmax", "100001"], 48),
    (["qexp", "--form", "psi3", "--terms", "100000"],
     ["qexp", "--form", "psi3", "--terms", "100001"], 48),
]


@pytest.mark.parametrize("at_cap,past_cap,rss_mb", CAPS, ids=[c[0][0] for c in CAPS])
def test_capped_request_answers_in_bounded_memory_and_one_past_is_refused(
        at_cap, past_cap, rss_mb):
    code, peak = run_capped([*at_cap, "--format", "json"])
    assert code == 0
    assert peak < rss_mb, f"peak RSS {peak:.1f} MB"
    assert run_capped([*past_cap, "--format", "json"])[0] == 2
