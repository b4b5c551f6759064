"""Benchmark of hclassnum: four workloads, end-to-end figures and per-layer spans.

    python3 perfbench/run.py --workload identities|sweeps|curves|cli|all
                             [--seed N] [--seconds S] [--trace 0|1]

The package is run from src/ next to this directory; nothing is installed.
Every pass of an in-process workload and every cli request is its own
child process, started one at a time, with numpy's thread pools held to
one thread.

With --trace 0 the run measures the end-to-end figures.  With --trace 1 it
alternates traced and untraced passes (or rounds, for cli), gives per-layer
self times and work counts from the traced ones, and the tracing overhead
as traced minus untraced wall time.  Spans are written, one gzip'd
tab-separated file per traced process, under perfbench/out/<workload>/.

Every answer is checked (see workloads.py).  The lines of standard output
list every figure by name with its unit; the last line is one JSON object
with the keys correct, attempted, failed and metrics, where metrics holds
the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer ones
(--trace 1).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from references import load_hurwitz_naive  # noqa: E402
from spans import COUNTS_SPAN, FUNCTION_HOOKS, METHOD_HOOKS  # noqa: E402
from summary import tail  # noqa: E402

SETUP_SPAWNS = 11
LAST_START_S = 110  # no pass or round starts later than this into the run
HARD_STOP_S = 160  # a child still running then is killed

SPANS = (
    [name for _, _, name, _ in FUNCTION_HOOKS]
    + [name for _, name in METHOD_HOOKS]
    + ["qseries.mul", "bench.pass", COUNTS_SPAN]
)
# the two verify layers whose self time is named self_s
SELF_SUFFIX = {"verify.verify_identity": "self_s", "verify.verify_lemmas": "self_s"}
WORK_COUNTS = (
    "hurwitz.moment_sum.terms",
    "qseries.mul.pairs",
    "qseries.mul.iterations",
    "numtheory.represent.steps",
    "eccount.pairs",
)


class BenchError(Exception):
    """The program could not be run at all."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts children one at a time, within the run's time limits."""

    def __init__(self, workload: str) -> None:
        self.t0 = time.monotonic()
        self.env = _child_env()
        self.out_dir = HERE / "out" / workload
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def may_start(self) -> bool:
        return time.monotonic() - self.t0 < LAST_START_S

    def spawn(self, argv: list[str]):
        """(start, end, completed process or None on timeout)."""
        start = time.monotonic()
        timeout = max(1.0, self.t0 + HARD_STOP_S - start)
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        return start, time.monotonic(), proc

    def read_summary(self, path: Path, start: float, end: float) -> dict:
        summary = json.loads(path.read_text())
        path.unlink()
        summary["spawn_s"] = (summary["t_start"] - start) + (end - summary["t_end"])
        return summary


def measure_setup(runner: Runner) -> list[float]:
    """Seconds from process start until `import hclassnum.cli` returns."""
    code = "import time, hclassnum.cli; print(time.monotonic())"
    samples = []
    for _ in range(SETUP_SPAWNS):
        start, _, proc = runner.spawn([sys.executable, "-c", code])
        if proc is None or proc.returncode != 0:
            raise BenchError("cannot import hclassnum.cli: "
                             + (proc.stderr.strip()[-500:] if proc else "timed out"))
        samples.append(float(proc.stdout) - start)
    return samples


def run_pass(runner: Runner, workload: str, traced: bool, k: int) -> dict:
    summary = runner.out_dir / f"pass{k}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "job", workload, str(summary)]
    if traced:
        argv.append(str(runner.out_dir / f"pass{k}.spans.tsv.gz"))
    start, end, proc = runner.spawn(argv)
    if proc is None or proc.returncode != 0 or not summary.exists():
        error = "timed out" if proc is None else proc.stderr.strip()[-500:]
        return {"traced": traced, "ok": False, "error": error}
    record = runner.read_summary(summary, start, end)
    record.update(traced=traced, ok=True, latency_s=end - start)
    return record


def run_round(runner: Runner, script: list[list[str]], traced: bool, k: int) -> dict:
    requests = []
    for i, argv in enumerate(script):
        if traced:
            summary = runner.out_dir / f"round{k}-req{i}.json"
            spans = runner.out_dir / f"round{k}-req{i}.spans.tsv.gz"
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(summary),
                   str(spans), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "hclassnum.cli", *argv]
        start, end, proc = runner.spawn(cmd)
        record = {
            "argv": argv,
            "latency_s": end - start,
            "returncode": None if proc is None else proc.returncode,
            "stdout": "" if proc is None else proc.stdout,
        }
        if traced and proc is not None and summary.exists():
            record.update(runner.read_summary(summary, start, end))
        requests.append(record)
        if proc is None:
            break
    return {"traced": traced, "requests": requests,
            "wall_s": sum(r["latency_s"] for r in requests)}


def measure(run_unit, seconds: float, trace: bool, runner: Runner) -> tuple[list, float]:
    """Passes or rounds for about `seconds`; with tracing, at least two
    traced units and one untraced, alternating and starting traced.

    A unit starts only while more than half a typical unit's time is left,
    so a run ends within half a unit of `seconds` either way.
    """
    units: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while runner.may_start():
        traced_n = sum(u["traced"] for u in units)
        plain_n = len(units) - traced_n
        typical = statistics.median(durations) if durations else 0.0
        time_up = time.monotonic() - start + typical / 2 >= seconds
        if units and time_up and (not trace or (traced_n >= 2 and plain_n >= 1)):
            break
        t = time.monotonic()
        units.append(run_unit(trace and traced_n <= plain_n, len(units)))
        durations.append(time.monotonic() - t)
    return units, time.monotonic() - start


# -- per-layer figures -----------------------------------------------------------


def process_layers(record: dict) -> dict:
    """Per-layer figures of one traced process (a pass or a request)."""
    if sum(record["self_ns"].values()) != record["root_ns"]:
        raise AssertionError("layer self times do not add up to the traced wall time")
    counts = record["counts"]
    out = {f"{span}.self": record["self_ns"].get(span, 0) / 1e9 for span in SPANS}
    out.update({f"{span}.calls": counts.get(f"{span}.calls", 0) for span in SPANS})
    out.update({name: counts.get(name, 0) for name in WORK_COUNTS})
    limit = counts.get("hurwitz.table_limit", 0)
    out["table_limit_sum"] = limit
    out["table_need_sum"] = counts.get("hurwitz.table_need", 0) if limit else 0
    out["cli.import.s"] = record["import_s"]
    out["cli.spawn.s"] = record["spawn_s"]
    # time in the child that is neither the import nor a root span
    out["bench.child.s"] = (record["t_end"] - record["t_start"]
                            - record["import_s"] - record["root_ns"] / 1e9)
    return out


def combine(parts: list[dict]) -> dict:
    """Figures of a round: the sum over its requests."""
    return {key: sum(p[key] for p in parts) for key in parts[0]}


def layer_metrics(units: list[dict], wall_traced: list[float],
                  wall_plain: list[float]) -> tuple[dict, list[str]]:
    """Metric name -> (value, unit), and any work counts that did not repeat."""
    problems = []
    count_keys = [k for k in units[0] if k.endswith(".calls")] + list(WORK_COUNTS) + [
        "table_limit_sum", "table_need_sum"]
    for key in count_keys:
        if len({u[key] for u in units}) != 1:
            problems.append(f"work count {key} differs between traced runs")
    mean = {key: statistics.fmean(u[key] for u in units) for key in units[0]}
    first = units[0]
    metrics: dict = {}
    for span in SPANS:
        metrics[f"{span}.{SELF_SUFFIX.get(span, 's')}"] = (mean[f"{span}.self"], "s")
        metrics[f"{span}.calls"] = (first[f"{span}.calls"], "count")
    for name in WORK_COUNTS:
        if name != "qseries.mul.iterations":
            metrics[name] = (first[name], "count")
    iterations = first["qseries.mul.iterations"]
    metrics["qseries.mul.useful_frac"] = (
        first["qseries.mul.pairs"] / iterations if iterations else 0.0, "ratio")
    metrics["hurwitz.table_limit"] = (first["table_limit_sum"], "count")
    metrics["hurwitz.table_used_frac"] = (
        first["table_need_sum"] / first["table_limit_sum"]
        if first["table_limit_sum"] else 0.0, "ratio")
    for name in ("cli.import.s", "cli.spawn.s", "bench.child.s"):
        metrics[name] = (mean[name], "s")
    traced = statistics.fmean(wall_traced)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - statistics.fmean(wall_plain), "s")
    return metrics, problems


# -- the workloads ---------------------------------------------------------------


def run_in_process(workload: str, seconds: float, trace: bool) -> tuple[dict, dict]:
    runner = Runner(workload)
    setup = measure_setup(runner)
    units, elapsed = measure(lambda traced, k: run_pass(runner, workload, traced, k),
                             seconds, trace, runner)
    expected = workloads.EXPECTED_CHECKS[workload]
    gate = {"attempted": 0, "failed": 0, "problems": []}
    for u in units:
        gate["attempted"] += expected
        if not u["ok"]:
            gate["failed"] += expected
            gate["problems"].append(f"pass failed: {u['error']}")
            continue
        bad = (u["mismatches"] + u["false_verdicts"] + abs(expected - u["checked"])
               + (not u["roundtrip_ok"]))
        if u["checked"] != expected:
            gate["problems"].append(f"checked {u['checked']} != expected {expected}")
        if bad:
            gate["problems"].append(f"{bad} failed checks in a pass")
        gate["failed"] += min(bad, expected)
    ok = [u for u in units if u["ok"]]
    plain = [u for u in ok if not u["traced"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(u["wall_s"] for u in plain) if plain else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "MB"),
        "passes": (len(units), "count"),
        "pass_latency_s": (statistics.median(u["latency_s"] for u in plain)
                           if plain else 0.0, "s"),
        "checks_per_s": (expected / statistics.median(u["wall_s"] for u in plain)
                         if plain else 0.0, "1/s"),
        "measured_s": (elapsed, "s"),
    }
    traced = [u for u in ok if u["traced"]]
    if trace and traced and plain:
        layers, problems = layer_metrics(
            [process_layers(u) for u in traced],
            [u["wall_s"] for u in traced], [u["wall_s"] for u in plain])
        metrics.update(layers)
        gate["problems"] += problems
    return metrics, gate


def run_cli(seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    runner = Runner("cli")
    setup = measure_setup(runner)
    script = workloads.cli_script(seed)
    units, elapsed = measure(lambda traced, k: run_round(runner, script, traced, k),
                             seconds, trace, runner)
    requests = [r for u in units for r in u["requests"]]
    gate = {"attempted": len(requests), "failed": 0, "problems": []}
    hurwitz_naive = load_hurwitz_naive(ROOT)
    verdicts: dict = {}
    first_output: dict = {}
    for r in requests:
        key = tuple(r["argv"])
        if key not in verdicts:
            first_output[key] = r["stdout"]
            verdicts[key] = workloads.check_answer(
                r["argv"], r["returncode"], r["stdout"], hurwitz_naive)
        problem = verdicts[key]
        if problem is None and r["stdout"] != first_output[key]:
            problem = "output differs from an earlier run of the same request"
        if problem is not None:
            gate["failed"] += 1
            gate["problems"].append(f"{' '.join(r['argv'])}: {problem}")
    plain = [u for u in units if not u["traced"]]
    latencies = [r["latency_s"] for u in plain for r in u["requests"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(u["wall_s"] for u in plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "MB"),
        "rounds": (len(units), "count"),
        "requests_per_round": (len(script), "count"),
        "requests_per_s": (len(latencies) / sum(u["wall_s"] for u in plain), "1/s"),
        "request_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "measured_s": (elapsed, "s"),
    }
    if len(latencies) > 10:
        value, pct, n = tail(latencies)
        metrics["request_tail_ms"] = (1000 * value, "ms")
        metrics["request_tail_pct"] = (pct, "%")
        metrics["request_tail_samples"] = (n, "count")
    traced = [u for u in units if u["traced"]]
    if trace and traced:
        if all("self_ns" in r for u in traced for r in u["requests"]):
            layers, problems = layer_metrics(
                [combine([process_layers(r) for r in u["requests"]]) for u in traced],
                [u["wall_s"] for u in traced], [u["wall_s"] for u in plain])
            metrics.update(layers)
            gate["problems"] += problems
        else:
            gate["problems"].append("a traced request wrote no spans")
    return metrics, gate


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if workload == "cli":
        metrics, gate = run_cli(seed, seconds, trace)
    else:
        metrics, gate = run_in_process(workload, seconds, trace)
    gate["failed"] = max(gate["failed"], 1 if gate["problems"] else 0)
    metrics["failed_frac"] = (gate["failed"] / gate["attempted"], "ratio")
    return metrics, gate


def _stop(signum, frame):
    # an exception, unlike the default action, lets subprocess.run kill and
    # reap the child that is running
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="draws the cli request script; the other workloads are fixed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/hclassnum/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            metrics, gate = run_workload(name, args.seed, seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for key, (value, unit) in sorted(metrics.items()):
            print(f"{name:<10} {key:<36} {value:>16.6f} {unit}")
        for problem in gate["problems"]:
            print(f"{name:<10} FAILED {problem}")
        picked = {}
        for m in wanted:
            if m["name"] not in metrics and gate["failed"]:
                metrics[m["name"]] = (0.0, m["unit"])  # not measured: the run failed
            value, unit = metrics[m["name"]]
            if unit != m["unit"]:
                raise AssertionError(f"{m['name']} is in {unit}, declared {m['unit']}")
            picked[m["name"]] = {"value": value, "unit": unit}
        results[name] = {
            "correct": gate["failed"] == 0,
            "attempted": gate["attempted"],
            "failed": gate["failed"],
            "metrics": picked,
        }
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
