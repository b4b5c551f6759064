"""Child process of the benchmark: one pass of a job, or one traced cli request.

    python perfbench/worker.py job <workload> <summary.json> [<spans.tsv.gz>]
    python perfbench/worker.py cli <summary.json> <spans.tsv.gz> -- <cli args>

`job` runs one pass of an in-process workload and writes its timings and
gate figures to the summary file.  `cli` is the traced stand-in for
`python -m hclassnum.cli`: it installs the span hooks, then calls
`hclassnum.cli.run(argv)`, which prints the answer as the real command does.
With a spans path the spans are written there and the summary also carries
per-layer self times and work counts.
"""
import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, install, root_time, self_by_name  # noqa: E402


def _import_cli() -> tuple[object, float]:
    t = time.monotonic()
    import hclassnum.cli

    return hclassnum.cli, time.monotonic() - t


def _stem(spans_path: str) -> str:
    return Path(spans_path).name.split(".")[0]


def _traced_summary(tracer: Tracer, spans_path: str) -> dict:
    spans = tracer.spans()
    tracer.write(spans_path)
    return {
        "self_ns": self_by_name(spans),
        "root_ns": root_time(spans),
        "counts": tracer.counts,
    }


def job(workload: str, summary_path: str, spans_path: str | None) -> int:
    import workloads

    cli, import_s = _import_cli()
    import hclassnum

    summary: dict = {"import_s": import_s}
    if spans_path:
        tracer = Tracer(f"{workload}-{_stem(spans_path)}")
        install(tracer)
        root = tracer.open("bench.pass")
        reports = workloads.run_job(workload, hclassnum)
        tracer.close(root)
        summary.update(_traced_summary(tracer, spans_path))
        summary["wall_s"] = summary["root_ns"] / 1e9
    else:
        t = time.perf_counter_ns()
        reports = workloads.run_job(workload, hclassnum)
        summary["wall_s"] = (time.perf_counter_ns() - t) / 1e9
    summary.update(workloads.gate_reports(reports))
    summary["t_start"] = T_START
    summary["t_end"] = time.monotonic()
    Path(summary_path).write_text(json.dumps(summary))
    return 0


def cli_request(summary_path: str, spans_path: str, argv: list[str]) -> int:
    cli, import_s = _import_cli()
    tracer = Tracer(f"cli-{_stem(spans_path)}")
    install(tracer)
    code = cli.run(argv)  # cli.run is hooked, so it is the root span
    sys.stdout.flush()
    summary = {"import_s": import_s, **_traced_summary(tracer, spans_path)}
    summary["t_start"] = T_START
    summary["t_end"] = time.monotonic()
    Path(summary_path).write_text(json.dumps(summary))
    return code


def main(args: list[str]) -> int:
    if args[0] == "job":
        return job(args[1], args[2], args[3] if len(args) > 3 else None)
    if args[0] == "cli" and args[3] == "--":
        return cli_request(args[1], args[2], args[4:])
    raise SystemExit(f"usage: {__doc__}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
