"""In-memory spans around calls into the hclassnum layers, and self times.

A Tracer records one span per call of a hooked function: name, start, end
(perf_counter nanoseconds), parent span and run id.  `install` wraps the
public functions of each package module from outside the package and
rebinds every name that points at the original, including the copies that
other modules made with `from .x import f`; otherwise calls through those
copies would go unseen.

Work counts are computed from call arguments, operands and results, never
from timing, so they repeat exactly for the same inputs.  Computing them
costs time, so that time is recorded under its own span, `trace.counts`,
and is not charged to the layer that was called.

A span's self time is its duration minus the part of its interval that
its direct children cover.  Summed over every span, self times add up to
the durations of the root spans: nothing is lost and nothing is counted
twice.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from bisect import bisect_left
from math import isqrt
from time import perf_counter_ns

COUNTS_SPAN = "trace.counts"
# work counts that keep their largest value instead of a running sum
PEAK_METRICS = frozenset({"hurwitz.table_limit", "hurwitz.table_need"})


class Tracer:
    """Spans of one process, kept in flat arrays until written out."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def add(self, metric: str, value: int) -> None:
        old = self.counts.get(metric, 0)
        self.counts[metric] = max(old, value) if metric in PEAK_METRICS else old + value

    def wrap(self, name: str, fn, work=None):
        """fn inside a span; `work(*args, result=...)` yields work counts."""
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts[calls] = self.counts.get(calls, 0) + 1
            if work is not None:
                idx = self.open(COUNTS_SPAN)
                for metric, value in work(*args, **kwargs, result=result):
                    self.add(metric, value)
                self.close(idx)
            return result

        return traced

    def spans(self) -> list[tuple[str, int, int, int]]:
        """(name, start_ns, end_ns, parent index) for every span."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]

    def write(self, path) -> None:
        """One tab-separated line per span: run, index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("run\tspan\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, s, e, p) in enumerate(self.spans()):
                out.write(f"{self.run_id}\t{i}\t{name}\t{s}\t{e}\t{p}\n")


def covered(lo: int, hi: int, intervals) -> int:
    """Length of [lo, hi) covered by the union of the given intervals."""
    total = 0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus what its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, s, e, p in spans:
        if p >= 0:
            children.setdefault(p, []).append((s, e))
    return [
        (e - s) - covered(s, e, children.get(i, ()))
        for i, (_, s, e, _) in enumerate(spans)
    ]


def self_by_name(spans) -> dict[str, int]:
    """Self time in nanoseconds, summed per span name."""
    out: dict[str, int] = {}
    for (name, *_), t in zip(spans, self_times(spans)):
        out[name] = out.get(name, 0) + t
    return out


def root_time(spans) -> int:
    """Summed duration of the spans that have no parent."""
    return sum(e - s for _, s, e, p in spans if p < 0)


# -- work counts -----------------------------------------------------------------


def _table_limit(limit, *, result):
    yield "hurwitz.table_limit", limit


def _moment_terms(kappa, m, M, n, *, result):
    # t = m (mod M) with t^2 <= 4n
    tmax = isqrt(4 * n)
    yield "hurwitz.moment_sum.terms", len(range(-tmax + (m + tmax) % M, tmax + 1, M))
    yield "hurwitz.table_need", 4 * n + 1


def _series_need(precision, *, result):
    yield "hurwitz.table_need", precision


def _value_need(n, *, result):
    if n >= 0 and n % 4 in (0, 3):
        yield "hurwitz.table_need", n + 1


def _mul_work(a, b, *, result):
    """Nonzero coefficient pairs multiplied, and inner-loop iterations.

    The iterations are those of a dense inner loop run under each nonzero
    coefficient of the sparser factor: sum of (P - i) over its support.
    """
    p = min(a.precision, b.precision)
    nz_a = [i for i, c in enumerate(a.coeffs[:p]) if c]
    nz_b = [j for j, c in enumerate(b.coeffs[:p]) if c]
    if len(nz_a) > len(nz_b):
        nz_a, nz_b = nz_b, nz_a
    yield "qseries.mul.pairs", sum(bisect_left(nz_b, p - i) for i in nz_a)
    yield "qseries.mul.iterations", sum(p - i for i in nz_a)


def _represent_steps(p, n, *, result):
    # candidates y tried by a scan over 0 <= y <= sqrt(p/n)
    yield "numtheory.represent.steps", (
        isqrt(p // n) + 1 if result is None else result.y + 1
    )


def _ec_pairs(p, *, result):
    yield "eccount.pairs", p * p


# (module, attribute, span name, work counter)
FUNCTION_HOOKS = (
    ("hurwitz", "build_table", "hurwitz.build_table", _table_limit),
    ("hurwitz", "hurwitz", "hurwitz.hurwitz", _value_need),
    ("hurwitz", "hurwitz_series", "hurwitz.hurwitz_series", _series_need),
    ("hurwitz", "moment_sum", "hurwitz.moment_sum", _moment_terms),
    ("forms", "psi_series", "forms.psi_series", None),
    ("forms", "d_series", "forms.d_series", None),
    ("forms", "theta_mM", "forms.theta_mM", None),
    ("sums", "lambda_u4_twist", "sums.lambda_u4_twist", None),
    ("sums", "lambda_series", "sums.lambda_series", None),
    ("sums", "mu_coeff", "sums.mu_coeff", None),
    ("sums", "mu_closed", "sums.mu_closed", None),
    ("verify", "identity_lhs", "verify.identity_lhs", None),
    ("verify", "identity_rhs", "verify.identity_rhs", None),
    ("verify", "verify_identity", "verify.verify_identity", None),
    ("verify", "verify_lemmas", "verify.verify_lemmas", None),
    ("verify", "verify_classical", "verify.verify_classical", None),
    ("formulas", "h_formula", "formulas.h_formula", None),
    ("formulas", "cross_check", "formulas.cross_check", None),
    ("numtheory", "represent", "numtheory.represent", _represent_steps),
    ("numtheory", "is_prime", "numtheory.is_prime", None),
    ("numtheory", "primes_up_to", "numtheory.primes_up_to", None),
    ("eccount", "trace_distribution", "eccount.trace_distribution", _ec_pairs),
    ("eccount", "verify_curve_counts", "eccount.verify_curve_counts", None),
    ("cli", "run", "cli.run", None),
)

# QSeries methods: (attribute, span name); __mul__ is hooked separately
# because only series-by-series products are Cauchy products
METHOD_HOOKS = (
    ("u_operator", "qseries.u_operator"),
    ("twist", "qseries.twist"),
    ("sieve", "qseries.sieve"),
    ("__add__", "qseries.add"),
)


def _rebind(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "hclassnum" or modname.startswith("hclassnum."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every hooked function and method of the imported package."""
    importlib.import_module("hclassnum.cli")
    for modname, attr, name, work in FUNCTION_HOOKS:
        module = importlib.import_module("hclassnum." + modname)
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, work))

    qseries = importlib.import_module("hclassnum.qseries").QSeries
    for attr, name in METHOD_HOOKS:
        setattr(qseries, attr, tracer.wrap(name, getattr(qseries, attr)))
    scalar_or_series = qseries.__mul__
    cauchy = tracer.wrap("qseries.mul", scalar_or_series, _mul_work)

    def mul(self, other):
        if isinstance(other, qseries):
            return cauchy(self, other)
        return scalar_or_series(self, other)

    qseries.__mul__ = mul
