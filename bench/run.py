#!/usr/bin/env python3
"""wincert benchmark: one closed-loop workload per run.

Run from the root of a source tree:

    python3 bench/run.py --workload unit-large --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``.  The untraced run (``--trace
0``) reports the end-to-end metrics; the traced run (``--trace 1``)
serves the same requests once untraced and once with a span around every
call into a wincert layer, reports per-layer busy time, call counts and
shares, and writes the spans to ``bench/traces/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import gauge  # noqa: E402  (sibling modules, found through sys.path[0])
import workloads  # noqa: E402

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

RULES = ("tc", "uc", "cop", "borda", "mm", "wuc")
VERDICT_SPANS = tuple(
    f"sms.verify_support.{rule}.{verdict}"
    for rule in RULES[:5]
    for verdict in workloads.EXPECTED_VERDICTS
) + ("sms.verify_support.wuc.valid-MS", "sms.verify_support.wuc.not-minimal")
#: Spans that get busy_ms, calls and share.  ``bench.request`` is the
#: benchmark's own glue (request time not covered by a layer span);
#: ``cli.import`` is an import-only process minus a bare interpreter.
SPANS = (
    "bench.request",
    "model.parse_tournament",
    "model.as_complete",
    "model.Support",
    "model.serialize_tournament",
    *(f"solutions.winners.{rule}" for rule in RULES[:5]),
    *(f"sms.compute_sms.{rule}" for rule in RULES),
    "sms.verify_support",
    "necessary.is_necessary_winner",
    "explain.extract_structure",
    "explain.render_text",
    "explain.render_dot",
    "cli.interpreter",
    "cli.import",
    "cli.main",
    *(f"cli.{command}.process" for command in ("winners", "sms", "explain", "verify")),
)


def per_layer_spec() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    spec = {}
    for span in SPANS:
        spec |= {f"{span}.busy_ms": "ms", f"{span}.calls": "count", f"{span}.share": "ratio"}
    for span in VERDICT_SPANS:
        spec |= {f"{span}.busy_ms": "ms", f"{span}.calls": "count"}
    spec |= {
        "sms.compute_sms.wuc.proven_share": "ratio",
        "sms.compute_sms.wuc.gap_mean": "ratio",
        "sms.compute_sms.wuc.excess": "count",
        "trace.overhead": "ratio",
    }
    return spec


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class _Span:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Tracer:
    """Records (id, name, start, end, parent id, request id) per span in
    memory.  A span's name may be changed before it closes, so a call can
    be named after its outcome."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._next = 0
        self._parent: int | None = None
        self._request: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        span, sid, parent = _Span(name), self._next, self._parent
        self._next += 1
        self._parent = sid
        start = time.perf_counter()
        try:
            yield span
        finally:
            end = time.perf_counter()
            self._parent = parent
            self.spans.append((sid, span.name, start, end, parent, self._request))

    def request(self, index: int):
        self._request = index
        return self.span("bench.request")


class _NullSpan:
    name = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    _span = _NullSpan()

    def span(self, name: str):
        return self._span

    def request(self, index: int):
        return self._span


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def load_wincert() -> SimpleNamespace:
    """Import wincert afresh from this tree's ``src``, so that each set-up
    repetition pays the import."""
    if not os.path.isfile(os.path.join(SRC, "wincert", "__init__.py")):
        sys.exit(f"error: no wincert package under {SRC}")
    for name in [n for n in sys.modules if n == "wincert" or n.startswith("wincert.")]:
        del sys.modules[name]
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    names = ("model", "solutions", "sms", "necessary", "explain", "cli")
    wc = SimpleNamespace(**{n: importlib.import_module(f"wincert.{n}") for n in names})
    if not os.path.abspath(wc.model.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported wincert from {wc.model.__file__}, not from {SRC}")
    return wc


def serve(work, pool, wc, tracer, index: int):
    """One request: run it timed, then check it and (traced) probe it."""
    inp = pool[index % len(pool)]
    start = time.perf_counter()
    with tracer.request(index):
        try:
            out = work.run(inp, wc, tracer)
        except Exception as exc:  # a failed request is counted, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
    latency = time.perf_counter() - start
    problems = [out["error"]] if "error" in out else work.check(inp, out)
    if isinstance(tracer, Tracer) and work.probe is not None:
        work.probe(inp, wc, tracer)
    return latency, problems, inp, out


def phase(work, pool, wc, tracer, host, seconds: float | None = None, count: int | None = None):
    """Serve requests in a closed loop until ``count`` are done or their
    measured latency sums to ``seconds``.  Returns the latencies scaled by
    the host gauge (see gauge.py) and as measured.  Checks and the gauge
    run between requests, outside the timed region; outputs are dropped
    once checked, except the wuc proof-quality fields."""
    latencies, measured, failures, wuc = [], [], [], []
    while (count is None and sum(measured) < seconds) or (count is not None and len(measured) < count):
        latency, problems, inp, out = serve(work, pool, wc, tracer, len(measured))
        measured.append(latency)
        latencies.append(host.scale(latency))
        if problems:
            failures.append((len(measured) - 1, problems))
        if "optimal" in out:
            wuc.append(workloads.WucOutcome(inp.optimum, out["size"], out["optimal"], out["lower_bound"]))
    return latencies, measured, failures, wuc


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it, and that percentile (the maximum when there are too few)."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-small" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(spans: list[tuple], quality: dict, overhead: float) -> dict[str, float]:
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered: dict[int, float] = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    request_total = 0.0
    for sid, name, start, end, parent, _ in spans:
        duration = end - start
        calls[name] += 1
        if name == "bench.request":
            request_total += duration
            duration -= covered[sid]
        busy[name] += duration
        if name.startswith("sms.verify_support."):
            busy["sms.verify_support"] += duration
            calls["sms.verify_support"] += 1
    busy["cli.import"] = busy["cli.import_process"] - busy["cli.interpreter"]
    calls["cli.import"] = calls["cli.import_process"]
    values = {}
    for span in SPANS + VERDICT_SPANS:
        values[f"{span}.busy_ms"] = busy[span] * 1000.0
        values[f"{span}.calls"] = calls[span]
        if span in SPANS:
            values[f"{span}.share"] = busy[span] / request_total if request_total else 0.0
    values["sms.compute_sms.wuc.proven_share"] = quality["proven_share"]
    values["sms.compute_sms.wuc.gap_mean"] = quality["gap_mean"]
    values["sms.compute_sms.wuc.excess"] = quality["excess"]
    values["trace.overhead"] = overhead
    return values


def write_trace(workload: str, seed: int, spans: list[tuple]) -> str:
    out_dir = os.path.join(BENCH_DIR, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.json")
    origin = min((s[2] for s in spans), default=0.0)
    records = [
        {"id": sid, "name": name, "start": start - origin, "end": end - origin, "parent": parent, "request": req}
        for sid, name, start, end, parent, req in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": records}, fh)
    return path


def report_failures(failures) -> None:
    for index, problems in failures[:5]:
        print(f"request {index} failed: {'; '.join(problems)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    work = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as workdir:
        setup_gauge = gauge.HostGauge(gauge.python_kernel, gauge.PYTHON_KERNEL_S)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wc = load_wincert()
            pool = work.setup(random.Random(args.seed), workdir)
            setup_times.append(setup_gauge.scale(time.perf_counter() - start))
        host = gauge.HostGauge(*work.host_gauge)

        if not args.trace:
            latencies, measured, failures, outcomes = phase(
                work, pool, wc, NullTracer(), host, seconds=args.seconds
            )
            attempted = len(latencies)
            tail_s, tail_pct = tail(latencies)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "requests_per_s": (attempted - len(failures)) / sum(latencies),
                "request_ms_p50": statistics.median(latencies) * 1000.0,
                "request_ms_tail": tail_s * 1000.0,
                "peak_rss_mb": peak_rss_mb(args.workload),
            }
            units = END_TO_END
            notes = [
                f"request_ms_p50 over {attempted} samples",
                f"request_ms_tail is p{tail_pct:.1f} of {attempted} samples",
                f"as measured on this host (times scaled by {sum(latencies) / sum(measured):.4f}): "
                f"requests_per_s {(attempted - len(failures)) / sum(measured):.4f}, "
                f"request_ms_p50 {statistics.median(measured) * 1000:.2f}, "
                f"request_ms_tail {tail(measured)[0] * 1000:.2f}",
                f"setup_s is the median of {SETUP_REPEATS} set-ups: "
                + ", ".join(f"{s:.4f}" for s in setup_times),
            ]
        else:
            plain, _, plain_failures, _ = phase(
                work, pool, wc, NullTracer(), host, seconds=args.seconds / 2
            )
            tracer = Tracer()
            latencies, _, failures, outcomes = phase(work, pool, wc, tracer, host, count=len(plain))
            failures += plain_failures
            attempted = 2 * len(plain)
            metrics = layer_metrics(
                tracer.spans, workloads.wuc_quality(outcomes), sum(latencies) / sum(plain)
            )
            units = per_layer_spec()
            notes = [
                f"{len(plain)} requests served untraced, then the same {len(plain)} traced",
                f"spans written to {os.path.relpath(write_trace(args.workload, args.seed, tracer.spans), ROOT)}",
            ]

    quality = workloads.wuc_quality(outcomes)
    if quality["instances"]:
        notes.append(
            "wuc over {instances} instances: proven_share {proven_share:.3f}, "
            "gap_mean {gap_mean:.4f}, excess {excess}".format(**quality)
        )
    report_failures(failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  failed_share {len(failures) / attempted:.4f} ({len(failures)} of {attempted} requests)")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        if value or not args.trace:  # the JSON line below lists the zeros too
            print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
