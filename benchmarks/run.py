#!/usr/bin/env python3
"""Run one croccolab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload certify --seed 0 --seconds 25 --trace 0

Workloads (see benchmarks/METRICS.md): certify, transport, cli.  The run
imports croccolab from ``src/`` next to this directory, builds the seeded
inputs and warms up ``SETUP_ROUNDS`` times (``setup_s`` is the import time
plus the median round), then runs ops back to back in one closed loop for
``--seconds`` and checks every op's output.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
prints the per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import crocbench  # noqa: E402  (imports neither numpy nor croccolab)

SETUP_ROUNDS = 3
MAX_LISTED_PROBLEMS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Outcome:
    """Failure accounting: an exception or a failed check is a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, where: str, problems: list[str]) -> None:
        self.problems += [f"{where}: {p}" for p in problems]


def run_op(workload, baseline):
    """One timed op, then its output check: (output or None, seconds, problems)."""
    t0 = time.perf_counter()
    try:
        raw = workload.op()
    except Exception as exc:  # a failing op is counted, not fatal
        return None, time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    output = workload.collect(raw)
    return output, seconds, workload.check(output, baseline)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = crocbench.clamp_thread_env()
    t_import = time.perf_counter()
    try:
        crocbench.use_checkout_source()
        from crocbench import report, tracing, workloads
    except (crocbench.SourceMissingError, ImportError) as exc:
        print(f"benchmark: cannot import the program: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    spec = json.loads((crocbench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    for line in report.machine_note(threads):
        print(line)
    kernel_start = report.reference_kernel_ms()

    outcome = Outcome()
    with crocbench.work_dir(args.workload) as workdir:
        workload = workloads.WORKLOADS[args.workload](workdir)
        # set-up: seeded inputs and one warm-up op per round
        setup_times = []
        baseline = None
        for r in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            workload.setup(args.seed)
            output, _, problems = run_op(workload, baseline)
            setup_times.append(time.perf_counter() - t0)
            outcome.note(f"warm-up {r}", problems)
            if r == 0 and output is not None and args.seed == workloads.REFERENCE_SEED:
                expected = workloads.load_reference()[args.workload]
                outcome.note(
                    "reference",
                    workloads.compare(workload.summary(output), expected, workloads.RTOL, workloads.ATOL),
                )
            if baseline is None and not problems:
                baseline = output
        setup_s = import_s + statistics.median(setup_times)

        # measurement: one closed loop, alternating traced ops when tracing
        tracer = tracing.Tracer() if args.trace else None
        plain_ms, traced_ms = [], []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while time.perf_counter() < deadline or (tracer and not (plain_ms and traced_ms) and index < 4):
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
                tracer.begin_op(index)
            output, seconds, problems = run_op(workload, baseline)
            if traced:
                tracer.end_op(output is None)
                tracer.uninstall()
            outcome.attempted += 1
            if problems:
                outcome.failed += 1
                outcome.note(f"op {index}", problems)
            else:
                (traced_ms if traced else plain_ms).append(seconds * 1e3)
                baseline = output if baseline is None else baseline
            index += 1
        kernel_end = report.reference_kernel_ms()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(
        f"machine: reference kernel {kernel_start:.3f} ms at start, {kernel_end:.3f} ms at end "
        f"({100.0 * (kernel_end / kernel_start - 1.0):+.1f}%)"
    )
    if not plain_ms or (tracer and not traced_ms):
        for p in outcome.problems[:MAX_LISTED_PROBLEMS]:
            print(f"check: {p}")
        print("benchmark: no op completed, nothing to report", file=sys.stderr)
        return 1

    metrics: dict[str, float] = {}
    if args.trace:
        spans_dir = crocbench.ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(str(spans_path))
        per_op = tracing.per_op_metrics(tracer.spans)
        metrics.update(tracing.median_metrics(per_op))
        metrics["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(plain_ms)
        calls = {layer: sum(v[f"{layer}.calls"] for v in per_op.values()) for layer in workload.bypass}
        leaks = [f"bypassed layer {layer} recorded {n:.0f} calls" for layer, n in calls.items() if n]
        outcome.note("trace", leaks)
        print(f"trace: {len(traced_ms)} traced ops, {len(plain_ms)} untraced ops, {len(tracer.spans)} spans -> {spans_path}")
        print(f"trace: bypassed layers {', '.join(workload.bypass)}: {'zero calls' if not leaks else 'VIOLATED'}")
        wanted = spec["per_layer"]
    else:
        tail_ms, pct, beyond = report.tail(plain_ms)
        metrics["setup_s"] = setup_s
        metrics["ops_per_s"] = len(plain_ms) / (sum(plain_ms) / 1e3)
        metrics["op_ms_p50"] = statistics.median(plain_ms)
        metrics["op_ms_tail"] = tail_ms
        metrics["peak_rss_mb"] = peak_rss_mb
        print(
            f"samples: {len(plain_ms)} completed ops; op_ms_tail is p{pct:.1f} "
            f"with {beyond} samples beyond it; setup rounds {', '.join(f'{t:.3f}' for t in setup_times)} s, "
            f"import {import_s:.3f} s"
        )
        print(f"metric ops_failed_ratio = {outcome.failed / outcome.attempted:.6g} ratio ({outcome.failed}/{outcome.attempted})")
        wanted = spec["end_to_end"]

    result = {}
    for entry in wanted:
        value = float(metrics[entry["name"]])
        print(f"metric {entry['name']} = {value:.6g} {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = not outcome.problems
    print(f"check: {'ok' if correct else 'FAILED'} ({outcome.failed} of {outcome.attempted} ops failed)")
    for p in outcome.problems[:MAX_LISTED_PROBLEMS]:
        print(f"check: {p}")
    print(
        json.dumps(
            {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
