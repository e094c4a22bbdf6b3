#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cli --seed 0 --pairs 10

Each pair runs ``benchmarks/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other; even pairs run the
parent first and odd pairs the change first, so drift of the host's speed
over the session falls on both sides alike.  T is the ``run_seconds`` of
CHANGE_DIR's ``BENCHMARK.json``, which also names the end-to-end metrics
and which direction is better.

Every run prints one line.  The summary gives, per end-to-end metric, each
side's median and quartiles, the change's median relative to the parent's,
the pairs the change won (ties count for neither side), and whether the
medians differ by more than the parent's interquartile range.  The last
line says whether every run reported ``check: ok`` with no failed op; the
exit status is 0 only then.  The tool only reads and runs the two
checkouts; it writes nothing into them beyond what their own benchmark
writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its metric values, and whether it reported check: ok with no failed op."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"ok": False, "metrics": {}}
    check_ok = any(line.startswith("check: ok") for line in lines)
    ok = proc.returncode == 0 and check_ok and result["correct"] and result["failed"] == 0
    return {"ok": ok, "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """Per-metric summary lines for pairs of {"parent": run, "change": run}."""
    out = []
    for entry in metrics:
        name, lower = entry["name"], entry["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs if name in p[side]["metrics"]] for side in SIDES}
        if min(len(v) for v in values.values()) < 2:
            out.append(f"{name}: too few completed runs")
            continue
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (
            statistics.quantiles(values[side], n=4, method="inclusive") for side in SIDES
        )
        wins = 0
        for p in pairs:
            a, b = p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)
            if a is not None and b is not None and a != b and (b < a) == lower:
                wins += 1
        beyond = abs(cmed - pmed) > (pq3 - pq1)
        out.append(
            f"{name} ({entry['unit']}, {entry['better']} is better): "
            f"parent median {pmed:.6g} [q1 {pq1:.6g}, q3 {pq3:.6g}]  "
            f"change median {cmed:.6g} [q1 {cq1:.6g}, q3 {cq3:.6g}]  "
            f"change/parent {cmed / pmed:.3f}  change wins {wins}/{len(pairs)}  "
            f"|median difference| > parent IQR: {'yes' if beyond else 'no'}"
        )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_once(dirs[side], args.workload, args.seed, seconds)
            shown = "  ".join(f"{k} {v:.6g}" for k, v in pair[side]["metrics"].items())
            print(f"pair {i} {side:<6} {'ok' if pair[side]['ok'] else 'FAILED'}  {shown}", flush=True)
        pairs.append(pair)
    for line in summarize(pairs, spec["end_to_end"]):
        print(line)
    all_ok = all(p[side]["ok"] for p in pairs for side in SIDES)
    print(f"every run check: ok with 0 failed ops: {'yes' if all_ok else 'NO'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
