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

Each run's line also gives the resources of its child process, from
``resource.getrusage(RUSAGE_CHILDREN)`` read before and after it: user and
system CPU seconds and minor page faults.  They cover the whole run, import,
set-up and warm-up included, so they are not end-to-end metrics; they show
where a run's time went (kernel time spent faulting memory in, say).

``--json FILE`` also writes the summary, every run's metrics and
resources, and the names of the two checkout directories (a benchmark's
peak RSS can depend on them), into FILE under the key ``WORKLOAD-seedS``
(``cli-seed7``).  It
never replaces an entry: a rerun of a workload and seed already in FILE goes
under the next free suffix (``cli-seed7-2``, ``cli-seed7-3``, ...).  So
calls for every workload and seed with one FILE make one bench ledger.
"""

from __future__ import annotations

import argparse
import json
import resource
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
    parser.add_argument("--json", type=Path, help="also write the summary into this file, keyed by workload and seed")
    return parser.parse_args(argv)


def _child_usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"user_s": usage.ru_utime, "sys_s": usage.ru_stime, "minflt": usage.ru_minflt}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its metric values, its child resources, and whether it reported check: ok
    with no failed op."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = _child_usage()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    after = _child_usage()
    resources = {k: after[k] - before[k] for k in after}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"ok": False, "metrics": {}, "resources": resources}
    check_ok = any(line.startswith("check: ok") for line in lines)
    ok = proc.returncode == 0 and check_ok and result["correct"] and result["failed"] == 0
    return {"ok": ok, "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "resources": resources}


def resource_text(run: dict) -> str:
    """The printed resources of a run, or "" for a run without them."""
    r = run.get("resources")
    return f"  [child user {r['user_s']:.2f} s  sys {r['sys_s']:.2f} s  minflt {r['minflt']}]" if r else ""


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric summary of pairs of {"parent": run, "change": run}; None for a metric with too few runs."""
    out = {}
    for entry in metrics:
        name, lower = entry["name"], entry["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs if name in p[side]["metrics"]] for side in SIDES}
        if min(len(v) for v in values.values()) < 2:
            out[name] = None
            continue
        quartiles = {side: statistics.quantiles(values[side], n=4, method="inclusive") for side in SIDES}
        wins = 0
        for p in pairs:
            a, b = p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)
            if a is not None and b is not None and a != b and (b < a) == lower:
                wins += 1
        (pq1, pmed, pq3), cmed = quartiles["parent"], quartiles["change"][1]
        out[name] = {
            "unit": entry["unit"],
            "better": entry["better"],
            **{side: dict(zip(("q1", "median", "q3"), quartiles[side])) for side in SIDES},
            "change_over_parent": cmed / pmed,
            "change_wins": wins,
            "pairs": len(pairs),
            "beyond_parent_iqr": abs(cmed - pmed) > (pq3 - pq1),
        }
    return out


def summary_lines(summary: dict) -> list[str]:
    """One printed line per metric of a summary."""
    out = []
    for name, s in summary.items():
        if s is None:
            out.append(f"{name}: too few completed runs")
            continue
        (pq1, pmed, pq3), (cq1, cmed, cq3) = ([s[side][k] for k in ("q1", "median", "q3")] for side in SIDES)
        out.append(
            f"{name} ({s['unit']}, {s['better']} is better): "
            f"parent median {pmed:.6g} [q1 {pq1:.6g}, q3 {pq3:.6g}]  "
            f"change median {cmed:.6g} [q1 {cq1:.6g}, q3 {cq3:.6g}]  "
            f"change/parent {s['change_over_parent']:.3f}  change wins {s['change_wins']}/{s['pairs']}  "
            f"|median difference| > parent IQR: {'yes' if s['beyond_parent_iqr'] else 'no'}"
        )
    return out


def ledger_key(ledger: dict, workload: str, seed: int) -> str:
    """``WORKLOAD-seedS``, or with the first suffix ``-2``, ``-3``, ... that no entry of the ledger has."""
    base = f"{workload}-seed{seed}"
    key, n = base, 1
    while key in ledger:
        n += 1
        key = f"{base}-{n}"
    return key


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}  # in run order
        for side in order:
            pair[side] = run_once(dirs[side], args.workload, args.seed, seconds)
            shown = "  ".join(f"{k} {v:.6g}" for k, v in pair[side]["metrics"].items())
            print(f"pair {i} {side:<6} {'ok' if pair[side]['ok'] else 'FAILED'}  {shown}{resource_text(pair[side])}",
                  flush=True)
        pairs.append(pair)
    summary = summarize(pairs, spec["end_to_end"])
    for line in summary_lines(summary):
        print(line)
    all_ok = all(p[side]["ok"] for p in pairs for side in SIDES)
    print(f"every run check: ok with 0 failed ops: {'yes' if all_ok else 'NO'}")
    if args.json is not None:
        ledger = json.loads(args.json.read_text(encoding="utf-8")) if args.json.exists() else {}
        ledger[ledger_key(ledger, args.workload, args.seed)] = {
            "seed": args.seed, "run_seconds": seconds, "checkouts": {side: dirs[side].name for side in SIDES},
            "all_check_ok": all_ok, "metrics": summary, "runs": pairs,
        }
        args.json.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
