#!/usr/bin/env python3
"""Rewrite benchmarks/reference.json from one op of every workload at the reference seed.

    python3 benchmarks/make_reference.py

Run it only when a change to croccolab is meant to change the outputs, and
say so where the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import crocbench  # noqa: E402


def main() -> int:
    crocbench.clamp_thread_env()
    crocbench.use_checkout_source()
    from crocbench import workloads

    summaries = {}
    for name, cls in workloads.WORKLOADS.items():
        with crocbench.work_dir(f"reference-{name}") as workdir:
            workload = cls(workdir)
            workload.setup(workloads.REFERENCE_SEED)
            output = workload.collect(workload.op())
            problems = workload.check(output, None)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            summaries[name] = workload.summary(output)
    reference = {
        "seed": workloads.REFERENCE_SEED,
        "rtol": workloads.RTOL,
        "atol": workloads.ATOL,
        "workloads": summaries,
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
