#!/usr/bin/env python3
"""Print the traced allocation peak of each benchmark study and CLI session.

    python3 tools/working_set.py [--seed 0]

Imports croccolab from the ``src/`` directory, and the benchmark's seeded
workloads from the ``benchmarks/`` directory, of the checkout this file sits
in, so a copy of this file placed in another checkout measures that
checkout on the same inputs.  It builds the ``certify`` and ``cli``
workloads at the benchmark's sizes, runs one warm-up op of each, and then
runs each study or session once under ``tracemalloc``:

* ``certify``: the three capillary defect identities, the order-parameter
  defect identity and the smectic oracle, each over the 64/128/256 levels;
* ``cli``: ``eval-complex`` at 256^2, ``transport2d`` and ``mms-verify``,
  and ``fieldio.read_field`` of each CSV field file that ``eval-complex``
  reads (the ``[state]`` files of its config), with the file's size;
* ``eval-korteweg`` and ``eval-smectic`` on the states that the
  ``korteweg-inertia`` and ``smectic-wavy`` generators build at 256^2 (not
  part of the benchmark), each after a warm-up run of its own;
* ``transport frozen`` and ``transport advected``: a 10-step 256^2 run from
  the ``transport`` workload's seeded vorticity and generic nu in each mode
  (the benchmark runs the frozen one), each after a warm-up run of its own,
  which memoizes the frozen source as the benchmark's warm-up does;
* ``transport cold source``: the first sample's ``transport_rhs`` on the
  ``transport`` workload's fresh nu, which builds and memoizes the source
  as each set-up round's warm-up op does.  The transport rows also give
  the peak in grid arrays of n^2 doubles.

Each line gives, in MiB and in bytes, the peak of the bytes allocated while
the study or session ran, numpy arrays included, over what was allocated
when it started.  The count depends only on the code and the inputs, not
on the host's load, so two commits can be compared by one run each; the
process's resident size, which the benchmark reports, adds the
interpreter, the libraries and whatever the allocator keeps.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import crocbench  # noqa: E402  (imports neither numpy nor croccolab)


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` over those allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def read_rows(config_path: str) -> list[tuple[str, int]]:
    """A row per ``[state]`` field file of an ``eval-complex`` config: the traced peak of reading it."""
    from croccolab import fieldio

    config = configparser.ConfigParser(interpolation=None)
    config.read(config_path, encoding="utf-8")
    rows = []
    for key, path in config["state"].items():
        peak = traced_peak(lambda p=path: fieldio.read_field(p))
        size = Path(path).stat().st_size
        rows.append((f"cli read_field {key} ({size:,d} B file, peak {peak / size:.2f}x)", peak))
    return rows


GENERATED_EVALS = (("eval-korteweg", "korteweg-inertia"), ("eval-smectic", "smectic-wavy"))


def generated_eval_rows(workdir: Path, n: int) -> list[tuple[str, int]]:
    """A row per ``GENERATED_EVALS`` session on its generator's n^2 state: the traced peak of the run."""
    from croccolab import cli

    rows = []
    for command, generator in GENERATED_EVALS:
        config = workdir / f"{command}.cfg"
        config.write_text(f"[state]\ngenerator = {generator}\n", encoding="utf-8")
        argv = [command, "--config", str(config), "--grid", str(n), "--out", str(workdir / command)]
        if cli.main(argv) != 0:  # the warm-up
            raise SystemExit(f"working_set: {command} exited non-zero")
        rows.append((f"cli {command} ({generator}, {n}^2)", traced_peak(lambda a=argv: cli.main(a))))
    return rows


def transport_bench(seed: int, n: int):
    """The ``transport`` workload, set up at n^2."""
    from crocbench import workloads

    bench = workloads.Transport(Path("."))
    bench.N = n
    bench.setup(seed)
    return bench


def transport_rows(seed: int, n: int) -> list[tuple[str, int]]:
    """A row per transport mode: the traced peak of a run from the ``transport`` workload's seeded n^2 state."""
    from croccolab import transport

    bench = transport_bench(seed, n)
    rows = []
    for mode in (transport.FROZEN, transport.ADVECTED):
        config = dataclasses.replace(bench.config, mode=mode)
        transport.run(config, bench.initial)  # the warm-up
        peak = traced_peak(lambda c=config: transport.run(c, bench.initial))
        grids = peak / (n * n * 8)
        rows.append((f"transport {mode} ({n}^2, {config.steps} steps, {grids:.2f} grids)", peak))
    return rows


def cold_source_row(seed: int, n: int) -> tuple[str, int]:
    """The traced peak of the source build of the ``transport`` workload's seeded n^2 state, whose nu is fresh."""
    from croccolab import transport

    bench = transport_bench(seed, n)
    peak = traced_peak(lambda: transport.transport_rhs(bench.initial, bench.config.model))
    return f"transport cold source ({n}^2, m = {bench.initial.nu.m}, {peak / (n * n * 8):.2f} grids)", peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    crocbench.clamp_thread_env()
    crocbench.use_checkout_source()
    from crocbench import workloads
    from croccolab import cli, crocco, fieldcalc, manufactured

    certify = workloads.Certify(Path("."))
    certify.setup(args.seed)
    certify.op()  # warm-up: first-call imports and caches are not part of a study
    grids = certify.grids
    studies = {
        case: lambda b=manufactured.CATALOG[case]: crocco.defect_identity(
            lambda g: certify.capillary_state(b, g), grids, min_order=0.0)
        for case in certify.CAPILLARY
    }
    studies[certify.COMPLEX] = lambda: crocco.complex_defect_identity(certify.complex_state, grids, min_order=0.0)
    studies["smectic-oracle"] = lambda: fieldcalc.refinement_study(
        certify.smectic_oracle_error, [g.spacing[0] for g in grids])
    sizes = "/".join(str(g.extents[0]) for g in grids)
    rows = [(f"certify {name} ({sizes})", traced_peak(study)) for name, study in studies.items()]

    with tempfile.TemporaryDirectory(prefix="working-set-") as tmp:
        session = workloads.Cli(Path(tmp))
        session.setup(args.seed)
        if any(session.op()):
            print("working_set: a cli session exited non-zero", file=sys.stderr)
            return 1
        for argv_ in session.sessions:
            rows.append((f"cli {argv_[0]}", traced_peak(lambda a=argv_: cli.main(a))))
        (eval_argv,) = [a for a in session.sessions if a[0] == "eval-complex"]
        rows += read_rows(eval_argv[eval_argv.index("--config") + 1])
        rows += generated_eval_rows(Path(tmp), session.N)
    rows += transport_rows(args.seed, workloads.Transport.N)
    rows.append(cold_source_row(args.seed, workloads.Transport.N))

    width = max(len(label) for label, _ in rows)
    print(f"traced allocation peaks, seed {args.seed}")
    for label, peak in rows:
        print(f"{label:<{width}}  {peak / 2**20:8.1f} MiB  {peak:>12,d} B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
