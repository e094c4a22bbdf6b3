#!/usr/bin/env python3
"""Print the median time of each transport stage kernel at a few grid sizes.

    python3 tools/kernel_times.py [--sizes 64 256] [--calls 200]

Imports croccolab from the ``src/`` directory of the checkout this file sits
in, so a copy of this file placed in another checkout measures that
checkout; running two copies one after the other compares two commits on
the same inputs.  At each size it builds the benchmark's frozen-mode state
(the two-mode vorticity, its streamfunction and the generic two-component
nu) and times, per call:

* ``_arakawa`` of the vorticity (one component) and of nu (two components);
* ``solve_streamfunction`` of the vorticity, its Poisson check included;
* ``_require_poisson``, the residual check alone;
* ``cfl_number`` of the state.

Each line gives the median, the lower and the upper quartile, in
microseconds, of ``--calls`` calls after one warm-up call, one kernel after
the other.  Native thread pools are held at one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import crocbench  # noqa: E402  (imports neither numpy nor croccolab)


def kernels(n: int) -> dict:
    """The kernels of one size as argument-free callables, keyed by their label."""
    from croccolab import manufactured, transport
    from croccolab.fieldcalc import Grid

    grid = Grid.periodic(n)
    state = transport.TransportState.from_vorticity(
        grid, manufactured.two_mode_vorticity(grid), manufactured.generic_order_parameter(grid))
    omega, psi, nu = state.omega.values, state.psi.values, state.nu.values
    return {
        "_arakawa omega": lambda: transport._arakawa(grid, psi, omega),
        f"_arakawa nu ({nu.shape[-1]} components)": lambda: transport._arakawa(grid, psi, nu),
        "solve_streamfunction": lambda: transport.solve_streamfunction(grid, omega),
        "_require_poisson": lambda: transport._require_poisson(grid, psi, omega),
        "cfl_number": lambda: transport.cfl_number(state, 0.01),
    }


def time_calls(fn, calls: int) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of ``calls`` timed calls of ``fn``, in microseconds."""
    fn()
    times = []
    for _ in range(calls):
        t0 = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - t0) / 1e3)
    if calls == 1:
        return times[0], times[0], times[0]
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 256])
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args(argv)
    if args.calls < 1 or min(args.sizes) < 4:
        parser.error("need --calls >= 1 and every size >= 4")
    crocbench.clamp_thread_env()
    crocbench.use_checkout_source()

    rows = []
    for n in args.sizes:
        for label, fn in kernels(n).items():
            rows.append((f"{n}^2 {label}", time_calls(fn, args.calls)))
    width = max(len(label) for label, _ in rows)
    print(f"transport kernels, median of {args.calls} calls (us), [quartiles]")
    for label, (q1, q2, q3) in rows:
        print(f"{label:<{width}}  {q2:10.1f}  [{q1:.1f}, {q3:.1f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
