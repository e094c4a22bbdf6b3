"""tools/kernel_times.py: one line per transport kernel and size."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "kernel_times.py"
_SPEC = importlib.util.spec_from_file_location("kernel_times", _PATH)
kernel_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(kernel_times)


def test_prints_the_median_and_quartiles_of_every_kernel_at_every_size(capsys, monkeypatch):
    for var in kernel_times.crocbench.THREAD_VARS:  # restored after the test
        monkeypatch.setenv(var, "1")
    assert kernel_times.main(["--sizes", "4", "6", "--calls", "3"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "transport kernels, median of 3 calls (us), [quartiles]"
    labels = ["_arakawa omega", "_arakawa nu (2 components)", "solve_streamfunction", "_require_poisson", "cfl_number"]
    rows = [re.fullmatch(r"(.*?) +([0-9.]+)  \[([0-9.]+), ([0-9.]+)\]", line).groups() for line in lines]
    assert [row[0] for row in rows] == [f"{n}^2 {label}" for n in (4, 6) for label in labels]
    for _, median, low, high in rows:
        assert 0.0 < float(low) <= float(median) <= float(high)


def test_one_call_is_its_own_median_and_quartiles():
    calls = []
    q1, q2, q3 = kernel_times.time_calls(lambda: calls.append(1), 1)
    assert len(calls) == 2  # one warm-up call, one timed
    assert 0.0 < q1 == q2 == q3
