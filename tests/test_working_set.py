"""tools/working_set.py: the traced peak it prints for a study."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "working_set.py"
_SPEC = importlib.util.spec_from_file_location("working_set", _PATH)
working_set = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(working_set)


def test_traced_peak_counts_what_the_call_holds_at_once_and_stops_tracing():
    def study():
        a = np.empty(2_000_000)  # 16 MB, freed before the next array
        del a
        b, c = np.empty(500_000), np.empty(500_000)  # 8 MB at once
        return b, c

    peak = working_set.traced_peak(study)
    assert 16_000_000 <= peak < 16_000_000 + 100_000
    assert not tracemalloc.is_tracing()
