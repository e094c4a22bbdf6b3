"""tools/working_set.py: the traced peak it prints for a study."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np

from croccolab.fieldcalc import Grid, OrderField, ScalarField
from croccolab.fieldio import write_field

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


def test_read_rows_give_each_state_file_its_read_peak(tmp_path):
    grid = Grid.periodic(32)
    rng = np.random.default_rng(5)
    fields = {"iota": ScalarField(grid, rng.standard_normal(grid.extents)),
              "nu": OrderField(grid, rng.standard_normal(grid.extents + (2,)))}
    lines = ["[grid]", "n = 32", "", "[state]"]
    for key, field in fields.items():
        write_field(field, str(tmp_path / f"{key}.field"), encoding="csv")
        lines.append(f"{key} = {tmp_path / key}.field")
    config = tmp_path / "eval.cfg"
    config.write_text("\n".join(lines) + "\n\n[model]\ncatalog = complex\n")
    rows = working_set.read_rows(str(config))
    assert [label.split(" (")[0] for label, _ in rows] == ["cli read_field iota", "cli read_field nu"]
    for (label, peak), key in zip(rows, fields):
        size = (tmp_path / f"{key}.field").stat().st_size
        assert f"({size:,d} B file, peak {peak / size:.2f}x)" in label
        assert fields[key].values.nbytes < peak  # the read holds the values at least
