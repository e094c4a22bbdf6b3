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


def test_generated_eval_rows_give_the_korteweg_and_smectic_sessions_their_peaks(tmp_path):
    rows = working_set.generated_eval_rows(tmp_path, 16)
    assert [label for label, _ in rows] == [
        "cli eval-korteweg (korteweg-inertia, 16^2)", "cli eval-smectic (smectic-wavy, 16^2)"
    ]
    for (command, _), (_, peak) in zip(working_set.GENERATED_EVALS, rows):
        # the run holds its state's fields at least
        assert (tmp_path / command / "norms.csv").is_file() and peak > 3 * 16 * 16 * 8


def test_transport_rows_give_each_mode_its_run_peak_in_grids():
    n = 16
    rows = working_set.transport_rows(0, n)
    assert [label.split(" (")[0] for label, _ in rows] == ["transport frozen", "transport advected"]
    for label, peak in rows:
        assert label.endswith(f"({n}^2, 10 steps, {peak / (n * n * 8):.2f} grids)")
    # a run holds the new state's omega and psi at least; advected mode also moves nu
    (_, frozen), (_, advected) = rows
    assert 2 * n * n * 8 < frozen < advected


def test_cold_source_row_gives_the_first_source_build_its_peak_in_grids():
    n = 16
    label, peak = working_set.cold_source_row(0, n)
    assert label == f"transport cold source ({n}^2, m = 2, {peak / (n * n * 8):.2f} grids)"
    # the build holds grad nu (4 planes at m = 2) and div T (2 planes) at least
    assert 6 * n * n * 8 < peak
