"""CROCCOFIELD files: round trips, malformed inputs, error positions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from croccolab.cli import main
from croccolab.fieldcalc import (
    Grid,
    OrderField,
    OrderGradField,
    OrderHessField,
    ScalarField,
    TensorField,
    VectorField,
)
from croccolab.fieldio import _CLASS_BY_KIND, FieldFileError, _component_shape, read_field, write_field


def sample_fields():
    grid = Grid((6, 4), (0.25, 0.5), ("periodic", "one-sided"))
    rng = np.random.default_rng(11)
    yield ScalarField(grid, rng.standard_normal(grid.extents))
    yield VectorField(grid, rng.standard_normal(grid.extents + (2,)))
    yield TensorField(grid, rng.standard_normal(grid.extents + (2, 2)))
    yield OrderField(grid, rng.standard_normal(grid.extents + (3,)))
    yield OrderGradField(grid, rng.standard_normal(grid.extents + (3, 2)))
    yield OrderHessField(grid, rng.standard_normal(grid.extents + (3, 2, 2)))


@pytest.mark.parametrize("encoding", ["binary", "csv"])
def test_round_trip_every_kind(tmp_path, encoding):
    for i, field in enumerate(sample_fields()):
        path = tmp_path / f"field_{i}.{encoding}"
        write_field(field, str(path), encoding=encoding)
        back = read_field(str(path))
        assert type(back) is type(field)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)


def test_binary_and_csv_encodings_agree(tmp_path):
    grid = Grid.periodic(4)
    field = ScalarField(grid, np.pi * np.arange(16.0).reshape(4, 4) / 7.0)
    write_field(field, str(tmp_path / "a.bin"), encoding="binary")
    write_field(field, str(tmp_path / "a.csv"), encoding="csv")
    a = read_field(str(tmp_path / "a.bin"))
    b = read_field(str(tmp_path / "a.csv"))
    assert np.array_equal(a.values, b.values)


def test_magic_mismatch(tmp_path):
    path = tmp_path / "bad.field"
    path.write_bytes(b"NOTAFIELD v9\npayload\n")
    with pytest.raises(FieldFileError, match="magic"):
        read_field(str(path))


def test_truncated_payload_reports_byte_counts(tmp_path):
    grid = Grid.periodic(4)
    field = ScalarField(grid, np.zeros(grid.extents))
    path = tmp_path / "trunc.field"
    write_field(field, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FieldFileError, match=r"expected 128 bytes, got 120"):
        read_field(str(path))


def test_nonfinite_payload_reports_position(tmp_path):
    grid = Grid.periodic(4)
    field = ScalarField(grid, np.ones(grid.extents))
    path = tmp_path / "nan.field"
    write_field(field, str(path))
    blob = bytearray(path.read_bytes())
    payload_start = blob.find(b"payload\n") + len(b"payload\n")
    cell = 2 * 4 + 3  # row-major cell (2, 3)
    blob[payload_start + 8 * cell : payload_start + 8 * (cell + 1)] = np.float64("nan").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        read_field(str(path))


def test_csv_line_count_mismatch(tmp_path):
    grid = Grid.periodic(4)
    field = ScalarField(grid, np.zeros(grid.extents))
    path = tmp_path / "short.csv"
    write_field(field, str(path), encoding="csv")
    lines = path.read_bytes().decode().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FieldFileError, match="expected 16 lines, got 15"):
        read_field(str(path))


def test_rejects_unknown_encoding(tmp_path):
    grid = Grid.periodic(4)
    field = ScalarField(grid, np.zeros(grid.extents))
    with pytest.raises(FieldFileError):
        write_field(field, str(tmp_path / "x"), encoding="json")


def _csv_file(tmp_path):
    grid = Grid.periodic(4)
    field = VectorField(grid, np.random.default_rng(3).standard_normal(grid.extents + (2,)))
    path = tmp_path / "f.csv"
    write_field(field, str(path), encoding="csv")
    return path


def _edit_payload(path, edit):
    """Apply `edit` to the list of payload lines of a CSV field file."""
    head, payload = path.read_text().split("payload\n")
    lines = payload.splitlines()
    edit(lines)
    path.write_text(head + "payload\n" + "\n".join(lines) + "\n")


def _ragged(lines):
    lines[2] += ",1.5"


def _non_numeric(lines):
    lines[4] = "0.25,abc"


def _blank(lines):
    lines.insert(6, "")


def _widen(lines):
    lines[:] = [f"{line},0" for line in lines]


MALFORMED_CSV = {
    "ragged": (_ragged, "CSV payload row 3 has 3 values, expected 2"),
    "non-numeric": (_non_numeric, "CSV payload row 5 holds non-numeric token 'abc'"),
    "blank": (_blank, "CSV payload row 7 is blank"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_malformed_csv_row_is_named(tmp_path, case):
    edit, message = MALFORMED_CSV[case]
    path = _csv_file(tmp_path)
    _edit_payload(path, edit)
    with pytest.raises(FieldFileError) as info:
        read_field(str(path))
    assert str(info.value) == message


def test_csv_width_mismatch_on_every_row(tmp_path):
    path = _csv_file(tmp_path)
    _edit_payload(path, _widen)
    with pytest.raises(FieldFileError, match="expected 2 components, got 3"):
        read_field(str(path))


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_malformed_csv_through_the_cli_exits_two(tmp_path, capsys, case):
    edit, message = MALFORMED_CSV[case]
    grid = Grid.periodic(4)
    x, y = grid.meshgrid()
    write_field(VectorField(grid, np.stack([0.3 + 0.1 * np.sin(x), 0.2 * np.cos(y)], -1)), str(tmp_path / "v.field"))
    write_field(ScalarField(grid, 1.5 + 0.2 * np.sin(y)), str(tmp_path / "iota.field"))
    write_field(ScalarField(grid, 0.1 * np.cos(x)), str(tmp_path / "eta.field"))
    nu = tmp_path / "nu.field"
    write_field(OrderField(grid, np.stack([0.4 * np.sin(x), 0.3 * np.cos(y)], -1)), str(nu), encoding="csv")
    _edit_payload(nu, edit)
    state = "".join(f"{key} = {tmp_path}/{key}.field\n" for key in ("v", "iota", "eta", "nu"))
    config = tmp_path / "run.cfg"
    config.write_text(f"[state]\n{state}")
    assert main(["eval-complex", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"croccolab: {message}\n"
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# round trip of every kind, shape and encoding, bit for bit
# ---------------------------------------------------------------------------

# -0.0, the smallest and largest subnormals, the smallest normal, +-max double
EDGE_VALUES = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               np.finfo(float).max, -np.finfo(float).max)


@st.composite
def random_fields(draw):
    kind = draw(st.sampled_from(sorted(_CLASS_BY_KIND)))
    dim = draw(st.sampled_from((2, 3)))
    extents = tuple(draw(st.integers(4, 7 if dim == 2 else 5)) for _ in range(dim))
    spacing = tuple(draw(st.floats(1e-3, 1e3)) for _ in range(dim))
    boundary = tuple(draw(st.sampled_from(("periodic", "one-sided"))) for _ in range(dim))
    grid = Grid(extents, spacing, boundary)
    shape = extents + _component_shape(kind, dim, draw(st.integers(1, 3)))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    values = draw(arrays(np.float64, shape, elements=finite | st.sampled_from(EDGE_VALUES)))
    start = draw(st.integers(0, values.size - len(EDGE_VALUES)))
    values.reshape(-1)[start : start + len(EDGE_VALUES)] = EDGE_VALUES
    return _CLASS_BY_KIND[kind](grid, values)


@settings(max_examples=60, deadline=None)
@given(random_fields(), st.sampled_from(["binary", "csv"]))
def test_round_trip_property(tmp_path_factory, field, encoding):
    path = tmp_path_factory.mktemp("io") / "f.field"
    write_field(field, str(path), encoding=encoding)
    back = read_field(str(path))
    assert type(back) is type(field)
    assert back.grid == field.grid
    assert back.values.shape == field.values.shape
    assert np.array_equal(back.values.view(np.int64), field.values.view(np.int64))
