"""CROCCOFIELD files: round trips, malformed inputs, error positions, encoder bytes."""

import math
from unittest import mock

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
from croccolab import fieldio
from croccolab.fieldio import KINDS, FieldFileError, read_field, write_field
from dual_routes import read_field_whole
from traced_peaks import traced_peak


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


def _underscore(lines):
    lines[0] = "1_0,0.5"  # float() reads 10, np.loadtxt rejects it


def _late_non_numeric(lines):
    lines[13] = "abc,0.25"


def _token_then_blank(lines):
    lines[0] = "0.25,abc"
    lines.insert(12, "")


def _widen(lines):
    lines[:] = [f"{line},0" for line in lines]


MALFORMED_CSV = {
    "ragged": (_ragged, "CSV payload row 3 has 3 values, expected 2"),
    "non-numeric": (_non_numeric, "CSV payload row 5 holds non-numeric token 'abc'"),
    "blank": (_blank, "CSV payload row 7 is blank"),
    "underscore": (_underscore, "CSV payload row 1 holds non-numeric token '1_0'"),
    "late-non-numeric": (_late_non_numeric, "CSV payload row 14 holds non-numeric token 'abc'"),
    # the first blank row comes before any bad token, as in a whole-payload read
    "token-then-blank": (_token_then_blank, "CSV payload row 13 is blank"),
}


# 64 bytes: blocks of two or three rows, so rows are counted across blocks
@pytest.mark.parametrize("block", [fieldio.CSV_READ_BLOCK, 64])
@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_malformed_csv_row_is_named(tmp_path, case, block):
    edit, message = MALFORMED_CSV[case]
    path = _csv_file(tmp_path)
    _edit_payload(path, edit)
    with mock.patch.object(fieldio, "CSV_READ_BLOCK", block), pytest.raises(FieldFileError) as info:
        read_field(str(path))
    assert str(info.value) == message


def test_csv_width_mismatch_on_every_row(tmp_path):
    path = _csv_file(tmp_path)
    _edit_payload(path, _widen)
    with pytest.raises(FieldFileError, match="expected 2 components, got 3"):
        read_field(str(path))


def _complex_state_files(tmp_path):
    """Field files and a config for file-based eval-complex; returns (nu path, argv)."""
    grid = Grid.periodic(4)
    x, y = grid.meshgrid()
    write_field(VectorField(grid, np.stack([0.3 + 0.1 * np.sin(x), 0.2 * np.cos(y)], -1)), str(tmp_path / "v.field"))
    write_field(ScalarField(grid, 1.5 + 0.2 * np.sin(y)), str(tmp_path / "iota.field"))
    write_field(ScalarField(grid, 0.1 * np.cos(x)), str(tmp_path / "eta.field"))
    nu = tmp_path / "nu.field"
    write_field(OrderField(grid, np.stack([0.4 * np.sin(x), 0.3 * np.cos(y)], -1)), str(nu), encoding="csv")
    state = "".join(f"{key} = {tmp_path}/{key}.field\n" for key in ("v", "iota", "eta", "nu"))
    config = tmp_path / "run.cfg"
    config.write_text(f"[state]\n{state}")
    return nu, ["eval-complex", "--config", str(config), "--out", str(tmp_path / "o")]


def _assert_cli_error(tmp_path, capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"croccolab: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_malformed_csv_through_the_cli_exits_two(tmp_path, capsys, case):
    edit, message = MALFORMED_CSV[case]
    nu, argv = _complex_state_files(tmp_path)
    _edit_payload(nu, edit)
    _assert_cli_error(tmp_path, capsys, argv, message)


# ---------------------------------------------------------------------------
# header checks: every malformed header is a FieldFileError naming its key
# ---------------------------------------------------------------------------


def _set_header(path, key, value):
    """Replace the value of header `key` in a field file."""
    head, payload = path.read_bytes().split(b"\npayload\n", 1)
    lines = [f"{key} = {value}".encode() if line.split(b" = ")[0] == key.encode() else line
             for line in head.split(b"\n")]
    path.write_bytes(b"\n".join(lines) + b"\npayload\n" + payload)


# a 4x4 nu file with m = 2: kind, m and components edited one at a time
LAYOUT_MISMATCHES = {
    "m": ("m", "1", "components = 2 does not match kind 'order' with m = 1 and dim = 2, which has 1"),
    "kind": ("kind", "ordergrad", "components = 2 does not match kind 'ordergrad' with m = 2 and dim = 2, which has 4"),
    "components": ("components", "3", "components = 3 does not match kind 'order' with m = 2 and dim = 2, which has 2"),
    "chart-less kind": ("kind", "vector", "m = 2 does not fit kind 'vector', which needs m = 0"),
    "m zero": ("m", "0", "m = 0 does not fit kind 'order', which needs m >= 1"),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_MISMATCHES))
def test_kind_m_and_components_must_agree(tmp_path, case):
    key, value, message = LAYOUT_MISMATCHES[case]
    nu, _ = _complex_state_files(tmp_path)
    _set_header(nu, key, value)
    with pytest.raises(FieldFileError) as info:
        read_field(str(nu))
    assert str(info.value) == message


@pytest.mark.parametrize("case", sorted(LAYOUT_MISMATCHES))
def test_layout_mismatch_through_the_cli_exits_two(tmp_path, capsys, case):
    key, value, message = LAYOUT_MISMATCHES[case]
    nu, argv = _complex_state_files(tmp_path)
    _set_header(nu, key, value)
    _assert_cli_error(tmp_path, capsys, argv, message)


MALFORMED_HEADERS = {
    "dim": ("two", "header key 'dim' has a malformed value 'two'"),
    "extents": ("4 four", "header key 'extents' has a malformed value '4 four'"),
    "spacing": ("0.25", "header key 'spacing' = '0.25' holds 1 values, expected 2"),
    "boundary": ("periodic reflect", "header grid rejected: boundary policy must be one of"),
    "m": ("2.0", "header key 'm' has a malformed value '2.0'"),
    "components": ("", "header key 'components' = '' holds 0 values, expected 1"),
    "layout": ("column-major", "unsupported layout 'column-major'"),
    "encoding": ("json", "unknown encoding 'json'"),
}


@pytest.mark.parametrize("key", sorted(MALFORMED_HEADERS))
def test_malformed_header_value_is_named(tmp_path, key):
    value, message = MALFORMED_HEADERS[key]
    nu, _ = _complex_state_files(tmp_path)
    _set_header(nu, key, value)
    with pytest.raises(FieldFileError) as info:
        read_field(str(nu))
    assert str(info.value).startswith(message)


def test_nonfinite_spacing_is_a_file_error(tmp_path):
    nu, _ = _complex_state_files(tmp_path)
    _set_header(nu, "spacing", "nan 0.5")
    with pytest.raises(FieldFileError, match="spacing must be positive and finite"):
        read_field(str(nu))


def test_huge_extents_report_the_exact_payload_size(tmp_path):
    nu, _ = _complex_state_files(tmp_path)  # a CSV file: relabel its payload binary
    _set_header(nu, "encoding", "binary")
    _set_header(nu, "extents", "3037000500 3037000500")  # 2**63 < cells * 2 components * 8 bytes
    with pytest.raises(FieldFileError, match="expected 147573952592004000000 bytes"):
        read_field(str(nu))


def test_duplicate_header_key_is_rejected(tmp_path):
    nu, _ = _complex_state_files(tmp_path)
    head, payload = nu.read_bytes().split(b"\npayload\n", 1)
    nu.write_bytes(head + b"\nm = 2\npayload\n" + payload)
    with pytest.raises(FieldFileError, match="duplicate header key 'm'"):
        read_field(str(nu))


def test_binary_payload_labelled_csv_is_a_file_error(tmp_path):
    grid = Grid.periodic(4)
    path = tmp_path / "f.field"
    write_field(ScalarField(grid, np.full(grid.extents, -1.5)), str(path))
    _set_header(path, "encoding", "csv")
    with pytest.raises(FieldFileError, match="payload length mismatch: expected 16 lines, got 1"):
        read_field(str(path))


# ---------------------------------------------------------------------------
# round trip of every kind, shape and encoding, bit for bit
# ---------------------------------------------------------------------------

# -0.0, the smallest and largest subnormals, the smallest normal, +-max double
EDGE_VALUES = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               np.finfo(float).max, -np.finfo(float).max)


@st.composite
def random_fields(draw):
    cls = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    dim = draw(st.sampled_from((2, 3)))
    extents = tuple(draw(st.integers(4, 7 if dim == 2 else 5)) for _ in range(dim))
    spacing = tuple(draw(st.floats(1e-3, 1e3)) for _ in range(dim))
    boundary = tuple(draw(st.sampled_from(("periodic", "one-sided"))) for _ in range(dim))
    grid = Grid(extents, spacing, boundary)
    shape = extents + cls.component_shape(dim, draw(st.integers(1, 3)))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    values = draw(arrays(np.float64, shape, elements=finite | st.sampled_from(EDGE_VALUES)))
    start = draw(st.integers(0, values.size - len(EDGE_VALUES)))
    values.reshape(-1)[start : start + len(EDGE_VALUES)] = EDGE_VALUES
    return cls(grid, values)


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


# values no header key accepts in place of a valid one: one token (every key
# but kind, dim, m and components holds one per axis or more), or one bad
# token per original token: non-numbers, non-integers, values a Grid
# rejects, words no key knows and bytes that are not UTF-8
ONE_TOKEN = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "2.5", "1e400", "periodic", "0 0 0 0", "\udcff"]),
    st.integers(-10, 10**6).map(str),
    st.text("abcxyz-", min_size=1, max_size=8).map(lambda word: "x" + word),
)
PER_TOKEN = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e400", "\udcff", "xyz"])


@settings(max_examples=150, deadline=None)
@given(random_fields(), st.sampled_from(["binary", "csv"]), st.data())
def test_corrupting_one_header_line_is_a_file_error(tmp_path_factory, field, encoding, data):
    path = tmp_path_factory.mktemp("io") / "f.field"
    write_field(field, str(path), encoding=encoding)
    head, payload = path.read_bytes().split(b"\npayload\n", 1)
    lines = head.split(b"\n") + [b"payload"]  # the magic line, the 9 keys and the payload line
    action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if action == "replace":
        i = data.draw(st.integers(1, len(lines) - 2))
        key, _, old = lines[i].partition(b" = ")
        per_token = PER_TOKEN.map(lambda token: " ".join([token] * len(old.split())))
        bad = st.one_of(ONE_TOKEN, per_token).map(lambda v: v.encode("utf-8", "surrogateescape"))
        value = data.draw(bad.filter(lambda v: v != old))
        lines[i] = key + b" = " + value
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if action == "delete" else [lines[i]] * 2
    path.write_bytes(b"\n".join(lines) + b"\n" + payload)
    with pytest.raises(FieldFileError):
        read_field(str(path))


# ---------------------------------------------------------------------------
# the payload encoders: the bytes of one format call per value, streamed
# ---------------------------------------------------------------------------


def _csv_oracle(field) -> bytes:
    """The CSV payload written by formatting every value with its own call."""
    flat = field.values.reshape(field.grid.n_cells, -1)
    return ("\n".join(",".join(format(float(x), ".17g") for x in row) for row in flat) + "\n").encode()


def _payload(path) -> bytes:
    return path.read_bytes().split(b"\npayload\n", 1)[1]


def _random_exponent_values(seed: int, size: int) -> np.ndarray:
    """Signed values with mantissas in [1, 2) and binary exponents over the whole double range."""
    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(1.0, 2.0, size) * rng.choice((-1.0, 1.0), size)
    return np.ldexp(mantissa, rng.integers(-1074, 1024, size))


ENCODER_EDGES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
ENCODER_KINDS = (ScalarField, VectorField, TensorField, OrderField)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ENCODER_KINDS),
    st.sampled_from((2, 3)),
    st.integers(1, 3),
    st.data(),
)
def test_encoders_write_the_per_value_format_bytes_and_round_trip(tmp_path_factory, cls, dim, m, data):
    extents = tuple(data.draw(st.integers(4, 9 if dim == 2 else 5)) for _ in range(dim))
    boundary = tuple(data.draw(st.sampled_from(("periodic", "one-sided"))) for _ in range(dim))
    grid = Grid(extents, (0.5,) * dim, boundary)
    shape = extents + cls.component_shape(dim, m if cls is OrderField else 0)
    values = _random_exponent_values(data.draw(st.integers(0, 2**32 - 1)), math.prod(shape))
    cells = st.integers(0, values.size - 1)
    edges = len(ENCODER_EDGES)
    values[data.draw(st.lists(cells, min_size=edges, max_size=edges, unique=True))] = ENCODER_EDGES
    field = cls(grid, values.reshape(shape))
    tmp = tmp_path_factory.mktemp("enc")
    for encoding in ("csv", "binary"):
        path = tmp / f"f.{encoding}"
        write_field(field, str(path), encoding=encoding)
        if encoding == "csv":
            assert _payload(path) == _csv_oracle(field)
        else:
            assert _payload(path) == field.values.astype("<f8").tobytes()
        back = read_field(str(path))
        assert type(back) is type(field) and back.grid == field.grid
        assert np.array_equal(back.values.view(np.int64), field.values.view(np.int64))


# (field class, extents, m) of a CSV payload below one block, exactly one, several and a rest
_BLOCK = fieldio.CSV_BLOCK_VALUES
BLOCK_CASES = {
    "below-one-block": (ScalarField, (6, 4), 0),
    "one-scalar-block": (ScalarField, (_BLOCK // 64, 64), 0),
    "one-vector-block": (VectorField, (_BLOCK // 128, 64), 0),
    "blocks-and-rest": (TensorField, (_BLOCK // 32 + 3, 16), 0),  # 4 values a row: 2 blocks + 48 rows
    "blocks-and-rest-12-wide": (OrderHessField, (50, 40), 3),  # 12 values a row: rows do not tile a block
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_csv_blocks_join_to_the_per_value_format_bytes(tmp_path, case):
    cls, extents, m = BLOCK_CASES[case]
    dim = len(extents)
    grid = Grid(extents, (0.25,) * dim, ("periodic",) * dim)
    shape = extents + cls.component_shape(dim, m)
    field = cls(grid, _random_exponent_values(sum(extents), math.prod(shape)).reshape(shape))
    path = tmp_path / "f.csv"
    write_field(field, str(path), encoding="csv")
    assert _payload(path) == _csv_oracle(field)
    assert np.array_equal(read_field(str(path)).values.view(np.int64), field.values.view(np.int64))


def test_writes_hold_no_whole_payload_in_memory(tmp_path):
    grid = Grid.periodic(256)
    field = TensorField(grid, np.random.default_rng(1).standard_normal(grid.extents + (2, 2)))
    # the whole CSV text is ~12 MB; one block of it is ~0.2 MB
    assert traced_peak(write_field, field, str(tmp_path / "t.csv"), "csv") < 2_000_000
    # the binary payload is written from the field's own buffer, with no copy of it
    assert traced_peak(write_field, field, str(tmp_path / "t.bin"), "binary") < field.values.nbytes


# ---------------------------------------------------------------------------
# the streamed CSV decoder against the whole-payload reader
# ---------------------------------------------------------------------------

# line ends str.splitlines breaks at (besides "\n"), and a U+0085 byte that is not UTF-8 on its own
LINE_ENDS = (b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1e", "\u2028".encode(), "\x85".encode(), b"\x85")
# bytes that are not UTF-8 (0xa0 and 0x85 are whitespace and a line end in Latin-1), and UTF-8 non-ASCII
NON_ASCII = (b"\xff", b"\xc3", b"\xa0", b"\x85", "\u00a0".encode(), "\u00e9".encode(), "\u2028".encode())
TOKENS = (b"nan", b"-inf", b"inf", b"NaN", b"abc", b"", b" ", b"1.2.3", b"0x10", b"1_0")


def _corrupt(data, rows: list[list[bytes]]) -> None:
    """Apply one drawn corruption to payload rows, each [line, its end]."""
    action = data.draw(st.sampled_from(["blank", "drop", "copy", "end", "last-end", "non-ascii", "ragged", "token"]))
    i = data.draw(st.integers(0, len(rows) - 1))
    if action == "blank":
        rows.insert(data.draw(st.sampled_from([0, len(rows), i])), [b"", b"\n"])
    elif action == "drop":
        del rows[i]
    elif action == "copy":
        rows.insert(i, list(rows[i]))
    elif action == "end":
        rows[i][1] = data.draw(st.sampled_from(LINE_ENDS))
    elif action == "last-end":
        rows[-1][1] = data.draw(st.sampled_from([b""] + list(LINE_ENDS)))
    elif action == "non-ascii":
        edges = [0, len(rows[i][0]), rows[i][0].find(b",") + 1]
        at = data.draw(st.sampled_from(edges) | st.integers(0, len(rows[i][0])))
        rows[i][0] = rows[i][0][:at] + data.draw(st.sampled_from(NON_ASCII)) + rows[i][0][at:]
    elif action == "ragged":
        tokens = rows[i][0].split(b",")
        rows[i][0] = b",".join(tokens[:-1] if len(tokens) > 1 and data.draw(st.booleans()) else tokens + [b"1.5"])
    else:
        tokens = rows[i][0].split(b",")
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(TOKENS))
        rows[i][0] = b",".join(tokens)


def _outcome(read, path):
    """The bits a reader returns, or the type and message of what it raises."""
    try:
        field = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(field), field.grid, field.values.shape, field.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(random_fields(), st.integers(1, 400), st.data())
def test_streamed_csv_decoder_matches_the_whole_payload_reader(tmp_path_factory, field, block, data):
    path = tmp_path_factory.mktemp("io") / "f.csv"
    write_field(field, str(path), encoding="csv")
    head, payload = path.read_bytes().split(b"\npayload\n", 1)
    rows = [[line, b"\n"] for line in payload.split(b"\n")[:-1]]
    corruptions = data.draw(st.integers(0, 3))
    for _ in range(corruptions):
        _corrupt(data, rows)
    path.write_bytes(head + b"\npayload\n" + b"".join(line + end for line, end in rows))
    diagnose = mock.patch.object(fieldio, "_csv_error", wraps=fieldio._csv_error)
    with mock.patch.object(fieldio, "CSV_READ_BLOCK", block), diagnose as error_pass:  # blocks of a few lines
        assert _outcome(read_field, str(path)) == _outcome(read_field_whole, str(path))
    if not corruptions:
        assert not error_pass.called  # a file as written is decoded in one pass


def test_csv_reads_hold_no_list_of_payload_lines(tmp_path):
    # decoding and splitting the whole payload into one list of lines peaked at 5.4-7x the file
    grid = Grid.periodic(256)
    rng = np.random.default_rng(2)
    for field in (ScalarField(grid, rng.standard_normal(grid.extents)),
                  OrderField(grid, rng.standard_normal(grid.extents + (2,)))):
        path = tmp_path / f"{field.kind}.csv"
        write_field(field, str(path), encoding="csv")
        assert traced_peak(read_field, str(path)) < 2.5 * path.stat().st_size
        assert read_field(str(path)).values.tobytes() == field.values.tobytes()


def _last_token(lines):
    lines[-1] = lines[-1].split(",")[0] + ",abc"


def _last_ragged(lines):
    lines[-1] += ",1.5"


def _last_blank(lines):
    lines[-1] = ""


def _missing_row(lines):
    del lines[len(lines) // 2]


MALFORMED_LAST = {"token": _last_token, "ragged": _last_ragged, "blank": _last_blank, "missing": _missing_row}


@pytest.mark.parametrize("case", sorted(MALFORMED_LAST))
def test_malformed_csv_reads_hold_no_list_of_payload_lines(tmp_path, case):
    # decoding and splitting the whole payload again to name the bad row peaked at 4.4x the file
    grid = Grid.periodic(256)
    path = tmp_path / "order.csv"
    write_field(OrderField(grid, np.random.default_rng(2).standard_normal(grid.extents + (2,))), str(path), "csv")
    _edit_payload(path, MALFORMED_LAST[case])
    peak = traced_peak(_outcome, read_field, str(path))
    outcome = _outcome(read_field, str(path))
    assert outcome == _outcome(read_field_whole, str(path))
    assert outcome[0] is FieldFileError
    assert peak < 2.5 * path.stat().st_size
