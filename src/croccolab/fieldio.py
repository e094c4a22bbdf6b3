"""CROCCOFIELD v1 field files: greppable text header, exact payload.

Layout::

    CROCCOFIELD v1
    kind = vector
    dim = 2
    extents = 64 64
    spacing = 0.098174770424681035 0.098174770424681035
    boundary = periodic periodic
    m = 0
    components = 2
    layout = row-major component-fastest
    encoding = binary
    payload
    <raw little-endian float64, or one CSV line per cell>

The payload holds cells in row-major order with components fastest (the
in-memory layout of the field arrays).  Binary payloads are raw IEEE-754
doubles; CSV payloads print 17 significant digits, so both encodings
round-trip bit-exactly.

A binary payload is written straight from the field array's own buffer,
with no copy.  A CSV payload is written in blocks of rows of about
``CSV_BLOCK_VALUES`` values: one ``%.17g`` row format, repeated for the
rows of the block, is applied to the block's values at once, and each
block is encoded and written before the next is formatted.  ``%.17g`` and
``format(x, ".17g")`` print a double through the same conversion, so the
bytes are those of formatting every value by itself.

``kind`` names the field class and ``m`` is its chart dimension, >= 1
for the order-parameter kinds and 0 for the others; ``components``, the
values per cell, is the product of the class's ``component_shape(dim, m)``.
A read checks the header before the payload: every key above appears
once, each value parses and ``extents``, ``spacing`` and ``boundary``
make a ``Grid``, and ``kind``, ``m`` and ``components`` agree (a byte that is
not UTF-8 reads as U+FFFD and fails the check of its value).  Any
violation raises ``FieldFileError`` naming the key.

A read takes the header line by line from the head of the file and then
the payload in one sized read, so the payload's bytes are held once and
never sliced.  A binary payload is viewed in place with ``np.frombuffer``.
A CSV payload is streamed to ``np.loadtxt`` (comma delimiter, no comment
character) as lines decoded and split one block of about
``CSV_READ_BLOCK`` bytes at a time, so one block's line strings are all
that exist at once.  A block ends just after a ``\\n``, so its lines are
those of the whole payload split at once, and the stream stops at the
first blank row, which ``np.loadtxt`` would skip.  A payload that fails the
parse or decodes to a row count other than the cell count is walked once
more in the same blocks, counting rows, so a malformed read holds no more
lines at once.  It raises ``FieldFileError``: the first blank row, else a
line count that is not the cell count, else the first row with the wrong
number of values or a token that ``np.loadtxt`` does not read as a number,
rows counted from 1 at the line after ``payload``.  A payload whose every
row has the same wrong width is reported as a width mismatch.  Non-finite
values parse, and the field constructor then rejects them with their cell
index.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .fieldcalc import (
    Field,
    Grid,
    GridError,
    OrderField,
    OrderGradField,
    OrderHessField,
    ScalarField,
    TensorField,
    VectorField,
)

MAGIC = "CROCCOFIELD v1"
_MAGIC_LINE = (MAGIC + "\n").encode("utf-8")
_PAYLOAD_LINE = b"payload\n"

KINDS = {cls.kind: cls for cls in (ScalarField, VectorField, TensorField, OrderField, OrderGradField, OrderHessField)}

LAYOUT = "row-major component-fastest"
ENCODINGS = ("binary", "csv")
# values per CSV block; a block's text (at most ~25 bytes a value) is all the payload text held
# at once, whatever the field's size
CSV_BLOCK_VALUES = 8192
# bytes per block of a streamed CSV read; a block's lines are all the payload text decoded at once
CSV_READ_BLOCK = 1 << 16
_CSV_LOADTXT = {"delimiter": ",", "comments": None, "dtype": float, "ndmin": 2}
_KEYS = ("kind", "dim", "extents", "spacing", "boundary", "m", "components", "layout", "encoding")


class FieldFileError(ValueError):
    """Malformed field file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_field(field: Field, path: str, encoding: str = "binary") -> None:
    """Write a field; `encoding` is "binary" or "csv"."""
    if encoding not in ENCODINGS:
        raise FieldFileError(f"encoding must be 'binary' or 'csv', got {encoding!r}")
    if KINDS.get(getattr(field, "kind", None)) is not type(field):
        raise FieldFileError(f"cannot serialize {type(field).__name__}")
    grid = field.grid
    header = [
        MAGIC,
        f"kind = {field.kind}",
        f"dim = {grid.dim}",
        "extents = " + " ".join(str(n) for n in grid.extents),
        "spacing = " + " ".join(_fmt(h) for h in grid.spacing),
        "boundary = " + " ".join(grid.boundary),
        f"m = {field.m}",
        f"components = {math.prod(field.values.shape[grid.dim :])}",
        f"layout = {LAYOUT}",
        f"encoding = {encoding}",
        "payload",
    ]
    flat = field.values.reshape(grid.n_cells, -1)
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        if encoding == "binary":
            fh.write(np.ascontiguousarray(flat, dtype="<f8"))
        else:
            # "%.17g" % x and format(x, ".17g") print through one double-to-string conversion, so
            # one format per block writes the bytes of one format call per value
            row = ",".join(["%.17g"] * flat.shape[1]) + "\n"
            rows = max(1, CSV_BLOCK_VALUES // flat.shape[1])
            for i0 in range(0, grid.n_cells, rows):
                block = flat[i0 : i0 + rows]
                fh.write(((row * len(block)) % tuple(block.ravel().tolist())).encode("ascii"))


def _parse_header(lines: list[str]) -> dict[str, str]:
    header: dict[str, str] = {}
    for line in lines:
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise FieldFileError(f"malformed header line {line!r}")
        if key in header:
            raise FieldFileError(f"duplicate header key {key!r}")
        header[key] = value.strip()
    for key in _KEYS:
        if key not in header:
            raise FieldFileError(f"missing header key {key!r}")
    return header


def _values(header: dict[str, str], key: str, parse, count: int) -> tuple:
    """The `count` whitespace-separated values of header `key`, each read by `parse`."""
    raw = header[key]
    try:
        values = tuple(parse(token) for token in raw.split())
    except ValueError:
        raise FieldFileError(f"header key {key!r} has a malformed value {raw!r}") from None
    if len(values) != count:
        raise FieldFileError(f"header key {key!r} = {raw!r} holds {len(values)} values, expected {count}")
    return values


def _read_header(fh) -> dict[str, str]:
    """The header of an open field file, read line by line up to the payload line, where it leaves the file."""
    first = fh.readline()
    if first != _MAGIC_LINE:
        got = first.rstrip(b"\n")[:40]
        raise FieldFileError(f"magic mismatch: expected {MAGIC!r}, got {got!r}")
    lines = []
    for line in iter(fh.readline, b""):
        if line == _PAYLOAD_LINE:
            return _parse_header(b"".join(lines).decode("utf-8", "replace").splitlines())
        lines.append(line)
    raise FieldFileError("missing payload line")


def read_field(path: str) -> Field:
    """Read a field written by :func:`write_field` (bit-exact round trip)."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        # one sized read: a bare fh.read() joins the buffered head of the payload to the rest, a copy
        payload = fh.read(os.fstat(fh.fileno()).st_size - fh.tell())

    kind = header["kind"]
    cls = KINDS.get(kind)
    if cls is None:
        raise FieldFileError(f"unknown kind {kind!r}")
    (dim,) = _values(header, "dim", int, 1)
    extents = _values(header, "extents", int, dim)
    spacing = _values(header, "spacing", float, dim)
    boundary = _values(header, "boundary", str, dim)
    (m,) = _values(header, "m", int, 1)
    (components,) = _values(header, "components", int, 1)
    if header["layout"] != LAYOUT:
        raise FieldFileError(f"unsupported layout {header['layout']!r}")
    encoding = header["encoding"]
    if encoding not in ENCODINGS:
        raise FieldFileError(f"unknown encoding {encoding!r}")
    try:
        grid = Grid(extents, spacing, boundary)
    except GridError as exc:
        raise FieldFileError(f"header grid rejected: {exc}") from None
    chart = "m" in cls.axes
    if (m < 1) if chart else (m != 0):
        raise FieldFileError(f"m = {m} does not fit kind {kind!r}, which needs m {'>= 1' if chart else '= 0'}")
    shape = cls.component_shape(dim, m)
    if math.prod(shape) != components:
        raise FieldFileError(
            f"components = {components} does not match kind {kind!r} with m = {m} and dim = {dim},"
            f" which has {math.prod(shape)}"
        )
    n_cells = grid.n_cells

    if encoding == "binary":
        expected = n_cells * components * 8
        if len(payload) != expected:
            raise FieldFileError(
                f"payload length mismatch: expected {expected} bytes, got {len(payload)}"
            )
        flat = np.frombuffer(payload, dtype="<f8")
    else:
        flat = _csv_values(payload, n_cells, components)
        del payload  # freed before the field copies the values

    # the constructor re-checks finiteness with position
    return cls(grid, flat.reshape(grid.extents + shape))


def _line_blocks(payload: bytes):
    """The payload's lines, decoded and split one block of about ``CSV_READ_BLOCK`` bytes at a time.

    A block ends just after a ``\\n``, which ends a line for ``str.splitlines``
    too and is never part of a UTF-8 sequence, so the blocks' lines are
    those of the whole payload, decoded and split at once.  The first blank
    row, which ``np.loadtxt`` would skip and so shift every later row, raises.
    """
    view = memoryview(payload)
    start = row = 0
    while start < len(payload):
        end = payload.find(b"\n", start + CSV_READ_BLOCK) + 1 or len(payload)
        lines = str(view[start:end], "utf-8", "replace").splitlines()
        if not all(lines):
            raise FieldFileError(f"CSV payload row {row + lines.index('') + 1} is blank")
        yield lines
        row += len(lines)
        start = end


def _csv_values(payload: bytes, n_cells: int, components: int) -> np.ndarray:
    """Decode a CSV payload streamed in blocks of lines; with no blank row, each line is one row."""
    flat = error = None
    if payload:  # np.loadtxt warns on input with no lines
        try:
            flat = np.loadtxt(itertools.chain.from_iterable(_line_blocks(payload)), **_CSV_LOADTXT)
        except ValueError as exc:  # a blank row's FieldFileError too, which _csv_error raises again
            error = exc
    if flat is None or len(flat) != n_cells:
        raise FieldFileError(_csv_error(payload, n_cells, components, error)) from error
    if flat.shape[1] != components:
        raise FieldFileError(f"payload width mismatch: expected {components} components, got {flat.shape[1]}")
    return flat


def _csv_error(payload: bytes, n_cells: int, components: int, error: ValueError | None) -> str:
    """Name what is wrong with a CSV payload the decode rejected, in one more streamed pass.

    The first blank row raises; else a line count that is not `n_cells`,
    the first row that is not `components` numbers, or `error`.
    """
    row, bad = 0, None
    for lines in _line_blocks(payload):
        bad = bad or _csv_row_error(lines, components, row + 1)
        row += len(lines)
    if row != n_cells:
        return f"payload length mismatch: expected {n_cells} lines, got {row}"
    return bad or f"malformed CSV payload: {error}"


def _csv_row_error(lines: list[str], components: int, first: int) -> str | None:
    """Name the first CSV row (counted from `first`) that ``np.loadtxt`` does not read as `components` numbers."""
    for row, line in enumerate(lines, first):
        tokens = line.split(",")
        if len(tokens) != components:
            return f"CSV payload row {row} has {len(tokens)} values, expected {components}"
        for token in map(str.strip, tokens):
            try:
                if not token.isascii() or "_" in token:  # float() takes these, np.loadtxt does not
                    raise ValueError(token)
                float(token)
            except ValueError:
                return f"CSV payload row {row} holds non-numeric token {token!r}"
    return None
