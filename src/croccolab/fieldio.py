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

``kind`` names the field class and ``m`` is its chart dimension, >= 1
for the order-parameter kinds and 0 for the others; ``components``, the
values per cell, is the product of the class's ``component_shape(dim, m)``.
A read checks the header before the payload: every key above appears
once, each value parses and ``extents``, ``spacing`` and ``boundary``
make a ``Grid``, and ``kind``, ``m`` and ``components`` agree (a byte that is
not UTF-8 reads as U+FFFD and fails the check of its value).  Any
violation raises ``FieldFileError`` naming the key.

A binary payload is viewed in place with ``np.frombuffer``.  A CSV payload
is decoded in one C-level pass by ``np.loadtxt`` (comma delimiter, no
comment character), after the reader has checked that it has one line per
cell and no blank line.  A malformed CSV payload raises ``FieldFileError``
naming the first bad row, counted from 1 at the line after ``payload``: a
blank row, a row with the wrong number of values, or a row holding a
token that is not a number.  A payload whose every row has the same wrong
width is reported as a width mismatch.  Non-finite values parse, and the
field constructor then rejects them with their cell index.
"""

from __future__ import annotations

import numpy as np

import math

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
_PAYLOAD_LINE = b"\npayload\n"

KINDS = {cls.kind: cls for cls in (ScalarField, VectorField, TensorField, OrderField, OrderGradField, OrderHessField)}

LAYOUT = "row-major component-fastest"
ENCODINGS = ("binary", "csv")
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
            fh.write(flat.astype("<f8").tobytes())
        else:
            lines = "\n".join(",".join(_fmt(x) for x in row) for row in flat)
            fh.write((lines + "\n").encode("utf-8"))


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


def read_field(path: str) -> Field:
    """Read a field written by :func:`write_field` (bit-exact round trip)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith((MAGIC + "\n").encode("utf-8")):
        got = blob.split(b"\n", 1)[0][:40]
        raise FieldFileError(f"magic mismatch: expected {MAGIC!r}, got {got!r}")
    mark = blob.find(_PAYLOAD_LINE)
    if mark < 0:
        raise FieldFileError("missing payload line")
    header = _parse_header(blob[len(MAGIC) + 1 : mark + 1].decode("utf-8", "replace").splitlines())
    payload = blob[mark + len(_PAYLOAD_LINE) :]

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
        lines = payload.decode("utf-8", "replace").splitlines()
        if "" in lines:  # np.loadtxt would skip it and shift every later row
            raise FieldFileError(f"CSV payload row {lines.index('') + 1} is blank")
        if len(lines) != n_cells:
            raise FieldFileError(
                f"payload length mismatch: expected {n_cells} lines, got {len(lines)}"
            )
        try:
            flat = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError as exc:
            message = _csv_row_error(lines, components) or f"malformed CSV payload: {exc}"
            raise FieldFileError(message) from exc
        if flat.shape[1] != components:
            raise FieldFileError(
                f"payload width mismatch: expected {components} components, got {flat.shape[1]}"
            )

    # the constructor re-checks finiteness with position
    return cls(grid, flat.reshape(grid.extents + shape))


def _csv_row_error(lines: list[str], components: int) -> str | None:
    """Name the first CSV payload row (counted from 1) that is not `components` numbers."""
    for row, line in enumerate(lines, 1):
        tokens = line.split(",")
        if len(tokens) != components:
            return f"CSV payload row {row} has {len(tokens)} values, expected {components}"
        for token in tokens:
            try:
                float(token)
            except ValueError:
                return f"CSV payload row {row} holds non-numeric token {token.strip()!r}"
    return None
