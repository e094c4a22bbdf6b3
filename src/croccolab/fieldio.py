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
round-trip bit-exactly.  ``m`` is the chart dimension for order-parameter
kinds and 0 otherwise.

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

from .fieldcalc import (
    Field,
    Grid,
    OrderField,
    OrderGradField,
    OrderHessField,
    ScalarField,
    TensorField,
    VectorField,
)

MAGIC = "CROCCOFIELD v1"
_PAYLOAD_MARK = b"payload\n"

_KIND_BY_CLASS = {
    ScalarField: "scalar",
    VectorField: "vector",
    TensorField: "tensor",
    OrderField: "order",
    OrderGradField: "ordergrad",
    OrderHessField: "orderhess",
}
_CLASS_BY_KIND = {v: k for k, v in _KIND_BY_CLASS.items()}

LAYOUT = "row-major component-fastest"


class FieldFileError(ValueError):
    """Malformed field file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _components(field: Field) -> int:
    n = 1
    for s in field.values.shape[field.grid.dim :]:
        n *= s
    return n


def _chart_m(field: Field) -> int:
    return getattr(field, "m", 0) if isinstance(field, (OrderField, OrderGradField, OrderHessField)) else 0


def write_field(field: Field, path: str, encoding: str = "binary") -> None:
    """Write a field; `encoding` is "binary" or "csv"."""
    if encoding not in ("binary", "csv"):
        raise FieldFileError(f"encoding must be 'binary' or 'csv', got {encoding!r}")
    kind = _KIND_BY_CLASS.get(type(field))
    if kind is None:
        raise FieldFileError(f"cannot serialize {type(field).__name__}")
    grid = field.grid
    header = [
        MAGIC,
        f"kind = {kind}",
        f"dim = {grid.dim}",
        "extents = " + " ".join(str(n) for n in grid.extents),
        "spacing = " + " ".join(_fmt(h) for h in grid.spacing),
        "boundary = " + " ".join(grid.boundary),
        f"m = {_chart_m(field)}",
        f"components = {_components(field)}",
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
        if "=" not in line:
            raise FieldFileError(f"malformed header line {line!r}")
        key, _, value = line.partition("=")
        header[key.strip()] = value.strip()
    return header


def read_field(path: str) -> Field:
    """Read a field written by :func:`write_field` (bit-exact round trip)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    mark = blob.find(_PAYLOAD_MARK)
    if mark < 0 or not blob.startswith((MAGIC + "\n").encode("utf-8")):
        got = blob.split(b"\n", 1)[0][:40]
        raise FieldFileError(f"magic mismatch: expected {MAGIC!r}, got {got!r}")
    head_text = blob[: mark].decode("utf-8").splitlines()
    payload = blob[mark + len(_PAYLOAD_MARK) :]
    header = _parse_header(head_text[1:])

    try:
        kind = header["kind"]
        dim = int(header["dim"])
        extents = tuple(int(t) for t in header["extents"].split())
        spacing = tuple(float(t) for t in header["spacing"].split())
        boundary = tuple(header["boundary"].split())
        m = int(header["m"])
        components = int(header["components"])
        encoding = header["encoding"]
    except KeyError as exc:
        raise FieldFileError(f"missing header key {exc}") from exc
    if header.get("layout") != LAYOUT:
        raise FieldFileError(f"unsupported layout {header.get('layout')!r}")
    if kind not in _CLASS_BY_KIND:
        raise FieldFileError(f"unknown kind {kind!r}")
    if len(extents) != dim:
        raise FieldFileError("extents length does not match dim")
    grid = Grid(extents, spacing, boundary)
    n_cells = grid.n_cells

    if encoding == "binary":
        expected = n_cells * components * 8
        if len(payload) != expected:
            raise FieldFileError(
                f"payload length mismatch: expected {expected} bytes, got {len(payload)}"
            )
        flat = np.frombuffer(payload, dtype="<f8").reshape(n_cells, components)
    elif encoding == "csv":
        lines = payload.decode("utf-8").splitlines()
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
    else:
        raise FieldFileError(f"unknown encoding {encoding!r}")

    shape = _component_shape(kind, dim, m)
    values = flat.reshape(grid.extents + shape)
    cls = _CLASS_BY_KIND[kind]
    return cls(grid, values)  # the constructor re-checks finiteness with position


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


def _component_shape(kind: str, dim: int, m: int) -> tuple[int, ...]:
    if kind == "scalar":
        return ()
    if kind == "vector":
        return (dim,)
    if kind == "tensor":
        return (dim, dim)
    if kind == "order":
        return (m,)
    if kind == "ordergrad":
        return (m, dim)
    return (m, dim, dim)
