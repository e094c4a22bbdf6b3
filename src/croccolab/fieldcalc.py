"""Structured grids, immutable field containers, and finite-difference operators.

Index conventions (normative for the whole package)
---------------------------------------------------
* Grid axes are ordered ``(x, y[, z])`` and array axis ``a`` of every field
  indexes coordinate axis ``a`` (``meshgrid(indexing="ij")`` convention).
  Cell ``(i, j[, k])`` sits at ``x = i*h_x`` and so on; a periodic axis of
  extent ``n`` covers ``[0, n*h)`` with ``n*h`` identified with ``0``.
* Component axes trail the cell axes and arrays are C-ordered, so the
  flattened memory layout is row-major over cells with components varying
  fastest.  Each field class declares its name in field files, ``kind``,
  and its trailing ``axes``, from which the constructor derives the shape
  it checks (``dim`` is the grid's; ``m``, the chart dimension, is read
  off the values, must be >= 1, and is 0 for a kind without a chart)::

      ScalarField     scalar     ()
      VectorField     vector     (dim,)         values[..., i]
      TensorField     tensor     (dim, dim)     values[..., i, j]: row i, column j
      OrderField      order      (m,)           values[..., a] = nu^a
      OrderGradField  ordergrad  (m, dim)       values[..., a, i] = d nu^a / d x_i
      OrderHessField  orderhess  (m, dim, dim)  values[..., a, i, j] = d^2 nu^a / (d x_i d x_j)

* ``div_tensor`` contracts the LAST index: ``(div T)_i = d T_ij / d x_j``.
  This convention is what makes the product-rule expansion of the dyadic
  stress ``grad(f) (x) w`` come out as ``(div w) grad(f) + (grad^2 f) w``.

All first derivatives are second-order central differences from one slice
stencil, ``_diff``, for both boundary policies: a periodic axis wraps, and a
one-sided axis closes its two end cells with the second-order one-sided
formulas of ``np.gradient(..., edge_order=2)``, operation for operation.  One
generic path serves every rank, and this module is the only place that
loops over coordinate axes.  ``_grad`` appends a trailing derivative axis to
an array of any rank, ``_diff`` writing each derivative into its slot,
``_div`` contracts its last axis, ``_hess`` writes ``d_i (d_j a)`` into a
C-contiguous array indexed ``[..., i, j]`` (``_grad`` applied twice, its last
two axes swapped) and ``_advect`` is steady advection.  Second derivatives
are therefore repeated first derivatives, which makes mixed partials
symmetric to rounding.  The typed operators below (grad, div, Jacobian,
Hessian, the ``order_*`` operators, steady advection) are thin wrappers over
these helpers.  The relation and transport modules call the helpers on plain
intermediate arrays: a field, whose values are checked finite, is built only
for a state, a report's terms and the result of a public function.

Sums over component axes go through two contraction helpers: ``_dot`` sums
``a[..., k] * b[..., k]`` over trailing axes and ``_dyadic`` is the chart sum
``sum_a g[..., a, i] * s[..., a, j]``.  Both add whole-grid component slices
one by one from +0, the order in which np.sum adds a short axis and
np.einsum a chart axis, so they give those functions' bits without their
cost on axes two to four elements long.  ``_grad_dot`` and ``_hess_dot``
contract a first or second gradient with a component array as each
derivative is taken, with the bits of ``_dyadic`` over the materialized
``_grad`` or ``_hess`` tensor and one derivative slice alive at a time, and
``_div_dyadic`` takes ``_div`` of ``_dyadic`` one slot at a time.

Every operator is a pure function: fields are immutable after construction
(their arrays are marked read-only) and operators allocate fresh arrays, so
fields may be shared freely across threads and identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

PERIODIC = "periodic"
ONE_SIDED = "one-sided"
_POLICIES = (PERIODIC, ONE_SIDED)

TWO_PI = 2.0 * math.pi

# Errors below this are treated as "exactly zero" by refinement fits.
EXACT_ERROR_FLOOR = 1e-13


class GridError(ValueError):
    """Invalid grid construction parameters."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class FieldShapeError(ValueError):
    """Field values have the wrong shape for their grid."""


class FieldValueError(ValueError):
    """Field values contain non-finite entries."""


class RefinementError(ValueError):
    """Refinement study input is malformed."""


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid with a fixed per-axis boundary policy."""

    extents: tuple[int, ...]
    spacing: tuple[float, ...]
    boundary: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        object.__setattr__(self, "boundary", tuple(str(b) for b in self.boundary))
        dim = len(self.extents)
        if dim not in (2, 3):
            raise GridError(f"grid must be 2-D or 3-D, got {dim} axes")
        if len(self.spacing) != dim or len(self.boundary) != dim:
            raise GridError("extents, spacing and boundary must have equal length")
        if any(n < 4 for n in self.extents):
            raise GridError(f"need at least 4 cells per axis for the stencils, got {self.extents}")
        if any(not (h > 0.0 and math.isfinite(h)) for h in self.spacing):
            raise GridError(f"spacing must be positive and finite, got {self.spacing}")
        if any(b not in _POLICIES for b in self.boundary):
            raise GridError(f"boundary policy must be one of {_POLICIES}, got {self.boundary}")

    @classmethod
    def periodic(cls, n: int, dim: int = 2, length: float = TWO_PI) -> "Grid":
        """Periodic box [0, length)^dim with n cells per axis."""
        if n < 4:  # before n divides the length
            raise GridError(f"need at least 4 cells per axis for the stencils, got {n}")
        return cls((n,) * dim, (length / n,) * dim, (PERIODIC,) * dim)

    @classmethod
    def one_sided(cls, extents: Sequence[int], spacing: Sequence[float]) -> "Grid":
        return cls(tuple(extents), tuple(spacing), (ONE_SIDED,) * len(tuple(extents)))

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def n_cells(self) -> int:
        return math.prod(self.extents)  # exact: np.prod wraps at 2**63

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.extents[axis]) * self.spacing[axis]

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*(self.axis_coords(a) for a in range(self.dim)), indexing="ij"))


def _first_index(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first true entry of `mask` in C order: the cell an error message names."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _trailing_shape(axes: tuple[str, ...], dim: int, m: int) -> tuple[int, ...]:
    # shared by Field.__init__ and Field.component_shape; the constructor skips
    # the public method, which the benchmark tracer would count as a second
    # span per field
    return tuple(m if axis == "m" else dim for axis in axes)


class Field:
    """Immutable cell-valued samples on a grid.  Base class, do not instantiate.

    A subclass declares ``kind`` and ``axes``; see the module docstring.
    """

    kind: str
    axes: tuple[str, ...]

    def __init__(self, grid: Grid, values: np.ndarray | Sequence) -> None:
        arr = np.array(values, dtype=float, order="C")
        chart = "m" in self.axes
        m = arr.shape[grid.dim] if chart and arr.ndim > grid.dim else 0
        expected = grid.extents + _trailing_shape(self.axes, grid.dim, m)
        if arr.shape != expected or (chart and m < 1):
            want = f"extents + ({', '.join(self.axes)}) with dim = {grid.dim}, m >= 1" if chart else expected
            raise FieldShapeError(f"{type(self).__name__} on {grid.extents} expects shape {want}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FieldValueError(
                f"non-finite value at index {_first_index(~np.isfinite(arr))} of {type(self).__name__}"
            )
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr
        self.m = m

    @classmethod
    def component_shape(cls, dim: int, m: int) -> tuple[int, ...]:
        """Trailing shape of this kind on a dim-D grid with chart dimension m."""
        return _trailing_shape(cls.axes, dim, m)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(extents={self.grid.extents})"


class ScalarField(Field):
    """One value per cell."""
    kind, axes = "scalar", ()


class VectorField(Field):
    """A value per coordinate axis."""
    kind, axes = "vector", ("dim",)


class TensorField(Field):
    """A rank-2 tensor; ``div_tensor`` contracts its last index."""
    kind, axes = "tensor", ("dim", "dim")


class OrderField(Field):
    """Order-parameter samples in a flat m-dimensional chart."""
    kind, axes = "order", ("m",)


class OrderGradField(Field):
    """Chart-wise gradient of an order parameter."""
    kind, axes = "ordergrad", ("m", "dim")


class OrderHessField(Field):
    """Chart-wise second gradient of an order parameter."""
    kind, axes = "orderhess", ("m", "dim", "dim")


def require_same_grid(*fields: Field) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("fields live on different grids")
    return grid


# ---------------------------------------------------------------------------
# derivative core
# ---------------------------------------------------------------------------


def _diff(grid: Grid, values: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Second-order d/dx_axis of an array whose leading axes are the cell axes, into `out` if given."""
    h = grid.spacing[axis]
    lead = (slice(None),) * axis
    ahead, behind, inner = (lead + (s,) for s in (slice(2, None), slice(None, -2), slice(1, -1)))
    # the differences go to a contiguous buffer and the division by 2h writes `out`: into a
    # strided slot of a gradient, one strided pass instead of two
    diffs = np.empty(values.shape)
    out = diffs if out is None else out
    # (a[i+1] - a[i-1]) / 2h with the neighbours read as slices, for either policy
    np.subtract(values[ahead], values[behind], out=diffs[inner])
    if grid.boundary[axis] == PERIODIC:
        # the two wrap cells: the roll formula's arithmetic without its copies
        np.subtract(values[lead + (1,)], values[lead + (-1,)], out=diffs[lead + (0,)])
        np.subtract(values[lead + (0,)], values[lead + (-2,)], out=diffs[lead + (-1,)])
        return np.divide(diffs, 2.0 * h, out=out)
    np.divide(diffs[inner], 2.0 * h, out=out[inner])
    # the one-sided ends: np.gradient's edge_order=2 formulas, operation for operation
    for end, cells, coefs in ((0, (0, 1, 2), (-1.5, 2.0, -0.5)), (-1, (-3, -2, -1), (0.5, -2.0, 1.5))):
        edge = out[lead + (end,)]
        np.multiply(coefs[0] / h, values[lead + (cells[0],)], out=edge)
        edge += (coefs[1] / h) * values[lead + (cells[1],)]
        edge += (coefs[2] / h) * values[lead + (cells[2],)]
    return out


def _grad(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Gradient of any rank: out[..., i] = d a[...] / d x_i, a trailing derivative axis."""
    out = np.empty(a.shape + (grid.dim,))
    for i in range(grid.dim):
        _diff(grid, a, i, out=out[..., i])
    return out


def _div(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Divergence of any rank over the LAST axis: out[...] = sum_j d a[..., j] / d x_j."""
    out = _diff(grid, a[..., 0], 0)
    for j in range(1, grid.dim):
        out += _diff(grid, a[..., j], j)
    return out


def _hess(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Second gradient of any rank, C-contiguous: out[..., i, j] = d_i (d_j a[...])."""
    out = np.empty(a.shape + (grid.dim, grid.dim))
    for j in range(grid.dim):
        first = _diff(grid, a, j)
        for i in range(grid.dim):
            _diff(grid, first, i, out=out[..., i, j])
    return out


def grad_scalar(f: ScalarField) -> VectorField:
    """Gradient of a scalar field: out[..., i] = df/dx_i."""
    return VectorField(f.grid, _grad(f.grid, f.values))


def div_vector(u: VectorField) -> ScalarField:
    """Divergence: sum_i d u_i / d x_i."""
    return ScalarField(u.grid, _div(u.grid, u.values))


def _curl(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Curl of vector values: ``d v_y/d x - d v_x/d y`` per cell in 2-D, the vector curl in 3-D."""
    d = lambda comp, axis: _diff(grid, values[..., comp], axis)  # noqa: E731
    if grid.dim == 2:
        return d(1, 0) - d(0, 1)
    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-1)


def curl_vector(u: VectorField) -> VectorField | ScalarField:
    """Curl of a vector field: the vector curl in 3-D, and in 2-D the planar
    convention's single out-of-plane component ``d u_y/d x - d u_x/d y`` as a ScalarField."""
    return (ScalarField if u.grid.dim == 2 else VectorField)(u.grid, _curl(u.grid, u.values))


def grad_vector(u: VectorField) -> TensorField:
    """Jacobian: out[..., i, j] = d u_i / d x_j."""
    return TensorField(u.grid, _grad(u.grid, u.values))


def div_tensor(t: TensorField) -> VectorField:
    """Divergence of a rank-2 field, contracting the LAST index.

    (div T)_i = d T_ij / d x_j.  The convention is normative; see the module
    docstring.
    """
    return VectorField(t.grid, _div(t.grid, t.values))


def hessian_scalar(f: ScalarField) -> TensorField:
    """Second gradient of a scalar: out[..., i, j] = d^2 f / (dx_i dx_j).

    Built as repeated first derivatives, so mixed partials are symmetric to
    rounding and the truncation order is O(h^2) throughout.
    """
    return TensorField(f.grid, _hess(f.grid, f.values))


def order_grad(nu: OrderField) -> OrderGradField:
    """Chart-wise gradient: out[..., a, i] = d nu^a / d x_i."""
    return OrderGradField(nu.grid, _grad(nu.grid, nu.values))


def order_second_grad(nu: OrderField) -> OrderHessField:
    """Chart-wise second gradient: out[..., a, i, j] = d^2 nu^a / (dx_i dx_j)."""
    return OrderHessField(nu.grid, _hess(nu.grid, nu.values))


def _advect(grid: Grid, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(v . grad) a for an array of any rank and velocity values v."""
    vb = v.reshape(grid.extents + (1,) * (a.ndim - grid.dim) + (grid.dim,))
    out = np.zeros_like(a)
    for i in range(grid.dim):
        d = _diff(grid, a, i)
        d *= vb[..., i]
        out += d
    return out


def advect_steady(f: Field, v: VectorField) -> Field:
    """Steady material derivative (v . grad) f, componentwise, same rank as f."""
    grid = require_same_grid(f, v)
    return type(f)(grid, _advect(grid, f.values, v.values))


# ---------------------------------------------------------------------------
# component contractions
# ---------------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray, axes: int = 1) -> np.ndarray:
    """sum of a * b over the trailing `axes` axes of `a` (b broadcasts), as np.sum adds it.

    Below 8 terms np.sum adds them one by one in C order of those axes,
    from +0, and so does this loop over whole-grid component slices, which
    skips np.sum's cost on a short innermost axis; the closing ``+ 0.0`` is
    the +0 start, turning an all -0 sum into +0 and leaving every other sum
    as it is.  From 8 terms on np.sum adds pairwise, and the sum is its own.
    """
    keys = [(Ellipsis,) + k for k in itertools.product(*map(range, a.shape[a.ndim - axes:]))]
    if len(keys) >= 8:
        return np.sum(a * b, axis=tuple(range(-axes, 0)))
    acc = a[keys[0]] * b[keys[0]]
    for k in keys[1:]:
        acc += a[k] * b[k]
    acc += 0.0
    return acc


def _dyadic(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Chart sum out[..., i, j] = sum_a g[..., a, i] * s[..., a, j], as np.einsum("...ai,...aj->...ij") adds it.

    One accumulator per (i, j) over whole-grid component slices: the
    broadcast product summed over the chart axis runs inner loops m long.
    The terms are added in chart order for any m, and the write into `out`
    adds the +0 that np.einsum starts from.
    """
    out = np.empty(g.shape[:-2] + (g.shape[-1], s.shape[-1]))
    for i in range(g.shape[-1]):
        for j in range(s.shape[-1]):
            acc = g[..., 0, i] * s[..., 0, j]
            for a in range(1, g.shape[-2]):
                acc += g[..., a, i] * s[..., a, j]
            np.add(acc, 0.0, out=out[..., i, j])
    return out


def _div_dyadic(grid: Grid, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``_div(grid, _dyadic(g, s))`` with its bits, one slot ``D_ij`` of the dyadic alive at a time.

    Each slot is ``_dyadic`` of ``g``'s column ``i`` against ``s``'s column
    ``j``, in its order, and its ``d_j`` is added into component ``i`` in
    ``_div``'s order, without the whole ``dim x dim`` tensor.
    """
    out = np.empty(g.shape[:-2] + g.shape[-1:])
    for i in range(g.shape[-1]):
        _diff(grid, _dyadic(g[..., i : i + 1], s[..., :1])[..., 0, 0], 0, out=out[..., i])
        for j in range(1, grid.dim):
            out[..., i] += _diff(grid, _dyadic(g[..., i : i + 1], s[..., j : j + 1])[..., 0, 0], j)
    return out


def _diff_dot(grid: Grid, terms: Iterable[tuple[np.ndarray, int, np.ndarray]], out: np.ndarray) -> np.ndarray:
    """out = sum of ``_diff(grid, x, axis) * y`` over the (x, axis, y) of `terms`, as _dyadic adds it.

    Each derivative is multiplied into its own buffer and added as soon as
    it is taken, one whole-grid slice at a time, and the write into `out`
    adds the closing +0: the bits of _dyadic's chart sum over the slots of a
    materialized derivative tensor, with one derivative alive at a time.
    """
    acc = None
    for x, axis, y in terms:
        d = _diff(grid, x, axis)
        d *= y
        if acc is None:
            acc = d
        else:
            acc += d
    return np.add(acc, 0.0, out=out)


def _grad_dot(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[..., i] = sum_k d_i(a[..., k]) * b[..., k], k running over a's component axes in C order.

    The bits of ``_dyadic`` over ``_grad(grid, a)`` with its component axes
    flattened into the chart axis, against ``b`` as a one-column operand,
    without building that gradient.
    """
    out = np.empty(grid.extents + (grid.dim,))
    keys = [(Ellipsis,) + k for k in itertools.product(*map(range, a.shape[grid.dim:]))]
    for i in range(grid.dim):
        _diff_dot(grid, ((a[k], i, b[k]) for k in keys), out[..., i])
    return out


def _hess_dot(grid: Grid, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """out[..., i] = sum_{a, j} d_j(g[..., a, i]) * s[..., a, j], (a, j) in C order.

    With ``g = _grad(grid, nu)`` this is the second gradient of ``nu``
    contracted with ``s``, the bits of ``_dyadic`` over ``_hess(grid, nu)``
    with its (a, j) axes flattened into the chart axis, against ``s`` as a
    one-column operand, without building that second gradient: ``_hess``
    takes d_j of the same first derivatives ``g`` holds.
    """
    out = np.empty(grid.extents + (grid.dim,))
    pairs = list(itertools.product(range(g.shape[-2]), range(grid.dim)))
    for i in range(grid.dim):
        _diff_dot(grid, ((g[..., a, i], j, s[..., a, j]) for a, j in pairs), out[..., i])
    return out


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _pointwise_magnitude(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Euclidean magnitude over all component axes, per cell."""
    if values.ndim == grid.dim:
        return np.abs(values)
    flat = values.reshape(grid.extents + (-1,))
    # component by component: np.sum over a short innermost axis costs far
    # more than its arithmetic, and below 8 components it adds in this order
    acc = flat[..., 0] * flat[..., 0]
    for k in range(1, flat.shape[-1]):
        acc += flat[..., k] * flat[..., k]
    return np.sqrt(acc, out=acc)


def _linf(grid: Grid, values: np.ndarray) -> float:
    return float(np.max(_pointwise_magnitude(grid, values)))


def linf_norm(field: Field) -> float:
    """Max over cells of the per-cell euclidean component magnitude."""
    return _linf(field.grid, field.values)


def l2_norm(field: Field) -> float:
    """Cell-volume-weighted discrete L2 norm."""
    mag = _pointwise_magnitude(field.grid, field.values)
    return float(math.sqrt(np.sum(mag * mag) * field.grid.cell_volume))


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefinementReport:
    """Observed convergence order of an error probe under grid halving.

    ``observed_order`` is ``inf`` (the "exact" sentinel) when every level's
    error sits at the rounding floor.
    """

    levels: tuple[tuple[float, float], ...]
    observed_order: float

    @property
    def is_exact(self) -> bool:
        return math.isinf(self.observed_order)

    @property
    def order_label(self) -> str:
        return "exact" if self.is_exact else f"{self.observed_order:.3f}"

    def meets_order(self, target: float) -> bool:
        return self.is_exact or self.observed_order >= target


def refinement_study(
    probe: Callable[[float], float],
    spacings: Sequence[float],
) -> RefinementReport:
    """Run `probe(h)` over halving spacings and fit the error order.

    The probe returns an error norm for one grid spacing.  Requires at least
    three spacings, each half the previous.  The order is the least-squares
    slope of log(error) against log(h); identically-zero errors produce the
    "exact" sentinel instead of a fit.
    """
    hs = [float(h) for h in spacings]
    if len(hs) < 3:
        raise RefinementError(f"need at least 3 spacings, got {len(hs)}")
    for a, b in zip(hs, hs[1:]):
        if not math.isclose(b, a / 2.0, rel_tol=1e-9):
            raise RefinementError(f"spacings must halve: {a} -> {b}")
    errors = [float(probe(h)) for h in hs]
    if any(not math.isfinite(e) or e < 0.0 for e in errors):
        raise RefinementError(f"probe returned invalid errors {errors}")
    levels = tuple(zip(hs, errors))
    if max(errors) <= EXACT_ERROR_FLOOR:
        return RefinementReport(levels, math.inf)
    clipped = np.maximum(errors, 1e-300)
    slope = np.polyfit(np.log(hs), np.log(clipped), 1)[0]
    return RefinementReport(levels, float(slope))
