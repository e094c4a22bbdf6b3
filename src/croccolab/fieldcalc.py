"""Structured grids, immutable field containers, and finite-difference operators.

Index conventions (normative for the whole package)
---------------------------------------------------
* Grid axes are ordered ``(x, y[, z])`` and array axis ``a`` of every field
  indexes coordinate axis ``a`` (``meshgrid(indexing="ij")`` convention).
  Cell ``(i, j[, k])`` sits at ``x = i*h_x`` and so on; a periodic axis of
  extent ``n`` covers ``[0, n*h)`` with ``n*h`` identified with ``0``.
* Component axes trail the cell axes and arrays are C-ordered, so the
  flattened memory layout is row-major over cells with components varying
  fastest.
* ``VectorField.values[..., i]`` is component ``i``.
  ``TensorField.values[..., i, j]`` is row ``i``, column ``j``, and
  ``div_tensor`` contracts the LAST index: ``(div T)_i = d T_ij / d x_j``.
  This convention is what makes the product-rule expansion of the dyadic
  stress ``grad(f) (x) w`` come out as ``(div w) grad(f) + (grad^2 f) w``.
* ``OrderGradField.values[..., a, i] = d nu^a / d x_i`` and
  ``OrderHessField.values[..., a, i, j] = d^2 nu^a / (d x_i d x_j)``.

All first derivatives are second-order central differences; a periodic axis
wraps, a one-sided axis closes the boundary with the second-order one-sided
stencil.  One generic path serves every rank, and this module is the only
place that loops over coordinate axes.  ``_grad`` appends a trailing
derivative axis to an array of any rank, ``_div`` contracts its last axis,
and ``_hess`` is ``_grad`` applied twice with the last two axes swapped.
Second derivatives are therefore repeated first derivatives, which makes
mixed partials symmetric to rounding.  The typed operators below (grad,
div, Jacobian, Hessian, the ``order_*`` operators, steady advection) are
thin wrappers over these helpers.  The relation modules call the helpers
directly on intermediate arrays.

Every operator is a pure function: fields are immutable after construction
(their arrays are marked read-only) and operators allocate fresh arrays, so
fields may be shared freely across threads and identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


class DimensionError(ValueError):
    """Operation not defined for the grid dimension."""


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
    def shape(self) -> tuple[int, ...]:
        return self.extents

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.extents))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.extents[axis]) * self.spacing[axis]

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*(self.axis_coords(a) for a in range(self.dim)), indexing="ij"))

    def refined(self, factor: int = 2) -> "Grid":
        """Same box and policies with `factor` times more cells per axis."""
        return Grid(
            tuple(n * factor for n in self.extents),
            tuple(h / factor for h in self.spacing),
            self.boundary,
        )


def _first_nonfinite(values: np.ndarray) -> tuple[int, ...]:
    bad = np.argwhere(~np.isfinite(values))
    return tuple(int(i) for i in bad[0])


class Field:
    """Immutable cell-valued samples on a grid.  Base class, do not instantiate."""

    def __init__(self, grid: Grid, values: np.ndarray | Sequence) -> None:
        arr = np.array(values, dtype=float, order="C")
        expected = self._expected_shape(grid, arr)
        if arr.shape != expected:
            raise FieldShapeError(
                f"{type(self).__name__} on {grid.extents} expects shape {expected}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise FieldValueError(
                f"non-finite value at index {_first_nonfinite(arr)} of {type(self).__name__}"
            )
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr

    def _expected_shape(self, grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(extents={self.grid.extents})"


class ScalarField(Field):
    def _expected_shape(self, grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
        return grid.extents


class VectorField(Field):
    def _expected_shape(self, grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
        return grid.extents + (grid.dim,)

    def component(self, i: int) -> np.ndarray:
        return self.values[..., i]


class TensorField(Field):
    def _expected_shape(self, grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
        return grid.extents + (grid.dim, grid.dim)


class OrderField(Field):
    """Order-parameter samples in a flat m-dimensional chart."""

    def _expected_shape(self, grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
        if arr.ndim != grid.dim + 1 or arr.shape[-1] < 1:
            raise FieldShapeError(
                f"OrderField expects shape extents + (m,) with m >= 1, got {arr.shape}"
            )
        return grid.extents + (arr.shape[-1],)

    @property
    def m(self) -> int:
        return self.values.shape[-1]


class OrderGradField(Field):
    def _expected_shape(self, grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
        if arr.ndim != grid.dim + 2:
            raise FieldShapeError(f"OrderGradField expects extents + (m, dim), got {arr.shape}")
        return grid.extents + (arr.shape[-2], grid.dim)

    @property
    def m(self) -> int:
        return self.values.shape[-2]


class OrderHessField(Field):
    def _expected_shape(self, grid: Grid, arr: np.ndarray) -> tuple[int, ...]:
        if arr.ndim != grid.dim + 3:
            raise FieldShapeError(
                f"OrderHessField expects extents + (m, dim, dim), got {arr.shape}"
            )
        return grid.extents + (arr.shape[-3], grid.dim, grid.dim)

    @property
    def m(self) -> int:
        return self.values.shape[-3]


def require_same_grid(*fields: Field) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("fields live on different grids")
    return grid


# ---------------------------------------------------------------------------
# derivative core
# ---------------------------------------------------------------------------


def _diff(grid: Grid, values: np.ndarray, axis: int) -> np.ndarray:
    """Second-order d/dx_axis of an array whose leading axes are the cell axes."""
    h = grid.spacing[axis]
    if grid.boundary[axis] != PERIODIC:
        # one-sided second order at both ends, central in the interior
        return np.gradient(values, h, axis=axis, edge_order=2)
    # (a[i+1] - a[i-1]) / 2h with the neighbours read as slices and the two
    # wrap cells set apart: the roll formula's arithmetic without its copies
    lead = (slice(None),) * axis
    ahead, behind, inner = (lead + (s,) for s in (slice(2, None), slice(None, -2), slice(1, -1)))
    out = np.empty(values.shape)
    np.subtract(values[ahead], values[behind], out=out[inner])
    np.subtract(values[lead + (1,)], values[lead + (-1,)], out=out[lead + (0,)])
    np.subtract(values[lead + (0,)], values[lead + (-2,)], out=out[lead + (-1,)])
    out /= 2.0 * h
    return out


def _grad(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Gradient of any rank: out[..., i] = d a[...] / d x_i, a trailing derivative axis."""
    # one strided copy per component, as np.stack makes too, but about
    # twice as fast as its concatenate on a 256x256 grid
    out = np.empty(a.shape + (grid.dim,))
    for i in range(grid.dim):
        out[..., i] = _diff(grid, a, i)
    return out


def _div(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Divergence of any rank over the LAST axis: out[...] = sum_j d a[..., j] / d x_j."""
    out = _diff(grid, a[..., 0], 0)
    for j in range(1, grid.dim):
        out = out + _diff(grid, a[..., j], j)
    return out


def _hess(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Second gradient of any rank: out[..., i, j] = d_i (d_j a[...])."""
    return np.swapaxes(_grad(grid, _grad(grid, a)), -1, -2)


def grad_scalar(f: ScalarField) -> VectorField:
    """Gradient of a scalar field: out[..., i] = df/dx_i."""
    return VectorField(f.grid, _grad(f.grid, f.values))


def div_vector(u: VectorField) -> ScalarField:
    """Divergence: sum_i d u_i / d x_i."""
    return ScalarField(u.grid, _div(u.grid, u.values))


def curl_vector(u: VectorField) -> VectorField | ScalarField:
    """Curl of a vector field.

    In 3-D returns the usual vector curl.  In 2-D the planar convention is
    used: the single out-of-plane component ``d u_y/d x - d u_x/d y`` is
    returned as a ScalarField.
    """
    g = u.grid
    if g.dim == 2:
        w = _diff(g, u.values[..., 1], 0) - _diff(g, u.values[..., 0], 1)
        return ScalarField(g, w)
    if g.dim == 3:
        d = lambda comp, axis: _diff(g, u.values[..., comp], axis)  # noqa: E731
        cx = d(2, 1) - d(1, 2)
        cy = d(0, 2) - d(2, 0)
        cz = d(1, 0) - d(0, 1)
        return VectorField(g, np.stack([cx, cy, cz], axis=-1))
    raise DimensionError(f"curl needs dim 2 or 3, got {g.dim}")


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


def advect_steady(f: Field, v: VectorField) -> Field:
    """Steady material derivative (v . grad) f, componentwise, same rank as f."""
    grid = require_same_grid(f, v)
    g = _grad(grid, f.values)
    vb = v.values.reshape(grid.extents + (1,) * (f.values.ndim - grid.dim) + (grid.dim,))
    out = np.zeros_like(f.values)
    for a in range(grid.dim):
        out += vb[..., a] * g[..., a]
    return type(f)(grid, out)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _pointwise_magnitude(field: Field) -> np.ndarray:
    """Euclidean magnitude over all component axes, per cell."""
    extra = field.values.ndim - field.grid.dim
    if extra == 0:
        return np.abs(field.values)
    flat = field.values.reshape(field.grid.extents + (-1,))
    # component by component: np.sum over a short innermost axis costs far
    # more than its arithmetic, and below 8 components it adds in this order
    acc = flat[..., 0] * flat[..., 0]
    for k in range(1, flat.shape[-1]):
        acc += flat[..., k] * flat[..., k]
    return np.sqrt(acc, out=acc)


def linf_norm(field: Field) -> float:
    """Max over cells of the per-cell euclidean component magnitude."""
    return float(np.max(_pointwise_magnitude(field)))


def l2_norm(field: Field) -> float:
    """Cell-volume-weighted discrete L2 norm."""
    mag = _pointwise_magnitude(field)
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
