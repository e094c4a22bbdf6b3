"""Unsteady 2-D incompressible vorticity transport with a substructural source.

Vorticity-streamfunction formulation on a periodic square: the velocity is
``v = (d psi/d y, -d psi/d x)`` with ``lap(psi) = -omega`` solved exactly
(to rounding) by FFT diagonalization of the compact 5-point Laplacian, so
incompressibility holds by construction.  The vorticity equation is

    d omega / dt = -(v.grad) omega - iota*curl(div T)   (iota == 1 here)

with the dyadic substructural stress ``T_ij = sum_a (grad nu)^a_i *
(dphi/dgrad nu)^a_j``.  The source vanishes exactly when ``div T`` is a
gradient (equivalently when a tensor potential exists); otherwise the flow
exchanges energy with the substructure and neither enstrophy nor the
vorticity extrema are conserved.

The advection term is discretized with the Arakawa 9-point Jacobian, whose
discrete conservation of energy and enstrophy keeps the conserving-case
drift purely time-integration (RK4) sized; a naive central product form
would leak enstrophy at a rate set by the spatial resolution, drowning the
time-step signal.  The Jacobian pads psi once and each operand component
as its own 2-D plane and ravels it, so every stencil neighbour is a
contiguous 1-D slice at a flat offset of +-1 (axis 1) or +-(ny + 2)
(axis 0).  It runs over blocks of rows of about ``BLOCK_CELLS`` cells of
one plane, in block buffers allocated once per call and written in place:
the padded differences of psi (once per block) and of the operand, and
three work buffers.  A block is one flat run of its padded rows, so its
pad-column cells are computed from wrapped neighbours too, and only the
interior of each row is divided into the output.  Every operation is plane
against plane, never a 2-D psi term broadcast against a component axis, and
a component's result is bit for bit that of a call on it alone.  Each cell
sees the nine-point expression's operations in its order (``j1``, ``+ j2``,
``+ j3``, ``/ scale``) for any block height, so the result does not depend
on it and matches the plain expression.  The Poisson solve is a real FFT
(``rfft2``) whose half-spectrum is scaled in place by an inverse-eigenvalue
table cached per grid, and its residual
``max|lap(psi) + omega|`` is checked at every solve against
``POISSON_TOL * max|omega|``, a bound relative to the vorticity's own
scale at every scale (omega == 0 solves to psi == 0 with residual exactly
0); a non-finite residual or vorticity fails the check too.  The
residual is built in place in two grid buffers with the operations of the
plain expression in its order, so it rounds like that expression.

Time stepping is classical explicit RK4 (``_rk4``).  The stage sum
``k1 + 2 k2 + 2 k3 + k4`` is added into k1's arrays in that order, each
later rate as soon as it has given the next stage input, and the stage
inputs after the first share one set of arrays, so the step has the plain
expression's bits.  Besides its state a frozen step holds the stage sum, a
stage input and its psi, and one rate with the Jacobian's padded psi and
operand (about 7 grids at the peak); an advected step holds each of these
for nu too, and every stage builds its own source.  A step stops with
``CFLError`` when its CFL number exceeds ``CFL_LIMIT``.

The source and ``div T`` of the last (immutable) ``OrderField`` and model
are memoized: frozen steps and samples, and later runs from the same nu,
read one build, and an advected sample's two diagnostics share one.  One
entry is kept, weakly keyed by its nu, so it is dropped as soon as the
caller drops that nu and every state and result holding it.

Validation sits at the state boundary.  ``TransportState`` and the
``ScalarField`` / ``OrderField`` it holds are checked (shape, finiteness,
zero-mean vorticity) when a step ends, and ``run`` checks once that the
initial psi solves the Poisson problem for its omega.  The RK stages work
on plain arrays and build no ``Field``: the stress contraction, the source
``-curl(div T)`` and the Jacobian of omega and of every nu component run on
the arrays of the stage.  A non-finite stage vorticity fails its Poisson
solve, and a non-finite result fails the new state's checks.  The public
``substructural_stress`` and ``transport_rhs`` wrap the same arrays in
checked fields.  The source takes ``div T`` slot by slot (``_div_dyadic``).

The integrator owns its state single-threaded per run and keeps no
run-scoped state; the per-cell right side is data-parallel and independent
runs can execute concurrently.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .fieldcalc import (
    Grid,
    OrderField,
    PERIODIC,
    ScalarField,
    TensorField,
    VectorField,
    _curl,
    _diff,
    _div_dyadic,
    _dyadic,
    _grad,
    curl_vector,
    div_tensor,
    l2_norm,
    linf_norm,
    refinement_study,
    require_same_grid,
)
from .models import ComplexFluidModel, ModelError

POISSON_TOL = 1e-10  # per unit of max|omega|
# cells per row block of the Jacobian, counted in one plane (one component), so its block
# buffers stay in cache.  On 10-step frozen 256^2 runs (2 vCPU) 16384 tied with 8192, which
# allocates less (traced Jacobian peak 4.06 against 4.95 grids); a 64^2 plane is one block.
BLOCK_CELLS = 8192
CFL_LIMIT = 0.5

FROZEN = "frozen"
ADVECTED = "advected"


class TransportError(ValueError):
    """Invalid transport state or configuration."""


class CFLError(RuntimeError):
    """Time step violates the advective stability bound."""


class PoissonError(RuntimeError):
    """Streamfunction solve left a residual above tolerance."""


def _require_periodic_square(grid: Grid) -> None:
    if grid.dim != 2:
        raise TransportError("transport runs on 2-D grids")
    if any(b != PERIODIC for b in grid.boundary):
        raise TransportError("transport needs periodic boundaries")
    if grid.extents[0] != grid.extents[1] or grid.spacing[0] != grid.spacing[1]:
        raise TransportError("transport needs a square grid with equal spacing")


def _require_zero_mean(omega: np.ndarray) -> None:
    mean = abs(float(np.mean(omega)))
    if mean > 1e-10 * float(np.max(np.abs(omega))):
        raise TransportError(f"mean vorticity {mean:.3e} violates periodic solvability")


def _wrap_pad(values: np.ndarray) -> np.ndarray:
    """Copy with one periodic ghost cell on each side of the LAST two axes.

    Equals ``np.pad`` in ``mode="wrap"`` over those axes without its per-call
    overhead, which dominates the stencils at small grids.
    """
    p = np.empty(values.shape[:-2] + (values.shape[-2] + 2, values.shape[-1] + 2))
    p[..., 1:-1, 1:-1], p[..., 0, 1:-1], p[..., -1, 1:-1] = values, values[..., -1, :], values[..., 0, :]
    p[..., 0], p[..., -1] = p[..., -2], p[..., 1]
    return p


def _laplacian_compact(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Compact 5-point Laplacian ``(pE - 2v + pW)/hx^2 + (pN - 2v + pS)/hy^2``.

    Built in place in two grid buffers beside the padded copy, with the
    operations of the plain expression in its order, so it rounds like it.
    """
    hx, hy = grid.spacing
    p = _wrap_pad(values)
    twice = 2.0 * values
    out = np.subtract(p[2:, 1:-1], twice)
    out += p[:-2, 1:-1]
    out /= hx * hx
    ddy = np.subtract(p[1:-1, 2:], twice, out=twice)
    ddy += p[1:-1, :-2]
    ddy /= hy * hy
    out += ddy
    return out


@functools.lru_cache(maxsize=8)
def _inverse_symbol(grid: Grid) -> np.ndarray:
    """Read-only -1/lambda of the compact Laplacian on the rfft2 half-spectrum, 0 on the mean mode."""
    nx, ny = grid.extents
    hx, hy = grid.spacing
    ex = (2.0 * np.cos(2.0 * np.pi * np.arange(nx) / nx) - 2.0) / (hx * hx)
    ey = (2.0 * np.cos(2.0 * np.pi * np.arange(ny // 2 + 1) / ny) - 2.0) / (hy * hy)
    lam = ex[:, None] + ey[None, :]
    out = np.divide(-1.0, lam, out=np.zeros_like(lam), where=np.abs(lam) > 1e-14)
    out.setflags(write=False)
    return out


def solve_streamfunction(grid: Grid, omega: np.ndarray) -> np.ndarray:
    """Zero-mean psi with lap(psi) = -omega on the compact 5-point stencil."""
    spec = np.fft.rfft2(omega)
    spec *= _inverse_symbol(grid)
    psi = np.fft.irfft2(spec, s=grid.extents)
    del spec  # not held through the residual check's own grid buffers
    _require_poisson(grid, psi, omega)
    return psi


def _require_poisson(grid: Grid, psi: np.ndarray, omega: np.ndarray) -> None:
    """Raise PoissonError unless max|lap(psi) + omega| <= POISSON_TOL * max|omega| < inf.

    The bound scales with omega, so the verdict does not depend on omega's units; omega == 0
    passes only with a residual of exactly 0.  A NaN residual, or an infinite omega (which
    makes the bound infinite), fails.
    """
    tol = POISSON_TOL * float(np.max(np.abs(omega)))
    r = _laplacian_compact(grid, psi)
    r += omega
    residual = np.max(np.abs(r, out=r))
    if not residual <= tol < math.inf:
        raise PoissonError(f"streamfunction residual {residual:.3e} exceeds {tol:.1e}")


def _arakawa(grid: Grid, psi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Nine-point Jacobian J(psi, zeta) = psi_x zeta_y - psi_y zeta_x.

    ``zeta`` may carry a trailing component axis; every component is paired
    with the same psi and the result has the shape of ``zeta``.
    """
    hx, hy = grid.spacing
    scale = 12.0 * hx * hy
    # each component is its own padded plane, so every operation is plane against plane (a 2-D
    # psi term broadcast against a component axis runs ~2.4x slower per element)
    stack = zeta if zeta.ndim == 3 else zeta[..., None]
    out = np.empty(stack.shape)
    planes = [(_wrap_pad(stack[..., c]).ravel(), out[..., c]) for c in range(stack.shape[-1])]
    p = _wrap_pad(psi).ravel()
    nx, ny = psi.shape
    w = ny + 2  # padded row width: axis 0 (west -> east) is a flat offset of w, axis 1 (south -> north) of 1
    rows = min(max(1, BLOCK_CELLS // ny), nx)
    # block temporaries, reused by every block: the differences of psi and of the operand along
    # axis 0 (px, zx) over the block's padded rows, along axis 1 (py, zy) over those rows and one
    # padded row on each side, and three work buffers of the block's padded rows
    px, zx, j, j23, t = np.empty((5, rows * w))
    py, zy = np.empty((2, (rows + 2) * w - 2))

    def block(v: np.ndarray, a: int, n: int, vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, ...]:
        """Plane v's differences along axis 0 into vx and axis 1 into vy; its E, W, N, S neighbours."""
        np.subtract(v[a + w : a + n + w], v[a - w : a + n - w], out=vx[:n])
        np.subtract(v[a + 2 - w : a + n + w], v[a - w : a + n + w - 2], out=vy[: n + 2 * w - 2])
        return v[a + 1 + w : a + n - 1 + w], v[a + 1 - w : a + n - 1 - w], v[a + 2 : a + n], v[a : a + n - 2]

    for i0 in range(0, nx, rows):
        n = min(rows, nx - i0) * w
        # the block is the flat run of its n padded-row cells starting at a; its cells f in
        # a+1 .. a+n-2 are computed, so every read stays inside the padded plane.  A pad-column
        # cell among them reads the wrap of its row's neighbours, and is never stored.
        a = (i0 + 1) * w
        c = slice(1, n - 1)
        pe, pw, pn, ps = block(p, a, n, px, py)
        pxc, pxn, pxs = px[c], px[2:n], px[: n - 2]
        pyc, pye, pyw = py[w : n - 2 + w], py[2 * w : n - 2 + 2 * w], py[: n - 2]
        jc, j23c, tc = j[c], j23[c], t[c]
        for zp, o in planes:
            ze, zw, zn, zs = block(zp, a, n, zx, zy)
            # j1 = px zy - py zx
            np.multiply(pxc, zy[w : n - 2 + w], out=jc)
            jc -= np.multiply(pyc, zx[c], out=tc)
            # j2 = pe zy(east) - pw zy(west) - pn zx(north) + ps zx(south)
            np.multiply(pe, zy[2 * w : n - 2 + 2 * w], out=j23c)
            j23c -= np.multiply(pw, zy[: n - 2], out=tc)
            j23c -= np.multiply(pn, zx[2:n], out=tc)
            j23c += np.multiply(ps, zx[: n - 2], out=tc)
            jc += j23c
            # j3 = zn px(north) - zs px(south) - ze py(east) + zw py(west)
            np.multiply(zn, pxn, out=j23c)
            j23c -= np.multiply(zs, pxs, out=tc)
            j23c -= np.multiply(ze, pye, out=tc)
            j23c += np.multiply(zw, pyw, out=tc)
            jc += j23c
            np.divide(j[:n].reshape(-1, w)[:, 1:-1], scale, out=o[i0 : i0 + n // w])
    return out if zeta.ndim == 3 else out[..., 0]


@dataclass(frozen=True)
class TransportState:
    """Vorticity, consistent streamfunction, substructure field and time."""

    omega: ScalarField
    psi: ScalarField
    nu: OrderField
    t: float = 0.0

    def __post_init__(self) -> None:
        grid = require_same_grid(self.omega, self.psi, self.nu)
        _require_periodic_square(grid)
        _require_zero_mean(self.omega.values)

    @classmethod
    def from_vorticity(cls, grid: Grid, omega: np.ndarray, nu: OrderField, t: float = 0.0) -> "TransportState":
        # checked first, so a non-finite cell is named here and never reaches the mean or the FFT
        omega = ScalarField(grid, omega)
        _require_zero_mean(omega.values)  # before the solve, which needs it
        return cls(omega, ScalarField(grid, solve_streamfunction(grid, omega.values)), nu, t)

    @property
    def grid(self) -> Grid:
        return self.omega.grid

    def velocity(self) -> VectorField:
        """v = (d psi/d y, -d psi/d x) by central differences."""
        psi = self.psi.values
        return VectorField(self.grid, np.stack([_diff(self.grid, psi, 1), -_diff(self.grid, psi, 0)], axis=-1))


@dataclass(frozen=True)
class TransportConfig:
    """Time step, step count, substructure model and nu handling mode."""

    dt: float
    steps: int
    model: ComplexFluidModel
    mode: str = FROZEN
    report_every: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < math.inf) or self.steps < 0 or self.report_every < 1:
            raise TransportError(f"need 0 < dt < inf, steps >= 0 and report_every >= 1, got "
                                 f"dt={self.dt}, steps={self.steps}, report_every={self.report_every}")
        if self.mode not in (FROZEN, ADVECTED):
            raise TransportError(f"mode must be '{FROZEN}' or '{ADVECTED}'")


def _stress_factors(grid: Grid, nu: np.ndarray, model: ComplexFluidModel) -> tuple[np.ndarray, np.ndarray]:
    """(grad nu, dphi/dgrad nu) of the chart values nu, whose chart sum ``_dyadic`` is T (iota == 1)."""
    if nu.shape[-1] != model.m:
        raise ModelError(f"chart dimension mismatch: model m={model.m}, field m={nu.shape[-1]}")
    gnu = _grad(grid, nu)
    return gnu, model.dphi_dgrad_nu(gnu)


def substructural_stress(grid: Grid, nu: OrderField, model: ComplexFluidModel) -> TensorField:
    """Dyadic stress T_ij = sum_a (grad nu)^a_i (dphi/dgrad nu)^a_j (iota == 1)."""
    return TensorField(grid, _dyadic(*_stress_factors(grid, nu.values, model)))


def transport_rhs(state: TransportState, model: ComplexFluidModel) -> ScalarField:
    """Vorticity source -iota*curl(div T) with iota == 1.

    Exactly zero for uniform nu; O(h^2)-small whenever div T is a gradient.
    """
    return _field_source(state.nu, model)[0]


def _source(grid: Grid, nu: np.ndarray, model: ComplexFluidModel) -> tuple[np.ndarray, np.ndarray]:
    """(-curl(div T), div T) as arrays for the chart values nu."""
    div_te = _div_dyadic(grid, *_stress_factors(grid, nu, model))
    curl = _curl(grid, div_te)
    return np.negative(curl, out=curl), div_te


# one entry, weakly keyed by its nu: it dies with its OrderField
_SOURCE_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _field_source(nu: OrderField, model: ComplexFluidModel) -> tuple[ScalarField, np.ndarray]:
    """Checked source -curl(div T) and read-only div T of an (immutable) order field, memoized."""
    held = _SOURCE_MEMO.get(nu)
    if held is not None and held[0] == model:
        return held[1]
    src, div_te = _source(nu.grid, nu.values, model)
    div_te.setflags(write=False)
    built = (ScalarField(nu.grid, src), div_te)
    _SOURCE_MEMO.clear()
    _SOURCE_MEMO[nu] = (model, built)
    return built


def curl_div_norms(te: TensorField) -> tuple[float, float]:
    """(L2, Linf) of curl(div T), the vorticity-alteration magnitude."""
    w = curl_vector(div_tensor(te))
    return l2_norm(w), linf_norm(w)


@dataclass(frozen=True)
class PotentialConditionReport:
    """Decision record for the gradient-potential condition on div T."""

    norms: tuple[tuple[float, float], ...]  # (h, linf of curl(div T)) per level
    observed_order: float | None
    verdict: str


def potential_condition_check(tensors: Sequence[TensorField]) -> PotentialConditionReport:
    """Classify a stress family as vorticity-conserving or altering.

    With three or more refinement levels the decision variable is the
    refinement order of ``||curl(div T)||_inf``: vanishing at discretization
    order (or exactly) means a scalar potential exists in the limit and the
    field is "conserving"; a norm bounded away from zero fits order ~0 and
    is "altering".  A single field can only be classified when its norm sits
    at the rounding floor.  The tensor-potential variant of the condition is
    equivalent in effect (both kill the alteration term), so only this norm
    is decision-bearing.
    """
    if len(tensors) == 0:
        raise TransportError("need at least one tensor field")
    levels = tuple((t.grid.spacing[0], curl_div_norms(t)[1]) for t in tensors)
    # curl(div .) amplifies rounding like eps/h^3; norms this small relative
    # to the stress itself mean the alteration is exactly zero discretely.
    # Both the floor and the fit see the norms relative to the largest entry
    # of T, so T and s*T get the same verdict for every s > 0.
    scale = max(float(np.max(np.abs(t.values))) for t in tensors)
    if max(e for _, e in levels) <= 1e-9 * scale:
        order = None if len(levels) < 3 else float("inf")
        return PotentialConditionReport(levels, order, "conserving")
    if len(tensors) < 3:
        return PotentialConditionReport(levels, None, "altering")
    relative = {h: e / scale for h, e in levels}
    report = refinement_study(relative.__getitem__, [h for h, _ in levels])
    verdict = "conserving" if report.meets_order(1.5) else "altering"
    return PotentialConditionReport(levels, report.observed_order, verdict)


def cfl_number(state: TransportState, dt: float) -> float:
    """Largest |v| dt / h; sqrt is monotone and correctly rounded, so it is taken once, of the max |v|^2."""
    vx, vy = _diff(state.grid, state.psi.values, 1), _diff(state.grid, state.psi.values, 0)
    speed = math.sqrt(float(np.max(vx * vx + vy * vy)))
    return speed * dt / min(state.grid.spacing)


def _ahead(x0: np.ndarray, s: float, k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x0 + s * k`` with its bits, in one new array (or in ``out``)."""
    y = np.multiply(k, s, out=out)
    y += x0
    return y


def _rk4(grid: Grid, x0s: list[np.ndarray], psi0: np.ndarray,
         rates: Callable[[list[np.ndarray], np.ndarray], list[np.ndarray]], dt: float) -> list[np.ndarray]:
    """``x0 + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` of each x0 of x0s, with that expression's bits.

    ``rates(xs, psi)`` gives the rates at the stage inputs xs, psi solving for ``xs[0]``.  The
    stage sum is added into k1's arrays in the expression's order, each later rate as soon as
    it has given the next stage input, which is written into the second stage input's arrays.
    """
    sums = rates(x0s, psi0)  # k1 starts the stage sum
    xs = [_ahead(x0, 0.5 * dt, k) for x0, k in zip(x0s, sums)]
    for c in (0.5, 1.0):
        for x0, x, k, total in zip(x0s, xs, rates(xs, solve_streamfunction(grid, xs[0])), sums):
            _ahead(x0, c * dt, k, out=x)
            total += np.multiply(k, 2.0, out=k)
        del k  # dropped before the next stage's rates are built
    for x0, total, k in zip(x0s, sums, rates(xs, solve_streamfunction(grid, xs[0]))):
        _ahead(x0, dt / 6.0, np.add(total, k, out=total), out=total)
    return sums


def step(state: TransportState, config: TransportConfig) -> TransportState:
    """One explicit 4-stage Runge-Kutta step.

    Advances ``omega`` (and ``nu`` in advected mode) and re-solves the
    streamfunction from the updated vorticity.  With an identically-zero
    source the stage right sides reduce bit-for-bit to pure advection.
    A frozen step reads the memoized source of its nu.
    """
    grid, model, dt = state.grid, config.model, config.dt
    cfl = cfl_number(state, dt)
    if cfl > CFL_LIMIT:
        raise CFLError(f"CFL {cfl:.3f} exceeds limit {CFL_LIMIT}")

    frozen = config.mode == FROZEN
    source = transport_rhs(state, model).values if frozen else None

    def rates(xs: list[np.ndarray], psi: np.ndarray) -> list[np.ndarray]:
        """d x/dt of each stage input x (omega, then nu when it is advected), with the source added into omega's."""
        src = source if frozen else _source(grid, xs[1], model)[0]
        ks = [_arakawa(grid, psi, x) for x in xs]  # J(psi, x) = -(v.grad) x
        if src is not None and np.any(src):  # an identically zero source adds nothing, not even to a -0
            ks[0] += src
        return ks

    om1, *nu1 = _rk4(grid, [state.omega.values] if frozen else [state.omega.values, state.nu.values],
                     state.psi.values, rates, dt)
    psi_new = solve_streamfunction(grid, om1)
    nu1 = state.nu if frozen else OrderField(grid, nu1[0])
    return TransportState(ScalarField(grid, om1), ScalarField(grid, psi_new), nu1, state.t + dt)


def enstrophy(state: TransportState) -> float:
    return 0.5 * float(np.sum(state.omega.values**2)) * state.grid.cell_volume


def te_work_rate(state: TransportState, model: ComplexFluidModel) -> float:
    """Rate of work done on the coarse flow by the substructural stress.

    ``integral of v . (-div T)``.  It is the exact semi-discrete rate of the
    flow energy ``E = 0.5 * sum(psi * omega) * h^2`` in frozen and advected
    mode: the Arakawa Jacobian gives ``sum(psi * J(psi, omega)) = 0`` and the
    central differences sum by parts exactly, so over a run ``dE`` and the
    time integral of this rate differ only by the quadrature error.
    """
    div_te = _field_source(state.nu, model)[1]
    return float(np.sum(state.velocity().values * -div_te)) * state.grid.cell_volume


@dataclass(frozen=True)
class RunSample:
    t: float
    l2_omega: float
    max_omega: float
    enstrophy: float
    rhs_norm: float
    te_work_rate: float


@dataclass
class RunResult:
    samples: list[RunSample] = dc_field(default_factory=list)
    final_state: TransportState | None = None
    # max over every step (not only the samples) of |Z(t) - Z(0)| / |Z(0)|;
    # inf when Z(0) = 0 and the enstrophy leaves zero
    enstrophy_drift: float = 0.0


def run(config: TransportConfig, initial: TransportState) -> RunResult:
    """Advance `steps` steps, sampling diagnostics every `report_every`.

    In frozen mode every step and sample reads the one memoized source of
    the initial nu.  The enstrophy drift is tracked at every step.
    """
    result, model = RunResult(), config.model

    def sample(state: TransportState) -> None:
        result.samples.append(
            RunSample(
                t=state.t,
                l2_omega=l2_norm(state.omega),
                max_omega=linf_norm(state.omega),
                enstrophy=enstrophy(state),
                rhs_norm=l2_norm(transport_rhs(state, model)),
                te_work_rate=te_work_rate(state, model),
            )
        )

    _require_poisson(initial.grid, initial.psi.values, initial.omega.values)
    state, peak = initial, 0.0
    sample(state)
    z0 = result.samples[0].enstrophy
    for k in range(config.steps):
        state = step(state, config)
        peak = max(peak, abs(enstrophy(state) - z0))
        if (k + 1) % config.report_every == 0 or k + 1 == config.steps:
            sample(state)
    result.final_state = state
    result.enstrophy_drift = peak / abs(z0) if z0 else (math.inf if peak > 0.0 else 0.0)
    return result
