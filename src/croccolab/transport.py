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
time-step signal.  Time stepping is classical explicit RK4.  The Poisson
solve is a real FFT (``rfft2``) against an inverse-eigenvalue table cached
per grid, and its residual is still checked at every solve.  In frozen mode
nu and the model never change, so ``run`` builds the source once per run.

The integrator owns its state single-threaded per run; the per-cell right
side is data-parallel and independent runs can execute concurrently.
"""

from __future__ import annotations

import contextvars
import functools
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .fieldcalc import (
    Grid,
    OrderField,
    PERIODIC,
    ScalarField,
    TensorField,
    VectorField,
    _diff,
    _div,
    curl_vector,
    div_tensor,
    l2_norm,
    linf_norm,
    order_grad,
    order_second_grad,
    refinement_study,
    require_same_grid,
)
from .models import ComplexFluidModel, ModelError

POISSON_TOL = 1e-10

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


def _wrap_pad(values: np.ndarray) -> np.ndarray:
    """Copy of a 2-D array with one periodic ghost cell on each side.

    Equals ``np.pad(values, 1, mode="wrap")`` without its per-call overhead,
    which dominates the stencils at small grids.
    """
    p = np.empty((values.shape[0] + 2, values.shape[1] + 2))
    p[1:-1, 1:-1], p[0, 1:-1], p[-1, 1:-1] = values, values[-1], values[0]
    p[:, 0], p[:, -1] = p[:, -2], p[:, 1]
    return p


def _laplacian_compact(grid: Grid, values: np.ndarray) -> np.ndarray:
    hx, hy = grid.spacing
    p = _wrap_pad(values)
    return (p[2:, 1:-1] - 2.0 * values + p[:-2, 1:-1]) / (hx * hx) + (
        p[1:-1, 2:] - 2.0 * values + p[1:-1, :-2]
    ) / (hy * hy)


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


def solve_streamfunction(grid: Grid, omega: np.ndarray, tol: float = POISSON_TOL) -> np.ndarray:
    """Zero-mean psi with lap(psi) = -omega on the compact 5-point stencil."""
    psi = np.fft.irfft2(np.fft.rfft2(omega) * _inverse_symbol(grid), s=grid.extents)
    residual = np.max(np.abs(_laplacian_compact(grid, psi) + omega))
    if residual > tol:
        raise PoissonError(f"streamfunction residual {residual:.3e} exceeds {tol:.1e}")
    return psi


def _arakawa(grid: Grid, psi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Nine-point Jacobian J(psi, zeta) = psi_x zeta_y - psi_y zeta_x."""
    hx, hy = grid.spacing
    # neighbours as slices of wrap-padded copies; axis 0 runs west -> east, axis 1 south -> north
    p, z = _wrap_pad(psi), _wrap_pad(zeta)
    pe, pw, pn, ps = p[2:, 1:-1], p[:-2, 1:-1], p[1:-1, 2:], p[1:-1, :-2]
    pne, pnw, pse, psw = p[2:, 2:], p[:-2, 2:], p[2:, :-2], p[:-2, :-2]
    ze, zw, zn, zs = z[2:, 1:-1], z[:-2, 1:-1], z[1:-1, 2:], z[1:-1, :-2]
    zne, znw, zse, zsw = z[2:, 2:], z[:-2, 2:], z[2:, :-2], z[:-2, :-2]
    j1 = (pe - pw) * (zn - zs) - (pn - ps) * (ze - zw)
    j2 = pe * (zne - zse) - pw * (znw - zsw) - pn * (zne - znw) + ps * (zse - zsw)
    j3 = zn * (pne - pnw) - zs * (pse - psw) - ze * (pne - pse) + zw * (pnw - psw)
    return (j1 + j2 + j3) / (12.0 * hx * hy)


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
        mean = abs(float(np.mean(self.omega.values)))
        if mean > 1e-10 * (1.0 + float(np.max(np.abs(self.omega.values)))):
            raise TransportError(f"mean vorticity {mean:.3e} violates periodic solvability")

    @classmethod
    def from_vorticity(cls, grid: Grid, omega: np.ndarray, nu: OrderField, t: float = 0.0) -> "TransportState":
        omega = np.asarray(omega, dtype=float)
        mean = abs(float(np.mean(omega)))
        if mean > 1e-10 * (1.0 + float(np.max(np.abs(omega)))):
            raise TransportError(f"mean vorticity {mean:.3e} violates periodic solvability")
        psi = solve_streamfunction(grid, omega)
        return cls(ScalarField(grid, omega), ScalarField(grid, psi), nu, t)

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
    cfl_limit: float = 0.5
    report_every: int = 10
    poisson_tol: float = POISSON_TOL

    def __post_init__(self) -> None:
        if self.dt <= 0.0 or self.steps < 0:
            raise TransportError("dt must be positive and steps non-negative")
        if self.mode not in (FROZEN, ADVECTED):
            raise TransportError(f"mode must be '{FROZEN}' or '{ADVECTED}'")
        if not (0.0 < self.cfl_limit <= 0.5):
            raise TransportError("cfl_limit must lie in (0, 0.5]")


def substructural_stress(grid: Grid, nu: OrderField, model: ComplexFluidModel) -> TensorField:
    """Dyadic stress T_ij = sum_a (grad nu)^a_i (dphi/dgrad nu)^a_j (iota == 1)."""
    if nu.m != model.m:
        raise ModelError(f"chart dimension mismatch: model m={model.m}, field m={nu.m}")
    gnu = order_grad(nu).values
    p = model.dphi_dgrad_nu(gnu)
    return TensorField(grid, np.sum(gnu[..., :, None] * p[..., None, :], axis=-3))


def transport_rhs(state: TransportState, model: ComplexFluidModel) -> ScalarField:
    """Vorticity source -iota*curl(div T) with iota == 1.

    Exactly zero for uniform nu; O(h^2)-small whenever div T is a gradient.
    """
    return ScalarField(state.grid, _source(state.grid, state.nu, model)[0])


# (nu, model, source) of the frozen-mode `run` in progress, or None
_RUN_SOURCE: contextvars.ContextVar = contextvars.ContextVar("_RUN_SOURCE", default=None)


def _source(grid: Grid, nu: OrderField, model: ComplexFluidModel) -> tuple[np.ndarray, VectorField]:
    """(-curl(div T), div T) of the substructural stress on nu; a frozen run's own is reused."""
    held = _RUN_SOURCE.get()
    if held is not None and held[0] is nu and held[1] is model:
        return held[2]
    div_te = div_tensor(substructural_stress(grid, nu, model))
    return -curl_vector(div_te).values, div_te


def stress_divergence_expanded(grid: Grid, nu: OrderField, model: ComplexFluidModel) -> VectorField:
    """Product-rule route for div of the dyadic stress (cross-check).

    ``(grad nu)^T div(P) + P^T gradgrad(nu)`` with ``P = dphi/dgrad nu``;
    agrees with ``div_tensor(substructural_stress(...))`` to O(h^2).
    """
    gnu = order_grad(nu).values
    p = model.dphi_dgrad_nu(gnu)
    div_p = _div(grid, p)
    hess = order_second_grad(nu).values
    out = np.einsum("...ai,...a->...i", gnu, div_p) + np.einsum("...aj,...aji->...i", p, hess)
    return VectorField(grid, out)


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
    v = state.velocity().values
    speed = float(np.max(np.sqrt(np.sum(v * v, axis=-1))))
    return speed * dt / min(state.grid.spacing)


def step(state: TransportState, config: TransportConfig) -> TransportState:
    """One explicit 4-stage Runge-Kutta step.

    Advances ``omega`` (and ``nu`` in advected mode) and re-solves the
    streamfunction from the updated vorticity.  With an identically-zero
    source the stage right sides reduce bit-for-bit to pure advection.
    In frozen mode the source comes from the `run` in progress, if any.
    """
    grid = state.grid
    cfl = cfl_number(state, config.dt)
    if cfl > config.cfl_limit:
        raise CFLError(f"CFL {cfl:.3f} exceeds limit {config.cfl_limit}")

    frozen = config.mode == FROZEN
    source = transport_rhs(state, config.model).values if frozen else None

    def rate(om: np.ndarray, nu: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(d omega/dt, d nu/dt) at one stage; d nu/dt is None when nu is frozen."""
        adv = _arakawa(grid, psi, om)  # J(psi, omega) = -(v.grad) omega
        if frozen:
            src, dnu = source, None
        else:
            src = _source(grid, OrderField(grid, nu), config.model)[0]
            dnu = np.stack([_arakawa(grid, psi, nu[..., a]) for a in range(nu.shape[-1])], axis=-1)
        return (adv + src if np.any(src) else adv), dnu

    dt, tol = config.dt, config.poisson_tol
    om0, nu0, psi0 = state.omega.values, state.nu.values, state.psi.values

    def nu_at(c: float, k: np.ndarray | None) -> np.ndarray:
        return nu0 if k is None else nu0 + c * dt * k

    k1o, k1n = rate(om0, nu0, psi0)
    om = om0 + 0.5 * dt * k1o
    k2o, k2n = rate(om, nu_at(0.5, k1n), solve_streamfunction(grid, om, tol))
    om = om0 + 0.5 * dt * k2o
    k3o, k3n = rate(om, nu_at(0.5, k2n), solve_streamfunction(grid, om, tol))
    om = om0 + dt * k3o
    k4o, k4n = rate(om, nu_at(1.0, k3n), solve_streamfunction(grid, om, tol))

    om1 = om0 + (dt / 6.0) * (k1o + 2.0 * k2o + 2.0 * k3o + k4o)
    psi_new = solve_streamfunction(grid, om1, tol)
    nu1 = state.nu if frozen else OrderField(grid, nu0 + (dt / 6.0) * (k1n + 2.0 * k2n + 2.0 * k3n + k4n))
    return TransportState(ScalarField(grid, om1), ScalarField(grid, psi_new), nu1, state.t + dt)


def enstrophy(state: TransportState) -> float:
    return 0.5 * float(np.sum(state.omega.values**2)) * state.grid.cell_volume


def te_work_rate(state: TransportState, model: ComplexFluidModel) -> float:
    """Rate of work done on the coarse flow by the substructural stress.

    ``integral of v . (-div T)``; a signed diagnostic of the energy transfer
    between the flow and the substructure (no closed budget is claimed in
    frozen mode).
    """
    div_te = _source(state.grid, state.nu, model)[1]
    return float(np.sum(state.velocity().values * -div_te.values)) * state.grid.cell_volume


def omega_sign_changes(state: TransportState) -> int:
    """Count of sign changes of omega along grid lines (wrap included).

    A coarse proxy for vorticity-topology changes; reported as such, with no
    claim beyond counting zero crossings.
    """
    w = state.omega.values
    changes_x = np.signbit(w) ^ np.signbit(np.roll(w, -1, axis=0))
    changes_y = np.signbit(w) ^ np.signbit(np.roll(w, -1, axis=1))
    return int(np.sum(changes_x) + np.sum(changes_y))


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
    sign_changes: list[tuple[float, int]] = dc_field(default_factory=list)
    # max over every step (not only the samples) of |Z(t) - Z(0)| / |Z(0)|
    enstrophy_drift: float = 0.0


def run(config: TransportConfig, initial: TransportState) -> RunResult:
    """Advance `steps` steps, sampling diagnostics every `report_every`.

    In frozen mode the source is built once and shared by every step and
    sample.  The enstrophy drift is tracked at every step.
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
        result.sign_changes.append((state.t, omega_sign_changes(state)))

    held = (initial.nu, model, _source(initial.grid, initial.nu, model)) if config.mode == FROZEN else None
    token = _RUN_SOURCE.set(held)
    try:
        state, peak = initial, 0.0
        sample(state)
        z0 = result.samples[0].enstrophy
        for k in range(config.steps):
            state = step(state, config)
            peak = max(peak, abs(enstrophy(state) - z0))
            if (k + 1) % config.report_every == 0 or k + 1 == config.steps:
                sample(state)
    finally:
        _RUN_SOURCE.reset(token)
    result.final_state = state
    result.enstrophy_drift = peak / abs(z0) if z0 else 0.0
    return result
