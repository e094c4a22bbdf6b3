"""Layered liquid-crystal (smectic-A) specialization.

The substructure is a scalar layer function ``w``; the director is
``n = grad(w)/|grad(w)|`` away from defect cores, the inverse of
``|grad w|`` measuring the current layer thickness.  The potential is the
compressible-layer form

    phi_mech = 0.5*gamma1*(|grad w| - 1)^2 + 0.5*gamma2*(div n)^2

(compression plus splay).  Its effective microstress is

    S = gamma1*(|grad w| - 1)*n
        - gamma2*|grad w|^{-1} * (I - n(x)n) grad(div n)

and the relation evaluator runs in incompressible mode (iota == 1) with the
four substructural terms of the general order-parameter relation
specialized to m = 1, nu = w, with ``S`` standing in for the gradient
partial of the potential.  A separable entropic part ``e0*exp(eta/c_v)`` is
added inside the evaluator so the temperature is positive; the mechanical
energy reported by :func:`smectic_energy` excludes it (flat unit-spaced
layers have zero energy).

Cells where ``|grad w| <= eps_reg`` are flagged as defect cores and the
director is regularized there by ``max(|grad w|, eps_reg)``; every report
that depends on the regularization carries the flag mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .crocco import (
    COMPLEX_SCHEMA,
    ComplexState,
    CroccoReport,
    _build_report,
    _complex_terms,
    lamb_vector,
    speed_squared,
)
from .fieldcalc import (
    Grid,
    OrderField,
    ScalarField,
    VectorField,
    _grad,
    div_vector,
    grad_scalar,
    hessian_scalar,
    require_same_grid,
)
from .models import GinzburgLandauPartials, OrderCoEnergy

_TINY = 1e-300


class DefectCoreError(ValueError):
    """The director is undefined on the whole region."""


@dataclass(frozen=True)
class SmecticModel:
    """Layer compression / bending moduli and the core regularization length."""

    gamma1: float
    gamma2: float
    eps_reg: float = 0.0
    e0: float = 1.0
    c_v: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma1 <= 0.0 or self.gamma2 <= 0.0:
            raise ValueError("moduli gamma1, gamma2 must be positive")
        if self.eps_reg < 0.0:
            raise ValueError("eps_reg must be >= 0")
        if self.e0 <= 0.0 or self.c_v <= 0.0:
            raise ValueError("entropic parameters e0, c_v must be > 0")

    def theta(self, eta: np.ndarray) -> np.ndarray:
        return (self.e0 / self.c_v) * np.exp(np.asarray(eta) / self.c_v)

    def entropic(self, eta: np.ndarray) -> np.ndarray:
        return self.e0 * np.exp(np.asarray(eta) / self.c_v)


@dataclass(frozen=True)
class SmecticState:
    """Flow state (v, eta, w); incompressible mode when iota is omitted."""

    v: VectorField
    eta: ScalarField
    w: ScalarField
    iota: ScalarField | None = None
    grad_w: VectorField = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fields = [self.v, self.eta, self.w] + ([self.iota] if self.iota is not None else [])
        require_same_grid(*fields)
        object.__setattr__(self, "grad_w", grad_scalar(self.w))

    @property
    def grid(self) -> Grid:
        return self.v.grid

    def iota_values(self) -> np.ndarray:
        if self.iota is None:
            return np.ones(self.grid.extents)
        return self.iota.values


def director(state: SmecticState, model: SmecticModel) -> tuple[VectorField, np.ndarray]:
    """Unit layer normal and the defect-core flag mask.

    ``n = grad(w) / max(|grad w|, eps_reg)``; cells with
    ``|grad w| <= eps_reg`` are flagged (with ``eps_reg = 0`` only exact
    zeros flag).  Raises when every cell is flagged.
    """
    gw = state.grad_w.values
    mag = np.sqrt(np.sum(gw * gw, axis=-1))
    flags = mag <= model.eps_reg
    if np.all(flags):
        raise DefectCoreError("`|grad w|` is below the core threshold on every cell")
    denom = np.maximum(mag, max(model.eps_reg, _TINY))
    return VectorField(state.grid, gw / denom[..., None]), flags


def smectic_energy(state: SmecticState, model: SmecticModel) -> ScalarField:
    """Pointwise mechanical layer energy (compression + splay)."""
    grid = state.grid
    gw = state.grad_w.values
    mag = np.sqrt(np.sum(gw * gw, axis=-1))
    n, _ = director(state, model)
    div_n = div_vector(n).values
    energy = 0.5 * model.gamma1 * (mag - 1.0) ** 2 + 0.5 * model.gamma2 * div_n**2
    return ScalarField(grid, energy)


def smectic_microstress(state: SmecticState, model: SmecticModel) -> VectorField:
    """Effective microstress of the layer potential.

    ``gamma1*(|grad w| - 1)*n - gamma2*|grad w|^{-1}(I - n(x)n) grad(div n)``,
    with the core-regularized inverse magnitude.
    """
    grid = state.grid
    gw = state.grad_w.values
    mag = np.sqrt(np.sum(gw * gw, axis=-1))
    n, _ = director(state, model)
    g_div_n = grad_scalar(div_vector(n)).values
    # (I - n(x)n) u = u - n (n.u)
    proj = g_div_n - n.values * np.sum(n.values * g_div_n, axis=-1)[..., None]
    inv_mag = 1.0 / np.maximum(mag, max(model.eps_reg, _TINY))
    s = model.gamma1 * (mag - 1.0)[..., None] * n.values - model.gamma2 * inv_mag[..., None] * proj
    return VectorField(grid, s)


def smectic_crocco(state: SmecticState, model: SmecticModel) -> CroccoReport:
    """Layered-phase relation: the general m = 1 assembly with nu = w.

    Incompressible mode (iota == 1), no layer inertia.  Terms follow the
    general componentwise schema with the effective microstress in place of
    the gradient partial:

        micro_grad    = -(grad S)^T grad(w)
        order_balance = -w * grad(iota * div S)
        micro_div     = -iota * div(S) * grad(w)
        micro_hess    = -iota * S . gradgrad(w)

    and ``h_c = q^2/2 + phi - S.grad(w)`` with ``phi`` the mechanical energy
    plus the separable entropic part.
    """
    grid = state.grid
    if state.iota is not None and np.max(np.abs(state.iota.values - 1.0)) > 1e-12:
        raise ValueError("the layered relation is evaluated in incompressible mode (iota == 1)")
    iota = state.iota_values()
    gw = state.grad_w.values

    s = smectic_microstress(state, model)
    div_s = div_vector(s).values
    hess_w = hessian_scalar(state.w).values

    lhs = lamb_vector(state.v)
    theta = model.theta(state.eta.values)
    thermo = VectorField(grid, theta[..., None] * grad_scalar(state.eta).values)

    phi = smectic_energy(state, model).values + model.entropic(state.eta.values)
    xi_c = phi - np.sum(s.values * gw, axis=-1)
    h_c = ScalarField(grid, 0.5 * speed_squared(state.v).values + xi_c)
    enthalpy = VectorField(grid, -grad_scalar(h_c).values)

    grad_s = _grad(grid, s.values)
    micro_grad = VectorField(grid, -np.einsum("...ji,...j->...i", grad_s, gw))

    balance_content = ScalarField(grid, iota * div_s)
    order_balance = VectorField(
        grid, -state.w.values[..., None] * grad_scalar(balance_content).values
    )

    micro_div = VectorField(grid, -(iota * div_s)[..., None] * gw)
    micro_hess = VectorField(grid, -iota[..., None] * np.einsum("...j,...ji->...i", s.values, hess_w))

    terms = {
        "thermo": thermo,
        "enthalpy": enthalpy,
        "micro_grad": micro_grad,
        "order_balance": order_balance,
        "micro_div": micro_div,
        "micro_hess": micro_hess,
    }
    return _build_report("smectic", COMPLEX_SCHEMA, lhs, terms)


def smectic_via_general(state: SmecticState, model: SmecticModel) -> CroccoReport:
    """Oracle route: the layer function fed to the general m = 1 engine.

    The effective microstress stands in for the gradient partial of the
    potential (incompressible, rho == 1); the chart partial and the iota
    partial vanish.  Fixes the contraction reading of the specialized terms
    by construction.
    """
    grid = state.grid
    iota = ScalarField(grid, state.iota_values())
    cstate = ComplexState(
        v=state.v,
        iota=iota,
        eta=state.eta,
        nu=OrderField(grid, state.w.values[..., None]),
    )
    s = smectic_microstress(state, model)
    phi = smectic_energy(state, model).values + model.entropic(state.eta.values)
    parts = GinzburgLandauPartials(
        dphi_diota=np.zeros(grid.extents),
        dphi_dnu=np.zeros(grid.extents + (1,)),
        dphi_dgrad_nu=s.values[..., None, :],
        theta=model.theta(state.eta.values),
        phi=phi,
    )
    lhs, terms = _complex_terms(cstate, parts, OrderCoEnergy.zero(1))
    return _build_report("smectic", COMPLEX_SCHEMA, lhs, terms)
