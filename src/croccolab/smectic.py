"""Layered liquid-crystal (smectic-A) specialization.

The substructure is a scalar layer function ``w``; the director is
``n = grad(w)/|grad(w)|`` away from defect cores, the inverse of
``|grad w|`` measuring the current layer thickness.  The potential is the
compressible-layer form

    phi_mech = 0.5*gamma1*(|grad w| - 1)^2 + 0.5*gamma2*(div n)^2

(compression plus splay).  Its effective microstress is

    S = gamma1*(|grad w| - 1)*n
        - gamma2*|grad w|^{-1} * (I - n(x)n) grad(div n)

The layered phase is an order-parameter fluid with m = 1: each state
builds, on first read, its incompressible (iota == 1) order-parameter state
with nu = w, ``SmecticState.order_state``, and that state's cached
``grad(nu)`` is the one gradient of w the director, the energy, the
microstress and the relation read.  The relation is the general
order-parameter engine fed that state, ``S`` as the gradient partial, zero
chart and iota partials and the zero rate co-energy.  A separable entropic
part ``e0*exp(eta/c_v)`` is added so the temperature is positive; the
mechanical energy reported by :func:`smectic_energy` excludes it (flat
unit-spaced layers have zero energy).

Cells where ``|grad w| <= eps_reg`` are flagged as defect cores and the
director is regularized there by ``max(|grad w|, eps_reg)``; every report
that depends on the regularization carries the flag mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .crocco import (
    COMPLEX_SCHEMA,
    ComplexState,
    CroccoReport,
    RelationFields,
    _complex_terms,
    _relation_fields,
    _report,
)
from .fieldcalc import (
    Grid,
    OrderField,
    ScalarField,
    VectorField,
    _div,
    _dot,
    _grad,
    _pointwise_magnitude,
    require_same_grid,
)
from .models import GinzburgLandauPartials, ModelError, OrderCoEnergy, ThermalPart, _require_finite

_TINY = 1e-300


class DefectCoreError(ValueError):
    """The director is undefined on the whole region."""


@dataclass(frozen=True)
class SmecticModel(ThermalPart):
    """Layer compression / bending moduli and the core regularization length."""

    gamma1: float
    gamma2: float
    eps_reg: float = 0.0
    e0: float = 1.0
    c_v: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.gamma1 <= 0.0 or self.gamma2 <= 0.0:
            raise ModelError("moduli gamma1, gamma2 must be positive")
        if self.eps_reg < 0.0:
            raise ModelError("eps_reg must be >= 0")
        self._check_thermal()


@dataclass(frozen=True)
class SmecticState:
    """Flow state (v, eta, w) of the incompressible (iota == 1) layered phase."""

    v: VectorField
    eta: ScalarField
    w: ScalarField

    def __post_init__(self) -> None:
        require_same_grid(self.v, self.eta, self.w)

    @cached_property
    def order_state(self) -> ComplexState:
        """The m = 1 order-parameter state (v, iota = 1, eta, nu = w), built on first read and kept."""
        return ComplexState(self.v, ScalarField(self.grid, np.ones(self.grid.extents)), self.eta,
                            OrderField(self.grid, self.w.values[..., None]))

    @property
    def grid(self) -> Grid:
        return self.v.grid


def _director(state: SmecticState, model: SmecticModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``|grad w|``, its core-regularized value, the director array and the core flags."""
    gw = state.order_state.grad_nu.values[..., 0, :]
    mag = _pointwise_magnitude(state.grid, gw)
    flags = mag <= model.eps_reg
    if np.all(flags):
        raise DefectCoreError("`|grad w|` is below the core threshold on every cell")
    reg = np.maximum(mag, max(model.eps_reg, _TINY))
    return mag, reg, gw / reg[..., None], flags


def _layer_partials(state: SmecticState, model: SmecticModel) -> tuple[np.ndarray, np.ndarray]:
    """Mechanical energy and effective microstress arrays, from one director and one ``div n``."""
    grid = state.grid
    mag, reg, n, _ = _director(state, model)
    div_n = _div(grid, n)
    energy = 0.5 * model.gamma1 * (mag - 1.0) ** 2 + 0.5 * model.gamma2 * div_n**2
    g_div_n = _grad(grid, div_n)
    # (I - n(x)n) u = u - n (n.u)
    proj = g_div_n - n * _dot(n, g_div_n)[..., None]
    s = model.gamma1 * (mag - 1.0)[..., None] * n - model.gamma2 * (1.0 / reg)[..., None] * proj
    return energy, s


def director(state: SmecticState, model: SmecticModel) -> tuple[VectorField, np.ndarray]:
    """Unit layer normal and the defect-core flag mask.

    ``n = grad(w) / max(|grad w|, eps_reg)``; cells with
    ``|grad w| <= eps_reg`` are flagged (with ``eps_reg = 0`` only exact
    zeros flag).  Raises when every cell is flagged.
    """
    _, _, n, flags = _director(state, model)
    return VectorField(state.grid, n), flags


def smectic_energy(state: SmecticState, model: SmecticModel) -> ScalarField:
    """Pointwise mechanical layer energy (compression + splay)."""
    return ScalarField(state.grid, _layer_partials(state, model)[0])


def smectic_microstress(state: SmecticState, model: SmecticModel) -> VectorField:
    """Effective microstress of the layer potential.

    ``gamma1*(|grad w| - 1)*n - gamma2*|grad w|^{-1}(I - n(x)n) grad(div n)``,
    with the core-regularized inverse magnitude.
    """
    return VectorField(state.grid, _layer_partials(state, model)[1])


def _layer_bundle(state: SmecticState, model: SmecticModel) -> GinzburgLandauPartials:
    """The m = 1 partials of the layer potential, the microstress standing in for the gradient partial."""
    grid = state.grid
    energy, s = _layer_partials(state, model)
    entropic, theta = model._thermal(state.eta.values)
    return GinzburgLandauPartials(
        dphi_diota=np.zeros(grid.extents),
        dphi_dnu=np.zeros(grid.extents + (1,)),
        dphi_dgrad_nu=s[..., None, :],
        theta=theta,
        phi=energy + entropic,
    )


def smectic_relation(state: SmecticState, model: SmecticModel) -> RelationFields:
    """The layered-phase relation's fields as they are built; see :func:`smectic_crocco`."""
    terms = _complex_terms(state.order_state, _layer_bundle(state, model), OrderCoEnergy.zero(1))
    return _relation_fields("smectic", COMPLEX_SCHEMA, state.v, terms)


def smectic_crocco(state: SmecticState, model: SmecticModel) -> CroccoReport:
    """Layered-phase relation: the general m = 1 engine fed the state's ``order_state``.

    Incompressible mode (iota == 1), no layer inertia.  The order state's
    cached ``grad(nu)`` is ``grad(w)``, and the effective microstress stands
    in for the gradient partial, so the terms read

        micro_grad    = -(grad S)^T grad(w)
        order_balance = -w * grad(iota * div S)
        micro_div     = -iota * div(S) * grad(w)
        micro_hess    = -iota * S . gradgrad(w)

    and ``h_c = q^2/2 + phi - S.grad(w)`` with ``phi`` the mechanical energy
    plus the separable entropic part.  The engine contracts ``grad S`` and
    ``gradgrad(w)`` (the derivatives of the cached ``grad(w)``) as it takes
    them, so neither second-gradient tensor is built.
    """
    return _report("smectic", smectic_relation(state, model))


def smectic_via_general(state: SmecticState, model: SmecticModel) -> CroccoReport:
    """:func:`smectic_crocco` itself; the relation has one feed.

    Kept only because the benchmark's ``certify`` workload
    (``benchmarks/crocbench/workloads.py``) calls it.
    """
    return smectic_crocco(state, model)
