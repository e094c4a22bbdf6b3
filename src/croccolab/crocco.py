"""Term-by-term evaluators for steady-flow vorticity relations.

Three relations are assembled, each as a named-term report whose terms sum
(discretely, in a fixed order) to the relation's right-hand side, with the
residual ``lhs - sum(terms)`` stored alongside:

* classical:  ``omega x v = theta*grad(eta) - grad(H)`` with
  ``H = q^2/2 + phi - iota*dphi_diota``;
* capillary (density-gradient) fluid:
  ``omega x v = theta*grad(eta) - grad(h)
               - grad(iota^2*div(rho*P) + P.grad(iota))
               + iota*grad((v.grad)(dchi_diota_dot) - dchi_diota)``
  with ``P = dphi/dgrad(iota)`` and ``h = q^2/2 + phi - iota*dphi_diota
  - P.grad(iota)``;
* general order-parameter fluid, assembled componentwise as

  ``(omega x v)_i = theta*(grad eta)_i - (grad h_c)_i
      - D_i(P^a_j) (grad nu)^a_j
      - D_i(iota*(div S - (v.grad)(dchi_dnudot) + dchi_dnu))_a nu^a
      - iota*(grad nu)^a_i (div S)_a
      - iota*S^a_j (gradgrad nu)^a_{ji}``

  with ``P = dphi/dgrad(nu)``, microstress ``S = rho*P``, self-interaction
  ``z = rho*dphi_dnu`` and ``h_c = q^2/2 + phi - iota*dphi_diota
  - dphi_dnu.nu - P:grad(nu)``.

The component form above is re-derived from the steady momentum balance,
the gradient identity for the enthalpy and the substructural balance; with
those substitutions the relation is an exact identity whose defect equals
the steady momentum residual plus, for the order-parameter case, the
coupling ``(grad(iota*Rs))^T nu`` built from the substructural balance
residual ``Rs``.  ``defect_identity`` certifies exactly that under grid
refinement, which is what makes the relations testable on manufactured
states that satisfy no balance at all.

Constitutive fields are evaluated once per state.  ``KortewegState`` caches
``grad(iota)`` and ``ComplexState`` caches ``grad(nu)``.  The order-parameter
relation, its residuals and its interactions read one
:class:`~croccolab.models.GinzburgLandauPartials` bundle from
:func:`~croccolab.models.gl_partials`, so ``complex_defect_identity`` runs
the constitutive pass and the sphere check once per grid level.
``complex_crocco`` takes the model and builds the bundle itself.

Terms are assembled as arrays.  ``_korteweg_terms`` and ``_complex_terms``,
the one engine of the general relation, return the lhs and the term arrays;
``complex_crocco`` and the layered relation of :mod:`croccolab.smectic`
(nu = w, m = 1) feed that engine.  The defect identities difference the
arrays through ``_residual_from``; ``_build_report`` alone builds a report's
term fields, checks them finite and names a non-finite term and its cell.

Everything here is pure: states and reports are immutable value objects and
evaluators allocate fresh fields, so independent states can be evaluated
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Mapping, Sequence

import numpy as np

from .fieldcalc import (
    Field,
    FieldValueError,
    Grid,
    OrderField,
    OrderGradField,
    RefinementReport,
    ScalarField,
    TensorField,
    VectorField,
    _advect,
    _div,
    _first_index,
    _grad,
    _hess,
    _linf,
    advect_steady,
    curl_vector,
    grad_scalar,
    l2_norm,
    linf_norm,
    order_grad,
    refinement_study,
    require_same_grid,
)
from .models import (
    ComplexFluidModel,
    GinzburgLandauPartials,
    KortewegCoEnergy,
    KortewegModel,
    OrderCoEnergy,
    gl_partials,
)

RHO_IOTA_TOL = 1e-14

CLASSICAL_SCHEMA = ("thermo", "enthalpy")
KORTEWEG_SCHEMA = ("thermo", "enthalpy", "wall", "inertia")
COMPLEX_SCHEMA = ("thermo", "enthalpy", "micro_grad", "order_balance", "micro_div", "micro_hess")


class StateError(ValueError):
    """Invalid flow-state construction."""


class SchemaError(ValueError):
    """Report term schema does not match the requested operation."""


class IdentityViolationError(AssertionError):
    """A certified identity failed to refine at the expected order."""


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def _density(iota: ScalarField, *others: Field) -> ScalarField:
    """rho = 1/iota of a state whose fields share one grid and whose iota is positive."""
    grid = require_same_grid(iota, *others)
    if np.min(iota.values) <= 0.0:
        raise StateError(f"specific volume must be positive, violated at cell {_first_index(iota.values <= 0.0)}")
    return ScalarField(grid, 1.0 / iota.values)


@dataclass(frozen=True)
class KortewegState:
    """Steady flow state (v, iota, eta) with iota > 0 and rho = 1/iota.

    The referential density is 1, so the current mass density is the inverse
    specific volume exactly; ``iota_dot`` is the steady material derivative
    ``(v.grad) iota``, and ``grad_iota`` is cached because every capillary
    assembly needs it.
    """

    v: VectorField
    iota: ScalarField
    eta: ScalarField
    rho: ScalarField = dc_field(init=False, repr=False, compare=False)
    grad_iota: VectorField = dc_field(init=False, repr=False, compare=False)
    iota_dot: ScalarField = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _density(self.iota, self.v, self.eta))
        object.__setattr__(self, "grad_iota", grad_scalar(self.iota))
        object.__setattr__(self, "iota_dot", advect_steady(self.iota, self.v))

    @property
    def grid(self) -> Grid:
        return self.v.grid


@dataclass(frozen=True)
class ComplexState:
    """Steady flow state (v, iota, eta, nu) of an order-parameter fluid.

    ``nu_dot`` is assembled as ``(grad nu) v`` (the steady material
    derivative in the chart), and ``grad_nu`` is cached because every
    evaluator needs it.
    """

    v: VectorField
    iota: ScalarField
    eta: ScalarField
    nu: OrderField
    rho: ScalarField = dc_field(init=False, repr=False, compare=False)
    grad_nu: OrderGradField = dc_field(init=False, repr=False, compare=False)
    nu_dot: OrderField = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _density(self.iota, self.v, self.eta, self.nu))
        gnu = order_grad(self.nu)
        object.__setattr__(self, "grad_nu", gnu)
        nu_dot = np.einsum("...ai,...i->...a", gnu.values, self.v.values)
        object.__setattr__(self, "nu_dot", OrderField(self.nu.grid, nu_dot))

    @property
    def grid(self) -> Grid:
        return self.v.grid


def lamb_vector(v: VectorField) -> VectorField:
    """omega x v.  In 2-D the planar convention gives omega*(-v_y, v_x)."""
    grid = v.grid
    w = curl_vector(v)
    if grid.dim == 2:
        wv = w.values
        out = np.stack([-wv * v.values[..., 1], wv * v.values[..., 0]], axis=-1)
        return VectorField(grid, out)
    return VectorField(grid, np.cross(w.values, v.values))


def _speed2(v: VectorField) -> np.ndarray:
    return np.sum(v.values**2, axis=-1)


def _thermo(grid: Grid, theta: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """theta * grad(eta)."""
    return theta[..., None] * _grad(grid, eta)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CroccoReport:
    """Named per-term fields of one relation evaluation plus residual norms.

    ``residual`` is ``lhs`` minus the terms subtracted one by one in schema
    order, so recomputing it from the stored fields is bit-exact.
    """

    relation: str
    lhs: VectorField
    terms: Mapping[str, VectorField]
    residual: VectorField
    norms: Mapping[str, tuple[float, float]]

    @property
    def schema(self) -> tuple[str, ...]:
        return tuple(self.terms.keys())

    def substructural_sum(self) -> VectorField:
        """Sum of every term beyond thermo and enthalpy (zero field if none)."""
        grid = self.lhs.grid
        acc = np.zeros_like(self.lhs.values)
        for name, term in self.terms.items():
            if name not in ("thermo", "enthalpy"):
                acc = acc + term.values
        return VectorField(grid, acc)

    def terms_sum(self) -> VectorField:
        acc = np.zeros_like(self.lhs.values)
        for term in self.terms.values():
            acc = acc + term.values
        return VectorField(self.lhs.grid, acc)


def _residual_from(lhs: VectorField, terms: Mapping[str, np.ndarray], schema: Sequence[str]) -> np.ndarray:
    """lhs minus the term arrays, subtracted one by one in schema order."""
    res = lhs.values.copy()
    for name in schema:
        res -= terms[name]
    return res


def _report_field(relation: str, name: str, grid: Grid, values: np.ndarray) -> VectorField:
    try:
        return VectorField(grid, values)
    except FieldValueError:
        cell = _first_index(~np.isfinite(values))[: grid.dim]
        raise FieldValueError(f"{relation} term {name} is non-finite at cell {cell}") from None


def _build_report(relation: str, schema: Sequence[str], lhs: VectorField, terms: dict[str, np.ndarray]) -> CroccoReport:
    """The report of term arrays: the one place their fields are built and checked finite."""
    if tuple(terms.keys()) != tuple(schema):
        raise SchemaError(f"{relation} schema must be {tuple(schema)}, got {tuple(terms.keys())}")
    fields = {name: _report_field(relation, name, lhs.grid, terms[name]) for name in schema}
    residual = _report_field(relation, "residual", lhs.grid, _residual_from(lhs, terms, schema))
    named = {"lhs": lhs, **fields, "residual": residual}
    norms = {name: (l2_norm(field), linf_norm(field)) for name, field in named.items()}
    return CroccoReport(relation, lhs, fields, residual, norms)


# ---------------------------------------------------------------------------
# capillary-fluid constitutive assemblies
# ---------------------------------------------------------------------------


def _rho_p(state: KortewegState, model: KortewegModel) -> np.ndarray:
    """rho*P with P = dphi_dgrad_iota."""
    return state.rho.values[..., None] * model.dphi_dgrad_iota(state.grad_iota.values)


def _p_grad_iota(state: KortewegState, model: KortewegModel) -> np.ndarray:
    """P.grad(iota) with P = dphi_dgrad_iota."""
    g_iota = state.grad_iota.values
    return np.sum(model.dphi_dgrad_iota(g_iota) * g_iota, axis=-1)


def _iota_rate(state: KortewegState, coenergy: KortewegCoEnergy) -> np.ndarray:
    """(v.grad)(dchi_diota_dot), the steady rate of the co-energy's rate partial."""
    a = coenergy.dchi_diota_dot(state.iota.values, state.iota_dot.values)
    return _advect(state.grid, a, state.v.values)


def _dyad(state: KortewegState, model: KortewegModel) -> np.ndarray:
    return np.einsum("...i,...j->...ij", state.grad_iota.values, _rho_p(state, model))


def korteweg_stress(state: KortewegState, model: KortewegModel) -> TensorField:
    """Dyadic capillary stress grad(iota) (x) rho*dphi_dgrad_iota (rank one per cell)."""
    return TensorField(state.grid, _dyad(state, model))


def korteweg_stress_expanded(state: KortewegState, model: KortewegModel) -> VectorField:
    """Product-rule route for div of the dyadic stress.

    ``(div rho*P) grad(iota) + (grad^2 iota) rho*P`` with
    ``P = dphi_dgrad_iota``; agrees with ``div_tensor(korteweg_stress(...))``
    to O(h^2) and is used as its cross-check.
    """
    grid = state.grid
    rp = _rho_p(state, model)
    hess = _hess(grid, state.iota.values)
    out = _div(grid, rp)[..., None] * state.grad_iota.values + np.einsum("...ij,...j->...i", hess, rp)
    return VectorField(grid, out)


@dataclass(frozen=True)
class KortewegPressures:
    p: ScalarField
    p_bar: ScalarField
    p_check: ScalarField


def _pressures(state: KortewegState, model: KortewegModel, coenergy: KortewegCoEnergy) -> tuple[np.ndarray, ...]:
    """The arrays (p, p_bar, p_check) of :func:`korteweg_pressures`."""
    grid = state.grid
    iota = state.iota.values
    rho_iota = state.rho.values * iota
    p = -rho_iota * model.dphi_diota(iota)
    p = p + iota * _div(grid, _rho_p(state, model))
    if coenergy.is_zero:
        return p, p, np.zeros(grid.extents)
    p_check = rho_iota * _iota_rate(state, coenergy) - coenergy.dchi_diota(iota, state.iota_dot.values)
    return p, p - p_check, p_check


def korteweg_pressures(
    state: KortewegState,
    model: KortewegModel,
    coenergy: KortewegCoEnergy,
) -> KortewegPressures:
    """Static, kinetic-corrected and kinetic pressures of the capillary fluid.

    ``p = -rho*iota*dphi_diota + iota*div(rho*P)``;
    ``p_check = rho*iota*(v.grad)(dchi_diota_dot) - dchi_diota``;
    ``p_bar = p - p_check`` (the rate co-energy lowers the effective
    pressure; the enthalpy cross-route fixes the sign).  With the zero
    co-energy the kinetic pressure short-circuits and ``p_bar`` is ``p``
    bit-exactly.
    """
    grid = state.grid
    p, p_bar, p_check = _pressures(state, model, coenergy)
    p_field = ScalarField(grid, p)
    return KortewegPressures(
        p=p_field,
        p_bar=p_field if p_bar is p else ScalarField(grid, p_bar),
        p_check=ScalarField(grid, p_check),
    )


@dataclass(frozen=True)
class KortewegEnthalpy:
    xi: ScalarField
    h: ScalarField


def _korteweg_xi(state: KortewegState, model: KortewegModel) -> np.ndarray:
    """xi = phi - iota*dphi_diota - P.grad(iota)."""
    iota = state.iota.values
    phi = model.phi(iota, state.grad_iota.values, state.eta.values)
    return phi - iota * model.dphi_diota(iota) - _p_grad_iota(state, model)


def korteweg_enthalpy(
    state: KortewegState,
    model: KortewegModel,
    coenergy: KortewegCoEnergy,
) -> KortewegEnthalpy:
    """Specific enthalpy xi (minus the partial Legendre transform of phi in
    its kinematic arguments) and total enthalpy h = q^2/2 + xi."""
    del coenergy  # enters only the pressure route, kept for a uniform signature
    xi = _korteweg_xi(state, model)
    return KortewegEnthalpy(xi=ScalarField(state.grid, xi), h=ScalarField(state.grid, 0.5 * _speed2(state.v) + xi))


def korteweg_enthalpy_alt(
    state: KortewegState,
    model: KortewegModel,
    coenergy: KortewegCoEnergy,
) -> ScalarField:
    """Pressure-route evaluation of xi, the cross-check of the direct form.

    ``xi = phi + iota*p_bar - iota^2*div(rho*P) + iota*p_check - P.grad(iota)``.
    Agrees with the Legendre-transform route to O(h^2).
    """
    grid = state.grid
    iota = state.iota.values
    _, p_bar, p_check = _pressures(state, model, coenergy)
    xi = (
        model.phi(iota, state.grad_iota.values, state.eta.values)
        + iota * p_bar
        - iota**2 * _div(grid, _rho_p(state, model))
        + iota * p_check
        - _p_grad_iota(state, model)
    )
    return ScalarField(grid, xi)


# ---------------------------------------------------------------------------
# classical and capillary relations
# ---------------------------------------------------------------------------


def classical_crocco(state: KortewegState, model: KortewegModel) -> CroccoReport:
    """Classical steady relation: lhs = omega x v, terms thermo and -grad(H).

    Requires a gradient-free model (beta = 0); H closes as
    ``q^2/2 + phi - iota*dphi_diota``, the gradient-free limit of the
    capillary total enthalpy.
    """
    if model.beta != 0.0:
        raise SchemaError("classical relation needs a gradient-free model (beta = 0)")
    grid = state.grid
    iota, eta = state.iota.values, state.eta.values
    big_h = 0.5 * _speed2(state.v) + model.phi(iota, state.grad_iota.values, eta) - iota * model.dphi_diota(iota)
    terms = {"thermo": _thermo(grid, model.theta(eta), eta), "enthalpy": -_grad(grid, big_h)}
    return _build_report("classical", CLASSICAL_SCHEMA, lamb_vector(state.v), terms)


def _korteweg_terms(
    state: KortewegState, model: KortewegModel, coenergy: KortewegCoEnergy
) -> tuple[VectorField, dict[str, np.ndarray]]:
    """The lhs and the term arrays of the capillary relation."""
    grid = state.grid
    iota, eta = state.iota.values, state.eta.values
    h = 0.5 * _speed2(state.v) + _korteweg_xi(state, model)
    wall = iota**2 * _div(grid, _rho_p(state, model)) + _p_grad_iota(state, model)
    if coenergy.is_zero:
        inertia = np.zeros(grid.extents + (grid.dim,))
    else:
        content = _iota_rate(state, coenergy) - coenergy.dchi_diota(iota, state.iota_dot.values)
        inertia = iota[..., None] * _grad(grid, content)
    terms = {
        "thermo": _thermo(grid, model.theta(eta), eta),
        "enthalpy": -_grad(grid, h),
        "wall": -_grad(grid, wall),
        "inertia": inertia,
    }
    return lamb_vector(state.v), terms


def korteweg_crocco(
    state: KortewegState,
    model: KortewegModel,
    coenergy: KortewegCoEnergy,
) -> CroccoReport:
    """Capillary-fluid relation with wall and inertia terms.

    wall    = -grad(iota^2*div(rho*P) + P.grad(iota))
    inertia = +iota*grad((v.grad)(dchi_diota_dot) - dchi_diota)

    Both stored signed, so the terms sum to the relation's right-hand side.
    With beta = 0 and the zero co-energy both fields are identically zero
    and the report coincides with the classical one.
    """
    return _build_report("korteweg", KORTEWEG_SCHEMA, *_korteweg_terms(state, model, coenergy))


def steady_momentum_residual(
    state: KortewegState,
    model: KortewegModel,
    coenergy: KortewegCoEnergy,
) -> VectorField:
    """Residual of the steady momentum balance in enthalpy-friendly form.

    ``R = omega x v + grad(q^2)/2 + iota*grad(p_bar) + iota*div(T_dyadic)``;
    R vanishes exactly on steady solutions, and the relation's defect equals
    R identically (to discretization order) on arbitrary smooth states.
    """
    grid = state.grid
    iota = state.iota.values[..., None]
    _, p_bar, _ = _pressures(state, model, coenergy)
    out = (
        lamb_vector(state.v).values
        + 0.5 * _grad(grid, _speed2(state.v))
        + iota * _grad(grid, p_bar)
        + iota * _div(grid, _dyad(state, model))
    )
    return VectorField(grid, out)


def defect_identity(
    state_factory: Callable[[Grid], tuple[KortewegState, KortewegModel, KortewegCoEnergy]],
    grids: Sequence[Grid],
    min_order: float = 1.5,
) -> RefinementReport:
    """Certify defect == momentum residual for the capillary relation.

    Evaluates ``|| (lhs - sum terms) - R ||_inf`` on each grid of a halving
    family and fits the refinement order; an order below ``min_order`` (and
    not exactly zero) raises, because it means the proof-chain identity was
    assembled wrongly.
    """

    def probe_for(grid: Grid) -> float:
        state, model, coenergy = state_factory(grid)
        defect = _residual_from(*_korteweg_terms(state, model, coenergy), KORTEWEG_SCHEMA)
        return _linf(grid, defect - steady_momentum_residual(state, model, coenergy).values)

    return _run_identity_probe(probe_for, grids, min_order, "capillary defect identity")


def _run_identity_probe(
    probe_for: Callable[[Grid], float],
    grids: Sequence[Grid],
    min_order: float,
    label: str,
) -> RefinementReport:
    grids = list(grids)
    errors = {g.spacing[0]: probe_for(g) for g in grids}
    report = refinement_study(lambda h: errors[h], [g.spacing[0] for g in grids])
    if not report.meets_order(min_order):
        raise IdentityViolationError(
            f"{label} refines at order {report.order_label} < {min_order}: levels {report.levels}"
        )
    return report


# ---------------------------------------------------------------------------
# order-parameter fluid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexInteractions:
    """Momentum stress, microstress and self-interaction of the order-parameter fluid.

    ``T = rho*iota*dphi_diota I - (grad nu)^T S`` with microstress
    ``S = rho*dphi_dgrad_nu`` and self-interaction ``z = rho*dphi_dnu``
    (component form ``T_i^j = rho*iota*dphi_diota delta_ij -
    (grad nu)^a_i S^a_j``).
    """

    stress: TensorField
    microstress: OrderGradField
    self_interaction: OrderField


def complex_interactions(state: ComplexState, parts: GinzburgLandauPartials) -> ComplexInteractions:
    grid = state.grid
    rho = state.rho.values
    s = rho[..., None, None] * parts.dphi_dgrad_nu
    z = rho[..., None] * parts.dphi_dnu
    pressure_like = (rho * state.iota.values * parts.dphi_diota)[..., None, None] * np.eye(grid.dim)
    dyad = np.einsum("...ai,...aj->...ij", state.grad_nu.values, s)
    return ComplexInteractions(
        stress=TensorField(grid, pressure_like - dyad),
        microstress=OrderGradField(grid, s),
        self_interaction=OrderField(grid, z),
    )


def _order_rates(
    v: VectorField, nu: np.ndarray, nu_dot: np.ndarray | None, coenergy: OrderCoEnergy
) -> tuple[np.ndarray, np.ndarray]:
    """(v.grad)(dchi_dnudot), the steady rate of the co-energy's rate partial, and dchi_dnu (zero without inertia)."""
    if coenergy.is_zero:
        zero = np.zeros(nu.shape)
        return zero, zero
    return _advect(v.grid, coenergy.dchi_dnu_dot(nu, nu_dot), v.values), coenergy.dchi_dnu(nu, nu_dot)


def substructural_balance_residual(
    state: ComplexState,
    parts: GinzburgLandauPartials,
    coenergy: OrderCoEnergy,
) -> OrderField:
    """Residual of the substructural balance div(S) - z = d/dt(dchi_dnudot).

    Steady reading: ``div S - z - (v.grad)(Omega nu_dot + lam)`` (the
    constant covector's advection vanishes).  Zero on hand-built equilibria.
    """
    grid = state.grid
    rho = state.rho.values
    s = rho[..., None, None] * parts.dphi_dgrad_nu
    z = rho[..., None] * parts.dphi_dnu
    chi_rate, dchi_dnu = _order_rates(state.v, state.nu.values, state.nu_dot.values, coenergy)
    return OrderField(grid, _div(grid, s) - z - (chi_rate - dchi_dnu))


def _complex_terms(
    v: VectorField, iota: np.ndarray, eta: np.ndarray, nu: np.ndarray, grad_nu: np.ndarray, nu_dot: np.ndarray | None,
    parts: GinzburgLandauPartials, coenergy: OrderCoEnergy,
) -> tuple[VectorField, dict[str, np.ndarray]]:
    """Shared engine: the lhs and the componentwise term arrays of the relation.

    Reads arrays over the cells of ``v``'s grid: ``nu`` with its chart axis,
    ``grad_nu`` with the chart and spatial axes, and ``nu_dot``, which only a
    non-zero co-energy reads.
    """
    grid = v.grid
    rho = 1.0 / iota
    hess = np.ascontiguousarray(_hess(grid, nu))  # einsum sums a strided operand in another order

    xi_c = (
        parts.phi
        - iota * parts.dphi_diota
        - np.sum(parts.dphi_dnu * nu, axis=-1)
        - np.sum(parts.dphi_dgrad_nu * grad_nu, axis=(-2, -1))
    )

    s = rho[..., None, None] * parts.dphi_dgrad_nu
    div_s = _div(grid, s)
    chi_rate, dchi_dnu = _order_rates(v, nu, nu_dot, coenergy)

    # -(grad P)^T grad(nu): sum_aj D_i(P^a_j) (grad nu)^a_j
    grad_p = _grad(grid, parts.dphi_dgrad_nu)  # (..., m, dim_j, dim_i)
    # -(grad(iota*(div S - d/dt dchi_dnudot + dchi_dnu)))^T nu
    grad_bal = _grad(grid, iota[..., None] * (div_s - chi_rate + dchi_dnu))

    terms = {
        "thermo": _thermo(grid, parts.theta, eta),
        "enthalpy": -_grad(grid, 0.5 * _speed2(v) + xi_c),
        "micro_grad": -np.einsum("...aji,...aj->...i", grad_p, grad_nu),
        "order_balance": -np.einsum("...ai,...a->...i", grad_bal, nu),
        "micro_div": -iota[..., None] * np.einsum("...ai,...a->...i", grad_nu, div_s),
        "micro_hess": -iota[..., None] * np.einsum("...aj,...aji->...i", s, hess),
    }
    return lamb_vector(v), terms


def _state_terms(
    state: ComplexState, parts: GinzburgLandauPartials, coenergy: OrderCoEnergy
) -> tuple[VectorField, dict[str, np.ndarray]]:
    """The engine fed from a typed order-parameter state."""
    fields = (state.iota, state.eta, state.nu, state.grad_nu, state.nu_dot)
    return _complex_terms(state.v, *(f.values for f in fields), parts, coenergy)


def complex_crocco(
    state: ComplexState,
    model: ComplexFluidModel,
    coenergy: OrderCoEnergy,
) -> CroccoReport:
    """Order-parameter relation assembled from the componentwise form."""
    parts = gl_partials(model, state.iota, state.nu, state.grad_nu, state.eta)
    return _build_report("complex", COMPLEX_SCHEMA, *_state_terms(state, parts, coenergy))


def complex_momentum_residual(state: ComplexState, parts: GinzburgLandauPartials) -> VectorField:
    """Steady momentum residual of the order-parameter fluid.

    ``R = omega x v + grad(q^2)/2 + iota*grad(p_tilde) + iota*div((grad nu)^T S)``
    with ``p_tilde = -rho*iota*dphi_diota``.
    """
    grid = state.grid
    rho = state.rho.values
    iota = state.iota.values
    p_tilde = -(rho * iota) * parts.dphi_diota
    dyad = np.einsum("...ai,...aj->...ij", state.grad_nu.values, rho[..., None, None] * parts.dphi_dgrad_nu)
    out = (
        lamb_vector(state.v).values
        + 0.5 * _grad(grid, _speed2(state.v))
        + iota[..., None] * _grad(grid, p_tilde)
        + iota[..., None] * _div(grid, dyad)
    )
    return VectorField(grid, out)


def substructural_coupling(
    state: ComplexState,
    parts: GinzburgLandauPartials,
    coenergy: OrderCoEnergy,
) -> VectorField:
    """(grad(iota * Rs))^T nu, the defect contribution of the substructural balance.

    Vanishes when the substructural balance holds, recovering defect == R.
    """
    rs = substructural_balance_residual(state, parts, coenergy)
    grad_c = _grad(state.grid, state.iota.values[..., None] * rs.values)
    return VectorField(state.grid, np.einsum("...ai,...a->...i", grad_c, state.nu.values))


def complex_defect_identity(
    state_factory: Callable[[Grid], tuple[ComplexState, ComplexFluidModel, OrderCoEnergy]],
    grids: Sequence[Grid],
    min_order: float = 1.5,
) -> RefinementReport:
    """Certify defect == momentum residual + substructural coupling.

    The constitutive bundle is evaluated once per level and shared by the
    relation, the momentum residual and the coupling.
    """

    def probe_for(grid: Grid) -> float:
        state, model, coenergy = state_factory(grid)
        parts = gl_partials(model, state.iota, state.nu, state.grad_nu, state.eta)
        defect = _residual_from(*_state_terms(state, parts, coenergy), COMPLEX_SCHEMA)
        target = (
            complex_momentum_residual(state, parts).values
            + substructural_coupling(state, parts, coenergy).values
        )
        return _linf(grid, defect - target)

    return _run_identity_probe(probe_for, grids, min_order, "order-parameter defect identity")


# ---------------------------------------------------------------------------
# corollaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorollaryCheck:
    mode: str
    field: ScalarField
    l2: float
    linf: float


def corollary_check(report: CroccoReport, mode: str) -> CorollaryCheck:
    """Pointwise check of the cancellation / generation corollaries.

    cancellation: per-cell magnitude of thermo + enthalpy + substructural
    terms (the signed sum of all terms); zero means the substructural side
    exactly cancels the thermodynamic one, predicting omega x v = 0.

    generation: per-cell magnitude of lhs minus the substructural terms,
    meaningful when thermo and enthalpy vanish; zero means the lhs is
    produced entirely by the substructure.
    """
    if mode == "cancellation":
        target = report.terms_sum().values
    elif mode == "generation":
        target = report.lhs.values - report.substructural_sum().values
    else:
        raise SchemaError(f"mode must be 'cancellation' or 'generation', got {mode!r}")
    field = ScalarField(report.lhs.grid, np.sqrt(np.sum(target**2, axis=-1)))
    return CorollaryCheck(mode, field, l2_norm(field), linf_norm(field))


# ---------------------------------------------------------------------------
# capillary fluid as a one-component order-parameter fluid
# ---------------------------------------------------------------------------


def korteweg_embedding(
    state: KortewegState,
    model: KortewegModel,
) -> tuple[ComplexState, ComplexFluidModel, OrderCoEnergy]:
    """Embed a capillary state as an m=1 order-parameter state (nu == iota).

    The embedded model has gamma = f(iota, eta) (no chart coupling) and
    a = beta, so constitutive partials reproduce the capillary ones exactly;
    inertia is excluded (the constrained and unconstrained theories disagree
    on the co-energy route).
    """
    grid = state.grid
    cstate = ComplexState(
        v=state.v,
        iota=state.iota,
        eta=state.eta,
        nu=OrderField(grid, state.iota.values[..., None]),
    )
    cmodel = ComplexFluidModel(
        m=1,
        gamma_kind=model.f_kind,
        k=0.0,
        a=model.beta,
        f_kind=model.f_kind,
        c=model.c,
        iota_ref=model.iota_ref,
        f_well_1=model.well_1,
        f_well_2=model.well_2,
        e0=model.e0,
        c_v=model.c_v,
    )
    return cstate, cmodel, OrderCoEnergy.zero(1)
