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

Everything here is pure: states and reports are immutable value objects and
evaluators allocate fresh fields, so independent states can be evaluated
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Mapping, Sequence

import numpy as np

from .fieldcalc import (
    Grid,
    OrderField,
    OrderGradField,
    RefinementReport,
    ScalarField,
    TensorField,
    VectorField,
    _div,
    _grad,
    advect_steady,
    curl_vector,
    div_tensor,
    div_vector,
    grad_scalar,
    hessian_scalar,
    l2_norm,
    linf_norm,
    order_grad,
    order_second_grad,
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
        grid = require_same_grid(self.v, self.iota, self.eta)
        if np.min(self.iota.values) <= 0.0:
            bad = tuple(int(i) for i in np.argwhere(self.iota.values <= 0.0)[0])
            raise StateError(f"specific volume must be positive, violated at cell {bad}")
        object.__setattr__(self, "rho", ScalarField(grid, 1.0 / self.iota.values))
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
        grid = require_same_grid(self.v, self.iota, self.eta, self.nu)
        if np.min(self.iota.values) <= 0.0:
            bad = tuple(int(i) for i in np.argwhere(self.iota.values <= 0.0)[0])
            raise StateError(f"specific volume must be positive, violated at cell {bad}")
        object.__setattr__(self, "rho", ScalarField(grid, 1.0 / self.iota.values))
        gnu = order_grad(self.nu)
        object.__setattr__(self, "grad_nu", gnu)
        nu_dot = np.einsum("...ai,...i->...a", gnu.values, self.v.values)
        object.__setattr__(self, "nu_dot", OrderField(grid, nu_dot))

    @property
    def grid(self) -> Grid:
        return self.v.grid

    @property
    def m(self) -> int:
        return self.nu.m


def lamb_vector(v: VectorField) -> VectorField:
    """omega x v.  In 2-D the planar convention gives omega*(-v_y, v_x)."""
    grid = v.grid
    w = curl_vector(v)
    if grid.dim == 2:
        wv = w.values
        out = np.stack([-wv * v.values[..., 1], wv * v.values[..., 0]], axis=-1)
        return VectorField(grid, out)
    return VectorField(grid, np.cross(w.values, v.values))


def speed_squared(v: VectorField) -> ScalarField:
    return ScalarField(v.grid, np.sum(v.values**2, axis=-1))


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


def _residual_from(lhs: VectorField, terms: dict[str, VectorField], schema: Sequence[str]) -> VectorField:
    res = lhs.values.copy()
    for name in schema:
        res -= terms[name].values
    return VectorField(lhs.grid, res)


def _build_report(relation: str, schema: Sequence[str], lhs: VectorField, terms: dict[str, VectorField]) -> CroccoReport:
    if tuple(terms.keys()) != tuple(schema):
        raise SchemaError(f"{relation} schema must be {tuple(schema)}, got {tuple(terms.keys())}")
    residual = _residual_from(lhs, terms, schema)
    norms: dict[str, tuple[float, float]] = {"lhs": (l2_norm(lhs), linf_norm(lhs))}
    for name in schema:
        norms[name] = (l2_norm(terms[name]), linf_norm(terms[name]))
    norms["residual"] = (l2_norm(residual), linf_norm(residual))
    return CroccoReport(relation, lhs, dict(terms), residual, norms)


# ---------------------------------------------------------------------------
# capillary-fluid constitutive assemblies
# ---------------------------------------------------------------------------


def korteweg_stress(state: KortewegState, model: KortewegModel) -> TensorField:
    """Dyadic capillary stress grad(iota) (x) rho*dphi_dgrad_iota (rank one per cell)."""
    grid = state.grid
    g_iota = state.grad_iota.values
    p = model.dphi_dgrad_iota(g_iota)
    te = np.einsum("...i,...j->...ij", g_iota, state.rho.values[..., None] * p)
    return TensorField(grid, te)


def korteweg_stress_expanded(state: KortewegState, model: KortewegModel) -> VectorField:
    """Product-rule route for div of the dyadic stress.

    ``(div rho*P) grad(iota) + (grad^2 iota) rho*P`` with
    ``P = dphi_dgrad_iota``; agrees with ``div_tensor(korteweg_stress(...))``
    to O(h^2) and is used as its cross-check.
    """
    grid = state.grid
    g_iota = state.grad_iota.values
    rp = VectorField(grid, state.rho.values[..., None] * model.dphi_dgrad_iota(g_iota))
    d = div_vector(rp)
    hess = hessian_scalar(state.iota)
    out = d.values[..., None] * g_iota + np.einsum("...ij,...j->...i", hess.values, rp.values)
    return VectorField(grid, out)


@dataclass(frozen=True)
class KortewegPressures:
    p: ScalarField
    p_bar: ScalarField
    p_check: ScalarField


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
    g_iota = state.grad_iota.values
    rho_iota = state.rho.values * state.iota.values
    p_static = -rho_iota * model.dphi_diota(state.iota.values)
    rp = VectorField(grid, state.rho.values[..., None] * model.dphi_dgrad_iota(g_iota))
    p_static = p_static + state.iota.values * div_vector(rp).values
    p = ScalarField(grid, p_static)
    if coenergy.is_zero:
        zero = ScalarField(grid, np.zeros(grid.extents))
        return KortewegPressures(p=p, p_bar=p, p_check=zero)
    a = ScalarField(grid, coenergy.dchi_diota_dot(state.iota.values, state.iota_dot.values))
    adv = advect_steady(a, state.v)
    p_check = rho_iota * adv.values - coenergy.dchi_diota(state.iota.values, state.iota_dot.values)
    return KortewegPressures(
        p=p,
        p_bar=ScalarField(grid, p_static - p_check),
        p_check=ScalarField(grid, p_check),
    )


@dataclass(frozen=True)
class KortewegEnthalpy:
    xi: ScalarField
    h: ScalarField


def korteweg_enthalpy(
    state: KortewegState,
    model: KortewegModel,
    coenergy: KortewegCoEnergy,
) -> KortewegEnthalpy:
    """Specific enthalpy xi (minus the partial Legendre transform of phi in
    its kinematic arguments) and total enthalpy h = q^2/2 + xi."""
    grid = state.grid
    g_iota = state.grad_iota.values
    phi = model.phi(state.iota.values, g_iota, state.eta.values)
    p_grad = model.dphi_dgrad_iota(g_iota)
    xi = (
        phi
        - state.iota.values * model.dphi_diota(state.iota.values)
        - np.sum(p_grad * g_iota, axis=-1)
    )
    h = 0.5 * speed_squared(state.v).values + xi
    del coenergy  # enters only the pressure route, kept for a uniform signature
    return KortewegEnthalpy(xi=ScalarField(grid, xi), h=ScalarField(grid, h))


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
    g_iota = state.grad_iota.values
    phi = model.phi(state.iota.values, g_iota, state.eta.values)
    p_grad = model.dphi_dgrad_iota(g_iota)
    rp = VectorField(grid, state.rho.values[..., None] * p_grad)
    pres = korteweg_pressures(state, model, coenergy)
    xi = (
        phi
        + state.iota.values * pres.p_bar.values
        - state.iota.values**2 * div_vector(rp).values
        + state.iota.values * pres.p_check.values
        - np.sum(p_grad * g_iota, axis=-1)
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
    lhs = lamb_vector(state.v)
    theta = model.theta(state.eta.values)
    thermo = VectorField(grid, theta[..., None] * grad_scalar(state.eta).values)
    g_iota = state.grad_iota.values
    phi = model.phi(state.iota.values, g_iota, state.eta.values)
    big_h = ScalarField(
        grid,
        0.5 * speed_squared(state.v).values
        + phi
        - state.iota.values * model.dphi_diota(state.iota.values),
    )
    enthalpy = VectorField(grid, -grad_scalar(big_h).values)
    return _build_report("classical", CLASSICAL_SCHEMA, lhs, {"thermo": thermo, "enthalpy": enthalpy})


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
    grid = state.grid
    lhs = lamb_vector(state.v)
    theta = model.theta(state.eta.values)
    thermo = VectorField(grid, theta[..., None] * grad_scalar(state.eta).values)
    enthalpy = VectorField(grid, -grad_scalar(korteweg_enthalpy(state, model, coenergy).h).values)

    g_iota = state.grad_iota.values
    p_grad = model.dphi_dgrad_iota(g_iota)
    rp = VectorField(grid, state.rho.values[..., None] * p_grad)
    wall_scalar = ScalarField(
        grid,
        state.iota.values**2 * div_vector(rp).values + np.sum(p_grad * g_iota, axis=-1),
    )
    wall = VectorField(grid, -grad_scalar(wall_scalar).values)

    if coenergy.is_zero:
        inertia = VectorField(grid, np.zeros(grid.extents + (grid.dim,)))
    else:
        a = ScalarField(grid, coenergy.dchi_diota_dot(state.iota.values, state.iota_dot.values))
        content = ScalarField(
            grid,
            advect_steady(a, state.v).values
            - coenergy.dchi_diota(state.iota.values, state.iota_dot.values),
        )
        inertia = VectorField(grid, state.iota.values[..., None] * grad_scalar(content).values)

    return _build_report(
        "korteweg",
        KORTEWEG_SCHEMA,
        lhs,
        {"thermo": thermo, "enthalpy": enthalpy, "wall": wall, "inertia": inertia},
    )


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
    pres = korteweg_pressures(state, model, coenergy)
    te = korteweg_stress(state, model)
    out = (
        lamb_vector(state.v).values
        + 0.5 * grad_scalar(speed_squared(state.v)).values
        + state.iota.values[..., None] * grad_scalar(pres.p_bar).values
        + state.iota.values[..., None] * div_tensor(te).values
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
        report = korteweg_crocco(state, model, coenergy)
        r = steady_momentum_residual(state, model, coenergy)
        return linf_norm(VectorField(grid, report.residual.values - r.values))

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


def _chi_rate(state: ComplexState, coenergy: OrderCoEnergy) -> np.ndarray:
    """(v.grad)(dchi_dnudot), the steady rate of the co-energy's rate partial."""
    a = coenergy.dchi_dnu_dot(state.nu.values, state.nu_dot.values)
    return advect_steady(OrderField(state.grid, a), state.v).values


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
    div_s = _div(grid, s)
    if coenergy.is_zero:
        inertial = np.zeros_like(z)
    else:
        inertial = _chi_rate(state, coenergy) - coenergy.dchi_dnu(state.nu.values, state.nu_dot.values)
    return OrderField(grid, div_s - z - inertial)


def _complex_terms(
    state: ComplexState,
    parts: GinzburgLandauPartials,
    coenergy: OrderCoEnergy,
) -> tuple[VectorField, dict[str, VectorField]]:
    """Shared engine assembling the componentwise relation terms."""
    grid = state.grid
    iota = state.iota.values
    rho = state.rho.values
    nu = state.nu.values
    gnu = state.grad_nu.values
    hess = order_second_grad(state.nu).values

    lhs = lamb_vector(state.v)
    thermo = VectorField(grid, parts.theta[..., None] * grad_scalar(state.eta).values)

    xi_c = (
        parts.phi
        - iota * parts.dphi_diota
        - np.sum(parts.dphi_dnu * nu, axis=-1)
        - np.sum(parts.dphi_dgrad_nu * gnu, axis=(-2, -1))
    )
    h_c = ScalarField(grid, 0.5 * speed_squared(state.v).values + xi_c)
    enthalpy = VectorField(grid, -grad_scalar(h_c).values)

    s = rho[..., None, None] * parts.dphi_dgrad_nu
    div_s = _div(grid, s)

    if coenergy.is_zero:
        chi_rate = np.zeros(grid.extents + (state.m,))
        dchi_dnu = chi_rate
    else:
        chi_rate = _chi_rate(state, coenergy)
        dchi_dnu = coenergy.dchi_dnu(nu, state.nu_dot.values)

    # -(grad P)^T grad(nu): sum_aj D_i(P^a_j) (grad nu)^a_j
    grad_p = _grad(grid, parts.dphi_dgrad_nu)  # (..., m, dim_j, dim_i)
    micro_grad = VectorField(grid, -np.einsum("...aji,...aj->...i", grad_p, gnu))

    # -(grad(iota*(div S - d/dt dchi_dnudot + dchi_dnu)))^T nu
    grad_bal = _grad(grid, iota[..., None] * (div_s - chi_rate + dchi_dnu))
    order_balance = VectorField(grid, -np.einsum("...ai,...a->...i", grad_bal, nu))

    micro_div = VectorField(grid, -iota[..., None] * np.einsum("...ai,...a->...i", gnu, div_s))
    micro_hess = VectorField(grid, -iota[..., None] * np.einsum("...aj,...aji->...i", s, hess))

    terms = {
        "thermo": thermo,
        "enthalpy": enthalpy,
        "micro_grad": micro_grad,
        "order_balance": order_balance,
        "micro_div": micro_div,
        "micro_hess": micro_hess,
    }
    return lhs, terms


def complex_crocco(
    state: ComplexState,
    model: ComplexFluidModel,
    coenergy: OrderCoEnergy,
) -> CroccoReport:
    """Order-parameter relation assembled from the componentwise form."""
    parts = gl_partials(model, state.iota, state.nu, state.grad_nu, state.eta)
    lhs, terms = _complex_terms(state, parts, coenergy)
    return _build_report("complex", COMPLEX_SCHEMA, lhs, terms)


def complex_momentum_residual(state: ComplexState, parts: GinzburgLandauPartials) -> VectorField:
    """Steady momentum residual of the order-parameter fluid.

    ``R = omega x v + grad(q^2)/2 + iota*grad(p_tilde) + iota*div((grad nu)^T S)``
    with ``p_tilde = -rho*iota*dphi_diota``.
    """
    grid = state.grid
    rho = state.rho.values
    iota = state.iota.values
    p_tilde = ScalarField(grid, -(rho * iota) * parts.dphi_diota)
    s = rho[..., None, None] * parts.dphi_dgrad_nu
    dyad = TensorField(grid, np.einsum("...ai,...aj->...ij", state.grad_nu.values, s))
    out = (
        lamb_vector(state.v).values
        + 0.5 * grad_scalar(speed_squared(state.v)).values
        + iota[..., None] * grad_scalar(p_tilde).values
        + iota[..., None] * div_tensor(dyad).values
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
        defect = _residual_from(*_complex_terms(state, parts, coenergy), COMPLEX_SCHEMA)
        target = (
            complex_momentum_residual(state, parts).values
            + substructural_coupling(state, parts, coenergy).values
        )
        return linf_norm(VectorField(grid, defect.values - target))

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
        target = report.terms_sum()
        mag = np.sqrt(np.sum(target.values**2, axis=-1))
    elif mode == "generation":
        diff = report.lhs.values - report.substructural_sum().values
        mag = np.sqrt(np.sum(diff**2, axis=-1))
    else:
        raise SchemaError(f"mode must be 'cancellation' or 'generation', got {mode!r}")
    field = ScalarField(report.lhs.grid, mag)
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
