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

Each quantity is evaluated once per state.  ``KortewegState``'s
``grad(iota)`` and ``iota_dot`` and ``ComplexState``'s ``grad(nu)`` and
``nu_dot`` are built on first read and kept, and the rates are read only under
a non-zero co-energy; a capillary bundle holds ``rho*P``, ``div(rho*P)``,
``P.grad(iota)``, ``dphi_diota``, ``phi``, ``theta`` and the co-energy
rates, and an order-parameter bundle ``S``, ``div S`` and the co-energy
rates (the scalar 0.0 under the zero co-energy), read next to the partials
of ``models.gl_partials``.  No term reads the self-interaction ``z``; it is
built only where the substructural balance residual reads it.
``_momentum_residual`` is the momentum residual of both fluids.  The engines
``_korteweg_terms`` and ``_complex_terms`` (the latter also fed by the
layered relation of :mod:`croccolab.smectic` with nu = w, m = 1) yield their
term arrays one by one in schema order.

Each relation has one term iterator: ``korteweg_relation``,
``complex_relation`` and ``smectic.smectic_relation`` hand their engine's
terms to ``_relation_fields``, the one place term fields are built.  It
yields the lhs, then each term as it is built, checked finite (a non-finite
term is named with its cell before any later term is built) and with its
norms, then the residual, which subtracts the terms in schema order.  The
reports (``korteweg_crocco``, ``complex_crocco``, ``smectic_crocco``)
collect that iterator; the CLI writes each field as it comes and drops it,
so an ``eval-*`` run holds the lhs copy and one term, not a report's eight
fields.  A defect probe level builds the Lamb vector and its bundles once
and no intermediate field, and subtracts each term from the Lamb-vector copy
as it is built, so it too holds one term at a time.

Bundle lifetimes.  The order-parameter engine drops its reference to each
partial at that partial's last read: ``theta`` in thermo, ``phi``,
``dphi_diota`` and ``dphi_dnu`` in enthalpy, and ``dphi_dgrad_nu`` when S is
built from it, after micro_grad.  A caller that keeps no partials of its
own, as the relation iterators do, frees each array there.  The engine
returns its order bundle, so a defect probe reads S, div S and the rates
back instead of rebuilding them.

The order-parameter engine keeps a bounded working set: it builds its terms
one by one, freeing each intermediate before the next term, and contracts
``D_i(P^a_j)`` with ``(grad nu)^a_j``, ``D_j`` of the state's own
``grad(nu)`` with ``S^a_j`` and each derivative of the balance with ``nu^a``
as each derivative is taken, so no second-gradient tensor (``m*dim*dim``
grid planes) and no gradient of the balance (``m*dim``) is built; the sums
run in the order, and give the bits, of ``_dyadic`` over the materialized
tensors.

Everything here is pure: states and reports are immutable value objects and
evaluators allocate fresh fields, so independent states can be evaluated
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Generator, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    _div_dyadic,
    _dot,
    _dyadic,
    _first_index,
    _grad,
    _grad_dot,
    _hess_dot,
    _linf,
    _pointwise_magnitude,
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
    specific volume exactly.  ``rho`` is built (and checked) with the state;
    ``grad_iota`` and the steady material derivative ``iota_dot = (v.grad)
    iota`` are built on first read and kept, so a state whose co-energy is
    zero never builds ``iota_dot``.
    """

    v: VectorField
    iota: ScalarField
    eta: ScalarField
    rho: ScalarField = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _density(self.iota, self.v, self.eta))

    @cached_property
    def grad_iota(self) -> VectorField:
        return grad_scalar(self.iota)

    @cached_property
    def iota_dot(self) -> ScalarField:
        return advect_steady(self.iota, self.v)

    @property
    def grid(self) -> Grid:
        return self.v.grid


@dataclass(frozen=True)
class ComplexState:
    """Steady flow state (v, iota, eta, nu) of an order-parameter fluid.

    ``rho`` is built (and checked) with the state; ``grad_nu`` and ``nu_dot
    = (grad nu) v`` (the steady material derivative in the chart) are built
    on first read and kept, so a state whose co-energy is zero never builds
    ``nu_dot``.
    """

    v: VectorField
    iota: ScalarField
    eta: ScalarField
    nu: OrderField
    rho: ScalarField = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _density(self.iota, self.v, self.eta, self.nu))

    @cached_property
    def grad_nu(self) -> OrderGradField:
        return order_grad(self.nu)

    @cached_property
    def nu_dot(self) -> OrderField:
        # np.einsum, not _dyadic: on a 3-D grid it adds this contiguous axis in another order
        return OrderField(self.nu.grid, np.einsum("...ai,...i->...a", self.grad_nu.values, self.v.values))

    @property
    def grid(self) -> Grid:
        return self.v.grid


def lamb_vector(v: VectorField) -> VectorField:
    """omega x v.  In 2-D the planar convention gives omega*(-v_y, v_x)."""
    w = curl_vector(v).values
    if v.grid.dim == 2:
        return VectorField(v.grid, np.stack([-w * v.values[..., 1], w * v.values[..., 0]], axis=-1))
    return VectorField(v.grid, np.cross(w, v.values))


def _speed2(v: VectorField) -> np.ndarray:
    return _dot(v.values, v.values)


def _thermo(grid: Grid, theta: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """theta * grad(eta), scaled in place."""
    out = _grad(grid, eta)
    out *= theta[..., None]
    return out


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
        return self._sum([name for name in self.terms if name not in ("thermo", "enthalpy")])

    def terms_sum(self) -> VectorField:
        return self._sum(self.terms)

    def _sum(self, names: Sequence[str]) -> VectorField:
        acc = np.zeros_like(self.lhs.values)
        for name in names:
            acc = acc + self.terms[name].values
        return VectorField(self.lhs.grid, acc)


def _residual_from(lhs: VectorField, terms: Iterator[np.ndarray]) -> tuple[np.ndarray, object]:
    """lhs minus the term arrays, subtracted one by one in the order given, and what ``terms`` returns.

    Each term is dropped once subtracted, so terms built on demand are held
    one at a time; the engine's return value (the order-parameter bundle)
    comes back with the difference.
    """
    res = lhs.values.copy()
    while True:
        try:
            res -= next(terms)
        except StopIteration as done:
            return res, done.value


def _report_field(relation: str, name: str, grid: Grid, values: np.ndarray) -> VectorField:
    try:
        return VectorField(grid, values)
    except FieldValueError:
        cell = _first_index(~np.isfinite(values))[: grid.dim]
        raise FieldValueError(f"{relation} term {name} is non-finite at cell {cell}") from None


RelationFields = Iterator[tuple[str, VectorField, tuple[float, float]]]


def _relation_fields(
    relation: str, schema: Sequence[str], lhs: VectorField, terms: Iterable[np.ndarray]
) -> RelationFields:
    """The one consumer of a relation's term arrays: each field, checked, with its (l2, linf) norms.

    Yields ``lhs``, then each term in schema order as the engine builds it,
    then ``residual``.  A term array becomes a field at once (a non-finite
    term is named with its first bad cell, before any later term is built)
    and is subtracted from the lhs copy; the residual subtracts the fields'
    values, which are the arrays' bits, in schema order, and is checked
    last.  Nothing is kept once yielded, so a consumer that drops each field
    holds the lhs copy and one term.
    """
    grid, terms = lhs.grid, iter(terms)
    residual = lhs.values.copy()
    yield "lhs", lhs, _norms(lhs)
    del lhs
    for name in schema:
        field = _report_field(relation, name, grid, next(terms))
        residual -= field.values
        yield name, field, _norms(field)
        del field
    field = _report_field(relation, "residual", grid, residual)
    del residual
    yield "residual", field, _norms(field)


def _report(relation: str, fields: RelationFields) -> CroccoReport:
    """The report that collects a relation's fields."""
    named, norms = {}, {}
    for name, field, norm in fields:
        named[name], norms[name] = field, norm
    lhs, residual = named.pop("lhs"), named.pop("residual")
    return CroccoReport(relation, lhs, named, residual, norms)


def _norms(field: Field) -> tuple[float, float]:
    """(l2_norm, linf_norm) of a field from one pointwise magnitude, with the same bits as each."""
    mag = _pointwise_magnitude(field.grid, field.values)
    return float(math.sqrt(np.sum(mag * mag) * field.grid.cell_volume)), float(np.max(mag))


# ---------------------------------------------------------------------------
# capillary-fluid constitutive assemblies
# ---------------------------------------------------------------------------


class _Capillary(NamedTuple):
    """The capillary quantities of one state, each evaluated once; ``P = dphi_dgrad_iota``."""

    rho_p: np.ndarray
    div_rho_p: np.ndarray
    p_grad_iota: np.ndarray
    dphi_diota: np.ndarray
    phi: np.ndarray
    theta: np.ndarray  # from the exp(eta/c_v) that phi's entropic part reads
    rate: np.ndarray | None  # (v.grad)(dchi_diota_dot); it and dchi_diota are None with the zero co-energy
    dchi_diota: np.ndarray | None


def _capillary(state: KortewegState, model: KortewegModel, coenergy: KortewegCoEnergy) -> _Capillary:
    grid = state.grid
    iota, g_iota = state.iota.values, state.grad_iota.values
    p = model.dphi_dgrad_iota(g_iota)
    rho_p = state.rho.values[..., None] * p
    rate = dchi_diota = None
    if not coenergy.is_zero:
        iota_dot = state.iota_dot.values
        rate = _advect(grid, coenergy.dchi_diota_dot(iota, iota_dot), state.v.values)
        dchi_diota = coenergy.dchi_diota(iota, iota_dot)
    entropic, theta = model._thermal(state.eta.values)
    phi = model._phi(iota, g_iota, entropic)
    return _Capillary(rho_p, _div(grid, rho_p), _dot(p, g_iota), model.dphi_diota(iota), phi, theta, rate, dchi_diota)


def korteweg_stress(state: KortewegState, model: KortewegModel) -> TensorField:
    """Dyadic capillary stress grad(iota) (x) rho*dphi_dgrad_iota (rank one per cell)."""
    rho_p = _capillary(state, model, KortewegCoEnergy()).rho_p
    return TensorField(state.grid, _dyadic(state.grad_iota.values[..., None, :], rho_p[..., None, :]))


@dataclass(frozen=True)
class KortewegPressures:
    p: ScalarField
    p_bar: ScalarField
    p_check: ScalarField


def _pressures(state: KortewegState, cap: _Capillary) -> tuple[np.ndarray, ...]:
    """The arrays (p, p_bar, p_check) of :func:`korteweg_pressures`."""
    iota = state.iota.values
    rho_iota = state.rho.values * iota
    p = -rho_iota * cap.dphi_diota + iota * cap.div_rho_p
    if cap.rate is None:
        return p, p, np.zeros(state.grid.extents)
    p_check = rho_iota * cap.rate - cap.dchi_diota
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
    pressure; the enthalpy's pressure route fixes the sign).  With the zero
    co-energy the kinetic pressure short-circuits and ``p_bar`` is ``p``
    bit-exactly.
    """
    grid = state.grid
    p, p_bar, p_check = _pressures(state, _capillary(state, model, coenergy))
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


def _xi(state: KortewegState, cap: _Capillary) -> np.ndarray:
    """xi = phi - iota*dphi_diota - P.grad(iota)."""
    return cap.phi - state.iota.values * cap.dphi_diota - cap.p_grad_iota


def korteweg_enthalpy(
    state: KortewegState,
    model: KortewegModel,
    coenergy: KortewegCoEnergy,
) -> KortewegEnthalpy:
    """Specific enthalpy xi (minus the partial Legendre transform of phi in
    its kinematic arguments) and total enthalpy h = q^2/2 + xi."""
    xi = _xi(state, _capillary(state, model, coenergy))
    return KortewegEnthalpy(xi=ScalarField(state.grid, xi), h=ScalarField(state.grid, 0.5 * _speed2(state.v) + xi))


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
    entropic, theta = model._thermal(eta)
    big_h = 0.5 * _speed2(state.v) + model._phi(iota, state.grad_iota.values, entropic) - iota * model.dphi_diota(iota)
    terms = [_thermo(grid, theta, eta), -_grad(grid, big_h)]
    return _report("classical", _relation_fields("classical", CLASSICAL_SCHEMA, lamb_vector(state.v), terms))


def _korteweg_terms(state: KortewegState, cap: _Capillary) -> Iterator[np.ndarray]:
    """The term arrays of the capillary relation, one by one in ``KORTEWEG_SCHEMA`` order."""
    grid = state.grid
    iota = state.iota.values
    yield _thermo(grid, cap.theta, state.eta.values)
    yield -_grad(grid, 0.5 * _speed2(state.v) + _xi(state, cap))  # enthalpy
    yield -_grad(grid, iota**2 * cap.div_rho_p + cap.p_grad_iota)  # wall
    if cap.rate is None:  # inertia
        yield np.zeros(grid.extents + (grid.dim,))
    else:
        yield iota[..., None] * _grad(grid, cap.rate - cap.dchi_diota)


def korteweg_relation(state: KortewegState, model: KortewegModel, coenergy: KortewegCoEnergy) -> RelationFields:
    """The capillary relation's fields as they are built (see ``_relation_fields``)."""
    cap = _capillary(state, model, coenergy)
    return _relation_fields("korteweg", KORTEWEG_SCHEMA, lamb_vector(state.v), _korteweg_terms(state, cap))


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
    return _report("korteweg", korteweg_relation(state, model, coenergy))


def _momentum_residual(
    state: KortewegState | ComplexState, lamb: np.ndarray, p: np.ndarray, g: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """The steady momentum residual of either fluid, ``lamb + grad(q^2)/2 + iota*grad(p) + iota*div(D)``.

    ``D_ij = sum_a g[a, i] s[a, j]``: ``grad(iota) (x) rho*P`` with
    ``p = p_bar`` for the capillary fluid, ``(grad nu)^T S`` with
    ``p = p_tilde`` for the order-parameter fluid.
    """
    grid = state.grid
    iota = state.iota.values[..., None]
    return lamb + 0.5 * _grad(grid, _speed2(state.v)) + iota * _grad(grid, p) + iota * _div_dyadic(grid, g, s)


def _steady_residual(state: KortewegState, cap: _Capillary, lamb: np.ndarray) -> np.ndarray:
    _, p_bar, _ = _pressures(state, cap)
    return _momentum_residual(state, lamb, p_bar, state.grad_iota.values[..., None, :], cap.rho_p[..., None, :])


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
    cap = _capillary(state, model, coenergy)
    return VectorField(state.grid, _steady_residual(state, cap, lamb_vector(state.v).values))


def defect_identity(
    state_factory: Callable[[Grid], tuple[KortewegState, KortewegModel, KortewegCoEnergy]],
    grids: Sequence[Grid],
    min_order: float = 1.5,
) -> RefinementReport:
    """Certify defect == momentum residual for the capillary relation.

    Evaluates ``|| (lhs - sum terms) - R ||_inf`` on each grid of a halving
    family and fits the refinement order; an order below ``min_order`` (and
    not exactly zero) raises, because it means the proof-chain identity was
    assembled wrongly.  Each level builds the Lamb vector and the capillary
    bundle once, for the relation and the residual alike.
    """

    def probe_for(grid: Grid) -> float:
        state, model, coenergy = state_factory(grid)
        cap = _capillary(state, model, coenergy)
        lamb = lamb_vector(state.v)
        defect, _ = _residual_from(lamb, _korteweg_terms(state, cap))
        return _linf(grid, defect - _steady_residual(state, cap, lamb.values))

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


class _Order(NamedTuple):
    """The order-parameter bundle of one state: what the terms after ``micro_grad`` read."""

    s: np.ndarray  # microstress rho*dphi_dgrad_nu
    div_s: np.ndarray
    rate: np.ndarray | float  # (v.grad)(dchi_dnudot); it and dchi_dnu are the scalar 0.0 with the zero co-energy
    dchi_dnu: np.ndarray | float


def _order(v: VectorField, s: np.ndarray, nu: np.ndarray, nu_dot: np.ndarray | None, coenergy: OrderCoEnergy) -> _Order:
    """The bundle of the microstress ``s = rho*dphi_dgrad_nu`` over the cells of ``v``'s grid.

    Only a non-zero co-energy reads ``nu_dot``.
    """
    grid = v.grid
    if coenergy.is_zero:
        rate = dchi_dnu = 0.0  # adds and subtracts as a zero array does, bit for bit
    else:
        rate, dchi_dnu = _advect(grid, coenergy.dchi_dnu_dot(nu, nu_dot), v.values), coenergy.dchi_dnu(nu, nu_dot)
    return _Order(s, _div(grid, s), rate, dchi_dnu)


def _nu_dot(state: ComplexState, coenergy: OrderCoEnergy) -> np.ndarray | None:
    return None if coenergy.is_zero else state.nu_dot.values


def _state_order(state: ComplexState, parts: GinzburgLandauPartials, coenergy: OrderCoEnergy) -> _Order:
    s = state.rho.values[..., None, None] * parts.dphi_dgrad_nu
    return _order(state.v, s, state.nu.values, _nu_dot(state, coenergy), coenergy)


def _balance_residual(order: _Order, rho: np.ndarray, dphi_dnu: np.ndarray) -> np.ndarray:
    """div S - z - (rate - dchi_dnu); the self-interaction z = rho*dphi_dnu is built here, where it is read."""
    return order.div_s - rho[..., None] * dphi_dnu - (order.rate - order.dchi_dnu)


def substructural_balance_residual(
    state: ComplexState,
    parts: GinzburgLandauPartials,
    coenergy: OrderCoEnergy,
) -> OrderField:
    """Residual of the substructural balance div(S) - z = d/dt(dchi_dnudot).

    Steady reading: ``div S - z - (v.grad)(Omega nu_dot + lam)`` (the
    constant covector's advection vanishes).  Zero on hand-built equilibria.
    """
    order = _state_order(state, parts, coenergy)
    return OrderField(state.grid, _balance_residual(order, state.rho.values, parts.dphi_dnu))


def _complex_terms(
    v: VectorField, rho: np.ndarray, iota: np.ndarray, eta: np.ndarray, nu: np.ndarray, grad_nu: np.ndarray,
    nu_dot: np.ndarray | None, parts: GinzburgLandauPartials, coenergy: OrderCoEnergy,
) -> Generator[np.ndarray, None, _Order]:
    """Shared engine: the componentwise term arrays of the relation, in ``COMPLEX_SCHEMA`` order.

    Reads arrays over the cells of ``v``'s grid: ``nu`` with its chart axis
    and ``grad_nu``, the first derivatives of ``nu``, with the chart and
    spatial axes.  Each term is built when the previous one has been taken,
    and its intermediates are freed before it is handed over, so a consumer
    that drops each term holds one at a time; the two second-gradient terms
    contract each derivative as it is taken (``_grad_dot``, ``_hess_dot``),
    so no ``m*dim*dim`` tensor is built.

    The engine drops its reference to each partial at the partial's last
    read, and builds the order bundle (S, div S and the rates) only after
    ``micro_grad``, from the last reference to ``dphi_dgrad_nu``; a caller
    that keeps no ``parts`` of its own frees each array there.  The bundle
    is the engine's return value, so a defect probe reads it back.
    """
    grid = v.grid
    p = dict(vars(parts))  # the engine's own references, each popped at its last read
    del parts
    yield _thermo(grid, p.pop("theta"), eta)
    # enthalpy: -grad(h_c), h_c = q^2/2 + phi - iota*dphi_diota - dphi_dnu.nu - P:grad(nu)
    yield -_grad(grid, 0.5 * _speed2(v) + (
        p.pop("phi")
        - iota * p.pop("dphi_diota")
        - _dot(p.pop("dphi_dnu"), nu)
        - _dot(p["dphi_dgrad_nu"], grad_nu, axes=2)
    ))
    # micro_grad: -(grad P)^T grad(nu), sum_aj D_i(P^a_j) (grad nu)^a_j
    yield -_grad_dot(grid, p["dphi_dgrad_nu"], grad_nu)
    order = _order(v, rho[..., None, None] * p.pop("dphi_dgrad_nu"), nu, nu_dot, coenergy)
    # order_balance: -(grad(iota*(div S - d/dt dchi_dnudot + dchi_dnu)))^T nu, each derivative of the
    # balance contracted with nu as it is taken, so the balance's gradient is never built
    yield -_grad_dot(grid, iota[..., None] * (order.div_s - order.rate + order.dchi_dnu), nu)
    yield -iota[..., None] * _dyadic(grad_nu, order.div_s[..., None])[..., 0]  # micro_div
    # micro_hess: -iota S:gradgrad(nu), sum_aj D_j((grad nu)^a_i) S^a_j
    yield -iota[..., None] * _hess_dot(grid, grad_nu, order.s)
    return order


def _state_terms(
    state: ComplexState, parts: GinzburgLandauPartials, coenergy: OrderCoEnergy
) -> Generator[np.ndarray, None, _Order]:
    """The engine fed from a typed order-parameter state."""
    fields = (state.rho, state.iota, state.eta, state.nu, state.grad_nu)
    return _complex_terms(state.v, *(f.values for f in fields), _nu_dot(state, coenergy), parts, coenergy)


def complex_relation(state: ComplexState, model: ComplexFluidModel, coenergy: OrderCoEnergy) -> RelationFields:
    """The order-parameter relation's fields as they are built (see ``_relation_fields``).

    The partials are handed to the engine alone, so each is freed after its last term.
    """
    parts = gl_partials(model, state.iota, state.nu, state.grad_nu, state.eta)
    return _relation_fields("complex", COMPLEX_SCHEMA, lamb_vector(state.v), _state_terms(state, parts, coenergy))


def complex_crocco(
    state: ComplexState,
    model: ComplexFluidModel,
    coenergy: OrderCoEnergy,
) -> CroccoReport:
    """Order-parameter relation assembled from the componentwise form."""
    return _report("complex", complex_relation(state, model, coenergy))


def _complex_residual(
    state: ComplexState, parts: GinzburgLandauPartials, s: np.ndarray, lamb: np.ndarray
) -> np.ndarray:
    p_tilde = -(state.rho.values * state.iota.values) * parts.dphi_diota
    return _momentum_residual(state, lamb, p_tilde, state.grad_nu.values, s)


def complex_momentum_residual(state: ComplexState, parts: GinzburgLandauPartials) -> VectorField:
    """Steady momentum residual of the order-parameter fluid.

    ``R = omega x v + grad(q^2)/2 + iota*grad(p_tilde) + iota*div((grad nu)^T S)``
    with ``p_tilde = -rho*iota*dphi_diota``.
    """
    s = state.rho.values[..., None, None] * parts.dphi_dgrad_nu
    return VectorField(state.grid, _complex_residual(state, parts, s, lamb_vector(state.v).values))


def _coupling(state: ComplexState, parts: GinzburgLandauPartials, order: _Order) -> np.ndarray:
    iota, rho = state.iota.values, state.rho.values
    grad_c = _grad(state.grid, iota[..., None] * _balance_residual(order, rho, parts.dphi_dnu))
    return _dyadic(grad_c, state.nu.values[..., None])[..., 0]


def substructural_coupling(
    state: ComplexState,
    parts: GinzburgLandauPartials,
    coenergy: OrderCoEnergy,
) -> VectorField:
    """(grad(iota * Rs))^T nu, the defect contribution of the substructural balance.

    Vanishes when the substructural balance holds, recovering defect == R.
    """
    return VectorField(state.grid, _coupling(state, parts, _state_order(state, parts, coenergy)))


def complex_defect_identity(
    state_factory: Callable[[Grid], tuple[ComplexState, ComplexFluidModel, OrderCoEnergy]],
    grids: Sequence[Grid],
    min_order: float = 1.5,
) -> RefinementReport:
    """Certify defect == momentum residual + substructural coupling.

    The Lamb vector, the constitutive bundle and the order-parameter bundle
    are evaluated once per level and shared by the relation, the momentum
    residual and the coupling: the engine builds the order bundle and hands
    it back with the last term.
    """

    def probe_for(grid: Grid) -> float:
        state, model, coenergy = state_factory(grid)
        parts = gl_partials(model, state.iota, state.nu, state.grad_nu, state.eta)
        lamb = lamb_vector(state.v)
        defect, order = _residual_from(lamb, _state_terms(state, parts, coenergy))
        target = _complex_residual(state, parts, order.s, lamb.values) + _coupling(state, parts, order)
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
    field = ScalarField(report.lhs.grid, _pointwise_magnitude(report.lhs.grid, target))
    return CorollaryCheck(mode, field, l2_norm(field), linf_norm(field))
