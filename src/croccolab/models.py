"""Constitutive catalog: potentials and kinetic co-energies with closed-form partials.

Two families are covered:

* A capillary (density-gradient) fluid whose potential is
  ``phi = f(iota, eta) + 0.5*beta*|grad iota|^2`` with a quadratic or
  two-well mechanical part (:class:`MechanicalPart`) and a separable
  entropic part ``e0*exp(eta/c_v)`` (:class:`ThermalPart`), chosen so the
  temperature ``theta = d phi/d eta`` is positive for every admissible state.
* A general order-parameter fluid with a Ginzburg-Landau potential
  ``phi = gamma(iota, nu, eta) + 0.5*a*||grad nu||^2`` whose chart lives in
  R^m (optionally constrained to the unit sphere); its ``f`` is made of the
  same two parts.

Kinetic co-energies are quadratic: ``chi = 0.5*kappa(iota)*iota_dot^2`` with
affine ``kappa``, and ``chi = 0.5*nudot.Omega.nudot + lam.nudot`` with
constant symmetric ``Omega`` and constant covector ``lam``.  The ``lam``
addendum drops out of the kinetic energy obtained by the Legendre transform
in the rate, which the tests check.

The zero co-energy (all coefficients zero) is admitted as the designated
"no substructural inertia" element; evaluators short-circuit on it so the
inertia-free reductions are bit-exact.

Every model's constructor first rejects a NaN or infinite parameter, a
float field or an entry of a tuple field, naming it (``_require_finite``).

All evaluators here are pure and operate on numpy arrays (fields pass their
``values``); objectivity holds because gradients enter only through their
euclidean magnitude.  The one field-level entry point is :func:`gl_partials`:
it evaluates the Ginzburg-Landau potential and its four partials once per
state, runs the sphere check once and checks every output finite, and the
order-parameter relation engine consumes that bundle.  The capillary
relation calls the model methods directly.

:func:`validate_partials` is the finite-difference oracle: one check runs
over a table, per catalog entry, of (entry, closed form, reference) rows,
the reference of a partial being a central difference of the entry's own
potential or co-energy.  :func:`catalog_models` lists the instances that
``croccolab validate-models`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from typing import Iterator

import numpy as np

from .fieldcalc import (
    OrderField,
    OrderGradField,
    ScalarField,
    _dot,
    _first_index,
    _pointwise_magnitude,
    require_same_grid,
)

QUADRATIC = "quadratic"
TWO_WELL = "two-well"
_F_KINDS = (QUADRATIC, TWO_WELL)

SPHERE_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model parameters or inadmissible constitutive input."""


class EvaluationError(ValueError):
    """Constitutive evaluation produced a non-finite value."""


def _nonfinite(name: str, value) -> Iterator[tuple[str, float]]:
    """(name, value) of each non-finite float in `value`: a float, or a (nested) tuple, list or array of them."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        for i, x in enumerate(value):
            yield from _nonfinite(f"{name}[{i}]", x)
    elif isinstance(value, float) and not math.isfinite(value):
        yield name, value


def _require_finite(model) -> None:
    """Raise ModelError naming each float parameter, or tuple entry, of a model dataclass that is not finite."""
    bad = [f"{name} = {value}" for f in fields(model) for name, value in _nonfinite(f.name, getattr(model, f.name))]
    if bad:
        raise ModelError(f"{type(model).__name__} parameters must be finite, got {', '.join(bad)}")


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise EvaluationError(f"{name} is non-finite at index {_first_index(~np.isfinite(arr))}")
    return arr


def _mech_value(kind: str, c: float, w1: float, w2: float, iota: np.ndarray) -> np.ndarray:
    if kind == QUADRATIC:
        return 0.5 * c * (iota - w1) ** 2
    return c * (iota - w1) ** 2 * (iota - w2) ** 2


def _mech_prime(kind: str, c: float, w1: float, w2: float, iota: np.ndarray) -> np.ndarray:
    if kind == QUADRATIC:
        return c * (iota - w1)
    return 2.0 * c * (iota - w1) * (iota - w2) * (2.0 * iota - w1 - w2)


class MechanicalPart:
    """The mechanical part ``f(iota)`` of a potential and its derivative, shared by
    every model with fields f_kind, c and iota_ref: "quadratic" gives
    ``c*(iota - iota_ref)^2 / 2`` and "two-well" ``c*(iota - w1)^2 * (iota - w2)^2``,
    the model naming its fields w1, w2 in ``_wells``."""

    f_kind: str
    c: float
    iota_ref: float
    _wells: tuple[str, str]

    def _check_mechanical(self) -> None:
        if self.f_kind not in _F_KINDS:
            raise ModelError(f"f_kind must be one of {_F_KINDS}, got {self.f_kind!r}")

    def _mech_args(self) -> tuple[str, float, float, float]:
        w1, w2 = (getattr(self, name) for name in self._wells)
        return self.f_kind, self.c, self.iota_ref if self.f_kind == QUADRATIC else w1, w2

    def f_mech(self, iota: np.ndarray) -> np.ndarray:
        return _mech_value(*self._mech_args(), iota)

    def df_mech(self, iota: np.ndarray) -> np.ndarray:
        return _mech_prime(*self._mech_args(), iota)


class ThermalPart:
    """The separable entropic part ``e0*exp(eta/c_v)`` of a potential and its
    temperature ``theta = d/d eta``, shared by every model with fields e0, c_v."""

    e0: float
    c_v: float

    def _check_thermal(self) -> None:
        if self.e0 <= 0.0 or self.c_v <= 0.0:
            raise ModelError("entropic parameters e0, c_v must be > 0")

    def entropic(self, eta: np.ndarray) -> np.ndarray:
        return self._thermal(eta)[0]

    def theta(self, eta: np.ndarray) -> np.ndarray:
        return self._thermal(eta)[1]

    def _thermal(self, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entropic part and the temperature, from one ``exp(eta/c_v)``."""
        growth = np.exp(np.asarray(eta) / self.c_v)
        return self.e0 * growth, (self.e0 / self.c_v) * growth


# ---------------------------------------------------------------------------
# capillary fluid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KortewegModel(MechanicalPart, ThermalPart):
    """Potential f(iota, eta) + 0.5*beta*|grad iota|^2.

    ``f_kind`` selects the mechanical part (see :class:`MechanicalPart`),
    whose wells are ``well_1`` and ``well_2``; the entropic part is
    ``e0*exp(eta/c_v)``.
    """

    f_kind: str = QUADRATIC
    c: float = 1.0
    iota_ref: float = 1.0
    well_1: float = 1.0
    well_2: float = 2.0
    beta: float = 0.0
    e0: float = 1.0
    c_v: float = 1.0
    _wells = ("well_1", "well_2")

    def __post_init__(self) -> None:
        _require_finite(self)
        self._check_mechanical()
        if self.beta < 0.0:
            raise ModelError("gradient coefficient beta must be >= 0")
        self._check_thermal()

    def phi(self, iota: np.ndarray, grad_iota: np.ndarray, eta: np.ndarray) -> np.ndarray:
        return self._phi(iota, grad_iota, self.entropic(eta))

    def _phi(self, iota: np.ndarray, grad_iota: np.ndarray, entropic: np.ndarray) -> np.ndarray:
        """phi with its entropic part already evaluated."""
        g = np.asarray(grad_iota)
        return self.f_mech(iota) + entropic + 0.5 * self.beta * _dot(g, g)

    def dphi_diota(self, iota: np.ndarray) -> np.ndarray:
        return self.df_mech(iota)

    def dphi_dgrad_iota(self, grad_iota: np.ndarray) -> np.ndarray:
        return self.beta * np.asarray(grad_iota)


@dataclass(frozen=True)
class KortewegCoEnergy:
    """Rate co-energy 0.5*kappa(iota)*iota_dot^2 with kappa = kappa0 + kappa1*iota.

    ``kappa0 = kappa1 = 0`` is the designated zero element (no substructural
    inertia); for genuine inertia ``kappa`` must stay positive on the state's
    iota range, which :func:`validate_partials` samples.
    """

    kappa0: float = 0.0
    kappa1: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)

    @property
    def is_zero(self) -> bool:
        return self.kappa0 == 0.0 and self.kappa1 == 0.0

    def kappa(self, iota: np.ndarray) -> np.ndarray:
        return self.kappa0 + self.kappa1 * np.asarray(iota)

    def chi(self, iota: np.ndarray, iota_dot: np.ndarray) -> np.ndarray:
        return 0.5 * self.kappa(iota) * np.asarray(iota_dot) ** 2

    def dchi_diota_dot(self, iota: np.ndarray, iota_dot: np.ndarray) -> np.ndarray:
        return self.kappa(iota) * np.asarray(iota_dot)

    def dchi_diota(self, iota: np.ndarray, iota_dot: np.ndarray) -> np.ndarray:
        del iota  # affine kappa: the iota-partial is state independent
        return 0.5 * self.kappa1 * np.asarray(iota_dot) ** 2


# ---------------------------------------------------------------------------
# general order-parameter fluid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexFluidModel(MechanicalPart, ThermalPart):
    """Ginzburg-Landau potential gamma(iota, nu, eta) + 0.5*a*||grad nu||^2.

    gamma kinds:

    * "quadratic": ``0.5*k*|nu - nu_ref(iota)|^2 + f(iota, eta)`` with the
      affine anchor ``nu_ref(iota) = nu_ref + nu_ref_slope*iota``.
    * "two-well": ``k*(nu^0 - well_1)^2*(nu^0 - well_2)^2 + f(iota, eta)``
      acting on chart component 0.

    ``f`` is the capillary mechanical part, with wells ``f_well_1`` and
    ``f_well_2``, plus the entropic part.  When
    ``sphere_constrained`` is set, order-parameter input must sit on the unit
    sphere of the chart to within 1e-12 per cell; the constraint is enforced
    by input validation, not by projection dynamics.
    """

    m: int
    gamma_kind: str = QUADRATIC
    k: float = 1.0
    nu_ref: tuple[float, ...] = ()
    nu_ref_slope: tuple[float, ...] = ()
    well_1: float = -1.0
    well_2: float = 1.0
    a: float = 1.0
    f_kind: str = QUADRATIC
    c: float = 1.0
    iota_ref: float = 1.0
    f_well_1: float = 1.0
    f_well_2: float = 2.0
    e0: float = 1.0
    c_v: float = 1.0
    sphere_constrained: bool = False
    _wells = ("f_well_1", "f_well_2")

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.m < 1:
            raise ModelError(f"chart dimension m must be >= 1, got {self.m}")
        if self.gamma_kind not in _F_KINDS:
            raise ModelError(f"gamma_kind must be one of {_F_KINDS}, got {self.gamma_kind!r}")
        self._check_mechanical()
        if self.a < 0.0:
            raise ModelError("gradient coefficient a must be >= 0")
        self._check_thermal()
        ref = tuple(self.nu_ref) if self.nu_ref else (0.0,) * self.m
        slope = tuple(self.nu_ref_slope) if self.nu_ref_slope else (0.0,) * self.m
        if len(ref) != self.m or len(slope) != self.m:
            raise ModelError("nu_ref / nu_ref_slope must have length m")
        object.__setattr__(self, "nu_ref", ref)
        object.__setattr__(self, "nu_ref_slope", slope)

    def nu_anchor(self, iota: np.ndarray) -> np.ndarray:
        """nu_ref(iota), broadcast over the trailing chart axis."""
        base = np.asarray(self.nu_ref)
        slope = np.asarray(self.nu_ref_slope)
        return base + np.asarray(iota)[..., None] * slope

    def phi(
        self,
        iota: np.ndarray,
        nu: np.ndarray,
        grad_nu: np.ndarray,
        eta: np.ndarray,
    ) -> np.ndarray:
        return self._phi(iota, nu, grad_nu, self.entropic(eta), self._offset(iota, nu))

    def dphi_diota(self, iota: np.ndarray, nu: np.ndarray) -> np.ndarray:
        return self._dphi_diota(iota, self._offset(iota, nu))

    def dphi_dnu(self, iota: np.ndarray, nu: np.ndarray) -> np.ndarray:
        return self._dphi_dnu(nu, self._offset(iota, nu))

    # The private forms below take the pieces that phi and its partials share, each
    # evaluated once by gl_partials: the entropic part and the offset ``d``.

    def _offset(self, iota: np.ndarray, nu: np.ndarray) -> np.ndarray | None:
        """``d = nu - nu_ref(iota)`` of the quadratic gamma; None for the two-well gamma, which reads no anchor."""
        return np.asarray(nu) - self.nu_anchor(iota) if self.gamma_kind == QUADRATIC else None

    def _phi(
        self, iota: np.ndarray, nu: np.ndarray, grad_nu: np.ndarray, entropic: np.ndarray, d: np.ndarray | None
    ) -> np.ndarray:
        f = self.f_mech(iota) + entropic
        if d is not None:
            gamma = 0.5 * self.k * _dot(d, d) + f
        else:
            gamma = _mech_value(TWO_WELL, self.k, self.well_1, self.well_2, np.asarray(nu)[..., 0]) + f
        gn = np.asarray(grad_nu)
        return gamma + 0.5 * self.a * _dot(gn, gn, axes=2)

    def _dphi_diota(self, iota: np.ndarray, d: np.ndarray | None) -> np.ndarray:
        out = self.df_mech(iota)
        if d is not None and any(s != 0.0 for s in self.nu_ref_slope):
            out = out - self.k * _dot(d, np.asarray(self.nu_ref_slope))
        return out

    def _dphi_dnu(self, nu: np.ndarray, d: np.ndarray | None) -> np.ndarray:
        if d is not None:
            return self.k * d
        comp = np.asarray(nu)[..., 0]
        out = np.zeros_like(np.asarray(nu))
        out[..., 0] = _mech_prime(TWO_WELL, self.k, self.well_1, self.well_2, comp)
        return out

    def dphi_dgrad_nu(self, grad_nu: np.ndarray) -> np.ndarray:
        return self.a * np.asarray(grad_nu)


def check_sphere_constraint(model: ComplexFluidModel, nu: OrderField) -> None:
    """Reject order-parameter input off the unit sphere when the model demands it."""
    if not model.sphere_constrained:
        return
    dev = np.abs(_pointwise_magnitude(nu.grid, nu.values) - 1.0)
    if np.max(dev) > SPHERE_TOL:
        raise ModelError(f"order parameter leaves the unit sphere at cell {_first_index(dev > SPHERE_TOL)}")


@dataclass(frozen=True)
class GinzburgLandauPartials:
    """The Ginzburg-Landau potential and its partials, evaluated once per state.

    Arrays over the cells of one grid: ``dphi_diota``, ``theta`` and ``phi``
    are scalar, ``dphi_dnu`` carries the chart axis and ``dphi_dgrad_nu``
    the chart and spatial axes ``(m, dim)``.  This is the
    bundle every order-parameter relation, residual and interaction reads.
    """

    dphi_diota: np.ndarray
    dphi_dnu: np.ndarray
    dphi_dgrad_nu: np.ndarray
    theta: np.ndarray
    phi: np.ndarray


def gl_partials(
    model: ComplexFluidModel,
    iota: ScalarField,
    nu: OrderField,
    grad_nu: OrderGradField,
    eta: ScalarField,
) -> GinzburgLandauPartials:
    """Potential and pointwise partials of the Ginzburg-Landau model, each checked finite.

    The anchor offset ``nu - nu_ref(iota)`` and ``exp(eta/c_v)`` are each
    evaluated once and shared by the potential and the partials that read
    them, with the bits of the model's public methods.
    """
    require_same_grid(iota, nu, grad_nu, eta)
    if nu.m != model.m or grad_nu.m != model.m:
        raise ModelError(f"chart dimension mismatch: model m={model.m}, fields m={nu.m}")
    check_sphere_constraint(model, nu)
    d = model._offset(iota.values, nu.values)
    entropic, theta = model._thermal(eta.values)
    return GinzburgLandauPartials(
        dphi_diota=_check_finite("dphi_diota", model._dphi_diota(iota.values, d)),
        dphi_dnu=_check_finite("dphi_dnu", model._dphi_dnu(nu.values, d)),
        dphi_dgrad_nu=_check_finite("dphi_dgrad_nu", model.dphi_dgrad_nu(grad_nu.values)),
        theta=_check_finite("theta", theta),
        phi=_check_finite("phi", model._phi(iota.values, nu.values, grad_nu.values, entropic, d)),
    )


@dataclass(frozen=True)
class OrderCoEnergy:
    """Co-energy 0.5*nudot.Omega.nudot + lam.nudot, Omega constant symmetric PSD.

    The Legendre transform in the rate gives the kinetic energy
    ``0.5*nudot.Omega.nudot`` independently of ``lam``.  ``Omega = 0`` with
    ``lam = 0`` is the zero element used by inertia-free reductions.
    """

    omega: tuple[tuple[float, ...], ...]
    lam: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_finite(self)
        om = np.array(self.omega, dtype=float)
        lv = np.array(self.lam, dtype=float)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise ModelError(f"Omega must be square, got shape {om.shape}")
        if lv.shape != (om.shape[0],):
            raise ModelError("lam must be an m-covector matching Omega")
        # both floors scale with Omega, so s * Omega gets the verdict of Omega
        tol = 1e-12 * float(np.max(np.abs(om)))
        if np.max(np.abs(om - om.T)) > tol:
            raise ModelError("Omega must be symmetric")
        om = 0.5 * om + 0.5 * om.T  # cannot overflow; Omega itself where it is symmetric and normal
        if np.min(np.linalg.eigvalsh(om)) < -tol:
            raise ModelError("Omega must be positive semi-definite")
        object.__setattr__(self, "omega", tuple(tuple(float(x) for x in row) for row in om))
        object.__setattr__(self, "lam", tuple(float(x) for x in lv))

    @classmethod
    def zero(cls, m: int) -> "OrderCoEnergy":
        return cls(tuple((0.0,) * m for _ in range(m)), (0.0,) * m)

    @property
    def m(self) -> int:
        return len(self.lam)

    @property
    def is_zero(self) -> bool:
        return all(x == 0.0 for row in self.omega for x in row) and all(x == 0.0 for x in self.lam)

    def omega_matrix(self) -> np.ndarray:
        return np.array(self.omega, dtype=float)

    def chi(self, nu: np.ndarray, nu_dot: np.ndarray) -> np.ndarray:
        del nu  # constant-coefficient catalog
        nd = np.asarray(nu_dot)
        om = self.omega_matrix()
        quad = 0.5 * np.einsum("...a,ab,...b->...", nd, om, nd)
        return quad + nd @ np.asarray(self.lam)

    def dchi_dnu_dot(self, nu: np.ndarray, nu_dot: np.ndarray) -> np.ndarray:
        del nu
        return np.asarray(nu_dot) @ self.omega_matrix() + np.asarray(self.lam)

    def dchi_dnu(self, nu: np.ndarray, nu_dot: np.ndarray) -> np.ndarray:
        del nu_dot
        return np.zeros_like(np.asarray(nu))

    def kinetic_energy(self, nu_dot: np.ndarray) -> np.ndarray:
        nd = np.asarray(nu_dot)
        return 0.5 * np.einsum("...a,ab,...b->...", nd, self.omega_matrix(), nd)


# ---------------------------------------------------------------------------
# finite-difference self-validation
# ---------------------------------------------------------------------------


@dataclass
class PartialCheck:
    entry: str
    max_rel_error: float
    passed: bool


@dataclass
class ValidationReport:
    model: str
    checks: list[PartialCheck] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[PartialCheck]:
        return [c for c in self.checks if not c.passed]


_SAMPLES = 100
_REL_TOL = 1e-6


def _difference(potential, i: int):
    """Central difference of `potential` along argument `i` of a point, with a step relative to it."""
    def numeric(p: np.ndarray):
        delta = 1e-5 * max(1.0, abs(p[i]))
        step = np.zeros_like(p)
        step[i] = delta
        return (potential(p + step) - potential(p - step)) / (2.0 * delta)
    return numeric


def _table(model, rng: np.random.Generator) -> tuple[str, np.ndarray, list]:
    """The catalog entry `model` belongs to, sample points of its arguments (one per row) and its
    rows (entry, closed form at a point, reference at a point).  The reference of a partial is
    the central difference of the potential (or co-energy) along that partial's argument.

    A potential's partials other than theta do not read eta, so the potential is its entropic
    part plus a part free of eta; their references difference it at eta = 0, where the entropic
    part is e0.  At the sampled eta, ``e0*exp(eta/c_v)`` can exceed the differenced part by
    orders of magnitude (e^20 at c_v = 0.05) and cancel its change in round-off."""
    n = _SAMPLES
    if isinstance(model, KortewegModel):  # arguments iota, grad iota (3), eta
        points = np.column_stack([rng.uniform(0.5, 3.0, n), rng.uniform(-2.0, 2.0, (n, 3)), rng.uniform(-1.0, 1.0, n)])
        phi = lambda p: model.phi(p[0], p[1:4], p[4])  # noqa: E731
        phi0 = lambda p: model.phi(p[0], p[1:4], 0.0)  # noqa: E731
        return "KortewegModel", points, [
            ("dphi_diota", lambda p: model.dphi_diota(p[0]), _difference(phi0, 0)),
            *((f"dphi_dgrad_iota[{j}]", lambda p, j=j: model.dphi_dgrad_iota(p[1:4])[j], _difference(phi0, 1 + j))
              for j in range(3)),
            ("theta", lambda p: model.theta(p[4]), _difference(phi, 4)),
        ]
    if isinstance(model, KortewegCoEnergy):  # arguments iota, iota_dot
        points = np.column_stack([rng.uniform(0.5, 3.0, n), rng.uniform(-2.0, 2.0, n)])
        chi = lambda p: model.chi(p[0], p[1])  # noqa: E731
        return "KortewegCoEnergy", points, [
            ("dchi_diota", lambda p: model.dchi_diota(p[0], p[1]), _difference(chi, 0)),
            ("dchi_diota_dot", lambda p: model.dchi_diota_dot(p[0], p[1]), _difference(chi, 1)),
        ]
    if isinstance(model, ComplexFluidModel):  # arguments iota, nu (m), grad nu (m x 2), eta
        m, g = model.m, slice(1 + model.m, 1 + 3 * model.m)
        nu = rng.uniform(-1.0, 1.0, (n, m))
        if model.sphere_constrained:
            nu /= np.linalg.norm(nu, axis=1, keepdims=True)
        points = np.column_stack(
            [rng.uniform(0.5, 3.0, n), nu, rng.uniform(-2.0, 2.0, (n, 2 * m)), rng.uniform(-1.0, 1.0, n)]
        )
        phi = lambda p: model.phi(p[0], p[1 : 1 + m], p[g].reshape(m, 2), p[-1])  # noqa: E731
        phi0 = lambda p: model.phi(p[0], p[1 : 1 + m], p[g].reshape(m, 2), 0.0)  # noqa: E731
        return "ComplexFluidModel", points, [
            ("dphi_diota", lambda p: model.dphi_diota(p[0], p[1 : 1 + m]), _difference(phi0, 0)),
            *((f"dphi_dnu[{a}]", lambda p, a=a: model.dphi_dnu(p[0], p[1 : 1 + m])[a], _difference(phi0, 1 + a))
              for a in range(m)),
            *((f"dphi_dgrad_nu[{i // 2},{i % 2}]", lambda p, i=i: model.dphi_dgrad_nu(p[g].reshape(m, 2))[divmod(i, 2)],
               _difference(phi0, 1 + m + i)) for i in range(2 * m)),
            ("theta", lambda p: model.theta(p[-1]), _difference(phi, 1 + 3 * m)),
        ]
    if isinstance(model, OrderCoEnergy):  # arguments nu (m), nu_dot (m)
        m = model.m
        points = rng.uniform(-2.0, 2.0, (n, 2 * m))
        chi = lambda p: model.chi(p[:m], p[m:])  # noqa: E731
        rows = []
        for a in range(m):
            rows += [
                (f"dchi_dnu_dot[{a}]", lambda p, a=a: model.dchi_dnu_dot(p[:m], p[m:])[a], _difference(chi, m + a)),
                (f"dchi_dnu[{a}]", lambda p, a=a: model.dchi_dnu(p[:m], p[m:])[a], _difference(chi, a)),
            ]
        # Legendre consistency: dchi.nudot - chi must equal the Omega quadratic
        rows.append(("legendre_kinetic_energy", lambda p: model.kinetic_energy(p[m:]),
                     lambda p: model.dchi_dnu_dot(p[:m], p[m:]) @ p[m:] - chi(p)))
        return "OrderCoEnergy", points, rows
    raise ModelError(f"unknown model type {type(model).__name__}")


def validate_partials(model) -> ValidationReport:
    """Check every analytic partial against central finite differences.

    Compares the model's closed-form partials with a central difference of
    the model's own potential at 100 random admissible points of its
    constitutive arguments (a fixed seed); an entry passes when its largest
    relative error is below 1e-6, so a NaN anywhere fails it.  This is a
    test-time oracle; the finite differences never enter evaluation paths.
    """
    name, points, rows = _table(model, np.random.default_rng(7))
    report = ValidationReport(name)
    for entry, closed_form, reference in rows:
        errors = []
        for p in points:  # one point at a time: a batch of points rounds differently
            closed, ref = float(closed_form(p)), float(reference(p))
            errors.append(abs(closed - ref) / max(1.0, abs(closed), abs(ref)))
        worst = float(np.max(errors))  # NaN when any error is
        report.checks.append(PartialCheck(entry, worst, worst < _REL_TOL))
    if isinstance(model, KortewegCoEnergy) and not model.is_zero:
        kappa = model.kappa(points[:, 0])  # genuine inertia needs kappa != 0 on the sampled iota
        report.checks.append(PartialCheck("kappa_nonzero", 0.0, bool(np.all(np.abs(kappa) > 1e-12))))
    return report


def catalog_models() -> list:
    """Representative instances of every catalog entry, for validation runs."""
    return [
        KortewegModel(f_kind=QUADRATIC, c=1.3, iota_ref=1.8, beta=0.7),
        KortewegModel(f_kind=TWO_WELL, c=0.9, well_1=1.0, well_2=2.0, beta=0.4),
        KortewegCoEnergy(kappa0=0.4, kappa1=0.6),
        ComplexFluidModel(m=2, gamma_kind=QUADRATIC, k=1.1, nu_ref=(0.2, -0.1), nu_ref_slope=(0.3, 0.3), a=0.8),
        ComplexFluidModel(m=2, gamma_kind=TWO_WELL, k=0.7, well_1=-1.0, well_2=1.0, a=0.5),
        ComplexFluidModel(m=2, gamma_kind=QUADRATIC, k=0.9, a=0.6, sphere_constrained=True),
        OrderCoEnergy(((1.2, 0.3), (0.3, 0.9)), (0.4, -0.2)),
    ]
