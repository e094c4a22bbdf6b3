"""Constitutive catalog: potentials and kinetic co-energies with closed-form partials.

Two families are covered:

* A capillary (density-gradient) fluid whose potential is
  ``phi = f(iota, eta) + 0.5*beta*|grad iota|^2`` with a quadratic or
  two-well mechanical part and a separable entropic part
  ``e0*exp(eta/c_v)``, chosen so the temperature ``theta = d phi/d eta``
  is positive for every admissible state.
* A general order-parameter fluid with a Ginzburg-Landau potential
  ``phi = gamma(iota, nu, eta) + 0.5*a*||grad nu||^2`` whose chart lives in
  R^m (optionally constrained to the unit sphere).

Kinetic co-energies are quadratic: ``chi = 0.5*kappa(iota)*iota_dot^2`` with
affine ``kappa``, and ``chi = 0.5*nudot.Omega.nudot + lam.nudot`` with
constant symmetric ``Omega`` and constant covector ``lam``.  The ``lam``
addendum drops out of the kinetic energy obtained by the Legendre transform
in the rate, which the tests check.

The zero co-energy (all coefficients zero) is admitted as the designated
"no substructural inertia" element; evaluators short-circuit on it so the
inertia-free reductions are bit-exact.

All evaluators here are pure and operate on numpy arrays (fields pass their
``values``); objectivity holds because gradients enter only through their
euclidean magnitude.  The one field-level entry point is :func:`gl_partials`:
it evaluates the Ginzburg-Landau potential and its four partials once per
state, runs the sphere check once and checks every output finite, and the
order-parameter relation engine consumes that bundle.  The capillary
relation calls the model methods directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fieldcalc import OrderField, OrderGradField, ScalarField, _first_index, require_same_grid

QUADRATIC = "quadratic"
TWO_WELL = "two-well"
_F_KINDS = (QUADRATIC, TWO_WELL)

SPHERE_TOL = 1e-12


class ModelError(ValueError):
    """Invalid model parameters or inadmissible constitutive input."""


class EvaluationError(ValueError):
    """Constitutive evaluation produced a non-finite value."""


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


class ThermalPart:
    """The separable entropic part ``e0*exp(eta/c_v)`` of a potential and its
    temperature ``theta = d/d eta``, shared by every model with fields e0, c_v."""

    e0: float
    c_v: float

    def _check_thermal(self) -> None:
        if self.e0 <= 0.0 or self.c_v <= 0.0:
            raise ModelError("entropic parameters e0, c_v must be > 0")

    def entropic(self, eta: np.ndarray) -> np.ndarray:
        return self.e0 * np.exp(np.asarray(eta) / self.c_v)

    def theta(self, eta: np.ndarray) -> np.ndarray:
        return (self.e0 / self.c_v) * np.exp(np.asarray(eta) / self.c_v)


# ---------------------------------------------------------------------------
# capillary fluid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KortewegModel(ThermalPart):
    """Potential f(iota, eta) + 0.5*beta*|grad iota|^2.

    ``f_kind`` selects the mechanical part: "quadratic" gives
    ``c*(iota - iota_ref)^2 / 2``; "two-well" gives
    ``c*(iota - well_1)^2 * (iota - well_2)^2``.  The entropic part is
    ``e0*exp(eta/c_v)`` in both cases.
    """

    f_kind: str = QUADRATIC
    c: float = 1.0
    iota_ref: float = 1.0
    well_1: float = 1.0
    well_2: float = 2.0
    beta: float = 0.0
    e0: float = 1.0
    c_v: float = 1.0

    def __post_init__(self) -> None:
        if self.f_kind not in _F_KINDS:
            raise ModelError(f"f_kind must be one of {_F_KINDS}, got {self.f_kind!r}")
        if self.beta < 0.0:
            raise ModelError("gradient coefficient beta must be >= 0")
        self._check_thermal()

    def _w1(self) -> float:
        return self.iota_ref if self.f_kind == QUADRATIC else self.well_1

    def f_mech(self, iota: np.ndarray) -> np.ndarray:
        return _mech_value(self.f_kind, self.c, self._w1(), self.well_2, iota)

    def df_mech(self, iota: np.ndarray) -> np.ndarray:
        return _mech_prime(self.f_kind, self.c, self._w1(), self.well_2, iota)

    def phi(self, iota: np.ndarray, grad_iota: np.ndarray, eta: np.ndarray) -> np.ndarray:
        gsq = np.sum(np.asarray(grad_iota) ** 2, axis=-1)
        return self.f_mech(iota) + self.entropic(eta) + 0.5 * self.beta * gsq

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
class ComplexFluidModel(ThermalPart):
    """Ginzburg-Landau potential gamma(iota, nu, eta) + 0.5*a*||grad nu||^2.

    gamma kinds:

    * "quadratic": ``0.5*k*|nu - nu_ref(iota)|^2 + f(iota, eta)`` with the
      affine anchor ``nu_ref(iota) = nu_ref + nu_ref_slope*iota``.
    * "two-well": ``k*(nu^0 - well_1)^2*(nu^0 - well_2)^2 + f(iota, eta)``
      acting on chart component 0.

    ``f`` reuses the capillary mechanical + entropic parts.  When
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

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ModelError(f"chart dimension m must be >= 1, got {self.m}")
        if self.gamma_kind not in _F_KINDS:
            raise ModelError(f"gamma_kind must be one of {_F_KINDS}, got {self.gamma_kind!r}")
        if self.a < 0.0:
            raise ModelError("gradient coefficient a must be >= 0")
        self._check_thermal()
        ref = tuple(self.nu_ref) if self.nu_ref else (0.0,) * self.m
        slope = tuple(self.nu_ref_slope) if self.nu_ref_slope else (0.0,) * self.m
        if len(ref) != self.m or len(slope) != self.m:
            raise ModelError("nu_ref / nu_ref_slope must have length m")
        object.__setattr__(self, "nu_ref", ref)
        object.__setattr__(self, "nu_ref_slope", slope)

    def _w1(self) -> float:
        return self.iota_ref if self.f_kind == QUADRATIC else self.f_well_1

    def f_mech(self, iota: np.ndarray) -> np.ndarray:
        return _mech_value(self.f_kind, self.c, self._w1(), self.f_well_2, iota)

    def df_mech(self, iota: np.ndarray) -> np.ndarray:
        return _mech_prime(self.f_kind, self.c, self._w1(), self.f_well_2, iota)

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
        gn = np.asarray(grad_nu)
        gnormsq = np.sum(gn * gn, axis=(-2, -1))
        return self._gamma(iota, nu, eta) + 0.5 * self.a * gnormsq

    def _gamma(self, iota: np.ndarray, nu: np.ndarray, eta: np.ndarray) -> np.ndarray:
        f = self.f_mech(iota) + self.entropic(eta)
        if self.gamma_kind == QUADRATIC:
            d = np.asarray(nu) - self.nu_anchor(iota)
            return 0.5 * self.k * np.sum(d * d, axis=-1) + f
        comp = np.asarray(nu)[..., 0]
        return self.k * (comp - self.well_1) ** 2 * (comp - self.well_2) ** 2 + f

    def dphi_diota(self, iota: np.ndarray, nu: np.ndarray) -> np.ndarray:
        out = self.df_mech(iota)
        if self.gamma_kind == QUADRATIC and any(s != 0.0 for s in self.nu_ref_slope):
            d = np.asarray(nu) - self.nu_anchor(iota)
            out = out - self.k * np.sum(d * np.asarray(self.nu_ref_slope), axis=-1)
        return out

    def dphi_dnu(self, iota: np.ndarray, nu: np.ndarray) -> np.ndarray:
        if self.gamma_kind == QUADRATIC:
            return self.k * (np.asarray(nu) - self.nu_anchor(iota))
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
    norms = np.sqrt(np.sum(nu.values**2, axis=-1))
    dev = np.abs(norms - 1.0)
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
    """Potential and pointwise partials of the Ginzburg-Landau model, each checked finite."""
    require_same_grid(iota, nu, grad_nu, eta)
    if nu.m != model.m or grad_nu.m != model.m:
        raise ModelError(f"chart dimension mismatch: model m={model.m}, fields m={nu.m}")
    check_sphere_constraint(model, nu)
    return GinzburgLandauPartials(
        dphi_diota=_check_finite("dphi_diota", model.dphi_diota(iota.values, nu.values)),
        dphi_dnu=_check_finite("dphi_dnu", model.dphi_dnu(iota.values, nu.values)),
        dphi_dgrad_nu=_check_finite("dphi_dgrad_nu", model.dphi_dgrad_nu(grad_nu.values)),
        theta=_check_finite("theta", model.theta(eta.values)),
        phi=_check_finite("phi", model.phi(iota.values, nu.values, grad_nu.values, eta.values)),
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
        om = np.array(self.omega, dtype=float)
        lv = np.array(self.lam, dtype=float)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise ModelError(f"Omega must be square, got shape {om.shape}")
        if lv.shape != (om.shape[0],):
            raise ModelError("lam must be an m-covector matching Omega")
        if not np.allclose(om, om.T, atol=1e-12):
            raise ModelError("Omega must be symmetric")
        if np.min(np.linalg.eigvalsh(om)) < -1e-12:
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
    worst_point: tuple[float, ...]
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


def _central_fd(fn, x: np.ndarray, i: int, delta: float) -> float:
    xp = x.copy()
    xm = x.copy()
    xp[i] += delta
    xm[i] -= delta
    return float((fn(xp) - fn(xm)) / (2.0 * delta))


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def _run_checks(
    report: ValidationReport,
    entry: str,
    points: np.ndarray,
    phi_of_args,
    analytic_of_args,
    arg_index: int,
    rel_tol: float,
) -> None:
    worst = 0.0
    worst_pt: tuple[float, ...] = ()
    for pt in points:
        delta = 1e-5 * max(1.0, abs(pt[arg_index]))
        numeric = _central_fd(phi_of_args, pt, arg_index, delta)
        analytic = float(analytic_of_args(pt))
        err = _rel_err(analytic, numeric)
        if err > worst:
            worst = err
            worst_pt = tuple(float(v) for v in pt)
    report.checks.append(PartialCheck(entry, worst, worst_pt, worst < rel_tol))


def validate_partials(model, n_points: int = 100, seed: int = 7, rel_tol: float = 1e-6):
    """Check every analytic partial against central finite differences.

    Samples ``n_points`` random admissible points in constitutive-argument
    space and compares the model's closed-form partials against a central
    difference of the model's own potential.  This is a test-time oracle;
    the finite differences never enter evaluation paths.
    """
    rng = np.random.default_rng(seed)

    if isinstance(model, KortewegModel):
        dim = 3
        pts = np.column_stack(
            [
                rng.uniform(0.5, 3.0, n_points),  # iota
                rng.uniform(-2.0, 2.0, (n_points, dim)),  # grad iota
                rng.uniform(-1.0, 1.0, n_points),  # eta
            ]
        )
        report = ValidationReport("KortewegModel")
        phi = lambda p: model.phi(p[0], p[1 : 1 + dim], p[1 + dim])  # noqa: E731
        _run_checks(report, "dphi_diota", pts, phi, lambda p: model.dphi_diota(p[0]), 0, rel_tol)
        for j in range(dim):
            _run_checks(
                report,
                f"dphi_dgrad_iota[{j}]",
                pts,
                phi,
                lambda p, j=j: model.dphi_dgrad_iota(p[1 : 1 + dim])[j],
                1 + j,
                rel_tol,
            )
        _run_checks(report, "theta", pts, phi, lambda p: model.theta(p[1 + dim]), 1 + dim, rel_tol)
        return report

    if isinstance(model, KortewegCoEnergy):
        pts = np.column_stack(
            [rng.uniform(0.5, 3.0, n_points), rng.uniform(-2.0, 2.0, n_points)]
        )
        report = ValidationReport("KortewegCoEnergy")
        chi = lambda p: model.chi(p[0], p[1])  # noqa: E731
        _run_checks(report, "dchi_diota", pts, chi, lambda p: model.dchi_diota(p[0], p[1]), 0, rel_tol)
        _run_checks(
            report, "dchi_diota_dot", pts, chi, lambda p: model.dchi_diota_dot(p[0], p[1]), 1, rel_tol
        )
        if not model.is_zero:
            kappas = model.kappa(pts[:, 0])
            report.checks.append(
                PartialCheck(
                    "kappa_nonzero",
                    0.0,
                    (float(pts[np.argmin(np.abs(kappas)), 0]),),
                    bool(np.all(np.abs(kappas) > 1e-12)),
                )
            )
        return report

    if isinstance(model, ComplexFluidModel):
        m, dim = model.m, 2
        nu_pts = rng.uniform(-1.0, 1.0, (n_points, m))
        if model.sphere_constrained:
            nu_pts /= np.linalg.norm(nu_pts, axis=1, keepdims=True)
        pts = np.column_stack(
            [
                rng.uniform(0.5, 3.0, n_points),
                nu_pts,
                rng.uniform(-2.0, 2.0, (n_points, m * dim)),
                rng.uniform(-1.0, 1.0, n_points),
            ]
        )
        report = ValidationReport("ComplexFluidModel")

        def phi(p):
            return model.phi(p[0], p[1 : 1 + m], p[1 + m : 1 + m + m * dim].reshape(m, dim), p[-1])

        _run_checks(report, "dphi_diota", pts, phi, lambda p: model.dphi_diota(p[0], p[1 : 1 + m]), 0, rel_tol)
        for a in range(m):
            _run_checks(
                report,
                f"dphi_dnu[{a}]",
                pts,
                phi,
                lambda p, a=a: model.dphi_dnu(p[0], p[1 : 1 + m])[a],
                1 + a,
                rel_tol,
            )
        for idx in range(m * dim):
            _run_checks(
                report,
                f"dphi_dgrad_nu[{idx // dim},{idx % dim}]",
                pts,
                phi,
                lambda p, idx=idx: model.dphi_dgrad_nu(
                    p[1 + m : 1 + m + m * dim].reshape(m, dim)
                ).reshape(-1)[idx],
                1 + m + idx,
                rel_tol,
            )
        _run_checks(report, "theta", pts, phi, lambda p: model.theta(p[-1]), len(pts[0]) - 1, rel_tol)
        return report

    if isinstance(model, OrderCoEnergy):
        m = model.m
        pts = rng.uniform(-2.0, 2.0, (n_points, 2 * m))
        report = ValidationReport("OrderCoEnergy")
        chi = lambda p: model.chi(p[:m], p[m:])  # noqa: E731
        for a in range(m):
            _run_checks(
                report,
                f"dchi_dnu_dot[{a}]",
                pts,
                chi,
                lambda p, a=a: model.dchi_dnu_dot(p[:m], p[m:])[a],
                m + a,
                rel_tol,
            )
            _run_checks(
                report,
                f"dchi_dnu[{a}]",
                pts,
                chi,
                lambda p, a=a: model.dchi_dnu(p[:m], p[m:])[a],
                a,
                rel_tol,
            )
        # Legendre consistency: dchi.nudot - chi must equal the Omega quadratic
        worst = 0.0
        worst_pt: tuple[float, ...] = ()
        for p in pts:
            nd = p[m:]
            k_legendre = float(model.dchi_dnu_dot(p[:m], nd) @ nd - model.chi(p[:m], nd))
            k_direct = float(model.kinetic_energy(nd))
            err = _rel_err(k_direct, k_legendre)
            if err > worst:
                worst, worst_pt = err, tuple(float(v) for v in p)
        report.checks.append(PartialCheck("legendre_kinetic_energy", worst, worst_pt, worst < rel_tol))
        return report

    raise ModelError(f"unknown model type {type(model).__name__}")


def catalog_models(m: int = 2) -> list:
    """Representative instances of every catalog entry, for validation runs."""
    return [
        KortewegModel(f_kind=QUADRATIC, c=1.3, iota_ref=1.8, beta=0.7),
        KortewegModel(f_kind=TWO_WELL, c=0.9, well_1=1.0, well_2=2.0, beta=0.4),
        KortewegCoEnergy(kappa0=0.4, kappa1=0.6),
        ComplexFluidModel(m=m, gamma_kind=QUADRATIC, k=1.1, nu_ref=(0.2, -0.1)[:m] + (0.0,) * max(0, m - 2), nu_ref_slope=(0.3,) * m, a=0.8),
        ComplexFluidModel(m=m, gamma_kind=TWO_WELL, k=0.7, well_1=-1.0, well_2=1.0, a=0.5),
        ComplexFluidModel(m=m, gamma_kind=QUADRATIC, k=0.9, a=0.6, sphere_constrained=True),
        OrderCoEnergy(((1.2, 0.3), (0.3, 0.9)), (0.4, -0.2)) if m == 2 else OrderCoEnergy.zero(m),
    ]
