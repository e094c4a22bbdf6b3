"""Named closed-form states used by verification runs and the CLI.

Every builder takes a grid and returns ``(state, model, coenergy)`` (or the
transport inputs), with all fields given by smooth periodic expressions so
refinement studies see clean second-order behaviour.  The cancellation
profile is a hand-solved construction: with the quadratic mechanical part
and one-dimensional profiles ``iota(x) = i0 + a*sin(kx)``, the relation's
thermo + enthalpy + wall sum vanishes identically once the speed profile
satisfies ``(u^2)' = 2*iota*(c*iota' - beta*iota''')``, which integrates in
closed form; the entropy profile stays free because the separable entropic
part cancels out of thermo + enthalpy.
"""

from __future__ import annotations

import numpy as np

from .crocco import ComplexState, KortewegState
from .fieldcalc import Grid, OrderField, ScalarField, VectorField
from .models import (
    ComplexFluidModel,
    KortewegCoEnergy,
    KortewegModel,
    OrderCoEnergy,
)
from .smectic import SmecticModel, SmecticState


def _xy(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Open mesh: x as an (nx, 1) column and y as a (1, ny) row.

    Separable terms such as ``sin(x) * cos(y)`` then evaluate their
    functions on the 1-D coordinates and meet in one broadcast product;
    a non-separable argument such as ``x + y`` still broadcasts to the
    full grid.  Every cell sees the same arithmetic as on a full meshgrid.
    """
    if grid.dim != 2:
        raise ValueError("manufactured catalog is 2-D")
    x, y = np.meshgrid(grid.axis_coords(0), grid.axis_coords(1), indexing="ij", sparse=True)
    return x, y


def _full(grid: Grid, a: np.ndarray | float) -> np.ndarray:
    """`a` broadcast over the whole grid (read-only view; fields copy it)."""
    return np.broadcast_to(a, grid.extents)


def _stack(grid: Grid, *components: np.ndarray | float) -> np.ndarray:
    """Components broadcast over the grid, stacked on a trailing axis."""
    out = np.empty(grid.extents + (len(components),))
    for i, c in enumerate(components):
        out[..., i] = c
    return out


def _korteweg_fields(grid: Grid) -> tuple[VectorField, ScalarField, ScalarField]:
    x, y = _xy(grid)
    v = _stack(
        grid,
        0.6 + 0.35 * np.sin(x) * np.cos(y),
        -0.4 + 0.25 * np.cos(x) * np.sin(y),
    )
    iota = 2.0 + 0.45 * np.sin(x) * np.cos(y) + 0.2 * np.cos(y)
    eta = 0.3 * np.sin(y) + 0.2 * np.cos(x)
    return VectorField(grid, v), ScalarField(grid, iota), ScalarField(grid, eta)


def korteweg_basic(grid: Grid) -> tuple[KortewegState, KortewegModel, KortewegCoEnergy]:
    """Gradient energy active, no substructural inertia."""
    v, iota, eta = _korteweg_fields(grid)
    model = KortewegModel(f_kind="quadratic", c=1.3, iota_ref=1.8, beta=0.7)
    return KortewegState(v, iota, eta), model, KortewegCoEnergy()


def korteweg_inertia(grid: Grid) -> tuple[KortewegState, KortewegModel, KortewegCoEnergy]:
    """Gradient energy and rate co-energy both active (kappa' != 0)."""
    v, iota, eta = _korteweg_fields(grid)
    model = KortewegModel(f_kind="quadratic", c=1.3, iota_ref=1.8, beta=0.7)
    return KortewegState(v, iota, eta), model, KortewegCoEnergy(kappa0=0.4, kappa1=0.6)


def korteweg_classical(grid: Grid) -> tuple[KortewegState, KortewegModel, KortewegCoEnergy]:
    """Control case: beta = 0 and zero co-energy."""
    v, iota, eta = _korteweg_fields(grid)
    model = KortewegModel(f_kind="quadratic", c=1.3, iota_ref=1.8, beta=0.0)
    return KortewegState(v, iota, eta), model, KortewegCoEnergy()


def korteweg_two_well(grid: Grid) -> tuple[KortewegState, KortewegModel, KortewegCoEnergy]:
    """Two-well mechanical part, gradient energy active."""
    v, iota, eta = _korteweg_fields(grid)
    model = KortewegModel(f_kind="two-well", c=0.5, well_1=1.4, well_2=2.4, beta=0.5)
    return KortewegState(v, iota, eta), model, KortewegCoEnergy()


def complex_gl_m2(grid: Grid) -> tuple[ComplexState, ComplexFluidModel, OrderCoEnergy]:
    """Generic two-component order parameter with full Omega/lambda co-energy."""
    x, y = _xy(grid)
    v, iota, eta = _korteweg_fields(grid)
    nu = _stack(grid, 0.1 + 0.5 * np.sin(x) * np.cos(y), 0.35 * np.cos(x + y))
    model = ComplexFluidModel(
        m=2,
        gamma_kind="quadratic",
        k=1.1,
        nu_ref=(0.2, -0.1),
        nu_ref_slope=(0.3, -0.2),
        a=0.8,
        c=1.3,
        iota_ref=1.8,
    )
    coenergy = OrderCoEnergy(((1.2, 0.3), (0.3, 0.9)), (0.4, -0.2))
    return ComplexState(v, iota, eta, OrderField(grid, nu)), model, coenergy


def complex_gl_m2_inertialess(grid: Grid) -> tuple[ComplexState, ComplexFluidModel, OrderCoEnergy]:
    state, model, _ = complex_gl_m2(grid)
    return state, model, OrderCoEnergy.zero(2)


# Cancellation profile parameters (hand-solved, see module docstring).
_CANC = dict(beta=0.8, c=0.9, kappa=1.0, amp=0.4, iota_c=2.0, u0_sq=4.0, eta_amp=0.6)


def cancellation_profile(grid: Grid) -> tuple[KortewegState, KortewegModel, KortewegCoEnergy]:
    """State on which the cancellation condition holds identically.

    One-dimensional profiles in x with v = (u(x), 0):

        iota(x) = iota_c + amp*sin(k x)
        u(x)^2  = u0_sq + 2*amp*(c + beta*k^2) *
                  (iota_c*sin(k x) + amp*sin(k x)^2 / 2)
        eta(x)  = eta_amp*sin(x)      (free profile)

    The discrete vorticity of (u(x), 0) is identically zero, so the lamb
    vector vanishes exactly while theta*grad(eta) stays order one.
    """
    p = _CANC
    x, _ = _xy(grid)
    k = p["kappa"]
    iota = p["iota_c"] + p["amp"] * np.sin(k * x)
    u_sq = p["u0_sq"] + 2.0 * p["amp"] * (p["c"] + p["beta"] * k**2) * (
        p["iota_c"] * np.sin(k * x) + 0.5 * p["amp"] * np.sin(k * x) ** 2
    )
    if np.min(u_sq) <= 0.0:
        raise ValueError("cancellation profile parameters give non-positive speed")
    v = _stack(grid, np.sqrt(u_sq), 0.0)
    eta = _full(grid, p["eta_amp"] * np.sin(x))
    model = KortewegModel(f_kind="quadratic", c=p["c"], iota_ref=p["iota_c"], beta=p["beta"])
    return (
        KortewegState(VectorField(grid, v), ScalarField(grid, _full(grid, iota)), ScalarField(grid, eta)),
        model,
        KortewegCoEnergy(),
    )


def generation_sphere(grid: Grid) -> tuple[ComplexState, ComplexFluidModel, OrderCoEnergy]:
    """Uniform eta and h_c with a nonuniform unit-sphere order parameter.

    nu = (cos(alpha x), sin(alpha x)) keeps |nu| = 1 and ||grad nu||
    constant, and the quadratic gamma anchored at the origin is constant on
    the sphere, so the enthalpy field is exactly uniform while the
    substructural terms stay active through the anisotropic co-energy.
    """
    x, _ = _xy(grid)
    alpha = 1.0
    nu = _stack(grid, np.cos(alpha * x), np.sin(alpha * x))
    v = _stack(grid, 0.9, 0.4)
    iota = _full(grid, 1.5)
    eta = _full(grid, 0.0)
    model = ComplexFluidModel(
        m=2,
        gamma_kind="quadratic",
        k=0.7,
        nu_ref=(0.0, 0.0),
        a=0.6,
        c=0.0,
        sphere_constrained=True,
    )
    coenergy = OrderCoEnergy(((1.4, 0.5), (0.5, 0.8)), (0.3, -0.1))
    return (
        ComplexState(VectorField(grid, v), ScalarField(grid, iota), ScalarField(grid, eta), OrderField(grid, nu)),
        model,
        coenergy,
    )


# ---------------------------------------------------------------------------
# layered (smectic) states
# ---------------------------------------------------------------------------

_SMECTIC_MODEL = SmecticModel(gamma1=1.2, gamma2=0.8, eps_reg=1e-8)


def _layer_grid(grid: Grid) -> Grid:
    # layer functions carry a net slope across the box, which is not a
    # periodic field: these states always live on one-sided grids
    return Grid.one_sided(grid.extents, grid.spacing)


def smectic_flat(grid: Grid) -> tuple[SmecticState, SmecticModel]:
    """Unit-spaced flat layers, uniform entropy and speed: the ground state."""
    grid = _layer_grid(grid)
    _, y = _xy(grid)
    v = _stack(grid, 0.7, 0.0)
    eta, w = _full(grid, 0.0), _full(grid, y)
    return (
        SmecticState(VectorField(grid, v), ScalarField(grid, eta), ScalarField(grid, w)),
        _SMECTIC_MODEL,
    )


def smectic_compressed(grid: Grid) -> tuple[SmecticState, SmecticModel]:
    """Uniformly compressed flat layers (w = (1+e) y with e = 0.15)."""
    grid = _layer_grid(grid)
    _, y = _xy(grid)
    v = _stack(grid, 0.7, 0.0)
    eta, w = _full(grid, 0.0), _full(grid, 1.15 * y)
    return (
        SmecticState(VectorField(grid, v), ScalarField(grid, eta), ScalarField(grid, w)),
        _SMECTIC_MODEL,
    )


def smectic_wavy(grid: Grid) -> tuple[SmecticState, SmecticModel]:
    """Undulating layers with a shear-like flow and varying entropy."""
    grid = _layer_grid(grid)
    x, y = _xy(grid)
    w = 0.9 * y + 0.15 * np.sin(x) * np.cos(y)
    v = _stack(grid, 0.5 + 0.2 * np.sin(y), -0.3 + 0.1 * np.cos(x))
    eta = 0.2 * np.sin(x + y)
    return (
        SmecticState(VectorField(grid, v), ScalarField(grid, eta), ScalarField(grid, w)),
        _SMECTIC_MODEL,
    )


SMECTIC_CATALOG = {
    "smectic-flat": smectic_flat,
    "smectic-compressed": smectic_compressed,
    "smectic-wavy": smectic_wavy,
}


# ---------------------------------------------------------------------------
# transport initial data
# ---------------------------------------------------------------------------


def taylor_green_vorticity(grid: Grid) -> np.ndarray:
    x, y = _xy(grid)
    return 2.0 * np.sin(x) * np.sin(y)


def two_mode_vorticity(grid: Grid) -> np.ndarray:
    """Zero-mean, genuinely unsteady initial vorticity."""
    x, y = _xy(grid)
    return 2.0 * np.sin(x) * np.sin(y) + 0.8 * np.sin(2.0 * x) * np.cos(3.0 * y)


def uniform_order_parameter(grid: Grid, m: int = 2, value: float = 0.3) -> OrderField:
    return OrderField(grid, np.full(grid.extents + (m,), value))


def radial_order_parameter(grid: Grid) -> OrderField:
    """Radially symmetric bump about the box centre (m = 1).

    The dyadic stress of a radial profile is radial, so its divergence is a
    pure gradient and the vorticity source vanishes (potential condition).
    The bump decays below rounding at the box edge, so periodic wrap is
    harmless.
    """
    x, y = _xy(grid)
    cx = 0.5 * grid.extents[0] * grid.spacing[0]
    cy = 0.5 * grid.extents[1] * grid.spacing[1]
    r_sq = (x - cx) ** 2 + (y - cy) ** 2
    return OrderField(grid, np.exp(-r_sq / 0.5)[..., None])


def potential_order_parameter(grid: Grid) -> OrderField:
    """Smooth periodic field whose stress divergence is a pure gradient.

    Each chart component is a Laplacian eigenfunction (lap nu = lam*nu), so
    the dyadic-stress divergence is ``a*grad(sum_a lam_a (nu^a)^2/2
    + |grad nu^a|^2/2)`` exactly; the discrete curl of it carries a genuine
    O(h^2) truncation error, which makes this the clean refinement probe for
    the gradient-potential condition.
    """
    x, y = _xy(grid)
    nu = _stack(grid, np.sin(x) * np.sin(y), 0.7 * np.cos(x) * np.cos(2.0 * y))
    return OrderField(grid, nu)


def eigencomponent_order_parameter(grid: Grid) -> OrderField:
    """Single-mode components (lap-eigenfunctions): conserving to rounding.

    Because every component is one separable trig mode, even the discrete
    stencils cancel and curl(div T) sits at the rounding floor.
    """
    x, y = _xy(grid)
    nu = _stack(grid, np.sin(x) * np.sin(y), np.cos(x))
    return OrderField(grid, nu)


def generic_order_parameter(grid: Grid) -> OrderField:
    """Two-component parameter whose stress divergence is not a gradient.

    The first component mixes Laplacian eigenvalues (-2 and -4), which is
    what breaks the gradient-potential structure; curl(div T) converges to
    an order-one field under refinement.
    """
    x, y = _xy(grid)
    nu = _stack(
        grid,
        np.sin(x) * np.sin(y) + 0.3 * np.cos(2.0 * x),
        0.5 * np.cos(x + y) + 0.4 * np.sin(y),
    )
    return OrderField(grid, nu)


KORTEWEG_CATALOG = {
    "korteweg-basic": korteweg_basic,
    "korteweg-inertia": korteweg_inertia,
    "korteweg-classical": korteweg_classical,
    "korteweg-two-well": korteweg_two_well,
    "cancellation-profile": cancellation_profile,
}

COMPLEX_CATALOG = {
    "complex-gl-m2": complex_gl_m2,
    "complex-gl-m2-inertialess": complex_gl_m2_inertialess,
    "generation-sphere": generation_sphere,
}

# every (state, model, coenergy) builder, capillary and order-parameter
CATALOG = {**KORTEWEG_CATALOG, **COMPLEX_CATALOG}

VORTICITY_CATALOG = {
    "taylor-green": taylor_green_vorticity,
    "two-mode": two_mode_vorticity,
}

ORDER_CATALOG = {
    "uniform": uniform_order_parameter,
    "radial": radial_order_parameter,
    "potential": potential_order_parameter,
    "eigencomponent": eigencomponent_order_parameter,
    "generic": generic_order_parameter,
}
