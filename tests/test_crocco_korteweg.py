"""Capillary-fluid relation: stresses, pressures, enthalpies, defect identity."""

import re

import numpy as np
import pytest
import sympy as sp

from croccolab.crocco import (
    IdentityViolationError,
    KortewegState,
    classical_crocco,
    corollary_check,
    defect_identity,
    korteweg_crocco,
    korteweg_enthalpy,
    korteweg_pressures,
    korteweg_stress,
    lamb_vector,
    steady_momentum_residual,
)
from croccolab.fieldcalc import (
    FieldValueError,
    Grid,
    ScalarField,
    VectorField,
    linf_norm,
    refinement_study,
)
from croccolab.manufactured import (
    CATALOG,
    cancellation_profile,
    korteweg_basic,
    korteweg_classical,
    korteweg_inertia,
)
from croccolab.models import KortewegCoEnergy, KortewegModel

from dual_routes import korteweg_enthalpy_alt

TWO_PI = 2.0 * np.pi


def uniform_state(grid, v=(0.0, 0.0), iota=1.5, eta=0.2):
    return KortewegState(
        v=VectorField(grid, np.broadcast_to(v, grid.extents + (len(v),)).copy()),
        iota=ScalarField(grid, np.full(grid.extents, iota)),
        eta=ScalarField(grid, np.full(grid.extents, eta)),
    )


def test_state_invariants():
    grid = Grid.periodic(8)
    state = uniform_state(grid)
    assert np.max(np.abs(state.rho.values * state.iota.values - 1.0)) <= 1e-14
    bad = np.full(grid.extents, 1.0)
    bad[0, 0] = -0.5
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        KortewegState(state.v, ScalarField(grid, bad), state.eta)


# ---------------------------------------------------------------------------
# dyadic stress
# ---------------------------------------------------------------------------


def test_stress_zero_for_uniform_iota():
    grid = Grid.periodic(8)
    state = uniform_state(grid)
    te = korteweg_stress(state, KortewegModel(beta=0.9))
    assert linf_norm(te) == 0.0


def test_stress_hand_value_and_rank_one():
    # grad(iota) = (g, 0): T_00 = beta*g^2/iota, everything else zero
    grid = Grid.one_sided((8, 8), (0.5, 0.5))
    x, _ = grid.meshgrid()
    g_slope = 0.25
    state = KortewegState(
        v=VectorField(grid, np.zeros(grid.extents + (2,))),
        iota=ScalarField(grid, 2.0 + g_slope * x),
        eta=ScalarField(grid, np.zeros(grid.extents)),
    )
    beta = 1.3
    te = korteweg_stress(state, KortewegModel(beta=beta))
    expected = beta * g_slope**2 / state.iota.values
    assert np.max(np.abs(te.values[..., 0, 0] - expected)) <= 1e-12
    assert np.max(np.abs(te.values[..., 0, 1])) <= 1e-12
    assert np.max(np.abs(te.values[..., 1, :])) <= 1e-12
    dets = np.linalg.det(korteweg_stress(CATALOG["korteweg-basic"](Grid.periodic(16))[0],
                                         KortewegModel(beta=0.7)).values)
    assert np.max(np.abs(dets)) <= 1e-14  # outer product is rank one per cell


# ---------------------------------------------------------------------------
# pressures
# ---------------------------------------------------------------------------


def test_pressures_uniform_rest_state():
    grid = Grid.periodic(8)
    model = KortewegModel(f_kind="quadratic", c=2.0, iota_ref=1.0, beta=0.4)
    state = uniform_state(grid, iota=1.5)
    pres = korteweg_pressures(state, model, KortewegCoEnergy())
    # p = -rho*iota*dphi_diota = -f'(iota) for uniform fields
    assert np.allclose(pres.p.values, -2.0 * 0.5)
    assert np.max(np.abs(pres.p_check.values)) == 0.0
    assert pres.p_bar is pres.p  # bit-exact short circuit


def test_p_bar_equals_p_for_zero_coenergy_on_generic_state():
    state, model, _ = korteweg_basic(Grid.periodic(32))
    pres = korteweg_pressures(state, model, KortewegCoEnergy())
    assert np.array_equal(pres.p_bar.values, pres.p.values)


def test_kinetic_pressure_symbolic_oracle():
    """p_check against symbolic differentiation of the closed-form fields."""
    sx, sy = sp.symbols("x y")
    kappa0, kappa1 = 0.4, 0.6
    iota_e = 2.0 + sp.Rational(9, 20) * sp.sin(sx) * sp.cos(sy) + sp.Rational(1, 5) * sp.cos(sy)
    v1_e = sp.Rational(3, 5) + sp.Rational(7, 20) * sp.sin(sx) * sp.cos(sy)
    v2_e = -sp.Rational(2, 5) + sp.Rational(1, 4) * sp.cos(sx) * sp.sin(sy)
    iota_dot_e = v1_e * sp.diff(iota_e, sx) + v2_e * sp.diff(iota_e, sy)
    a_e = (kappa0 + kappa1 * iota_e) * iota_dot_e
    p_check_e = (v1_e * sp.diff(a_e, sx) + v2_e * sp.diff(a_e, sy)) - sp.Rational(1, 2) * kappa1 * iota_dot_e**2
    oracle = sp.lambdify((sx, sy), p_check_e, "numpy")

    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        state, model, coenergy = korteweg_inertia(grid)
        pres = korteweg_pressures(state, model, coenergy)
        x, y = grid.meshgrid()
        return float(np.max(np.abs(pres.p_check.values - oracle(x, y))))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.observed_order >= 1.8


# ---------------------------------------------------------------------------
# enthalpy
# ---------------------------------------------------------------------------


def test_enthalpy_rest_state_and_kinetic_shift():
    grid = Grid.periodic(8)
    model = KortewegModel(f_kind="quadratic", c=2.0, iota_ref=1.0, beta=0.4)
    rest = uniform_state(grid, v=(0.0, 0.0), iota=1.5, eta=0.1)
    ent = korteweg_enthalpy(rest, model, KortewegCoEnergy())
    f_val = 0.5 * 2.0 * 0.5**2 + np.exp(0.1)
    expected = f_val - 1.5 * (2.0 * 0.5)
    assert np.allclose(ent.h.values, expected)
    assert np.array_equal(ent.h.values, ent.xi.values)
    moving = uniform_state(grid, v=(2.0, 0.0), iota=1.5, eta=0.1)
    ent_m = korteweg_enthalpy(moving, model, KortewegCoEnergy())
    assert np.allclose(ent_m.h.values - ent.h.values, 2.0)


def test_enthalpy_dual_route():
    # The pressure route is an algebraic rearrangement; with rho*iota == 1
    # it agrees to rounding, comfortably within the O(h^2) requirement.
    for name in ("korteweg-basic", "korteweg-inertia"):
        state, model, coenergy = CATALOG[name](Grid.periodic(32))
        direct = korteweg_enthalpy(state, model, coenergy).xi.values
        alt = korteweg_enthalpy_alt(state, model, coenergy)
        assert np.max(np.abs(direct - alt)) <= 1e-11


# ---------------------------------------------------------------------------
# classical relation
# ---------------------------------------------------------------------------


def test_classical_schema_and_lhs_exposure():
    grid = Grid.periodic(16)
    state = uniform_state(grid, v=(0.7, -0.2))
    report = classical_crocco(state, KortewegModel(beta=0.0))
    assert report.schema == ("thermo", "enthalpy")
    assert linf_norm(report.lhs) == 0.0  # uniform flow has zero lamb vector
    assert np.array_equal(report.residual.values, report.lhs.values)


def test_classical_requires_gradient_free_model():
    grid = Grid.periodic(8)
    with pytest.raises(ValueError):
        classical_crocco(uniform_state(grid), KortewegModel(beta=0.5))


def test_classical_stratified_imbalance_oracle():
    """1-D stratified state: residual_y = iota*c*iota' to O(h^2), eta-free."""
    c = 1.7

    def build(grid):
        _, y = grid.meshgrid()
        iota = 2.0 + 0.4 * np.sin(y)
        eta = 0.5 * np.cos(y)
        v = np.broadcast_to([0.8, 0.0], grid.extents + (2,)).copy()
        return KortewegState(VectorField(grid, v), ScalarField(grid, iota), ScalarField(grid, eta))

    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        _, y = grid.meshgrid()
        report = classical_crocco(build(grid), KortewegModel(f_kind="quadratic", c=c, iota_ref=1.0))
        iota = 2.0 + 0.4 * np.sin(y)
        expected_y = -iota * c * 0.4 * np.cos(y)  # residual = -(thermo+enthalpy)
        err_y = np.max(np.abs(report.residual.values[..., 1] - expected_y))
        err_x = np.max(np.abs(report.residual.values[..., 0]))
        return float(max(err_y, err_x))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.observed_order >= 1.8


# ---------------------------------------------------------------------------
# capillary relation
# ---------------------------------------------------------------------------


def test_korteweg_uniform_state_all_terms_zero():
    grid = Grid.periodic(16)
    state = uniform_state(grid, v=(0.5, 0.1))
    report = korteweg_crocco(state, KortewegModel(beta=0.6), KortewegCoEnergy(0.3, 0.2))
    for name in report.schema:
        assert linf_norm(report.terms[name]) <= 1e-13, name
    assert linf_norm(report.residual) <= 1e-13


def test_korteweg_reduces_to_classical_when_gradient_free():
    grid = Grid.periodic(32)
    state, _, _ = korteweg_classical(grid)
    model = KortewegModel(f_kind="quadratic", c=1.3, iota_ref=1.8, beta=0.0)
    kort = korteweg_crocco(state, model, KortewegCoEnergy())
    classic = classical_crocco(state, model)
    assert linf_norm(kort.terms["wall"]) == 0.0
    assert linf_norm(kort.terms["inertia"]) == 0.0
    for name in ("thermo", "enthalpy"):
        diff = np.max(np.abs(kort.terms[name].values - classic.terms[name].values))
        assert diff <= 1e-12, name
    assert np.max(np.abs(kort.residual.values - classic.residual.values)) <= 1e-12


def test_residual_recomputation_is_bit_exact():
    state, model, coenergy = korteweg_basic(Grid.periodic(32))
    report = korteweg_crocco(state, model, coenergy)
    recomputed = report.lhs.values.copy()
    for name in report.schema:
        recomputed -= report.terms[name].values
    assert np.array_equal(recomputed, report.residual.values)


def test_reports_are_deterministic():
    state, model, coenergy = korteweg_basic(Grid.periodic(32))
    a = korteweg_crocco(state, model, coenergy)
    b = korteweg_crocco(state, model, coenergy)
    assert np.array_equal(a.residual.values, b.residual.values)
    assert a.norms == b.norms


# ---------------------------------------------------------------------------
# momentum residual and the defect identity
# ---------------------------------------------------------------------------


def test_momentum_residual_uniform_rest_state():
    grid = Grid.periodic(16)
    state = uniform_state(grid)
    r = steady_momentum_residual(state, KortewegModel(beta=0.5), KortewegCoEnergy())
    assert linf_norm(r) <= 1e-13


def test_momentum_residual_nonzero_on_manufactured_state():
    state, model, coenergy = korteweg_basic(Grid.periodic(32))
    assert linf_norm(steady_momentum_residual(state, model, coenergy)) > 0.1


def test_momentum_residual_hydrostatic_balance():
    # v = 0, uniform iota, stratified eta: the separable potential keeps
    # p_bar constant, so the balance holds exactly.
    grid = Grid.periodic(16)
    _, y = grid.meshgrid()
    state = KortewegState(
        v=VectorField(grid, np.zeros(grid.extents + (2,))),
        iota=ScalarField(grid, np.full(grid.extents, 1.4)),
        eta=ScalarField(grid, 0.5 * np.sin(y)),
    )
    r = steady_momentum_residual(state, KortewegModel(c=1.2, beta=0.5), KortewegCoEnergy())
    assert linf_norm(r) <= 1e-13


def test_lamb_vector_3d_hand_value():
    grid = Grid.one_sided((8, 8, 8), (0.25, 0.25, 0.25))
    x, y, _ = grid.meshgrid()
    v = VectorField(grid, np.stack([-y, x, np.zeros_like(x)], axis=-1))
    lamb = lamb_vector(v)  # omega = (0,0,2): omega x v = (-2x, -2y, 0)
    assert np.max(np.abs(lamb.values[..., 0] + 2.0 * x)) <= 1e-12
    assert np.max(np.abs(lamb.values[..., 1] + 2.0 * y)) <= 1e-12
    assert np.max(np.abs(lamb.values[..., 2])) <= 1e-12


def test_defect_identity_holds_in_3d():
    def build(grid):
        x, y, z = grid.meshgrid()
        v = np.stack(
            [
                0.5 + 0.3 * np.sin(x) * np.cos(z),
                -0.2 + 0.25 * np.cos(y) * np.sin(z),
                0.3 + 0.2 * np.sin(x + y),
            ],
            axis=-1,
        )
        iota = 2.0 + 0.4 * np.sin(x) * np.cos(y) * np.sin(z)
        eta = 0.2 * np.sin(y) + 0.1 * np.cos(z)
        state = KortewegState(
            VectorField(grid, v), ScalarField(grid, iota), ScalarField(grid, eta)
        )
        return state, KortewegModel(c=1.1, iota_ref=1.7, beta=0.6), KortewegCoEnergy(0.3, 0.4)

    errs = []
    for n in (16, 32):
        grid = Grid.periodic(n, dim=3)
        state, model, coenergy = build(grid)
        report = korteweg_crocco(state, model, coenergy)
        r = steady_momentum_residual(state, model, coenergy)
        errs.append(linf_norm(VectorField(grid, report.residual.values - r.values)))
    assert errs[0] / errs[1] >= 3.0  # one halving at second order


@pytest.mark.parametrize(
    "name", ["korteweg-classical", "korteweg-basic", "korteweg-inertia", "korteweg-two-well"]
)
def test_defect_identity_refines(name):
    grids = [Grid.periodic(n) for n in (32, 64, 128)]
    report = defect_identity(CATALOG[name], grids)
    assert report.meets_order(1.8), report.levels


def test_defect_identity_flags_violations():
    # Evaluating the relation with the gradient energy but the residual
    # without it breaks the identity at order ~0, which must be flagged.
    from croccolab.crocco import _run_identity_probe

    def bad_probe(grid):
        state, model, coenergy = korteweg_basic(grid)
        report = korteweg_crocco(state, model, coenergy)
        wrong_model = KortewegModel(f_kind="quadratic", c=1.3, iota_ref=1.8, beta=0.0)
        r = steady_momentum_residual(state, wrong_model, coenergy)
        return linf_norm(VectorField(grid, report.residual.values - r.values))

    grids = [Grid.periodic(n) for n in (32, 64, 128)]
    with pytest.raises(IdentityViolationError):
        _run_identity_probe(bad_probe, grids, 1.5, "deliberately broken")


# ---------------------------------------------------------------------------
# cancellation scenario (hand-solved pre-build construction)
# ---------------------------------------------------------------------------


def test_cancellation_profile_lamb_vector_is_exactly_zero():
    state, _, _ = cancellation_profile(Grid.periodic(64))
    assert linf_norm(lamb_vector(state.v)) == 0.0


def test_cancellation_profile_thermo_term_is_order_one():
    state, model, coenergy = cancellation_profile(Grid.periodic(64))
    report = korteweg_crocco(state, model, coenergy)
    assert report.norms["thermo"][1] > 0.1


def test_cancellation_imbalance_refines():
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        state, model, coenergy = cancellation_profile(grid)
        report = korteweg_crocco(state, model, coenergy)
        return linf_norm(report.terms_sum())

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.observed_order >= 1.8


def test_corollary_check_modes_on_classical_state():
    # No substructure, uniform eta and H, uniform v: both modes return the
    # (zero) lamb-vector magnitude.
    grid = Grid.periodic(16)
    state = uniform_state(grid, v=(0.4, 0.3))
    report = classical_crocco(state, KortewegModel(beta=0.0))
    for mode in ("cancellation", "generation"):
        check = corollary_check(report, mode)
        assert check.linf == 0.0
    with pytest.raises(ValueError):
        corollary_check(report, "banana")


def test_report_names_the_non_finite_term_and_cell():
    grid = Grid.periodic(16)
    state, model, coenergy = korteweg_basic(grid)
    eta = state.eta.values.copy()
    eta[2, 3] = 800.0  # theta = e0/c_v*exp(eta/c_v) overflows in that one cell
    hot = KortewegState(state.v, state.iota, ScalarField(grid, eta))
    message = re.escape("korteweg term thermo is non-finite at cell (2, 3)")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FieldValueError, match=f"^{message}$"):
        korteweg_crocco(hot, model, coenergy)
