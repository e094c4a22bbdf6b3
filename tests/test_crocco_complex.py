"""Order-parameter relation: balances, reductions, corollaries."""


import numpy as np
import pytest

from croccolab import crocco, models
from croccolab.crocco import (
    ComplexState,
    complex_crocco,
    complex_defect_identity,
    complex_momentum_residual,
    corollary_check,
    korteweg_crocco,
    substructural_balance_residual,
    substructural_coupling,
)
from croccolab.fieldcalc import (
    Grid,
    OrderField,
    ScalarField,
    VectorField,
    l2_norm,
    linf_norm,
    refinement_study,
)
from croccolab.manufactured import (
    CATALOG,
    complex_gl_m2,
    generation_sphere,
    korteweg_basic,
)
from croccolab.models import ComplexFluidModel, OrderCoEnergy, gl_partials
from dual_routes import korteweg_embedding
from traced_peaks import traced_peak

TWO_PI = 2.0 * np.pi


def partials(state, model):
    return gl_partials(model, state.iota, state.nu, state.grad_nu, state.eta)


def uniform_complex_state(grid, m=2, nu=(0.2, -0.1), v=(0.5, 0.1), iota=1.5, eta=0.3):
    return ComplexState(
        v=VectorField(grid, np.broadcast_to(v, grid.extents + (2,)).copy()),
        iota=ScalarField(grid, np.full(grid.extents, iota)),
        eta=ScalarField(grid, np.full(grid.extents, eta)),
        nu=OrderField(grid, np.broadcast_to(nu, grid.extents + (m,)).copy()),
    )


# ---------------------------------------------------------------------------
# substructural balance
# ---------------------------------------------------------------------------


def test_balance_zero_for_uniform_equilibrium():
    grid = Grid.periodic(16)
    model = ComplexFluidModel(m=2, k=1.5, nu_ref=(0.2, -0.1), a=0.7)
    state = uniform_complex_state(grid, nu=(0.2, -0.1))
    res = substructural_balance_residual(state, partials(state, model), OrderCoEnergy.zero(2))
    assert linf_norm(res) == 0.0


def test_balance_uniform_nu_is_minus_self_interaction():
    # uniform nu: the microstress and its divergence vanish, so Rs = -z = -rho*dphi_dnu
    grid = Grid.periodic(16)
    model = ComplexFluidModel(m=2, k=1.2, nu_ref=(0.2, -0.1), a=0.8, c=1.1, iota_ref=1.0)
    state = uniform_complex_state(grid, nu=(0.5, 0.3))
    parts = partials(state, model)
    res = substructural_balance_residual(state, parts, OrderCoEnergy.zero(2))
    assert np.array_equal(res.values, -(state.rho.values[..., None] * parts.dphi_dnu))
    assert linf_norm(res) > 0.0


def test_balance_self_interaction_hand_value():
    # quadratic gamma, k=2, nu - nu_ref = (1, 0), rho = 1: z = (2, 0), so Rs = (-2, 0)
    grid = Grid.periodic(8)
    model = ComplexFluidModel(m=2, k=2.0, nu_ref=(0.0, 0.0), a=1.0)
    state = uniform_complex_state(grid, nu=(1.0, 0.0), iota=1.0)
    res = substructural_balance_residual(state, partials(state, model), OrderCoEnergy.zero(2))
    assert np.allclose(res.values[..., 0], -2.0)
    assert np.allclose(res.values[..., 1], 0.0)


def test_balance_harmonic_equilibrium_refines():
    # nu = nu0 + A sin(x): with gamma curvature k = -a the static balance
    # div(S) = z holds identically (spinodal-type tuning).
    a = 0.8

    def build(grid):
        x, _ = grid.meshgrid()
        nu = (0.3 + 0.25 * np.sin(x))[..., None]
        state = ComplexState(
            v=VectorField(grid, np.zeros(grid.extents + (2,))),
            iota=ScalarField(grid, np.full(grid.extents, 2.0)),
            eta=ScalarField(grid, np.zeros(grid.extents)),
            nu=OrderField(grid, nu),
        )
        model = ComplexFluidModel(m=1, k=-a, nu_ref=(0.3,), a=a, c=0.0)
        return state, model

    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        state, model = build(grid)
        return linf_norm(substructural_balance_residual(state, partials(state, model), OrderCoEnergy.zero(1)))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.observed_order >= 1.8


def test_balance_constant_covector_advection_vanishes():
    grid = Grid.periodic(16)
    state, model, _ = complex_gl_m2(grid)
    co = OrderCoEnergy(tuple((0.0, 0.0) for _ in range(2)), (0.7, -0.3))
    with_into = substructural_balance_residual(state, partials(state, model), co)
    without = substructural_balance_residual(state, partials(state, model), OrderCoEnergy.zero(2))
    assert np.array_equal(with_into.values, without.values)


# ---------------------------------------------------------------------------
# the relation
# ---------------------------------------------------------------------------


def test_complex_uniform_state_reduces_to_classical():
    grid = Grid.periodic(16)
    model = ComplexFluidModel(m=2, k=1.2, nu_ref=(0.2, -0.1), a=0.8)
    state = uniform_complex_state(grid, nu=(0.2, -0.1))
    co = OrderCoEnergy(((1.0, 0.2), (0.2, 0.8)), (0.1, 0.0))
    report = complex_crocco(state, model, co)
    for name in ("micro_grad", "order_balance", "micro_div", "micro_hess"):
        assert linf_norm(report.terms[name]) == 0.0, name
    assert linf_norm(report.terms["thermo"]) == 0.0
    assert linf_norm(report.terms["enthalpy"]) <= 1e-13


def test_complex_schema():
    state, model, co = complex_gl_m2(Grid.periodic(16))
    report = complex_crocco(state, model, co)
    assert report.schema == (
        "thermo", "enthalpy", "micro_grad", "order_balance", "micro_div", "micro_hess",
    )


def test_report_norms_have_the_bits_of_l2_and_linf_norm():
    # the report takes each field's magnitude once; both norms must match the public ones
    grid = Grid((24, 20), (TWO_PI / 24, 0.2), ("periodic", "one-sided"))
    report = complex_crocco(*complex_gl_m2(grid))
    named = {"lhs": report.lhs, **report.terms, "residual": report.residual}
    assert list(report.norms) == list(named)
    for name, field in named.items():
        assert report.norms[name] == (l2_norm(field), linf_norm(field)), name


def test_embedding_shared_terms_match_bitwise():
    grid = Grid.periodic(64)
    state, model, coenergy = korteweg_basic(grid)
    krep = korteweg_crocco(state, model, coenergy)
    cstate, cmodel, cco = korteweg_embedding(state, model)
    crep = complex_crocco(cstate, cmodel, cco)
    assert np.max(np.abs(crep.terms["thermo"].values - krep.terms["thermo"].values)) <= 1e-10
    assert np.max(np.abs(crep.terms["enthalpy"].values - krep.terms["enthalpy"].values)) <= 1e-10
    assert np.max(np.abs(crep.lhs.values - krep.lhs.values)) == 0.0


def test_embedding_substructural_sums_refine_together():
    # The four chart-side terms reproduce wall + inertia(=0) under refinement:
    # the groupings differ by discrete product-rule defects only.
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        state, model, coenergy = korteweg_basic(grid)
        krep = korteweg_crocco(state, model, coenergy)
        cstate, cmodel, cco = korteweg_embedding(state, model)
        crep = complex_crocco(cstate, cmodel, cco)
        diff = crep.substructural_sum().values - (
            krep.terms["wall"].values + krep.terms["inertia"].values
        )
        return float(np.max(np.abs(diff)))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.observed_order >= 1.8


@pytest.mark.parametrize("name", ["complex-gl-m2", "complex-gl-m2-inertialess"])
def test_complex_defect_identity_refines(name):
    grids = [Grid.periodic(n) for n in (32, 64, 128)]
    report = complex_defect_identity(CATALOG[name], grids)
    assert report.meets_order(1.8), report.levels


def test_complex_defect_identity_evaluates_the_bundle_once_per_level(monkeypatch):
    calls = {"gl_partials": 0, "check_sphere_constraint": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(crocco, "gl_partials")
    counted(models, "check_sphere_constraint")
    grids = [Grid.periodic(n) for n in (16, 32, 64)]
    report = complex_defect_identity(CATALOG["complex-gl-m2"], grids)
    assert report.meets_order(1.8), report.levels
    assert calls == {"gl_partials": 3, "check_sphere_constraint": 3}


def test_relation_engine_builds_no_second_gradient_tensor():
    # At 128^2 one grid plane is 128 KiB.  The complex-gl-m2 relation (m = 2, non-zero
    # co-energy) peaked at ~64 planes and its defect-probe level at ~73 while the engine
    # built grad(P) and gradgrad(nu), 8 planes each; contracting each derivative as it
    # is taken, freeing each intermediate and dropping each term once its field holds
    # it leaves ~45 and ~54.
    grid = Grid.periodic(128)
    plane = grid.n_cells * 8
    state, model, coenergy = CATALOG["complex-gl-m2"](grid)
    assert traced_peak(complex_crocco, state, model, coenergy) < 52 * plane
    grids = [Grid.periodic(n) for n in (32, 64, 128)]
    assert traced_peak(complex_defect_identity, CATALOG["complex-gl-m2"], grids) < 62 * plane


def test_defect_probe_holds_one_term_at_a_time():
    # A complex-gl-m2 probe level subtracts each term from the Lamb-vector copy as the
    # engine builds it.  Holding all six term arrays (12 planes at m = 2) until the
    # subtraction peaked at ~53.6 planes (128^2) inside the engine; one term at a time
    # leaves the momentum residual's ~50.6 as the level's peak.
    plane = Grid.periodic(128).n_cells * 8
    grids = [Grid.periodic(n) for n in (32, 64, 128)]
    assert traced_peak(complex_defect_identity, CATALOG["complex-gl-m2"], grids) < 52 * plane


def test_defect_needs_the_substructural_coupling():
    # Without the coupling built from the substructural balance residual the
    # defect stays order one on free manufactured states.
    grid = Grid.periodic(64)
    state, model, co = complex_gl_m2(grid)
    report = complex_crocco(state, model, co)
    parts = partials(state, model)
    bare = linf_norm(VectorField(grid, report.residual.values - complex_momentum_residual(state, parts).values))
    coupled = linf_norm(
        VectorField(
            grid,
            report.residual.values
            - complex_momentum_residual(state, parts).values
            - substructural_coupling(state, parts, co).values,
        )
    )
    assert bare > 0.1
    assert coupled < 0.01


# ---------------------------------------------------------------------------
# corollaries
# ---------------------------------------------------------------------------


def test_generation_scenario_uniform_thermo_and_enthalpy():
    grid = Grid.periodic(64)
    state, model, co = generation_sphere(grid)
    report = complex_crocco(state, model, co)
    assert linf_norm(report.terms["thermo"]) == 0.0
    assert linf_norm(report.terms["enthalpy"]) <= 1e-12
    assert linf_norm(report.substructural_sum()) > 0.1
    assert linf_norm(report.lhs) == 0.0


def test_generation_mode_equals_substructural_side():
    # With zero lhs the generation check returns exactly the magnitude of
    # the substructural right side, assembled independently here.
    grid = Grid.periodic(64)
    state, model, co = generation_sphere(grid)
    report = complex_crocco(state, model, co)
    check = corollary_check(report, "generation")
    direct = report.substructural_sum().values
    assert np.max(np.abs(check.field.values - np.sqrt(np.sum(direct**2, axis=-1)))) <= 1e-14


def test_generation_term_matches_symbolic_oracle():
    """For nu = (cos ax, sin ax), v uniform, the only surviving term is the
    rate-co-energy part of order_balance: (grad(iota*(v.grad)(Omega nudot)))^T nu.
    Hand value: iota*vx^2*a^2 * d/dx[(Omega nu')].nu ... assembled here from
    closed forms."""
    grid = Grid.periodic(64)
    state, model, co = generation_sphere(grid)
    report = complex_crocco(state, model, co)
    x, _ = grid.meshgrid()
    alpha, vx, iota = 1.0, 0.9, 1.5
    omega = np.array(co.omega)
    nu = np.stack([np.cos(alpha * x), np.sin(alpha * x)], axis=-1)
    nu_d1 = np.stack([-np.sin(alpha * x), np.cos(alpha * x)], axis=-1) * alpha
    nu_d2 = -(alpha**2) * nu
    nu_d3 = -(alpha**2) * nu_d1
    # order_balance_x = -(d/dx [iota*(div S - vx^2 Omega nu'')]).nu
    # div S = a_gl * nu''; content' = iota*(a_gl*nu''' - vx^2 Omega nu''')
    content_dx = iota * (model.a * nu_d3 - vx**2 * (nu_d3 @ omega))
    expected_x = -np.einsum("...a,...a->...", content_dx, nu)
    got = report.terms["order_balance"].values
    assert np.max(np.abs(got[..., 0] - expected_x)) <= 5e-3  # O(h^2) at 64^2
    assert np.max(np.abs(got[..., 1])) <= 1e-12  # no y dependence


def test_cancellation_mode_is_terms_sum_magnitude():
    state, model, co = complex_gl_m2(Grid.periodic(32))
    report = complex_crocco(state, model, co)
    check = corollary_check(report, "cancellation")
    direct = report.terms_sum().values
    assert np.max(np.abs(check.field.values - np.sqrt(np.sum(direct**2, axis=-1)))) <= 1e-14
