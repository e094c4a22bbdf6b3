"""Constitutive catalog: hand values, finite-difference checks, invariants."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croccolab.crocco import KortewegState, complex_crocco
from croccolab.fieldcalc import Grid, OrderField, OrderGradField, ScalarField, VectorField
from croccolab.models import (
    ComplexFluidModel,
    EvaluationError,
    KortewegCoEnergy,
    KortewegModel,
    ModelError,
    OrderCoEnergy,
    catalog_models,
    check_sphere_constraint,
    gl_partials,
    validate_partials,
)
from croccolab.smectic import SmecticModel
from dual_routes import korteweg_embedding


def fields_on(grid, iota, gradiota, eta):
    return (
        ScalarField(grid, np.full(grid.extents, iota)),
        VectorField(grid, np.broadcast_to(gradiota, grid.extents + (len(gradiota),)).copy()),
        ScalarField(grid, np.full(grid.extents, eta)),
    )


# ---------------------------------------------------------------------------
# capillary potential
# ---------------------------------------------------------------------------


def test_korteweg_partials_at_energy_minimum():
    grid = Grid.periodic(8)
    model = KortewegModel(f_kind="quadratic", c=2.0, iota_ref=1.5, beta=0.3)
    iota, gi, eta = fields_on(grid, 1.5, (0.0, 0.0), 0.2)
    assert np.max(np.abs(model.dphi_diota(iota.values))) == 0.0
    assert np.max(np.abs(model.dphi_dgrad_iota(gi.values))) == 0.0
    assert np.min(model.theta(eta.values)) > 0.0


def test_korteweg_gradient_partial_is_linear():
    grid = Grid.periodic(8, dim=3)
    model = KortewegModel(beta=2.0)
    _, gi, _ = fields_on(grid, 1.0, (1.0, 0.0, 0.0), 0.0)
    p = model.dphi_dgrad_iota(gi.values)
    assert np.allclose(p[..., 0], 2.0)
    assert np.max(np.abs(p[..., 1:])) == 0.0


def test_two_well_partial_hand_value():
    # d/diota of c*(i-1)^2*(i-2)^2 is 2c(i-1)(i-2)(2i-3): zero at i = 1.5
    model = KortewegModel(f_kind="two-well", c=1.0, well_1=1.0, well_2=2.0)
    assert model.dphi_diota(np.array(1.5)) == pytest.approx(0.0, abs=1e-15)
    assert model.dphi_diota(np.array(1.2)) == pytest.approx(2 * 0.2 * (-0.8) * (-0.6))


@pytest.mark.parametrize("cls, extra", [(KortewegModel, {}), (ComplexFluidModel, {"m": 2})])
def test_unknown_f_kind_is_rejected(cls, extra):
    with pytest.raises(ModelError, match="f_kind must be one of .*'banana'"):
        cls(f_kind="banana", **extra)


def test_both_models_share_one_mechanical_part():
    # the order-parameter model's f is the capillary one, its wells being f_well_1, f_well_2
    iota = np.linspace(0.5, 3.0, 11)
    for f_kind in ("quadratic", "two-well"):
        kmodel = KortewegModel(f_kind=f_kind, c=0.9, iota_ref=1.4, well_1=0.8, well_2=2.1)
        cmodel = ComplexFluidModel(m=1, f_kind=f_kind, c=0.9, iota_ref=1.4, f_well_1=0.8, f_well_2=2.1)
        assert np.array_equal(kmodel.f_mech(iota), cmodel.f_mech(iota))
        assert np.array_equal(kmodel.df_mech(iota), cmodel.df_mech(iota))


def test_two_well_gamma_hand_value():
    # k*(nu0 - w1)^2*(nu0 - w2)^2 on chart component 0, plus f(iota) + e0*exp(eta/c_v)
    model = ComplexFluidModel(m=2, gamma_kind="two-well", k=2.0, well_1=-1.0, well_2=1.0, c=0.0)
    nu = np.array([0.5, 3.0])
    assert model.phi(1.0, nu, np.zeros((2, 2)), 0.0) == pytest.approx(2.0 * 1.5**2 * 0.5**2 + 1.0)
    assert model.dphi_dnu(1.0, nu) == pytest.approx([2.0 * 2.0 * 1.5 * (-0.5) * 1.0, 0.0])


def test_theta_positive_everywhere():
    model = KortewegModel()
    eta = np.linspace(-30.0, 30.0, 101)
    assert np.min(model.theta(eta)) > 0.0


def test_exp_overflow_reported_with_cell():
    # the capillary potential reaches gl_partials through its m = 1 embedding
    grid = Grid.periodic(8)
    model = KortewegModel()
    iota, _, _ = fields_on(grid, 1.0, (0.0, 0.0), 0.0)
    v = VectorField(grid, np.zeros(grid.extents + (2,)))
    hot = np.zeros(grid.extents)
    hot[2, 3] = 1e4  # exp overflows to inf
    state = KortewegState(v, iota, ScalarField(grid, hot))
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError, match=r"\(2, 3\)"):
            complex_crocco(*korteweg_embedding(state, model))


# ---------------------------------------------------------------------------
# rate co-energy
# ---------------------------------------------------------------------------


def test_coenergy_rest_state_and_constant_kappa():
    grid = Grid.periodic(8)
    iota = ScalarField(grid, np.full(grid.extents, 1.3))
    zero = ScalarField(grid, np.zeros(grid.extents))
    co = KortewegCoEnergy(kappa0=2.0, kappa1=1.0)
    assert np.max(np.abs(co.dchi_diota_dot(iota.values, zero.values))) == 0.0
    assert np.max(np.abs(co.dchi_diota(iota.values, zero.values))) == 0.0
    rate = ScalarField(grid, np.full(grid.extents, 0.7))
    const_kappa = KortewegCoEnergy(kappa0=2.0, kappa1=0.0)
    assert np.max(np.abs(const_kappa.dchi_diota(iota.values, rate.values))) == 0.0


def test_coenergy_hand_values():
    # kappa0=1, kappa1=2, iota=1, rate=3: kappa=3, so 3*3=9 and 0.5*2*9=9
    co = KortewegCoEnergy(kappa0=1.0, kappa1=2.0)
    assert co.dchi_diota_dot(1.0, 3.0) == pytest.approx(9.0)
    assert co.dchi_diota(1.0, 3.0) == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# order-parameter potential
# ---------------------------------------------------------------------------


def test_gl_partials_at_anchor():
    grid = Grid.periodic(8)
    model = ComplexFluidModel(m=2, k=2.0, nu_ref=(0.1, -0.2), a=3.0)
    iota = ScalarField(grid, np.ones(grid.extents))
    eta = ScalarField(grid, np.zeros(grid.extents))
    nu = OrderField(grid, np.broadcast_to([0.1, -0.2], grid.extents + (2,)).copy())
    gnu = OrderGradField(grid, np.zeros(grid.extents + (2, 2)))
    parts = gl_partials(model, iota, nu, gnu, eta)
    assert np.max(np.abs(parts.dphi_dnu)) == 0.0
    assert np.max(np.abs(parts.dphi_dgrad_nu)) == 0.0


def test_gl_gradient_partial_linear_and_quadratic_hand_value():
    grid = Grid.periodic(8)
    model = ComplexFluidModel(m=2, k=2.0, a=3.0)
    iota = ScalarField(grid, np.ones(grid.extents))
    eta = ScalarField(grid, np.zeros(grid.extents))
    gnu_values = np.zeros(grid.extents + (2, 2))
    gnu_values[..., 0, 0] = 1.0
    gnu = OrderGradField(grid, gnu_values)
    nu = OrderField(grid, np.broadcast_to([0.5, -1.0], grid.extents + (2,)).copy())
    parts = gl_partials(model, iota, nu, gnu, eta)
    assert np.allclose(parts.dphi_dgrad_nu[..., 0, 0], 3.0)
    assert np.max(np.abs(parts.dphi_dgrad_nu[..., 1, :])) == 0.0
    # quadratic gamma with k=2 and nu - nu0 = (0.5, -1): dphi_dnu = (1, -2)
    assert np.allclose(parts.dphi_dnu[..., 0], 1.0)
    assert np.allclose(parts.dphi_dnu[..., 1], -2.0)


def test_gl_chart_dimension_mismatch():
    grid = Grid.periodic(8)
    model = ComplexFluidModel(m=3)
    iota = ScalarField(grid, np.ones(grid.extents))
    eta = ScalarField(grid, np.zeros(grid.extents))
    nu = OrderField(grid, np.zeros(grid.extents + (2,)))
    gnu = OrderGradField(grid, np.zeros(grid.extents + (2, 2)))
    with pytest.raises(ModelError, match="mismatch"):
        gl_partials(model, iota, nu, gnu, eta)


@pytest.mark.parametrize("gamma_kind, anchors", [("quadratic", 1), ("two-well", 0)])
def test_gl_partials_take_the_anchor_offset_and_the_exponential_once(monkeypatch, gamma_kind, anchors):
    grid = Grid.periodic(8)
    model = ComplexFluidModel(m=2, gamma_kind=gamma_kind, k=1.1, nu_ref=(0.2, -0.1), nu_ref_slope=(0.3, -0.2), a=0.8)
    rng = np.random.default_rng(4)
    iota = ScalarField(grid, 1.0 + 0.5 * rng.random(grid.extents))
    eta = ScalarField(grid, rng.standard_normal(grid.extents))
    nu = OrderField(grid, rng.standard_normal(grid.extents + (2,)))
    gnu = OrderGradField(grid, rng.standard_normal(grid.extents + (2, 2)))
    # the public methods each take their own offset and exponential
    expected = {
        "dphi_diota": model.dphi_diota(iota.values, nu.values),
        "dphi_dnu": model.dphi_dnu(iota.values, nu.values),
        "dphi_dgrad_nu": model.dphi_dgrad_nu(gnu.values),
        "theta": model.theta(eta.values),
        "phi": model.phi(iota.values, nu.values, gnu.values, eta.values),
    }
    calls = {"nu_anchor": 0, "_thermal": 0}
    for name in calls:
        original = getattr(ComplexFluidModel, name)

        def wrapper(self, *args, name=name, original=original):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(ComplexFluidModel, name, wrapper)
    parts = gl_partials(model, iota, nu, gnu, eta)
    assert calls == {"nu_anchor": anchors, "_thermal": 1}
    for name, values in expected.items():
        assert np.array_equal(getattr(parts, name).view(np.int64), values.view(np.int64)), name


def test_sphere_constraint_validation():
    grid = Grid.periodic(8)
    model = ComplexFluidModel(m=2, sphere_constrained=True)
    good = np.zeros(grid.extents + (2,))
    good[..., 0] = 1.0
    check_sphere_constraint(model, OrderField(grid, good))
    bad = good.copy()
    bad[1, 2, 0] = 1.1
    with pytest.raises(ModelError, match=r"\(1, 2\)"):
        check_sphere_constraint(model, OrderField(grid, bad))


# ---------------------------------------------------------------------------
# order co-energy
# ---------------------------------------------------------------------------


def test_order_coenergy_hand_values_and_legendre():
    co = OrderCoEnergy(((2.0, 0.0), (0.0, 3.0)), (1.0, 0.0))
    nd = np.array([1.0, 1.0])
    assert np.allclose(co.dchi_dnu_dot(None, nd), [3.0, 3.0])
    k = co.dchi_dnu_dot(None, nd) @ nd - co.chi(None, nd)
    assert k == pytest.approx(2.5)
    assert co.kinetic_energy(nd) == pytest.approx(2.5)


def test_order_coenergy_zero_at_rest():
    grid = Grid.periodic(8)
    co = OrderCoEnergy(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))
    nu = OrderField(grid, np.zeros(grid.extents + (2,)))
    assert np.max(np.abs(co.dchi_dnu_dot(nu.values, nu.values))) == 0.0
    assert np.max(np.abs(co.dchi_dnu(nu.values, nu.values))) == 0.0


def test_order_coenergy_identity_matrix():
    co = OrderCoEnergy(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))
    assert np.allclose(co.dchi_dnu_dot(None, np.array([1.0, 2.0])), [1.0, 2.0])


def test_order_coenergy_validation():
    with pytest.raises(ModelError):
        OrderCoEnergy(((1.0, 0.5), (0.0, 1.0)), (0.0, 0.0))  # not symmetric
    with pytest.raises(ModelError):
        OrderCoEnergy(((-1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))  # not PSD
    assert OrderCoEnergy.zero(3).is_zero


def test_order_coenergy_checks_scale_with_omega():
    # np.allclose's relative 1e-5 passes the first Omega, and an absolute floor the
    # second; dchi_dnu_dot of an asymmetric Omega is not the gradient of chi, yet it
    # stays inside validate_partials' 1e-6
    with pytest.raises(ModelError, match="symmetric"):
        OrderCoEnergy(((2.0, 1.0 + 1e-6), (1.0, 2.0)), (0.0, 0.0))
    with pytest.raises(ModelError, match="positive semi-definite"):
        OrderCoEnergy(((1e-13, 0.0), (0.0, -1e-13)), (0.0, 0.0))
    # stored symmetrized: a rounding-level asymmetry leaves no antisymmetric part
    co = OrderCoEnergy(((2.0, 1.0 + 2.0**-50), (1.0, 2.0)), (0.0, 0.0))
    assert co.omega[0][1] == co.omega[1][0] == 1.0 + 2.0**-51
    assert OrderCoEnergy(((1.2, 0.3), (0.3, 0.9)), (0.4, -0.2)).omega == ((1.2, 0.3), (0.3, 0.9))
    assert OrderCoEnergy(((1e308, 0.0), (0.0, 1e308)), (0.0, 0.0)).omega == ((1e308, 0.0), (0.0, 1e308))


@pytest.mark.parametrize(
    "omega, error",
    [
        (((1.2, 0.3), (0.3, 0.9)), None),
        (((1.0, 1.0), (1.0, 1.0)), None),  # singular PSD: an eigenvalue at rounding level
        (((2.0, 1.0 + 2.0**-50), (1.0, 2.0)), None),
        (((2.0, 1.0 + 1e-6), (1.0, 2.0)), "symmetric"),
        (((1.0, 0.0), (0.0, -1.0)), "positive semi-definite"),
        (((1.0, 0.0), (0.0, -1e-9)), "positive semi-definite"),
    ],
)
@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
def test_order_coenergy_verdict_is_scale_free(omega, error, scale):
    scaled = tuple(tuple(scale * x for x in row) for row in omega)
    if error is None:
        OrderCoEnergy(scaled, (0.0, 0.0))
    else:
        with pytest.raises(ModelError, match=error):
            OrderCoEnergy(scaled, (0.0, 0.0))


# a valid instance's arguments per model, every tuple parameter given with entries
VALID_ARGS = {
    KortewegModel: {},
    ComplexFluidModel: {"m": 2, "nu_ref": (0.2, -0.1), "nu_ref_slope": (0.3, -0.2)},
    SmecticModel: {"gamma1": 1.2, "gamma2": 0.6},
    KortewegCoEnergy: {},
    OrderCoEnergy: {"omega": ((1.0, 0.0), (0.0, 1.0)), "lam": (0.0, 0.0)},
}
NUMERIC_PARAMETERS = [
    (cls, f.name) for cls in VALID_ARGS for f in fields(cls) if f.type == "float" or f.type.startswith("tuple")
]


def _last_entry_set(value, bad):
    """`value` with its last float, in a (nested) tuple or alone, replaced by `bad`."""
    return value[:-1] + (_last_entry_set(value[-1], bad),) if isinstance(value, tuple) else bad


def test_every_model_parameter_left_out_of_the_finite_check_is_a_choice_or_a_count():
    for cls in VALID_ARGS:
        for f in fields(cls):
            assert (cls, f.name) in NUMERIC_PARAMETERS or f.type in ("str", "int", "bool"), (cls, f.name)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("cls, name", NUMERIC_PARAMETERS, ids=[f"{c.__name__}.{n}" for c, n in NUMERIC_PARAMETERS])
def test_models_reject_non_finite_parameters_by_name(cls, name, bad):
    args = dict(VALID_ARGS[cls])
    cls(**args)  # valid as given
    args[name] = _last_entry_set(args.get(name, getattr(cls, name, 0.0)), bad)
    entry = name if isinstance(args[name], float) else rf"{name}(\[\d\])+"
    with pytest.raises(ModelError, match=rf"^{cls.__name__} parameters must be finite, got {entry} = {bad}$"):
        cls(**args)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=2, max_size=2),
       st.lists(st.floats(-2, 2), min_size=2, max_size=2))
def test_legendre_transform_independent_of_lambda(nudot, lam):
    omega = ((1.5, 0.4), (0.4, 1.1))
    with_lam = OrderCoEnergy(omega, tuple(lam))
    without = OrderCoEnergy(omega, (0.0, 0.0))
    nd = np.array(nudot)
    k1 = with_lam.dchi_dnu_dot(None, nd) @ nd - with_lam.chi(None, nd)
    k2 = without.dchi_dnu_dot(None, nd) @ nd - without.chi(None, nd)
    assert k1 == pytest.approx(k2, abs=1e-12)


# ---------------------------------------------------------------------------
# objectivity
# ---------------------------------------------------------------------------


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 6.283), st.lists(st.floats(-2, 2), min_size=2, max_size=2))
def test_korteweg_potential_objectivity(theta, grad):
    model = KortewegModel(beta=0.8, c=1.2)
    g = np.array(grad)
    rotated = _rotation(theta) @ g
    phi_1 = model.phi(1.3, g, 0.4)
    phi_2 = model.phi(1.3, rotated, 0.4)
    assert phi_1 == pytest.approx(phi_2, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 6.283))
def test_gl_potential_objectivity(theta):
    model = ComplexFluidModel(m=2, a=0.9)
    rng = np.random.default_rng(3)
    gnu = rng.uniform(-1, 1, (2, 2))
    rotated = gnu @ _rotation(theta).T  # spatial index rotates
    nu = np.array([0.3, -0.2])
    assert model.phi(1.2, nu, gnu, 0.1) == pytest.approx(
        model.phi(1.2, nu, rotated, 0.1), abs=1e-12
    )


# ---------------------------------------------------------------------------
# finite-difference validation
# ---------------------------------------------------------------------------


def test_validate_partials_all_catalog_models():
    for model in catalog_models():
        report = validate_partials(model)
        assert report.passed, [c.entry for c in report.failures]


def _corrupted(model, method, how):
    """`model` with its partial `method` scaled by 1.1 or replaced by NaN everywhere."""
    def corrupt(self, *args):
        out = np.asarray(getattr(type(model), method)(self, *args), dtype=float)
        return 1.1 * out if how == "scaled" else np.full_like(out, np.nan)

    return type(f"Corrupted{type(model).__name__}", (type(model),), {method: corrupt})(
        **{f.name: getattr(model, f.name) for f in fields(model)}
    )


@pytest.mark.parametrize("how", ["scaled", "nan"])
@pytest.mark.parametrize(
    "model, method, entries",
    [
        (KortewegModel(c=1.0, beta=0.5), "dphi_diota", ["dphi_diota"]),
        (KortewegModel(c=1.0, beta=0.5), "dphi_dgrad_iota", [f"dphi_dgrad_iota[{j}]" for j in range(3)]),
        (KortewegModel(f_kind="two-well", c=0.9, beta=0.4), "theta", ["theta"]),
        (KortewegCoEnergy(kappa0=0.4, kappa1=0.6), "dchi_diota", ["dchi_diota"]),
        (KortewegCoEnergy(kappa0=0.4, kappa1=0.6), "dchi_diota_dot", ["dchi_diota_dot"]),
        (ComplexFluidModel(m=2, k=1.1, nu_ref=(0.2, -0.1), a=0.8), "dphi_dnu", ["dphi_dnu[0]", "dphi_dnu[1]"]),
        (ComplexFluidModel(m=2, gamma_kind="two-well", f_kind="two-well", a=0.5), "dphi_diota", ["dphi_diota"]),
        (ComplexFluidModel(m=1, a=0.8), "dphi_dgrad_nu", ["dphi_dgrad_nu[0,0]", "dphi_dgrad_nu[0,1]"]),
        # the Legendre entry reads dchi_dnu_dot too, so it fails with it
        (OrderCoEnergy(((1.2, 0.3), (0.3, 0.9)), (0.4, -0.2)), "dchi_dnu_dot",
         ["dchi_dnu_dot[0]", "dchi_dnu_dot[1]", "legendre_kinetic_energy"]),
        (OrderCoEnergy(((1.2, 0.3), (0.3, 0.9)), (0.4, -0.2)), "kinetic_energy", ["legendre_kinetic_energy"]),
    ],
)
def test_validate_partials_detects_corruption(model, method, entries, how):
    report = validate_partials(_corrupted(model, method, how))
    assert not report.passed
    assert [c.entry for c in report.failures] == entries
    if how == "nan":
        assert all(np.isnan(c.max_rel_error) for c in report.failures)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), f_kind=st.sampled_from(["quadratic", "two-well"]),
       gamma_kind=st.sampled_from(["quadratic", "two-well"]), m=st.integers(1, 3))
def test_random_admissible_models_pass_validation(data, f_kind, gamma_kind, m):
    coefficient, position = st.floats(0.0, 2.0), st.floats(-2.0, 2.0)
    # c_v log-uniform: a uniform draw seldom reaches the small c_v where a large entropic part
    # can swamp a potential's differences
    entropic = {"e0": data.draw(st.floats(0.1, 2.0)), "c_v": 10.0 ** data.draw(st.floats(-1.3, 0.3))}
    mechanical = {"f_kind": f_kind, "c": data.draw(coefficient), "iota_ref": data.draw(position)}
    korteweg = KortewegModel(**mechanical, **entropic, well_1=data.draw(position), well_2=data.draw(position),
                             beta=data.draw(coefficient))
    complex_model = ComplexFluidModel(
        m=m, gamma_kind=gamma_kind, k=data.draw(coefficient), a=data.draw(coefficient),
        nu_ref=data.draw(st.tuples(*[position] * m)), nu_ref_slope=data.draw(st.tuples(*[position] * m)),
        well_1=data.draw(position), well_2=data.draw(position), f_well_1=data.draw(position),
        f_well_2=data.draw(position), sphere_constrained=data.draw(st.booleans()), **mechanical, **entropic,
    )
    for model in (korteweg, complex_model):
        report = validate_partials(model)
        assert report.passed, (model, [(c.entry, c.max_rel_error) for c in report.failures])


@pytest.mark.parametrize("f_kind", ["quadratic", "two-well"])
def test_validate_partials_passes_a_large_entropic_part(f_kind):
    # at c_v = 0.05, e0*exp(eta/c_v) reaches e^20: a difference along iota taken at the
    # sampled eta lost dphi_diota in round-off (relative error 9.4e-4)
    for model in (KortewegModel(f_kind=f_kind, c_v=0.05), ComplexFluidModel(m=2, f_kind=f_kind, c_v=0.05)):
        report = validate_partials(model)
        assert report.passed, [(c.entry, c.max_rel_error) for c in report.checks]
        assert max(c.max_rel_error for c in report.checks) < 1e-7


def test_validate_partials_beta_zero_gradient_free():
    model = KortewegModel(beta=0.0)
    report = validate_partials(model)
    assert report.passed
    assert np.max(np.abs(model.dphi_dgrad_iota(np.array([1.0, 2.0, 3.0])))) == 0.0


# ---------------------------------------------------------------------------
# chart reduction to the capillary model
# ---------------------------------------------------------------------------


def test_complex_model_reduces_to_korteweg_partials():
    grid = Grid.periodic(16)
    x, y = grid.meshgrid()
    kmodel = KortewegModel(f_kind="quadratic", c=1.3, iota_ref=1.8, beta=0.7)
    cmodel = ComplexFluidModel(m=1, k=0.0, a=0.7, f_kind="quadratic", c=1.3, iota_ref=1.8)
    iota = ScalarField(grid, 2.0 + 0.3 * np.sin(x) * np.cos(y))
    eta = ScalarField(grid, 0.2 * np.sin(y))
    from croccolab.fieldcalc import grad_scalar, order_grad

    gi = grad_scalar(iota)
    nu = OrderField(grid, iota.values[..., None])
    gnu = order_grad(nu)
    cparts = gl_partials(cmodel, iota, nu, gnu, eta)
    assert np.array_equal(kmodel.dphi_diota(iota.values), cparts.dphi_diota)
    assert np.array_equal(kmodel.theta(eta.values), cparts.theta)
    assert np.array_equal(kmodel.dphi_dgrad_iota(gi.values), cparts.dphi_dgrad_nu[..., 0, :])
    assert np.array_equal(kmodel.phi(iota.values, gi.values, eta.values), cparts.phi)
    assert np.max(np.abs(cparts.dphi_dnu)) == 0.0
