"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from croccolab.crocco import (
    classical_crocco,
    complex_crocco,
    complex_defect_identity,
    corollary_check,
    defect_identity,
    korteweg_crocco,
    korteweg_enthalpy,
    korteweg_stress,
    lamb_vector,
)
from croccolab.fieldcalc import (
    Grid,
    ScalarField,
    VectorField,
    curl_vector,
    div_tensor,
    grad_scalar,
    grad_vector,
    div_vector,
    hessian_scalar,
    linf_norm,
    refinement_study,
)
from croccolab.manufactured import (
    CATALOG,
    cancellation_profile,
    generation_sphere,
    generic_order_parameter,
    korteweg_basic,
    korteweg_classical,
    potential_order_parameter,
    smectic_wavy,
    taylor_green_vorticity,
    two_mode_vorticity,
    uniform_order_parameter,
)
from croccolab.models import (
    ComplexFluidModel,
    KortewegCoEnergy,
    KortewegModel,
    catalog_models,
    validate_partials,
)
from croccolab.smectic import smectic_crocco, smectic_via_general
from croccolab.transport import (
    TransportConfig,
    TransportState,
    potential_condition_check,
    run,
    step,
    substructural_stress,
    transport_rhs,
)

from dual_routes import (
    korteweg_embedding,
    korteweg_enthalpy_alt,
    korteweg_stress_expanded,
    stress_divergence_expanded,
)

TWO_PI = 2.0 * np.pi
LEVELS = (32, 64, 128)
SPACINGS = [TWO_PI / n for n in LEVELS]


def report_line(number: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {text}")
    assert ok, text


# ---------------------------------------------------------------------------


def test_criterion_01_operator_orders_and_linear_exactness():
    start = time.perf_counter()

    def field(grid):
        x, y = grid.meshgrid()
        return x, y

    def grad_err(h):
        grid = Grid.periodic(round(TWO_PI / h))
        x, y = field(grid)
        g = grad_scalar(ScalarField(grid, np.sin(x) * np.sin(y)))
        exact = np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)], -1)
        return float(np.max(np.abs(g.values - exact)))

    def div_err(h):
        grid = Grid.periodic(round(TWO_PI / h))
        x, y = field(grid)
        d = div_vector(VectorField(grid, np.stack([np.sin(x), np.cos(y)], -1)))
        return float(np.max(np.abs(d.values - (np.cos(x) - np.sin(y)))))

    def curl_err(h):
        grid = Grid.periodic(round(TWO_PI / h))
        x, y = field(grid)
        u = VectorField(grid, np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)], -1))
        w = curl_vector(u)
        return float(np.max(np.abs(w.values - 2.0 * np.sin(x) * np.sin(y))))

    def hess_err(h):
        grid = Grid.periodic(round(TWO_PI / h))
        x, y = field(grid)
        hess = hessian_scalar(ScalarField(grid, np.sin(x) * np.sin(y)))
        exact = np.empty(grid.extents + (2, 2))
        exact[..., 0, 0] = exact[..., 1, 1] = -np.sin(x) * np.sin(y)
        exact[..., 0, 1] = exact[..., 1, 0] = np.cos(x) * np.cos(y)
        return float(np.max(np.abs(hess.values - exact)))

    orders = {
        name: refinement_study(probe, SPACINGS).observed_order
        for name, probe in (("grad", grad_err), ("div", div_err), ("curl", curl_err), ("hess", hess_err))
    }

    grid = Grid.one_sided((8, 8), (0.5, 0.25))
    x, y = grid.meshgrid()
    lin_grad = grad_scalar(ScalarField(grid, 2.0 * x - 3.0 * y + 1.0))
    lin_jac = grad_vector(VectorField(grid, np.stack([x, 2 * y], -1)))
    lin_err = max(
        float(np.max(np.abs(lin_grad.values[..., 0] - 2.0))),
        float(np.max(np.abs(lin_grad.values[..., 1] + 3.0))),
        float(np.max(np.abs(lin_jac.values - np.array([[1.0, 0.0], [0.0, 2.0]])))),
    )
    elapsed = time.perf_counter() - start
    ok = all(o >= 1.8 for o in orders.values()) and lin_err <= 1e-12 and elapsed < 5.0
    report_line(
        1,
        ok,
        "operator orders "
        + ", ".join(f"{k}={v:.2f}" for k, v in orders.items())
        + f"; linear exactness {lin_err:.1e} <= 1e-12; runtime {elapsed:.1f}s < 5s",
    )


def test_criterion_02_classical_reduction():
    grid = Grid.periodic(64)
    state, _, _ = korteweg_classical(grid)
    model = KortewegModel(f_kind="quadratic", c=1.3, iota_ref=1.8, beta=0.0)
    kort = korteweg_crocco(state, model, KortewegCoEnergy())
    classic = classical_crocco(state, model)
    term_diff = max(
        float(np.max(np.abs(kort.terms[n].values - classic.terms[n].values)))
        for n in ("thermo", "enthalpy")
    )
    wall = linf_norm(kort.terms["wall"])
    inertia = linf_norm(kort.terms["inertia"])
    ok = term_diff <= 1e-12 and wall == 0.0 and inertia == 0.0
    report_line(
        2,
        ok,
        f"beta=0, chi=0 matches the classical report: term diff {term_diff:.1e} <= 1e-12; "
        f"wall and inertia fields identically zero ({wall}, {inertia})",
    )


def test_criterion_03_defect_identity_capillary():
    start = time.perf_counter()
    grids = [Grid.periodic(n) for n in LEVELS]
    orders = {}
    for name in ("korteweg-basic", "korteweg-inertia", "korteweg-classical"):
        orders[name] = defect_identity(CATALOG[name], grids).observed_order
    elapsed = time.perf_counter() - start
    ok = all(o >= 1.8 for o in orders.values()) and elapsed < 30.0
    report_line(
        3,
        ok,
        "capillary defect == momentum residual at orders "
        + ", ".join(f"{k.split('-')[1]}={v:.2f}" for k, v in orders.items())
        + f" (>= 1.8); runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_04_defect_identity_complex():
    grids = [Grid.periodic(n) for n in LEVELS]
    order = complex_defect_identity(CATALOG["complex-gl-m2"], grids).observed_order
    ok = order >= 1.8
    report_line(
        4,
        ok,
        f"order-parameter defect identity (m=2 with Omega/lambda co-energy) order {order:.2f} >= 1.8",
    )


def test_criterion_05_reduction_chain():
    # capillary state fed to the general m=1 engine at 64^2
    grid = Grid.periodic(64)
    state, model, coenergy = korteweg_basic(grid)
    krep = korteweg_crocco(state, model, coenergy)
    cstate, cmodel, cco = korteweg_embedding(state, model)
    crep = complex_crocco(cstate, cmodel, cco)
    shared = max(
        float(np.max(np.abs(crep.terms[n].values - krep.terms[n].values)))
        for n in ("thermo", "enthalpy")
    )

    def sub_probe(h):
        g = Grid.periodic(round(TWO_PI / h))
        s, m, c = korteweg_basic(g)
        kr = korteweg_crocco(s, m, c)
        cs, cm, cc = korteweg_embedding(s, m)
        cr = complex_crocco(cs, cm, cc)
        diff = cr.substructural_sum().values - (kr.terms["wall"].values + kr.terms["inertia"].values)
        return float(np.max(np.abs(diff)))

    sub_report = refinement_study(sub_probe, SPACINGS)

    def smectic_probe(h):
        g = Grid.periodic(round(TWO_PI / h))
        s, m = smectic_wavy(g)
        special = smectic_crocco(s, m)
        general = smectic_via_general(s, m)
        return max(
            float(np.max(np.abs(special.terms[n].values - general.terms[n].values)))
            for n in special.schema
        )

    smectic_report = refinement_study(smectic_probe, SPACINGS)

    ok = shared <= 1e-10 and sub_report.meets_order(1.8) and smectic_report.meets_order(1.8)
    report_line(
        5,
        ok,
        f"reduction chain: shared term fields diff {shared:.1e} <= 1e-10 at 64^2, "
        f"substructural sums order {sub_report.order_label} >= 1.8, "
        f"layered vs general order {smectic_report.order_label} (exact = bit-identical)",
    )


def test_criterion_06_cancellation_scenario():
    state, model, coenergy = cancellation_profile(Grid.periodic(64))
    thermo_inf = korteweg_crocco(state, model, coenergy).norms["thermo"][1]

    def imbalance(h):
        grid = Grid.periodic(round(TWO_PI / h))
        s, m, c = cancellation_profile(grid)
        return linf_norm(korteweg_crocco(s, m, c).terms_sum())

    def lamb(h):
        grid = Grid.periodic(round(TWO_PI / h))
        s, _, _ = cancellation_profile(grid)
        return linf_norm(lamb_vector(s.v))

    imbalance_report = refinement_study(imbalance, SPACINGS)
    lamb_report = refinement_study(lamb, SPACINGS)
    ok = (
        thermo_inf > 0.1
        and imbalance_report.meets_order(1.8)
        and lamb_report.meets_order(1.8)
    )
    report_line(
        6,
        ok,
        f"cancellation scenario: |theta grad eta|_inf = {thermo_inf:.2f} > 0.1, "
        f"imbalance order {imbalance_report.order_label}, "
        f"lamb vector {lamb_report.order_label} (identically zero by construction)",
    )


def test_criterion_07_generation_scenario():
    grid = Grid.periodic(64)
    state, model, coenergy = generation_sphere(grid)
    report = complex_crocco(state, model, coenergy)
    thermo = linf_norm(report.terms["thermo"])
    enthalpy = linf_norm(report.terms["enthalpy"])
    relation_rhs = report.terms_sum().values
    substructural = report.substructural_sum().values
    rhs_vs_sub = float(np.max(np.abs(relation_rhs - substructural)))

    # independent closed-form assembly of the surviving right side
    x, _ = grid.meshgrid()
    alpha, vx, iota = 1.0, 0.9, 1.5
    omega = np.array(coenergy.omega)
    nu = np.stack([np.cos(alpha * x), np.sin(alpha * x)], -1)
    nu_d1 = np.stack([-np.sin(alpha * x), np.cos(alpha * x)], -1) * alpha
    nu_d3 = -(alpha**2) * nu_d1
    content_dx = iota * (model.a * nu_d3 - vx**2 * (nu_d3 @ omega))
    expected_x = -np.einsum("...a,...a->...", content_dx, nu)
    direct_err = float(np.max(np.abs(substructural[..., 0] - expected_x)))
    h_sq = grid.spacing[0] ** 2

    check = corollary_check(report, "generation")
    sub_mag = np.sqrt(np.sum(substructural**2, axis=-1))
    gen_matches = float(np.max(np.abs(check.field.values - sub_mag)))

    ok = (
        thermo == 0.0
        and enthalpy <= 1e-12
        and rhs_vs_sub <= 1e-12
        and direct_err <= 2.0 * h_sq
        and gen_matches <= 1e-13
    )
    report_line(
        7,
        ok,
        f"generation scenario: uniform thermo/enthalpy ({thermo:.1e}, {enthalpy:.1e}); "
        f"relation rhs equals substructural side (diff {rhs_vs_sub:.1e}); "
        f"closed-form oracle error {direct_err:.1e} <= 2h^2 = {2*h_sq:.1e}",
    )


def test_criterion_08_dual_routes():
    # enthalpy: the two definitions differ by an identity with rho*iota == 1,
    # so agreement is rounding level at every grid (stronger than O(h^2))
    enthalpy_errs = []
    for n in LEVELS:
        state, model, coenergy = CATALOG["korteweg-inertia"](Grid.periodic(n))
        direct = korteweg_enthalpy(state, model, coenergy).xi.values
        alt = korteweg_enthalpy_alt(state, model, coenergy)
        enthalpy_errs.append(float(np.max(np.abs(direct - alt))))
    enthalpy_ok = max(enthalpy_errs) <= 1e-11

    model2 = ComplexFluidModel(m=2, a=1.0)

    def expansion_probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        nu = generic_order_parameter(grid)
        a = div_tensor(substructural_stress(grid, nu, model2)).values
        b = stress_divergence_expanded(grid, nu, model2)
        return float(np.max(np.abs(a - b)))

    expansion = refinement_study(expansion_probe, SPACINGS)

    def product_rule_probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        state, model, _ = korteweg_basic(grid)
        a = div_tensor(korteweg_stress(state, model)).values
        b = korteweg_stress_expanded(state, model)
        return float(np.max(np.abs(a - b)))

    product_rule = refinement_study(product_rule_probe, SPACINGS)

    ok = enthalpy_ok and expansion.observed_order >= 1.8 and product_rule.observed_order >= 1.8
    report_line(
        8,
        ok,
        f"dual routes: enthalpy max diff {max(enthalpy_errs):.1e} <= 1e-11 (rounding), "
        f"stress-divergence expansion order {expansion.observed_order:.2f}, "
        f"dyadic product rule order {product_rule.observed_order:.2f} (both >= 1.8)",
    )


def test_criterion_09_transport():
    start = time.perf_counter()
    grid = Grid.periodic(64)
    model = ComplexFluidModel(m=2, a=1.0)
    dt = 0.25 * grid.spacing[0]

    conserving = run(
        TransportConfig(dt=dt, steps=1000, model=model, report_every=200),
        TransportState.from_vorticity(grid, two_mode_vorticity(grid), uniform_order_parameter(grid)),
    )
    halved = run(
        TransportConfig(dt=dt / 2, steps=2000, model=model, report_every=400),
        TransportState.from_vorticity(grid, two_mode_vorticity(grid), uniform_order_parameter(grid)),
    )
    shrink = conserving.enstrophy_drift / max(halved.enstrophy_drift, 1e-300)

    taylor_green = run(
        TransportConfig(dt=dt, steps=1000, model=model, report_every=250),
        TransportState.from_vorticity(grid, taylor_green_vorticity(grid), uniform_order_parameter(grid)),
    )
    tg0 = taylor_green.samples[0].max_omega
    tg_drift = max(abs(s.max_omega - tg0) for s in taylor_green.samples)

    altering = run(
        TransportConfig(dt=dt, steps=100, model=model, report_every=50),
        TransportState.from_vorticity(grid, two_mode_vorticity(grid), generic_order_parameter(grid)),
    )

    zero_state = TransportState.from_vorticity(grid, np.zeros(grid.extents), generic_order_parameter(grid))
    rhs0 = transport_rhs(zero_state, model).values
    dt_small = 1e-3
    first = step(zero_state, TransportConfig(dt=dt_small, steps=1, model=model))
    taylor_err = float(np.max(np.abs((first.omega.values - zero_state.omega.values) / dt_small - rhs0)))
    taylor_bound = 4.0 * dt_small + 4.0 * grid.spacing[0] ** 2

    tensors = [
        substructural_stress(Grid.periodic(n), potential_order_parameter(Grid.periodic(n)), model)
        for n in LEVELS
    ]
    condition = potential_condition_check(tensors)

    elapsed = time.perf_counter() - start
    ok = (
        conserving.enstrophy_drift < 1e-5
        and shrink >= 8.0
        and tg_drift <= 1e-6
        and altering.enstrophy_drift >= 10.0 * conserving.enstrophy_drift
        and taylor_err <= taylor_bound
        and condition.verdict == "conserving"
        and (condition.observed_order or 0.0) >= 1.8
        and elapsed < 120.0
    )
    report_line(
        9,
        ok,
        f"transport: conserving drift {conserving.enstrophy_drift:.1e} < 1e-5 over 1000 steps, "
        f"dt-halving shrink {shrink:.0f}x >= 8x, TG extremum drift {tg_drift:.1e} <= 1e-6, "
        f"altering/conserving ratio {altering.enstrophy_drift / conserving.enstrophy_drift:.1e} >= 10, "
        f"first-step Taylor error {taylor_err:.1e} <= {taylor_bound:.1e}, "
        f"gradient-potential construction order {condition.observed_order:.2f} >= 1.8; "
        f"runtime {elapsed:.0f}s < 120s",
    )


def test_criterion_10_model_validation():
    worst = 0.0
    all_pass = True
    for model in catalog_models():
        report = validate_partials(model)
        all_pass &= report.passed
        worst = max(worst, max(c.max_rel_error for c in report.checks))

    # objectivity at 1e-12 under explicit rotations
    kmodel = KortewegModel(beta=0.8, c=1.2)
    cmodel = ComplexFluidModel(m=2, a=0.9)
    rng = np.random.default_rng(5)
    obj_err = 0.0
    for _ in range(25):
        theta = rng.uniform(0.0, TWO_PI)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        g = rng.uniform(-2, 2, 2)
        obj_err = max(obj_err, abs(kmodel.phi(1.3, g, 0.4) - kmodel.phi(1.3, rot @ g, 0.4)))
        gnu = rng.uniform(-1, 1, (2, 2))
        nu = rng.uniform(-1, 1, 2)
        obj_err = max(
            obj_err, abs(cmodel.phi(1.2, nu, gnu, 0.1) - cmodel.phi(1.2, nu, gnu @ rot.T, 0.1))
        )

    ok = all_pass and worst < 1e-6 and obj_err <= 1e-12
    report_line(
        10,
        ok,
        f"model validation: all partials pass finite differences (worst rel err {worst:.1e} < 1e-6); "
        f"objectivity under rotations {obj_err:.1e} <= 1e-12",
    )
