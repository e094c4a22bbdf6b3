"""Defect probes: each level equals the public residuals bit for bit, evaluates every
quantity once, and refines on random smooth states."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croccolab import crocco, fieldcalc, transport
from croccolab.crocco import (
    ComplexState,
    KortewegState,
    complex_crocco,
    complex_defect_identity,
    complex_momentum_residual,
    defect_identity,
    korteweg_crocco,
    steady_momentum_residual,
    substructural_coupling,
)
from croccolab.fieldcalc import Grid, OrderField, ScalarField, VectorField, linf_norm
from croccolab.manufactured import CATALOG, COMPLEX_CATALOG, KORTEWEG_CATALOG
from croccolab.models import KortewegCoEnergy, KortewegModel, OrderCoEnergy, gl_partials

FAMILIES = {
    "periodic": [Grid.periodic(n) for n in (16, 32, 64)],
    "one-sided": [Grid.one_sided((n, n), (2.0 * np.pi / n,) * 2) for n in (16, 32, 64)],
}


def capillary_target(grid, builder):
    """linf(report residual - steady momentum residual) from the public functions."""
    state, model, coenergy = builder(grid)
    report = korteweg_crocco(state, model, coenergy)
    r = steady_momentum_residual(state, model, coenergy)
    return linf_norm(VectorField(grid, report.residual.values - r.values))


def complex_target(grid, builder):
    """linf(report residual - (momentum residual + substructural coupling)) from the public functions."""
    state, model, coenergy = builder(grid)
    report = complex_crocco(state, model, coenergy)
    parts = gl_partials(model, state.iota, state.nu, state.grad_nu, state.eta)
    r = complex_momentum_residual(state, parts).values + substructural_coupling(state, parts, coenergy).values
    return linf_norm(VectorField(grid, report.residual.values - r))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", sorted(KORTEWEG_CATALOG))
def test_capillary_probe_levels_equal_public_residuals(name, family):
    grids = FAMILIES[family]
    report = defect_identity(KORTEWEG_CATALOG[name], grids, min_order=0.0)
    for grid, (h, error) in zip(grids, report.levels):
        assert h == grid.spacing[0]
        assert error == capillary_target(grid, KORTEWEG_CATALOG[name])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", sorted(COMPLEX_CATALOG))
def test_order_parameter_probe_levels_equal_public_residuals(name, family):
    grids = FAMILIES[family]
    report = complex_defect_identity(COMPLEX_CATALOG[name], grids, min_order=0.0)
    for grid, (h, error) in zip(grids, report.levels):
        assert h == grid.spacing[0]
        assert error == complex_target(grid, COMPLEX_CATALOG[name])


# ---------------------------------------------------------------------------
# one evaluation per probe level
# ---------------------------------------------------------------------------


class Counter:
    """Counts calls of a wrapped callable, except those made while `paused`."""

    def __init__(self, target):
        self.target, self.calls, self.paused = target, 0, False

    def __call__(self, *args, **kwargs):
        if not self.paused:
            self.calls += 1
        return self.target(*args, **kwargs)


def counted(monkeypatch, owner, name):
    """Wrap `owner.name`; a function wrapper, so a method still binds its instance."""
    counter = Counter(getattr(owner, name))
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: counter(*args, **kwargs))
    return counter


def paused_in(factory, counters):
    """The state factory with every counter paused while it builds the state."""

    @functools.wraps(factory)
    def build(grid):
        for c in counters:
            c.paused = True
        try:
            return factory(grid)
        finally:
            for c in counters:
                c.paused = False

    return build


@pytest.mark.parametrize("name", sorted(KORTEWEG_CATALOG))
def test_capillary_probe_evaluates_each_quantity_once(monkeypatch, name):
    grids = FAMILIES["periodic"]
    inertia = not KORTEWEG_CATALOG[name](grids[0])[2].is_zero
    curl = counted(monkeypatch, crocco, "_curl")
    partial = counted(monkeypatch, KortewegModel, "dphi_dgrad_iota")
    rate = counted(monkeypatch, KortewegCoEnergy, "dchi_diota_dot")
    fields = counted(monkeypatch, fieldcalc.Field, "__init__")
    defect_identity(paused_in(KORTEWEG_CATALOG[name], [curl, partial, rate, fields]), grids, min_order=0.0)
    assert (curl.calls, partial.calls, rate.calls) == (3, 3, 3 if inertia else 0)
    # the Lamb vector and its curl are arrays: a level builds only the state's grad_iota and,
    # with inertia, its iota_dot, each on first read
    assert fields.calls == (2 if inertia else 1) * len(grids)


@pytest.mark.parametrize("name", sorted(COMPLEX_CATALOG))
def test_order_parameter_probe_evaluates_each_quantity_once(monkeypatch, name):
    grids = FAMILIES["periodic"]
    inertia = not COMPLEX_CATALOG[name](grids[0])[2].is_zero
    curl = counted(monkeypatch, crocco, "_curl")
    partials = counted(monkeypatch, crocco, "gl_partials")
    rate = counted(monkeypatch, OrderCoEnergy, "dchi_dnu_dot")
    fields = counted(monkeypatch, fieldcalc.Field, "__init__")
    complex_defect_identity(paused_in(COMPLEX_CATALOG[name], [curl, partials, rate, fields]), grids, min_order=0.0)
    assert (curl.calls, partials.calls, rate.calls) == (3, 3, 3 if inertia else 0)
    # only the state's grad_nu and, with inertia, its nu_dot: the Lamb vector and its curl are arrays
    assert fields.calls == (2 if inertia else 1) * len(grids)


# ---------------------------------------------------------------------------
# derived state fields are built on first read
# ---------------------------------------------------------------------------

DERIVED = {KortewegState: ("grad_iota", "iota_dot"), ComplexState: ("grad_nu", "nu_dot")}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_building_a_state_takes_no_derivative(monkeypatch, name):
    state = CATALOG[name](Grid.periodic(16))[0]
    flow = [getattr(state, f.name) for f in dataclasses.fields(state) if f.init]
    diff = counted(monkeypatch, fieldcalc, "_diff")
    monkeypatch.setattr(transport, "_diff", fieldcalc._diff)  # the one other module that imports it
    rebuilt = type(state)(*flow)
    assert diff.calls == 0 and not set(DERIVED[type(state)]) & set(vars(rebuilt))
    first = [getattr(rebuilt, attr) for attr in DERIVED[type(state)]]
    assert diff.calls > 0 and all(a is getattr(rebuilt, attr) for a, attr in zip(first, DERIVED[type(state)]))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_probe_builds_a_rate_only_under_a_co_energy(name):
    builder, built = CATALOG[name], []

    def recorded(grid):
        built.append(builder(grid))
        return built[-1]

    identity = defect_identity if name in KORTEWEG_CATALOG else complex_defect_identity
    identity(recorded, FAMILIES["periodic"], min_order=0.0)
    for state, _, coenergy in built:
        gradient, rate = DERIVED[type(state)]
        assert gradient in vars(state) and (rate in vars(state)) == (not coenergy.is_zero)


# ---------------------------------------------------------------------------
# random smooth states
# ---------------------------------------------------------------------------

# a low mode (kx, ky) with |k| <= 2, its amplitude in [-1, 1] and a phase
MODES = [(kx, ky) for kx in range(-2, 3) for ky in range(-2, 3) if 0 < kx * kx + ky * ky <= 4]


def mode(kmax):
    return st.tuples(
        st.sampled_from([k for k in MODES if k[0] ** 2 + k[1] ** 2 <= kmax**2]),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 2.0 * np.pi),
    )


# one mode per component of v (2), iota, eta and nu (2).  iota's mode has |k| <= 1: the two-well
# potential is quartic in iota, and a k = 2 iota mode at amplitude 1/2 makes harmonics that 32^2
# does not resolve (one such state refines at pair orders 1.68, 1.90, 1.99 on 32..256, a fit of
# 1.79 on 32/64/128, though the identity is second order)
perturbations = st.tuples(mode(2), mode(2), mode(1), mode(2), mode(2), mode(2))


def wave(grid, draw):
    (kx, ky), amplitude, phase = draw
    x, y = grid.meshgrid()
    return amplitude * np.sin(kx * x + ky * y + phase)


def perturbed(builder, draws):
    """The catalog builder with its v, iota (by half the amplitude, so iota > 0.8), eta and nu perturbed."""

    def build(grid):
        state, model, coenergy = builder(grid)
        dv = np.stack([wave(grid, draws[0]), wave(grid, draws[1])], axis=-1)
        flow = (
            VectorField(grid, state.v.values + dv),
            ScalarField(grid, state.iota.values + 0.5 * wave(grid, draws[2])),
            ScalarField(grid, state.eta.values + wave(grid, draws[3])),
        )
        if isinstance(state, KortewegState):
            return KortewegState(*flow), model, coenergy
        dnu = np.stack([wave(grid, draws[4]), wave(grid, draws[5])], axis=-1)
        return ComplexState(*flow, OrderField(grid, state.nu.values + dnu)), model, coenergy

    return build


@settings(max_examples=20, deadline=None)
@given(draws=perturbations)
def test_defect_identities_refine_on_random_smooth_states(draws):
    # each identity raises IdentityViolationError, naming its levels, below order 1.8
    grids = [Grid.periodic(n) for n in (32, 64, 128)]
    for name in ("korteweg-inertia", "korteweg-two-well"):
        defect_identity(perturbed(CATALOG[name], draws), grids, min_order=1.8)
    complex_defect_identity(perturbed(CATALOG["complex-gl-m2"], draws), grids, min_order=1.8)
