"""Layered-phase specialization: director, energy, microstress, relation."""

import functools
import math

import numpy as np
import pytest
import sympy as sp

from croccolab import crocco, fieldcalc, smectic
from croccolab.crocco import COMPLEX_SCHEMA
from croccolab.fieldcalc import (
    Grid,
    ScalarField,
    VectorField,
    linf_norm,
    refinement_study,
)
from croccolab.manufactured import smectic_compressed, smectic_flat, smectic_wavy
from croccolab.models import ModelError
from croccolab.smectic import (
    DefectCoreError,
    SmecticModel,
    SmecticState,
    director,
    smectic_crocco,
    smectic_energy,
    smectic_microstress,
)

TWO_PI = 2.0 * np.pi
MODEL = SmecticModel(gamma1=1.2, gamma2=0.8, eps_reg=1e-8)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"gamma1": 0.0, "gamma2": 1.0}, "moduli gamma1, gamma2 must be positive"),
        ({"gamma1": 1.0, "gamma2": -0.5}, "moduli gamma1, gamma2 must be positive"),
        ({"gamma1": 1.0, "gamma2": 1.0, "eps_reg": -1e-9}, "eps_reg must be >= 0"),
        ({"gamma1": 1.0, "gamma2": 1.0, "c_v": 0.0}, "entropic parameters e0, c_v must be > 0"),
    ],
)
def test_invalid_parameters_raise_model_error(params, message):
    with pytest.raises(ModelError, match=message):
        SmecticModel(**params)


def flat_state_3d(slope=1.0):
    grid = Grid.one_sided((6, 6, 8), (0.5, 0.5, 0.5))
    _, _, z = grid.meshgrid()
    return grid, SmecticState(
        v=VectorField(grid, np.zeros(grid.extents + (3,))),
        eta=ScalarField(grid, np.zeros(grid.extents)),
        w=ScalarField(grid, slope * z),
    )


# ---------------------------------------------------------------------------
# director
# ---------------------------------------------------------------------------


def test_director_flat_layers():
    _, state = flat_state_3d()
    n, flags = director(state, MODEL)
    assert np.allclose(n.values[..., 2], 1.0, atol=1e-12)
    assert np.max(np.abs(n.values[..., :2])) <= 1e-12
    assert not flags.any()


def test_director_tilted_layers():
    grid = Grid.one_sided((6, 6, 8), (0.5, 0.5, 0.5))
    x, _, z = grid.meshgrid()
    state = SmecticState(
        v=VectorField(grid, np.zeros(grid.extents + (3,))),
        eta=ScalarField(grid, np.zeros(grid.extents)),
        w=ScalarField(grid, (x + z) / np.sqrt(2.0)),
    )
    n, flags = director(state, MODEL)
    assert np.allclose(n.values[..., 0], 1.0 / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(n.values[..., 2], 1.0 / np.sqrt(2.0), atol=1e-12)
    assert not flags.any()


def test_director_radial_with_flagged_core():
    # w = |x| about the centre of a one-sided box: n = x/|x| away from the
    # origin cell, where grad w vanishes and the core flag trips.
    n_cells = 17
    grid = Grid.one_sided((n_cells, n_cells), (0.25, 0.25))
    x, y = grid.meshgrid()
    cx = (n_cells // 2) * 0.25
    r = np.sqrt((x - cx) ** 2 + (y - cx) ** 2)
    model = SmecticModel(gamma1=1.0, gamma2=1.0, eps_reg=1e-6)
    state = SmecticState(
        v=VectorField(grid, np.zeros(grid.extents + (2,))),
        eta=ScalarField(grid, np.zeros(grid.extents)),
        w=ScalarField(grid, r),
    )
    n, flags = director(state, model)
    assert flags[n_cells // 2, n_cells // 2]
    mask = ~flags & (r > 0.6)
    rx = (x - cx) / np.maximum(r, 1e-12)
    ry = (y - cx) / np.maximum(r, 1e-12)
    assert np.max(np.abs(n.values[..., 0][mask] - rx[mask])) <= 0.1  # one-sided O(h^2)
    assert np.max(np.abs(np.sqrt(np.sum(n.values**2, -1))[mask] - 1.0)) <= 1e-12


def test_director_rejects_all_flagged():
    grid = Grid.periodic(8)
    state = SmecticState(
        v=VectorField(grid, np.zeros(grid.extents + (2,))),
        eta=ScalarField(grid, np.zeros(grid.extents)),
        w=ScalarField(grid, np.full(grid.extents, 2.0)),
    )
    with pytest.raises(DefectCoreError):
        director(state, MODEL)


def test_unit_norm_invariant_on_wavy_state():
    grid = Grid.periodic(32)
    _, state = grid, smectic_wavy(grid)[0]
    n, flags = director(state, MODEL)
    norms = np.sqrt(np.sum(n.values**2, axis=-1))
    assert np.max(np.abs(norms[~flags] - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_ground_state_is_zero():
    _, state = flat_state_3d(1.0)
    assert linf_norm(smectic_energy(state, MODEL)) <= 1e-24


def test_energy_uniform_compression_hand_value():
    e = 0.125
    _, state = flat_state_3d(1.0 + e)
    energy = smectic_energy(state, MODEL)
    assert np.allclose(energy.values, 0.5 * MODEL.gamma1 * e**2, atol=1e-12)


def test_energy_radial_bending_oracle():
    # 2-D radial layers: div n = 1/r, bending energy gamma2/(2 r^2).
    # The core sits on a fixed cell at every level so the error families nest.
    def probe(h):
        n_cells = round(4.0 / h) + 1
        grid = Grid.one_sided((n_cells, n_cells), (h, h))
        x, y = grid.meshgrid()
        cx = 2.0
        r = np.sqrt((x - cx) ** 2 + (y - cx) ** 2)
        model = SmecticModel(gamma1=1.0, gamma2=0.8, eps_reg=1e-9)
        state = SmecticState(
            v=VectorField(grid, np.zeros(grid.extents + (2,))),
            eta=ScalarField(grid, np.zeros(grid.extents)),
            w=ScalarField(grid, r),
        )
        energy = smectic_energy(state, model).values
        expected = 0.5 * 0.8 / np.maximum(r, 1e-12) ** 2
        mask = np.zeros(grid.extents, dtype=bool)
        mask[2:-2, 2:-2] = True  # one interior family: skip one-sided edges
        mask &= r > 1.0  # and the core halo
        return float(np.max(np.abs(energy[mask] - expected[mask])))

    report = refinement_study(probe, [0.2, 0.1, 0.05])
    assert report.observed_order >= 1.8


def test_radial_core_cell_is_flagged():
    h = 0.2
    n_cells = round(4.0 / h) + 1
    grid = Grid.one_sided((n_cells, n_cells), (h, h))
    x, y = grid.meshgrid()
    r = np.sqrt((x - 2.0) ** 2 + (y - 2.0) ** 2)
    model = SmecticModel(gamma1=1.0, gamma2=0.8, eps_reg=1e-9)
    state = SmecticState(
        v=VectorField(grid, np.zeros(grid.extents + (2,))),
        eta=ScalarField(grid, np.zeros(grid.extents)),
        w=ScalarField(grid, r),
    )
    _, flags = director(state, model)
    assert flags[10, 10]  # the cell at the cone tip
    assert flags.sum() == 1


def test_energy_rotation_invariance():
    # Rotating the layer pattern by 90 degrees permutes the energy field.
    grid = Grid.periodic(32)
    x, y = grid.meshgrid()
    w = 0.9 * y + 0.15 * np.sin(x) * np.cos(y)
    zero_v = VectorField(grid, np.zeros(grid.extents + (2,)))
    zero_eta = ScalarField(grid, np.zeros(grid.extents))
    state = SmecticState(v=zero_v, eta=zero_eta, w=ScalarField(grid, w))
    energy = smectic_energy(state, MODEL).values
    w_rot = np.rot90(w)  # field rotated by 90 degrees on the square box
    state_rot = SmecticState(v=zero_v, eta=zero_eta, w=ScalarField(grid, w_rot.copy()))
    energy_rot = smectic_energy(state_rot, MODEL).values
    assert np.max(np.abs(energy_rot - np.rot90(energy))) <= 1e-12


# ---------------------------------------------------------------------------
# microstress
# ---------------------------------------------------------------------------


def test_microstress_flat_layers_zero():
    _, state = flat_state_3d(1.0)
    assert linf_norm(smectic_microstress(state, MODEL)) <= 1e-13


def test_microstress_uniform_compression_hand_value():
    e = 0.125
    _, state = flat_state_3d(1.0 + e)
    s = smectic_microstress(state, MODEL)
    assert np.allclose(s.values[..., 2], MODEL.gamma1 * e, atol=1e-10)
    assert np.max(np.abs(s.values[..., :2])) <= 1e-10


def test_projector_orthogonality():
    grid = Grid.periodic(32)
    state, model = smectic_wavy(grid)
    n, _ = director(state, model)
    from croccolab.fieldcalc import div_vector, grad_scalar

    u = grad_scalar(div_vector(n)).values
    projected = u - n.values * np.sum(n.values * u, axis=-1)[..., None]
    assert np.max(np.abs(np.sum(n.values * projected, axis=-1))) <= 1e-10


# ---------------------------------------------------------------------------
# the relation
# ---------------------------------------------------------------------------


def test_crocco_flat_layers_all_terms_zero():
    grid = Grid.periodic(16)
    state, model = smectic_flat(grid)
    report = smectic_crocco(state, model)
    for name in report.schema:
        assert linf_norm(report.terms[name]) <= 1e-12, name
    assert linf_norm(report.lhs) <= 1e-13  # one-sided edge stencils leave rounding


def test_crocco_uniform_compression_substructure_silent():
    grid = Grid.periodic(16)
    state, model = smectic_compressed(grid)
    report = smectic_crocco(state, model)
    for name in ("micro_grad", "order_balance", "micro_div", "micro_hess"):
        assert linf_norm(report.terms[name]) <= 1e-11, name
    assert linf_norm(report.lhs) <= 1e-13


def test_one_relation_builds_one_gradient_of_w(monkeypatch):
    # the director, the energy, the microstress and the relation all read the
    # order state's cached grad(nu)
    calls = []
    for module in (fieldcalc, crocco, smectic):
        for name in ("order_grad", "grad_scalar"):
            if hasattr(module, name):
                built = getattr(module, name)
                monkeypatch.setattr(module, name, lambda f, built=built, name=name: calls.append(name) or built(f))
    state, model = smectic_wavy(Grid.periodic(16))
    smectic_crocco(state, model)
    director(state, model)
    smectic_energy(state, model)
    smectic_microstress(state, model)
    assert calls == ["order_grad"]


# ---------------------------------------------------------------------------
# symbolic oracle of the relation
# ---------------------------------------------------------------------------

_X = _x, _y = sp.symbols("x y")
# the layer terms are polynomials in sin x, cos x, sin y, cos y, m = |grad w| and r = 1/m
_RING = _sx, _cx, _sy, _cy, _m, _r = sp.symbols("sx cx sy cy m r")


def _ring(expr):
    trig = {sp.sin(_x): _sx, sp.cos(_x): _cx, sp.sin(_y): _sy, sp.cos(_y): _cy}
    return sp.Poly(sp.sympify(expr).subs(trig), *_RING, domain="QQ")


def _wavy_oracle(model):
    """The exact lhs and terms of ``smectic_wavy`` as a function of the cell coordinates.

    Derived with sympy from w, v and eta and the layer potential
    ``phi(grad w, gradgrad w) = gamma1/2 (|grad w| - 1)^2 + gamma2/2 (div n)^2``
    plus ``e0 exp(eta/c_v)``: S is its first variation,
    ``S_a = dphi/dw_a - d_b dphi/dw_ab``, not the microstress formula of
    the module.  The ring derivative maps sin to cos, cos to -sin,
    ``m`` to ``r (grad w . d grad w)`` and ``r`` to ``-r^3 (grad w . d grad w)``.
    """
    g1, g2, e0, c_v = (sp.nsimplify(getattr(model, k)) for k in ("gamma1", "gamma2", "e0", "c_v"))
    w = sp.Rational(9, 10) * _y + sp.Rational(3, 20) * sp.sin(_x) * sp.cos(_y)
    v = [sp.Rational(1, 2) + sp.Rational(1, 5) * sp.sin(_y), -sp.Rational(3, 10) + sp.Rational(1, 10) * sp.cos(_x)]
    eta = sp.Rational(1, 5) * sp.sin(_x + _y)

    gw = [_ring(sp.diff(w, c)) for c in _X]
    hess = [[_ring(sp.diff(w, a, b)) for b in _X] for a in _X]
    gdg = [gw[0] * hess[0][i] + gw[1] * hess[1][i] for i in range(2)]

    def d(f, i):
        sin, cos = ((_sx, _cx), (_sy, _cy))[i]
        chain = f.diff(_m) * _ring(_r) - f.diff(_r) * _ring(_r**3)
        return f.diff(sin) * _ring(cos) - f.diff(cos) * _ring(sin) + chain * gdg[i]

    p = sp.symbols("p1 p2")
    q = sp.Matrix(2, 2, sp.symbols("q11 q12 q21 q22"))
    div_n = q.trace() * _r - sum(p[a] * q[a, b] * p[b] for a in range(2) for b in range(2)) * _r**3
    phi = g1 / 2 * (_m - 1) ** 2 + g2 / 2 * div_n**2
    at_w = {p[a]: gw[a].as_expr() for a in range(2)}
    at_w.update({q[a, b]: hess[a][b].as_expr() for a in range(2) for b in range(2)})
    ring_at_w = lambda e: _ring(sp.expand(e.subs(at_w)))  # noqa: E731
    # dphi/dw_a through m and r as well: dm/dw_a = r w_a, dr/dw_a = -r^3 w_a
    dphi_dp = [ring_at_w(sp.diff(phi, p[a]) + (sp.diff(phi, _m) * _r - sp.diff(phi, _r) * _r**3) * p[a])
               for a in range(2)]
    s = [dphi_dp[a] - d(ring_at_w(sp.diff(phi, q[a, 0])), 0) - d(ring_at_w(sp.diff(phi, q[a, 1])), 1) for a in range(2)]
    div_s = d(s[0], 0) + d(s[1], 1)
    h_layer = ring_at_w(phi) - s[0] * gw[0] - s[1] * gw[1]
    layer = {
        "enthalpy": [-d(h_layer, i) for i in range(2)],
        "micro_grad": [-(d(s[0], i) * gw[0] + d(s[1], i) * gw[1]) for i in range(2)],
        "order_balance": [d(div_s, i) for i in range(2)],  # times -w (iota = 1)
        "micro_div": [-div_s * gw[i] for i in range(2)],
        "micro_hess": [-(s[0] * hess[i][0] + s[1] * hess[i][1]) for i in range(2)],
    }
    omega = sp.diff(v[1], _x) - sp.diff(v[0], _y)
    flow = {
        "lhs": [-omega * v[1], omega * v[0]],
        "thermo": [e0 / c_v * sp.exp(eta / c_v) * sp.diff(eta, c) for c in _X],
        "enthalpy": [-sp.diff((v[0] ** 2 + v[1] ** 2) / 2 + e0 * sp.exp(eta / c_v), c) for c in _X],
    }
    flow = {name: sp.lambdify(_X, exprs, "numpy") for name, exprs in flow.items()}
    w = sp.lambdify(_X, w, "numpy")

    def exact(x, y):
        args = [np.sin(x), np.cos(x), np.sin(y), np.cos(y)]

        @functools.cache
        def power(k, e):
            return args[k] ** e

        def value(poly):
            return sum(float(c) * math.prod(power(k, e) for k, e in enumerate(mono) if e) for mono, c in poly.terms())

        mag = np.sqrt(sum(value(g) ** 2 for g in gw))  # grad w reads no m or r
        args += [mag, 1.0 / mag]
        out = {name: np.stack(np.broadcast_arrays(*f(x, y)), axis=-1) for name, f in flow.items()}
        for name, polys in layer.items():
            out[name] = out.get(name, 0.0) + np.stack([value(poly) for poly in polys], axis=-1)
        out["order_balance"] *= -w(x, y)[..., None]
        return out

    return exact


def test_terms_match_the_symbolic_oracle_away_from_the_edges():
    # The one-sided end formulas leave an error that is not smooth across the
    # end cells, so each nested derivative loses an order there and carries
    # the loss one cell further in; order_balance nests five.  Over the cells
    # within 5 of an edge the orders read lhs 1.99, thermo 1.99, enthalpy
    # 0.91, micro_grad 0.14, order_balance -1.96, micro_div -0.87 and
    # micro_hess 0.09.
    exact = _wavy_oracle(smectic_wavy(Grid.periodic(8))[1])
    errors = {}
    for n in (32, 64, 128):
        state, model = smectic_wavy(Grid.periodic(n))
        report = smectic_crocco(state, model)
        fields = {"lhs": report.lhs, **report.terms}
        for name, values in exact(*state.grid.meshgrid()).items():
            diff = (fields[name].values - values)[5:-5, 5:-5]
            errors.setdefault(name, {})[state.grid.spacing[0]] = float(np.max(np.sqrt(np.sum(diff**2, axis=-1))))
    assert list(errors) == ["lhs", *COMPLEX_SCHEMA]
    for name, levels in errors.items():
        order = refinement_study(levels.__getitem__, list(levels)).observed_order
        assert order >= 1.8, (name, levels)
