"""Layered-phase specialization: director, energy, microstress, relation."""

import numpy as np
import pytest

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
    smectic_via_general,
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


def test_special_matches_general_assembly():
    # the contraction reading of the specialized terms is fixed by the
    # general engine; on shared fields the two agree to rounding
    for n in (32, 64):
        grid = Grid.periodic(n)
        state, model = smectic_wavy(grid)
        special = smectic_crocco(state, model)
        general = smectic_via_general(state, model)
        for name in special.schema:
            diff = np.max(np.abs(special.terms[name].values - general.terms[name].values))
            assert diff <= 1e-12, (name, diff)
        assert np.max(np.abs(special.residual.values - general.residual.values)) <= 1e-12
