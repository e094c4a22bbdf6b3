"""Catalog builders: bit-identical to their full-meshgrid expressions."""

import math

import numpy as np
import pytest

from croccolab import manufactured
from croccolab.fieldcalc import Grid

# The expressions every builder evaluated on full (nx, ny) meshgrids before
# the separable factors moved to the 1-D axis coordinates: the references.


def _korteweg(x, y):
    return {
        "v": np.stack([0.6 + 0.35 * np.sin(x) * np.cos(y), -0.4 + 0.25 * np.cos(x) * np.sin(y)], axis=-1),
        "iota": 2.0 + 0.45 * np.sin(x) * np.cos(y) + 0.2 * np.cos(y),
        "eta": 0.3 * np.sin(y) + 0.2 * np.cos(x),
    }


def _complex(x, y):
    return {**_korteweg(x, y), "nu": np.stack([0.1 + 0.5 * np.sin(x) * np.cos(y), 0.35 * np.cos(x + y)], axis=-1)}


def _cancellation(x, y):
    beta, c, k, amp, iota_c, u0_sq, eta_amp = 0.8, 0.9, 1.0, 0.4, 2.0, 4.0, 0.6
    u_sq = u0_sq + 2.0 * amp * (c + beta * k**2) * (iota_c * np.sin(k * x) + 0.5 * amp * np.sin(k * x) ** 2)
    return {
        "v": np.stack([np.sqrt(u_sq), np.zeros_like(u_sq)], axis=-1),
        "iota": iota_c + amp * np.sin(k * x),
        "eta": eta_amp * np.sin(x),
    }


def _sphere(x, y):
    return {
        "v": np.stack([0.9 * np.ones_like(x), 0.4 * np.ones_like(x)], axis=-1),
        "iota": np.ones_like(x) * 1.5,
        "eta": np.zeros_like(x),
        "nu": np.stack([np.cos(1.0 * x), np.sin(1.0 * x)], axis=-1),
    }


def _smectic_flat(x, w):
    return {"v": np.stack([0.7 * np.ones_like(x), np.zeros_like(x)], axis=-1), "eta": np.zeros_like(x), "w": w}


def _smectic_wavy(x, y):
    return {
        "v": np.stack([0.5 + 0.2 * np.sin(y), -0.3 + 0.1 * np.cos(x)], axis=-1),
        "eta": 0.2 * np.sin(x + y),
        "w": 0.9 * y + 0.15 * np.sin(x) * np.cos(y),
    }


STATE_REFERENCES = {
    "korteweg-basic": _korteweg,
    "korteweg-inertia": _korteweg,
    "korteweg-classical": _korteweg,
    "korteweg-two-well": _korteweg,
    "cancellation-profile": _cancellation,
    "complex-gl-m2": _complex,
    "complex-gl-m2-inertialess": _complex,
    "generation-sphere": _sphere,
    "smectic-flat": lambda x, y: _smectic_flat(x, y),
    "smectic-compressed": lambda x, y: _smectic_flat(x, 1.15 * y),
    "smectic-wavy": _smectic_wavy,
}


def _radial(grid, x, y):
    cx = 0.5 * grid.extents[0] * grid.spacing[0]
    cy = 0.5 * grid.extents[1] * grid.spacing[1]
    return np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 0.5)[..., None]


ARRAY_REFERENCES = {
    ("vorticity", "taylor-green"): lambda g, x, y: 2.0 * np.sin(x) * np.sin(y),
    ("vorticity", "two-mode"): lambda g, x, y: 2.0 * np.sin(x) * np.sin(y)
    + 0.8 * np.sin(2.0 * x) * np.cos(3.0 * y),
    ("order", "uniform"): lambda g, x, y: np.full(g.extents + (2,), 0.3),
    ("order", "radial"): _radial,
    ("order", "potential"): lambda g, x, y: np.stack(
        [np.sin(x) * np.sin(y), 0.7 * np.cos(x) * np.cos(2.0 * y)], axis=-1
    ),
    ("order", "eigencomponent"): lambda g, x, y: np.stack([np.sin(x) * np.sin(y), np.cos(x)], axis=-1),
    ("order", "generic"): lambda g, x, y: np.stack(
        [np.sin(x) * np.sin(y) + 0.3 * np.cos(2.0 * x), 0.5 * np.cos(x + y) + 0.4 * np.sin(y)], axis=-1
    ),
}

GRIDS = [
    Grid.periodic(16),
    Grid.periodic(33),
    Grid((12, 20), (2.0 * math.pi / 12, 2.0 * math.pi / 20), ("periodic", "periodic")),
]
GRID_IDS = ["16", "33", "12x20"]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_every_catalog_builder_has_a_reference():
    state_builders = {**manufactured.CATALOG, **manufactured.SMECTIC_CATALOG}
    assert set(state_builders) == set(STATE_REFERENCES)
    arrays = {("vorticity", k) for k in manufactured.VORTICITY_CATALOG}
    arrays |= {("order", k) for k in manufactured.ORDER_CATALOG}
    assert arrays == set(ARRAY_REFERENCES)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("name", sorted(STATE_REFERENCES))
def test_state_builder_bit_identical_to_meshgrid_expression(grid, name):
    builder = {**manufactured.CATALOG, **manufactured.SMECTIC_CATALOG}[name]
    state = builder(grid)[0]
    x, y = grid.meshgrid()
    for key, reference in STATE_REFERENCES[name](x, y).items():
        values = getattr(state, key).values
        assert values.shape == reference.shape, key
        assert np.array_equal(_bits(values), _bits(reference)), key


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("kind, name", sorted(ARRAY_REFERENCES))
def test_transport_builder_bit_identical_to_meshgrid_expression(grid, kind, name):
    catalog = manufactured.VORTICITY_CATALOG if kind == "vorticity" else manufactured.ORDER_CATALOG
    built = catalog[name](grid)
    values = built if kind == "vorticity" else built.values
    x, y = grid.meshgrid()
    reference = ARRAY_REFERENCES[kind, name](grid, x, y)
    assert values.shape == reference.shape
    assert np.array_equal(_bits(values), _bits(reference))
