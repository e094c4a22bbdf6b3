"""Grid/field containers and the finite-difference operator kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croccolab.fieldcalc import (
    EXACT_ERROR_FLOOR,
    Grid,
    GridError,
    GridMismatchError,
    FieldShapeError,
    FieldValueError,
    OrderField,
    OrderGradField,
    OrderHessField,
    RefinementError,
    ScalarField,
    TensorField,
    VectorField,
    _diff,
    _dot,
    _dyadic,
    _grad,
    _grad_dot,
    _pointwise_magnitude,
    _sum,
    advect_steady,
    curl_vector,
    div_tensor,
    div_vector,
    grad_scalar,
    grad_vector,
    hessian_scalar,
    l2_norm,
    linf_norm,
    order_grad,
    order_second_grad,
    refinement_study,
)
from traced_peaks import traced_peak

TWO_PI = 2.0 * math.pi


def trig_scalar(grid):
    x, y = grid.meshgrid()
    return ScalarField(grid, np.sin(x) * np.sin(y))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_grid_rejects_bad_parameters():
    with pytest.raises(GridError):
        Grid((3, 8), (0.1, 0.1), ("periodic", "periodic"))
    with pytest.raises(GridError):
        Grid((8, 8), (0.1, -0.1), ("periodic", "periodic"))
    with pytest.raises(GridError):
        Grid((8, 8), (0.1, 0.1), ("periodic", "reflect"))
    with pytest.raises(GridError):
        Grid((8,), (0.1,), ("periodic",))


@pytest.mark.parametrize("n", [0, -1, 3])
def test_periodic_grid_rejects_too_few_cells_before_dividing(n):
    with pytest.raises(GridError, match="at least 4 cells"):
        Grid.periodic(n)


def test_field_shape_and_finiteness_validation():
    grid = Grid.periodic(8)
    with pytest.raises(FieldShapeError):
        ScalarField(grid, np.zeros((8, 9)))
    bad = np.zeros((8, 8))
    bad[3, 5] = np.nan
    with pytest.raises(FieldValueError, match=r"\(3, 5\)"):
        ScalarField(grid, bad)


KIND_LAYOUTS = [
    (ScalarField, (), 0),
    (VectorField, (2,), 0),
    (TensorField, (2, 2), 0),
    (OrderField, (3,), 3),
    (OrderGradField, (3, 2), 3),
    (OrderHessField, (3, 2, 2), 3),
]


@pytest.mark.parametrize("cls, trailing, m", KIND_LAYOUTS)
def test_each_kind_takes_the_trailing_shape_of_its_axes(cls, trailing, m):
    grid = Grid.periodic(8)
    assert cls.component_shape(2, 3) == trailing
    field = cls(grid, np.zeros(grid.extents + trailing))
    assert field.m == m
    with pytest.raises(FieldShapeError, match=cls.__name__):
        cls(grid, np.zeros(grid.extents + trailing + (2,)))


@pytest.mark.parametrize("cls", [OrderField, OrderGradField, OrderHessField])
def test_chart_kinds_reject_m_zero(cls):
    grid = Grid.periodic(8)
    with pytest.raises(FieldShapeError, match="m >= 1"):
        cls(grid, np.zeros(grid.extents + cls.component_shape(2, 0)))


def test_fields_are_immutable():
    grid = Grid.periodic(8)
    f = ScalarField(grid, np.zeros(grid.extents))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_grid_mismatch_rejected():
    f = trig_scalar(Grid.periodic(8))
    v = VectorField(Grid.periodic(16), np.zeros((16, 16, 2)))
    with pytest.raises(GridMismatchError):
        advect_steady(f, v)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_grad_constant_is_zero():
    grid = Grid.periodic(8)
    g = grad_scalar(ScalarField(grid, np.full(grid.extents, 5.0)))
    assert linf_norm(g) == 0.0


def test_grad_linear_mixed_policy_exact():
    # f = x on a grid periodic in y only: exact (1, 0) everywhere
    grid = Grid((8, 8), (1.0, 1.0), ("one-sided", "periodic"))
    x, _ = grid.meshgrid()
    g = grad_scalar(ScalarField(grid, x))
    assert np.max(np.abs(g.values[..., 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(g.values[..., 1])) <= 1e-12


def test_grad_trig_second_order():
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        x, y = grid.meshgrid()
        g = grad_scalar(trig_scalar(grid))
        exact = np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)], axis=-1)
        return float(np.max(np.abs(g.values - exact)))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.observed_order >= 1.8


# ---------------------------------------------------------------------------
# divergence / curl / jacobian
# ---------------------------------------------------------------------------


def test_div_constant_and_linear():
    grid = Grid.one_sided((8, 8, 8), (0.5, 0.5, 0.5))
    const = VectorField(grid, np.broadcast_to([1.0, 2.0, -3.0], grid.extents + (3,)).copy())
    assert linf_norm(div_vector(const)) == 0.0
    x, y, z = grid.meshgrid()
    u = VectorField(grid, np.stack([x, y, z], axis=-1))
    assert np.max(np.abs(div_vector(u).values - 3.0)) <= 1e-12


def test_div_trig_oracle():
    grid = Grid.periodic(64)
    x, y = grid.meshgrid()
    u = VectorField(grid, np.stack([np.sin(x), np.cos(y)], axis=-1))
    exact = np.cos(x) - np.sin(y)
    assert np.max(np.abs(div_vector(u).values - exact)) <= 4.0 * grid.spacing[0] ** 2


def test_curl_rigid_rotation():
    grid = Grid.one_sided((8, 8, 8), (0.25, 0.25, 0.25))
    x, y, _ = grid.meshgrid()
    u = VectorField(grid, np.stack([-y, x, np.zeros_like(x)], axis=-1))
    w = curl_vector(u)
    assert np.max(np.abs(w.values[..., 2] - 2.0)) <= 1e-12
    assert np.max(np.abs(w.values[..., :2])) <= 1e-12


def test_curl_of_gradient_refines():
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        return linf_norm(curl_vector(grad_scalar(trig_scalar(grid))))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.is_exact or report.observed_order >= 1.8


def test_div_of_curl_refines():
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h), dim=3)
        x, y, z = grid.meshgrid()
        u = VectorField(
            grid,
            np.stack(
                [np.sin(y) * np.cos(z), np.sin(z) * np.cos(x), np.sin(x) * np.cos(y)], axis=-1
            ),
        )
        return linf_norm(div_vector(curl_vector(u)))

    report = refinement_study(probe, [TWO_PI / n for n in (16, 32, 64)])
    assert report.is_exact or report.observed_order >= 1.8


def test_curl_2d_taylor_green():
    grid = Grid.periodic(64)
    x, y = grid.meshgrid()
    u = VectorField(grid, np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)], axis=-1))
    w = curl_vector(u)
    assert isinstance(w, ScalarField)
    exact = 2.0 * np.sin(x) * np.sin(y)
    assert np.max(np.abs(w.values - exact)) <= 4.0 * grid.spacing[0] ** 2


def test_curl_3d_beltrami_flow_is_its_own_curl():
    # the ABC flow with A = B = C = 1 satisfies curl u = u
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h), dim=3)
        x, y, z = grid.meshgrid()
        u = np.stack([np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x)], axis=-1)
        w = curl_vector(VectorField(grid, u))
        assert isinstance(w, VectorField)
        return linf_norm(VectorField(grid, w.values - u))

    report = refinement_study(probe, [TWO_PI / n for n in (8, 16, 32)])
    assert report.observed_order >= 1.9, report.levels


def test_jacobian_constant_linear_and_trig():
    grid = Grid.one_sided((8, 10), (0.5, 0.25))
    x, y = grid.meshgrid()
    const = VectorField(grid, np.broadcast_to([2.0, -1.0], grid.extents + (2,)).copy())
    assert linf_norm(grad_vector(const)) == 0.0
    u = VectorField(grid, np.stack([x, 2.0 * y], axis=-1))
    jac = grad_vector(u)
    assert np.max(np.abs(jac.values[..., 0, 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(jac.values[..., 1, 1] - 2.0)) <= 1e-12
    assert np.max(np.abs(jac.values[..., 0, 1])) <= 1e-12

    pgrid = Grid.periodic(64)
    px, py = pgrid.meshgrid()
    pu = VectorField(pgrid, np.stack([np.sin(px) * np.cos(py), np.cos(px)], axis=-1))
    pj = grad_vector(pu)
    exact = np.empty(pgrid.extents + (2, 2))
    exact[..., 0, 0] = np.cos(px) * np.cos(py)
    exact[..., 0, 1] = -np.sin(px) * np.sin(py)
    exact[..., 1, 0] = -np.sin(px)
    exact[..., 1, 1] = 0.0
    assert np.max(np.abs(pj.values - exact)) <= 4.0 * pgrid.spacing[0] ** 2


# ---------------------------------------------------------------------------
# tensor divergence (last-index contraction is normative)
# ---------------------------------------------------------------------------


def test_div_tensor_constant_and_pressure():
    grid = Grid.one_sided((8, 8, 8), (0.5, 0.5, 0.5))
    eye = np.broadcast_to(np.eye(3), grid.extents + (3, 3)).copy()
    # one-sided edge stencils cancel constants only to rounding
    assert linf_norm(div_tensor(TensorField(grid, 3.7 * eye))) <= 1e-13
    x, _, _ = grid.meshgrid()
    t = TensorField(grid, -x[..., None, None] * np.eye(3))
    d = div_tensor(t)
    assert np.max(np.abs(d.values[..., 0] + 1.0)) <= 1e-12
    assert np.max(np.abs(d.values[..., 1:])) <= 1e-12


def test_div_tensor_product_rule_convention():
    # T = a (x) b: div T must equal (div b) a + (grad a) b, confirming that
    # the contraction runs over the last index.
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        x, y = grid.meshgrid()
        a = np.stack([np.sin(x), np.cos(y)], axis=-1)
        b = np.stack([np.cos(x + y), np.sin(y)], axis=-1)
        t = TensorField(grid, np.einsum("...i,...j->...ij", a, b))
        route_1 = div_tensor(t).values
        div_b = div_vector(VectorField(grid, b)).values
        grad_a = grad_vector(VectorField(grid, a)).values
        route_2 = div_b[..., None] * a + np.einsum("...ij,...j->...i", grad_a, b)
        return float(np.max(np.abs(route_1 - route_2)))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.observed_order >= 1.8


# ---------------------------------------------------------------------------
# second gradients and order-parameter operators
# ---------------------------------------------------------------------------


def test_hessian_trig_oracle_and_symmetry():
    grid = Grid.periodic(64)
    x, y = grid.meshgrid()
    h = hessian_scalar(trig_scalar(grid))
    exact = np.empty(grid.extents + (2, 2))
    exact[..., 0, 0] = -np.sin(x) * np.sin(y)
    exact[..., 1, 1] = -np.sin(x) * np.sin(y)
    exact[..., 0, 1] = np.cos(x) * np.cos(y)
    exact[..., 1, 0] = np.cos(x) * np.cos(y)
    assert np.max(np.abs(h.values - exact)) <= 16.0 * grid.spacing[0] ** 2
    assert np.max(np.abs(h.values - np.swapaxes(h.values, -1, -2))) <= 1e-10


def test_order_grad_uniform_and_identity_pattern():
    grid = Grid.one_sided((8, 8), (0.5, 0.5))
    uniform = OrderField(grid, np.full(grid.extents + (3,), 2.5))
    assert linf_norm(order_grad(uniform)) == 0.0
    x, y = grid.meshgrid()
    nu = OrderField(grid, np.stack([x, y], axis=-1))
    g = order_grad(nu)
    assert np.max(np.abs(g.values - np.eye(2))) <= 1e-12


def test_order_second_grad_oracle():
    grid = Grid.periodic(64)
    x, y = grid.meshgrid()
    nu = OrderField(grid, (np.sin(x) * np.sin(y))[..., None])
    hess = order_second_grad(nu)
    exact = hessian_scalar(trig_scalar(grid))
    assert np.array_equal(hess.values[..., 0, :, :], exact.values)
    sym = np.max(np.abs(hess.values - np.swapaxes(hess.values, -1, -2)))
    assert sym <= 1e-10


# ---------------------------------------------------------------------------
# steady advection
# ---------------------------------------------------------------------------


def test_advect_constant_and_linear():
    grid = Grid.one_sided((8, 8), (0.5, 0.5))
    x, _ = grid.meshgrid()
    v = VectorField(grid, np.broadcast_to([2.0, 0.0], grid.extents + (2,)).copy())
    const = ScalarField(grid, np.full(grid.extents, 3.0))
    assert linf_norm(advect_steady(const, v)) == 0.0
    f = ScalarField(grid, x)
    assert np.max(np.abs(advect_steady(f, v).values - 2.0)) <= 1e-12


def test_advect_trig_oracle():
    # (grad f).v for f = sin(x), v = (sin(x), 0) is sin(x)cos(x) = sin(2x)/2
    grid = Grid.periodic(64)
    x, _ = grid.meshgrid()
    f = ScalarField(grid, np.sin(x))
    v = VectorField(grid, np.stack([np.sin(x), np.zeros_like(x)], axis=-1))
    out = advect_steady(f, v)
    assert np.max(np.abs(out.values - 0.5 * np.sin(2.0 * x))) <= 4.0 * grid.spacing[0] ** 2


def test_advect_vector_rank_preserved():
    grid = Grid.periodic(16)
    x, y = grid.meshgrid()
    u = VectorField(grid, np.stack([np.sin(x), np.cos(y)], axis=-1))
    v = VectorField(grid, np.ones(grid.extents + (2,)))
    out = advect_steady(u, v)
    assert isinstance(out, VectorField)


# ---------------------------------------------------------------------------
# one rank-generic stencil path, bit-identical to the per-axis loop formulas
# ---------------------------------------------------------------------------


def _loop_grad_scalar(g, f):
    return np.stack([_diff(g, f, a) for a in range(g.dim)], axis=-1)


def _loop_div_vector(g, u):
    out = _diff(g, u[..., 0], 0)
    for a in range(1, g.dim):
        out = out + _diff(g, u[..., a], a)
    return out


def _loop_grad_vector(g, u):
    rows = [np.stack([_diff(g, u[..., i], j) for j in range(g.dim)], axis=-1) for i in range(g.dim)]
    return np.stack(rows, axis=-2)


def _loop_div_tensor(g, t):
    comps = []
    for i in range(g.dim):
        acc = _diff(g, t[..., i, 0], 0)
        for j in range(1, g.dim):
            acc = acc + _diff(g, t[..., i, j], j)
        comps.append(acc)
    return np.stack(comps, axis=-1)


def _loop_second_grad(g, f):
    firsts = [_diff(g, f, j) for j in range(g.dim)]
    rows = [np.stack([_diff(g, firsts[j], i) for j in range(g.dim)], axis=-1) for i in range(g.dim)]
    return np.stack(rows, axis=-2)


def _loop_advect(g, f, v):
    extra = f.ndim - g.dim
    out = np.zeros_like(f)
    for a in range(g.dim):
        out += v[..., a].reshape(g.extents + (1,) * extra) * _diff(g, f, a)
    return out


@pytest.mark.parametrize(
    "grid",
    [
        Grid.periodic(12),
        Grid.one_sided((9, 11), (0.3, 0.2)),
        Grid.periodic(6, dim=3),
        Grid.one_sided((5, 6, 7), (0.4, 0.3, 0.25)),
    ],
    ids=["periodic-2d", "one-sided-2d", "periodic-3d", "one-sided-3d"],
)
def test_generic_operators_equal_the_loop_formulas(grid):
    rng = np.random.default_rng(11)
    d, ext = grid.dim, grid.extents
    f = rng.standard_normal(ext)
    u = rng.standard_normal(ext + (d,))
    t = rng.standard_normal(ext + (d, d))
    nu = rng.standard_normal(ext + (3,))
    v = VectorField(grid, rng.standard_normal(ext + (d,)))
    pairs = [
        (grad_scalar(ScalarField(grid, f)), _loop_grad_scalar(grid, f)),
        (div_vector(VectorField(grid, u)), _loop_div_vector(grid, u)),
        (grad_vector(VectorField(grid, u)), _loop_grad_vector(grid, u)),
        (div_tensor(TensorField(grid, t)), _loop_div_tensor(grid, t)),
        (hessian_scalar(ScalarField(grid, f)), _loop_second_grad(grid, f)),
        (order_grad(OrderField(grid, nu)), _loop_grad_scalar(grid, nu)),
        (order_second_grad(OrderField(grid, nu)), _loop_second_grad(grid, nu)),
        (advect_steady(ScalarField(grid, f), v), _loop_advect(grid, f, v.values)),
        (advect_steady(OrderField(grid, nu), v), _loop_advect(grid, nu, v.values)),
        (advect_steady(TensorField(grid, t), v), _loop_advect(grid, t, v.values)),
    ]
    for field, reference in pairs:
        assert np.array_equal(field.values, reference)
        assert np.array_equal(np.signbit(field.values), np.signbit(reference))


# ---------------------------------------------------------------------------
# slice stencil and component-sum norm, bit-identical to the formulas they replace
# ---------------------------------------------------------------------------


def _roll_diff(grid, values, axis):
    """The periodic difference built from two np.roll copies (the reference route)."""
    h = grid.spacing[axis]
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize(
    "grid",
    [Grid((12, 7), (0.3, 0.7), ("periodic", "periodic")), Grid.periodic(5, dim=3, length=1.7)],
    ids=["periodic-2d", "periodic-3d"],
)
@pytest.mark.parametrize("components", [(), (2,), (3, 2), (2, 3, 2)], ids=["rank0", "rank1", "rank2", "rank3"])
def test_periodic_diff_bit_identical_to_roll_formula(grid, components):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(grid.extents + components)
    values.flat[::7] = -0.0
    wide = rng.standard_normal(grid.extents + components + (3,))
    inputs = {
        "contiguous": values,
        "strided": wide[..., 1],
        "fortran": np.asfortranarray(values),
        "reversed": values[::-1],
    }
    for label, a in inputs.items():
        for axis in range(grid.dim):
            got, ref = _diff(grid, a, axis), _roll_diff(grid, a, axis)
            assert got.shape == ref.shape, (label, axis)
            assert np.array_equal(_bits(got), _bits(ref)), (label, axis)


@pytest.mark.parametrize("width", range(1, 8))
def test_pointwise_magnitude_bit_identical_to_component_sum(width):
    grid = Grid.periodic(9)
    rng = np.random.default_rng(width)
    values = rng.standard_normal(grid.extents + (width,))
    values.flat[::5] = -0.0
    values.flat[1::11] = 5e-324
    values.flat[2::13] *= 1e150
    flat = values.reshape(grid.extents + (-1,))
    reference = np.sqrt(np.sum(flat * flat, axis=-1))
    assert np.array_equal(_bits(_pointwise_magnitude(grid, values)), _bits(reference))


def _wild(rng, shape):
    """Values over many decades, so that any change in the order of a sum shows in its bits."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    values.flat[::7] = -0.0
    values.flat[3::11] = 0.0
    return values


@pytest.mark.parametrize(
    "grid",
    [Grid.one_sided((9, 11), (0.3, 0.7)), Grid.one_sided((5, 6, 4), (0.4, 0.3, 1.3))],
    ids=["one-sided-2d", "one-sided-3d"],
)
@pytest.mark.parametrize("components", [(), (2,), (3, 2)], ids=["rank0", "rank1", "rank2"])
def test_one_sided_diff_bit_identical_to_np_gradient(grid, components):
    rng = np.random.default_rng(6)
    values = _wild(rng, grid.extents + components)
    inputs = {
        "contiguous": values,
        "strided": _wild(rng, grid.extents + components + (3,))[..., 1],
        "fortran": np.asfortranarray(values),
        "reversed": values[::-1],
    }
    for label, a in inputs.items():
        for axis in range(grid.dim):
            ref = np.gradient(a, grid.spacing[axis], axis=axis, edge_order=2)
            got = _diff(grid, a, axis)
            assert got.shape == ref.shape, (label, axis)
            assert np.array_equal(_bits(got), _bits(ref)), (label, axis)
            slot = np.full(a.shape + (2,), np.nan)[..., 1]  # a strided out= slot, as _grad passes
            assert _diff(grid, a, axis, out=slot) is slot
            assert np.array_equal(_bits(slot), _bits(ref)), (label, axis)


@pytest.mark.parametrize(
    "grid",
    [
        Grid.periodic(8),
        Grid.one_sided((7, 9), (0.3, 0.2)),
        Grid.periodic(5, dim=3),
        Grid((5, 6, 4), (0.4, 0.3, 0.5), ("periodic", "one-sided", "one-sided")),
    ],
    ids=["periodic-2d", "one-sided-2d", "periodic-3d", "mixed-3d"],
)
@pytest.mark.parametrize(
    "components, operator",
    [((), lambda g, a: hessian_scalar(ScalarField(g, a))), ((2,), lambda g, a: order_second_grad(OrderField(g, a)))],
    ids=["rank0", "rank1"],
)
def test_hessian_is_contiguous_and_bit_identical_to_swapped_repeated_gradient(grid, components, operator):
    rng = np.random.default_rng(8)
    a = _wild(rng, grid.extents + components)
    ref = np.swapaxes(_grad(grid, _grad(grid, a)), -1, -2)
    got = operator(grid, a).values
    assert got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 8, 9])
def test_ordered_sum_bit_identical_to_np_sum_and_einsum(m):
    rng = np.random.default_rng(40 + m)
    g, s = _wild(rng, (7, 6, m, 2)), _wild(rng, (7, 6, m, 3))
    g[0], s[0] = -1.0, 0.0  # all -0 products: np.sum and np.einsum give +0
    got = _sum(g[..., a, 1] * s[..., a, 2] for a in range(m))
    assert np.array_equal(_bits(got), _bits(np.einsum("...ai,...aj->...ij", g, s)[..., 1, 2]))
    if m < 8:  # from 8 terms on np.sum adds pairwise
        assert np.array_equal(_bits(got), _bits(np.sum(g[..., 1] * s[..., 2], axis=-1)))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_ordered_sum_of_negative_zeros_is_positive_zero(k):
    got = _sum(np.full((3, 4), -0.0) for _ in range(k))
    assert np.array_equal(_bits(got), _bits(np.zeros((3, 4))))
    assert _sum(np.float64(-0.0) for _ in range(k)) == 0.0
    assert not np.signbit(_sum(np.float64(-0.0) for _ in range(k)))


def test_ordered_sum_writes_a_strided_out_slot():
    rng = np.random.default_rng(41)
    a, b = _wild(rng, (9, 7, 3)), _wild(rng, (9, 7, 3))
    slot = np.full((9, 7, 2), np.nan)[..., 1]
    assert _sum((a[..., k] * b[..., k] for k in range(3)), slot) is slot
    assert np.array_equal(_bits(slot), _bits(np.sum(a * b, axis=-1)))


def test_ordered_sum_of_numpy_scalars():
    # validate_partials evaluates the potentials one cell at a time: the terms are numpy scalars
    rng = np.random.default_rng(42)
    a, b = _wild(rng, (5,)), _wild(rng, (5,))
    got = _sum(a[k] * b[k] for k in range(5))
    assert isinstance(got, np.float64)
    assert np.array_equal(_bits(got), _bits(np.sum(a * b)))


@pytest.mark.parametrize("n", [128, 256])
def test_ordered_sum_holds_the_accumulator_and_at_most_two_terms(n):
    # A generator of k fresh products, each dropped once added, where a list of them holds
    # k.  A term still bound while the next is built would make a product sum hold 3
    # planes.  A derivative times a component holds the derivative and its product at
    # once where numpy does not reuse the temporary (arrays below 256 KiB, so at 128^2).
    grid, k = Grid.periodic(n), 6
    plane = grid.n_cells * 8
    rng = np.random.default_rng(43)
    a, b = rng.standard_normal((n, n, k)), rng.standard_normal((n, n, k))
    assert traced_peak(lambda: _sum(a[..., j] * b[..., j] for j in range(k))) < 2.5 * plane
    assert traced_peak(lambda: _sum(_diff(grid, a[..., j], 0) * b[..., j] for j in range(k))) < 3.5 * plane
    assert traced_peak(lambda: _sum([a[..., j] * b[..., j] for j in range(k)])) >= k * plane


@pytest.mark.parametrize("width", range(1, 11))
def test_contraction_bit_identical_to_np_sum(width):
    rng = np.random.default_rng(width)
    a, b = _wild(rng, (9, 7, width)), _wild(rng, (9, 7, width))
    a[0], b[0] = -1.0, 0.0  # all -0 products: np.sum gives +0
    assert np.array_equal(_bits(_dot(a, b)), _bits(np.sum(a * b, axis=-1)))
    assert not np.signbit(_dot(a, b)[0]).any()
    # b broadcast over the cells, as a model's constant covector is
    assert np.array_equal(_bits(_dot(a, b[0, 0])), _bits(np.sum(a * b[0, 0], axis=-1)))
    # one cell, as validate_partials evaluates the potentials
    assert np.array_equal(_bits(_dot(a[2, 3], b[2, 3])), _bits(np.sum(a[2, 3] * b[2, 3])))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_two_axis_contraction_bit_identical_to_np_sum(m, dim):
    rng = np.random.default_rng(10 * m + dim)
    a, b = _wild(rng, (6, 5, m, dim)), _wild(rng, (6, 5, m, dim))
    a[0], b[0] = -1.0, 0.0  # all -0 products: np.sum gives +0
    assert np.array_equal(_bits(_dot(a, b, axes=2)), _bits(np.sum(a * b, axis=(-2, -1))))


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 1), (3, 1)])
def test_dyadic_chart_sum_bit_identical_to_einsum(m, dims):
    rng = np.random.default_rng(m)
    g, s = _wild(rng, (7, 6, m, dims[0])), _wild(rng, (7, 6, m, dims[1]))
    g[0], s[0] = -1.0, 0.0  # all -0 products: einsum gives +0
    operands = {
        "contiguous": (g, s),
        "strided": (_wild(rng, (7, 6, m, 2 * dims[0]))[..., ::2], s),
        "fortran": (np.asfortranarray(g), np.asfortranarray(s)),
    }
    for label, (x, y) in operands.items():
        ref = np.einsum("...ai,...aj->...ij", x, y)
        assert np.array_equal(_bits(_dyadic(x, y)), _bits(ref)), label


@pytest.mark.parametrize(
    "grid",
    [
        Grid.periodic(8),
        Grid.one_sided((7, 9), (0.3, 0.2)),
        Grid.periodic(5, dim=3),
        Grid((5, 6, 4), (0.4, 0.3, 0.5), ("periodic", "one-sided", "one-sided")),
    ],
    ids=["periodic-2d", "one-sided-2d", "periodic-3d", "mixed-3d"],
)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fused_contractions_bit_identical_to_dyadic_over_the_built_tensors(grid, m):
    # the relation engine's two second-gradient terms, as the chart sums over the
    # materialized gradients of P and of grad(nu) with their (a, j) axes flattened into one
    rng = np.random.default_rng(30 + m)
    dim, pairs = grid.dim, grid.extents + (m * grid.dim,)
    nu, p, s = (_wild(rng, grid.extents + shape) for shape in ((m,), (m, dim), (m, dim)))
    g = _grad(grid, nu)
    grad_ref = _dyadic(_grad(grid, p).reshape(pairs + (dim,)), g.reshape(pairs + (1,)))[..., 0]
    hess_ref = _dyadic(_grad(grid, g).reshape(pairs + (dim,)), s.reshape(pairs + (1,)))[..., 0]

    def strided(a):  # every other slot of a wider buffer
        wide = np.full(a.shape[:-1] + (2 * a.shape[-1],), np.nan)
        wide[..., ::2] = a
        return wide[..., ::2]

    layouts = {"contiguous": lambda a: a, "strided": strided, "fortran": np.asfortranarray}
    for label, layout in layouts.items():
        got = _grad_dot(grid, layout(p), layout(g))
        assert got.shape == grid.extents + (dim,) and got.flags.c_contiguous
        assert np.array_equal(_bits(got), _bits(grad_ref)), label
        got = _grad_dot(grid, layout(g), layout(s))
        assert got.shape == grid.extents + (dim,) and got.flags.c_contiguous
        assert np.array_equal(_bits(got), _bits(hess_ref)), label


@pytest.mark.parametrize(
    "grid",
    [
        Grid.periodic(8),
        Grid.one_sided((7, 9), (0.3, 0.2)),
        Grid.periodic(5, dim=3),
        Grid((5, 6, 4), (0.4, 0.3, 0.5), ("periodic", "one-sided", "one-sided")),
    ],
    ids=["periodic-2d", "one-sided-2d", "periodic-3d", "mixed-3d"],
)
def test_mixed_partials_commute_to_rounding(grid):
    # micro_hess takes D_i((grad nu)^a_j); difference operators on different axes
    # commute, one-sided ones included, so D_j((grad nu)^a_i) differs by rounding only
    rng = np.random.default_rng(35)
    dim, pairs = grid.dim, grid.extents + (2 * grid.dim,)
    g = _grad(grid, rng.standard_normal(grid.extents + (2,)))
    s = rng.standard_normal(grid.extents + (2, dim))
    swapped = _dyadic(np.swapaxes(_grad(grid, g), -1, -2).reshape(pairs + (dim,)), s.reshape(pairs + (1,)))[..., 0]
    got = _grad_dot(grid, g, s)
    assert 0.0 < np.max(np.abs(got - swapped)) <= 1e-14 * np.max(np.abs(swapped))


# ---------------------------------------------------------------------------
# linear exactness as a property
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    c=st.floats(-3, 3),
)
def test_gradient_linear_exactness_property(a, b, c):
    grid = Grid.one_sided((8, 8), (0.5, 0.25))
    x, y = grid.meshgrid()
    g = grad_scalar(ScalarField(grid, a * x + b * y + c))
    assert np.max(np.abs(g.values[..., 0] - a)) <= 1e-12 * (1 + abs(a))
    assert np.max(np.abs(g.values[..., 1] - b)) <= 1e-12 * (1 + abs(b))


def test_operators_are_deterministic():
    grid = Grid.periodic(32)
    f = trig_scalar(grid)
    assert np.array_equal(grad_scalar(f).values, grad_scalar(f).values)
    assert np.array_equal(hessian_scalar(f).values, hessian_scalar(f).values)


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------


def test_refinement_exact_sentinel():
    report = refinement_study(lambda h: 0.0, [0.4, 0.2, 0.1])
    assert report.is_exact and report.order_label == "exact"
    assert report.meets_order(1.8)


def test_refinement_synthetic_h2():
    report = refinement_study(lambda h: h**2, [0.4, 0.2, 0.1])
    assert abs(report.observed_order - 2.0) <= 1e-6


def test_refinement_rejects_bad_spacings():
    with pytest.raises(RefinementError):
        refinement_study(lambda h: h, [0.4, 0.2])
    with pytest.raises(RefinementError):
        refinement_study(lambda h: h, [0.4, 0.3, 0.2])


def test_refinement_curl_grad_probe():
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        return linf_norm(curl_vector(grad_scalar(trig_scalar(grid))))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.is_exact or report.observed_order >= 1.8
    assert max(err for _, err in report.levels) > EXACT_ERROR_FLOOR or report.is_exact


def test_norms():
    grid = Grid.periodic(16, length=1.0)
    ones = ScalarField(grid, np.ones(grid.extents))
    assert abs(l2_norm(ones) - 1.0) <= 1e-12  # unit box, unit field
    assert linf_norm(ones) == 1.0
