"""2-D vorticity transport: solver, source term, conservation, alteration."""

import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croccolab.fieldcalc import (
    FieldValueError,
    Grid,
    OrderField,
    PERIODIC,
    ScalarField,
    TensorField,
    _grad,
    curl_vector,
    div_tensor,
    div_vector,
    l2_norm,
    linf_norm,
    order_grad,
    refinement_study,
)
from croccolab.manufactured import (
    eigencomponent_order_parameter,
    generic_order_parameter,
    potential_order_parameter,
    radial_order_parameter,
    taylor_green_vorticity,
    two_mode_vorticity,
    uniform_order_parameter,
)
from croccolab import fieldcalc, transport
from croccolab.models import ComplexFluidModel, ModelError
from croccolab.transport import (
    CFL_LIMIT,
    CFLError,
    PoissonError,
    TransportConfig,
    TransportError,
    TransportState,
    _arakawa,
    _inverse_symbol,
    _laplacian_compact,
    cfl_number,
    curl_div_norms,
    enstrophy,
    potential_condition_check,
    run,
    solve_streamfunction,
    step,
    substructural_stress,
    te_work_rate,
    transport_rhs,
)
from traced_peaks import traced_peak

TWO_PI = 2.0 * np.pi
MODEL2 = ComplexFluidModel(m=2, a=1.0)
MODEL1 = ComplexFluidModel(m=1, a=1.0)


def make_state(grid, omega_builder=two_mode_vorticity, nu_builder=uniform_order_parameter):
    return TransportState.from_vorticity(grid, omega_builder(grid), nu_builder(grid))


# ---------------------------------------------------------------------------
# streamfunction solve
# ---------------------------------------------------------------------------


def test_poisson_residual_below_tolerance():
    grid = Grid.periodic(64)
    omega = two_mode_vorticity(grid)
    psi = solve_streamfunction(grid, omega)
    assert np.max(np.abs(_laplacian_compact(grid, psi) + omega)) <= 1e-10
    assert abs(np.mean(psi)) <= 1e-14


def _fft2_solve(grid, omega):
    """Complex-FFT solve with the full eigenvalue table (the reference route)."""
    nx, ny = grid.extents
    hx, hy = grid.spacing
    ex = (2.0 * np.cos(2.0 * np.pi * np.arange(nx) / nx) - 2.0) / (hx * hx)
    ey = (2.0 * np.cos(2.0 * np.pi * np.arange(ny) / ny) - 2.0) / (hy * hy)
    lam = ex[:, None] + ey[None, :]
    rhs_hat = np.fft.fft2(-omega)
    psi_hat = np.zeros_like(rhs_hat)
    mask = np.abs(lam) > 1e-14
    psi_hat[mask] = rhs_hat[mask] / lam[mask]
    return np.real(np.fft.ifft2(psi_hat))


@pytest.mark.parametrize("n", [32, 64, 256])
def test_real_fft_solve_matches_complex_fft_solve(n, monkeypatch):
    grid = Grid.periodic(n)
    omega = two_mode_vorticity(grid)
    psi = solve_streamfunction(grid, omega)
    reference = _fft2_solve(grid, omega)
    assert np.max(np.abs(psi - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert abs(np.mean(psi)) <= 1e-14
    monkeypatch.setattr(transport, "POISSON_TOL", 1e-30)  # the residual is checked at every solve
    with pytest.raises(PoissonError, match="residual"):
        solve_streamfunction(grid, omega)


def _plain_poisson_verdict(grid, psi, omega):
    """(accepted, residual) of the residual check as one plain expression (the reference route)."""
    hx, hy = grid.spacing
    lap = (np.roll(psi, -1, axis=0) - 2.0 * psi + np.roll(psi, 1, axis=0)) / (hx * hx) + (
        np.roll(psi, -1, axis=1) - 2.0 * psi + np.roll(psi, 1, axis=1)
    ) / (hy * hy)
    residual = np.max(np.abs(lap + omega))
    return bool(residual <= 1e-10 * float(np.max(np.abs(omega)))), residual


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_poisson_check_is_scale_free(scale):
    # the solve passes and psi = 0 fails at every scale of omega; under a bound of
    # 1e-10 * max(1, max|omega|) psi = 0 passed for omega ~ 1e-12
    grid = Grid.periodic(32)
    omega = scale * two_mode_vorticity(grid)
    transport._require_poisson(grid, solve_streamfunction(grid, omega), omega)
    with pytest.raises(PoissonError, match="residual"):
        transport._require_poisson(grid, np.zeros_like(omega), omega)
    zero = np.zeros_like(omega)
    transport._require_poisson(grid, solve_streamfunction(grid, zero), zero)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([16, 32, 64, 128, 256]), aspect=st.sampled_from([1.0, 1.5]),
       scale=st.floats(1e-6, 1e6), kick=st.floats(0.0, 3.0))
def test_poisson_check_matches_the_plain_residual(data, n, aspect, scale, kick):
    # random zero-mean trig vorticity on a square or rectangular spacing; psi solves for it
    # and then takes a kick at one cell that moves its residual there by about `kick` bounds
    h = TWO_PI / n
    grid = Grid((n, n), (h, aspect * h), (PERIODIC, PERIODIC))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    omega = np.zeros((n, n))
    for _ in range(data.draw(st.integers(1, 4))):
        kx, ky = data.draw(st.integers(0, n // 2)), data.draw(st.integers(1, n // 2))
        amp, phase = data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(0.0, TWO_PI))
        omega += amp * np.cos(TWO_PI * (kx * i + ky * j) / n + phase)
    omega *= scale
    psi = np.fft.irfft2(np.fft.rfft2(omega) * _inverse_symbol(grid), s=grid.extents)
    bound = 1e-10 * float(np.max(np.abs(omega)))
    psi[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] += kick * bound / (2 / h**2 + 2 / (aspect * h) ** 2)
    accepted, residual = _plain_poisson_verdict(grid, psi, omega)
    if accepted:
        transport._require_poisson(grid, psi, omega)
    else:
        with pytest.raises(PoissonError, match=re.escape(f"residual {residual:.3e} exceeds")):
            transport._require_poisson(grid, psi, omega)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("aspect", [1.0, 1.5])
def test_poisson_check_fails_a_non_finite_vorticity(bad, aspect):
    grid = Grid((32, 32), (TWO_PI / 32, aspect * TWO_PI / 32), (PERIODIC, PERIODIC))
    omega = two_mode_vorticity(Grid.periodic(32))
    psi = solve_streamfunction(grid, omega)
    omega[3, 5] = bad
    with pytest.raises(PoissonError, match="residual (nan|inf) exceeds"):
        transport._require_poisson(grid, psi, omega)
    with pytest.raises(PoissonError, match="residual nan exceeds"):
        solve_streamfunction(grid, omega)


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-6, 1e6), st.sampled_from([32, 64]))
def test_poisson_bound_is_relative_to_the_vorticity_scale(s, n):
    grid = Grid.periodic(n)
    omega = two_mode_vorticity(grid)
    nu = uniform_order_parameter(grid)
    psi = TransportState.from_vorticity(grid, omega, nu).psi.values
    scaled = TransportState.from_vorticity(grid, s * omega, nu).psi.values
    assert np.max(np.abs(scaled - s * psi)) <= 1e-12 * np.max(np.abs(s * psi))


@pytest.mark.parametrize("n", [64, 256])
def test_from_vorticity_accepts_a_large_vorticity(n):
    grid = Grid.periodic(n)
    state = TransportState.from_vorticity(grid, 1e3 * two_mode_vorticity(grid), uniform_order_parameter(grid))
    residual = np.max(np.abs(_laplacian_compact(grid, state.psi.values) + state.omega.values))
    assert 1e-10 < residual <= 1e-10 * np.max(np.abs(state.omega.values))  # over the old absolute bound


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_poisson_rejects_non_finite_vorticity(bad):
    grid = Grid.periodic(16)
    omega = np.zeros(grid.extents)
    omega[3, 5] = bad
    with pytest.raises(PoissonError, match="residual nan"):
        solve_streamfunction(grid, omega)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_vorticity_names_a_non_finite_cell_before_the_solve(bad):
    # the checked field is built first, so the value never reaches the mean or the FFT (whose
    # RuntimeWarnings are errors here) and fails as the cell it sits in
    grid = Grid.periodic(16)
    omega = two_mode_vorticity(grid)
    state = TransportState.from_vorticity(grid, omega, uniform_order_parameter(grid))
    assert np.array_equal(state.omega.values.view(np.int64), omega.view(np.int64))
    omega[3, 5] = bad
    with pytest.raises(FieldValueError, match=re.escape("non-finite value at index (3, 5) of ScalarField")):
        TransportState.from_vorticity(grid, omega, uniform_order_parameter(grid))


def test_inverse_symbol_is_cached_and_read_only():
    table = _inverse_symbol(Grid.periodic(32))
    assert table is _inverse_symbol(Grid.periodic(32))
    assert table.shape == (32, 17) and table[0, 0] == 0.0
    assert not table.flags.writeable


def test_velocity_is_divergence_free():
    grid = Grid.periodic(64)
    state = make_state(grid)
    v = state.velocity()
    assert linf_norm(div_vector(v)) <= 1e-10


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_state_rejects_nonzero_mean_vorticity(scale):
    # the zero-mean check is relative to max|omega|: a tiny vorticity that is mostly mean
    # (82% of max|omega| here) is rejected like a large one, and a zero-mean one is accepted
    grid = Grid.periodic(32)
    two_mode = two_mode_vorticity(grid)
    with pytest.raises(TransportError, match="mean vorticity"):
        TransportState.from_vorticity(grid, scale * two_mode + scale * 10.0, uniform_order_parameter(grid))
    with pytest.raises(TransportError, match="mean vorticity"):
        TransportState.from_vorticity(grid, scale * np.ones(grid.extents), uniform_order_parameter(grid))
    state = TransportState.from_vorticity(grid, scale * two_mode, uniform_order_parameter(grid))
    assert np.array_equal(state.omega.values, scale * two_mode)


def test_state_rejects_non_square_grid():
    grid = Grid((16, 32), (0.1, 0.1), ("periodic", "periodic"))
    with pytest.raises(TransportError):
        TransportState.from_vorticity(grid, np.zeros(grid.extents), uniform_order_parameter(grid))


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"report_every": 0}, "report_every=0"),
        ({"report_every": -3}, "report_every=-3"),
        ({"dt": float("nan")}, "dt=nan"),
        ({"dt": float("inf")}, "dt=inf"),
        ({"dt": 0.0}, "dt=0.0"),
        ({"dt": -0.1}, "dt=-0.1"),
    ],
)
def test_config_rejects_bad_report_every_and_dt(bad, match):
    with pytest.raises(TransportError, match=match):
        TransportConfig(**{"dt": 0.05, "steps": 4, "model": MODEL2, **bad})


def test_arakawa_matches_central_advection():
    # J(psi, omega) must approximate -(v.grad) omega at second order
    def probe(h):
        grid = Grid.periodic(round(TWO_PI / h))
        x, y = grid.meshgrid()
        psi = np.sin(x) * np.cos(y) + 0.3 * np.cos(2 * x)
        omega = np.cos(x) * np.sin(y)
        exact = (
            -np.sin(x) * np.sin(y) * (-np.sin(x) * np.sin(y))  # psi_x omega_y... assembled below
        )
        psi_x = np.cos(x) * np.cos(y) - 0.6 * np.sin(2 * x)
        psi_y = -np.sin(x) * np.sin(y)
        omega_x = -np.sin(x) * np.sin(y)
        omega_y = np.cos(x) * np.cos(y)
        exact = psi_x * omega_y - psi_y * omega_x
        return float(np.max(np.abs(_arakawa(grid, psi, omega) - exact)))

    report = refinement_study(probe, [TWO_PI / n for n in (32, 64, 128)])
    assert report.observed_order >= 1.8


def _arakawa_rolls(grid, psi, zeta):
    """The Arakawa Jacobian built from 16 np.roll shifts (the reference route)."""
    hx, hy = grid.spacing
    pe, pw = np.roll(psi, -1, axis=0), np.roll(psi, 1, axis=0)
    pn, ps = np.roll(psi, -1, axis=1), np.roll(psi, 1, axis=1)
    pne, pnw = np.roll(pn, -1, axis=0), np.roll(pn, 1, axis=0)
    pse, psw = np.roll(ps, -1, axis=0), np.roll(ps, 1, axis=0)
    ze, zw = np.roll(zeta, -1, axis=0), np.roll(zeta, 1, axis=0)
    zn, zs = np.roll(zeta, -1, axis=1), np.roll(zeta, 1, axis=1)
    zne, znw = np.roll(zn, -1, axis=0), np.roll(zn, 1, axis=0)
    zse, zsw = np.roll(zs, -1, axis=0), np.roll(zs, 1, axis=0)
    j1 = (pe - pw) * (zn - zs) - (pn - ps) * (ze - zw)
    j2 = pe * (zne - zse) - pw * (znw - zsw) - pn * (zne - znw) + ps * (zse - zsw)
    j3 = zn * (pne - pnw) - zs * (pse - psw) - ze * (pne - pse) + zw * (pnw - psw)
    return (j1 + j2 + j3) / (12.0 * hx * hy)


# 32^2 and 64^2 are one row block; 96^2 ends in a partial block for every k, 128^2 and 256^2
# split into several blocks (partial at k = 3)
@pytest.mark.parametrize("n", [32, 64, 96, 128, 256])
def test_arakawa_bit_identical_to_roll_formula(n):
    grid = Grid.periodic(n)
    rng = np.random.default_rng(n)
    psi, zeta = rng.standard_normal((2, n, n))
    assert np.array_equal(_arakawa(grid, psi, zeta).view(np.int64), _arakawa_rolls(grid, psi, zeta).view(np.int64))


@pytest.mark.parametrize("n", [32, 64, 96, 128, 256])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_arakawa_components_bit_identical_to_roll_formula(n, k):
    grid = Grid.periodic(n)
    rng = np.random.default_rng(10 * n + k)
    psi, zeta = rng.standard_normal((n, n)), rng.standard_normal((n, n, k))
    out = _arakawa(grid, psi, zeta)
    assert out.shape == zeta.shape
    for a in range(k):
        reference = _arakawa_rolls(grid, psi, zeta[..., a])
        assert np.array_equal(out[..., a].view(np.int64), reference.view(np.int64))


# 64^2 is one row block, 256^2 several; a strided zeta is a component-leading array seen
# component-last, as a caller may hand it over
@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_arakawa_components_equal_stacked_single_component_calls(n, k, layout):
    grid = Grid.periodic(n)
    rng = np.random.default_rng(100 * n + k)
    psi = rng.standard_normal((n, n))
    if layout == "contiguous":
        zeta = rng.standard_normal((n, n, k))
    else:
        zeta = np.moveaxis(rng.standard_normal((k, n, n)), 0, -1)
    stacked = np.stack([_arakawa(grid, psi, zeta[..., c]) for c in range(k)], axis=-1)
    out = _arakawa(grid, psi, zeta)
    assert out.shape == zeta.shape
    assert np.array_equal(out.view(np.int64), stacked.view(np.int64))


@pytest.mark.parametrize("cells", [1, 100, 48 * 7, 10**9])
@pytest.mark.parametrize("k", [0, 2])
def test_arakawa_bits_do_not_depend_on_the_row_block(cells, k, monkeypatch):
    grid = Grid.periodic(48)
    rng = np.random.default_rng(k)
    psi = rng.standard_normal((48, 48))
    zeta = rng.standard_normal((48, 48, k) if k else (48, 48))
    reference = _arakawa(grid, psi, zeta)
    monkeypatch.setattr(transport, "BLOCK_CELLS", cells)  # 1-row blocks, partial blocks, one block
    assert np.array_equal(_arakawa(grid, psi, zeta).view(np.int64), reference.view(np.int64))


def _assert_rolls_bits(grid, psi, zeta):
    """_arakawa equals the roll formula per component: the same NaN cells, every other bit alike."""
    out = _arakawa(grid, psi, zeta)
    assert out.shape == zeta.shape
    stack = zeta if zeta.ndim == 3 else zeta[..., None]
    got = out if zeta.ndim == 3 else out[..., None]
    for c in range(stack.shape[-1]):
        reference = _arakawa_rolls(grid, psi, stack[..., c])
        nan = np.isnan(reference)
        assert np.array_equal(np.isnan(got[..., c]), nan)
        assert np.array_equal(np.where(nan, 0.0, got[..., c]).view(np.int64), np.where(nan, 0.0, reference).view(np.int64))


# a padded row of n + 2 cells is barely wider than the three-cell stencil; one block, and 1-row blocks
@pytest.mark.parametrize("n", [4, 5, 7])
@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("cells", [transport.BLOCK_CELLS, 1])
def test_arakawa_on_the_smallest_grids_matches_the_roll_formula(n, k, cells, monkeypatch):
    grid = Grid.periodic(n)
    rng = np.random.default_rng(n + k)
    psi, zeta = rng.standard_normal((n, n)), rng.standard_normal((n, n, k) if k else (n, n))
    monkeypatch.setattr(transport, "BLOCK_CELLS", cells)
    _assert_rolls_bits(grid, psi, zeta)


# fewer block cells than one padded row (n + 2 = 19 cells): every block is a single row
@pytest.mark.parametrize("cells", [1, 16, 17, 18])
@pytest.mark.parametrize("k", [0, 3])
def test_arakawa_with_blocks_narrower_than_a_padded_row_matches_the_roll_formula(cells, k, monkeypatch):
    n = 17
    grid = Grid.periodic(n)
    rng = np.random.default_rng(cells + k)
    psi, zeta = rng.standard_normal((n, n)), rng.standard_normal((n, n, k) if k else (n, n))
    monkeypatch.setattr(transport, "BLOCK_CELLS", cells)
    _assert_rolls_bits(grid, psi, zeta)


@pytest.mark.parametrize("layout", ["transposed", "strided"])
@pytest.mark.parametrize("k", [0, 2])
def test_arakawa_of_non_contiguous_operands_matches_the_roll_formula(layout, k, monkeypatch):
    n = 24
    grid = Grid.periodic(n)
    rng = np.random.default_rng(k)
    monkeypatch.setattr(transport, "BLOCK_CELLS", 5 * n)  # several blocks, the last one partial
    if layout == "transposed":
        psi = rng.standard_normal((n, n)).T
        zeta = rng.standard_normal((k, n, n)).T if k else rng.standard_normal((n, n)).T
    else:
        psi = rng.standard_normal((2 * n, 3 * n))[::2, ::3]
        zeta = rng.standard_normal((2 * n, 3 * n, 2 * k))[::2, ::3, ::2] if k else rng.standard_normal((3 * n, 2 * n))[::3, ::2]
    assert not psi.flags.c_contiguous and not zeta.flags.c_contiguous
    _assert_rolls_bits(grid, psi, zeta)


# blocks of 3 rows of a 12^2 grid: rows 3 and 5 are the first and last row of the second block;
# columns 0 and 11 sit next to the pad columns, so a stored pad-column value would add NaN cells
_N, _ROWS = 12, 3
_BAD_CELLS = [(0, 0), (0, _N - 1), (_N - 1, 0), (_N - 1, _N - 1), (0, 5), (7, _N - 1),
              (_ROWS, 0), (_ROWS, _N - 1), (2 * _ROWS - 1, 0), (2 * _ROWS - 1, _N - 1), (_ROWS, 6), (2 * _ROWS - 1, 6)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell", _BAD_CELLS)
@pytest.mark.parametrize("operand", ["psi", "zeta", "zeta component"])
def test_arakawa_non_finite_cells_spread_like_the_roll_formula(bad, cell, operand, monkeypatch):
    grid = Grid.periodic(_N)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((_N, _N))
    zeta = rng.standard_normal((_N, _N, 2) if operand == "zeta component" else (_N, _N))
    target = {"psi": psi, "zeta": zeta, "zeta component": zeta[..., 1]}[operand]
    target[cell] = bad
    monkeypatch.setattr(transport, "BLOCK_CELLS", _ROWS * _N)
    _assert_rolls_bits(grid, psi, zeta)


def test_stage_kernels_bound_the_allocation_peak():
    # the Jacobian's padded operands and output are whole grids, every other temporary is one
    # row block; the residual check holds the padded psi and two grid buffers
    n = 256
    grid, array = Grid.periodic(n), n * n * 8
    rng = np.random.default_rng(5)
    psi, omega, nu = rng.standard_normal((n, n)), rng.standard_normal((n, n)), rng.standard_normal((n, n, 2))
    assert traced_peak(_arakawa, grid, psi, omega) < 5 * array
    assert traced_peak(_arakawa, grid, psi, nu) < 7 * array
    omega = two_mode_vorticity(grid)
    assert traced_peak(transport._require_poisson, grid, solve_streamfunction(grid, omega), omega) < 3.5 * array


def test_rk4_step_bounds_the_allocation_peak():
    # besides its state a frozen step holds the stage sum, a stage input and its psi, and one
    # rate with the Jacobian's padded psi and operand (~7 grids); a run also holds the state it
    # replaces, and an advected one the last sample's memoized source
    n = 256
    grid, array = Grid.periodic(n), n * n * 8
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    frozen = TransportConfig(dt=0.25 * grid.spacing[0], steps=10, model=MODEL2)
    run(frozen, state)  # memoizes the source of this nu, which every frozen call below reads
    assert traced_peak(run, frozen, state) < 9.5 * array
    assert traced_peak(step, state, frozen) < 7.5 * array
    assert traced_peak(run, dataclasses.replace(frozen, mode="advected"), state) < 32 * array


def test_source_takes_div_t_without_the_whole_stress():
    # grad nu and dphi/dgrad nu (4 planes each at m = 2) live through the divergence, which
    # holds one slot of T at a time and never the whole tensor (4 planes more)
    n = 256
    grid, array = Grid.periodic(n), n * n * 8
    nu = generic_order_parameter(grid).values
    assert traced_peak(transport._source, grid, nu, MODEL2) < 13.5 * array


def test_source_builds_dphi_dgrad_nu_one_plane_at_a_time():
    # grad nu (4 planes at m = 2) and div T (2) live through the divergence, which builds each
    # plane of dphi/dgrad nu as its slot reads it, never the whole of it (4 planes more)
    n = 256
    grid, array = Grid.periodic(n), n * n * 8
    nu = generic_order_parameter(grid).values
    assert traced_peak(transport._source, grid, nu, MODEL2) < 12 * array


def test_advected_run_drops_the_initial_source_after_the_first_sample():
    # each stage builds its source one plane of dphi/dgrad nu at a time, and the run drops the
    # initial nu's memoized source and div T (3 grids at m = 2) after the first sample: no
    # advected step reads them
    n = 256
    grid, array = Grid.periodic(n), n * n * 8
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)  # a fresh nu: its source is built cold
    advected = TransportConfig(dt=0.25 * grid.spacing[0], steps=10, model=MODEL2, mode="advected")
    assert traced_peak(run, advected, state) < 21 * array


def test_compact_laplacian_matches_roll_formula():
    grid = Grid.periodic(32)
    values = np.random.default_rng(3).standard_normal(grid.extents)
    h2 = grid.spacing[0] ** 2
    reference = sum(
        (np.roll(values, -1, axis=a) - 2.0 * values + np.roll(values, 1, axis=a)) / h2 for a in (0, 1)
    )
    assert np.array_equal(_laplacian_compact(grid, values), reference)


# ---------------------------------------------------------------------------
# the substructural source
# ---------------------------------------------------------------------------


def _broadcast_stress(grid, nu, model):
    """The stress as one 5-D broadcast product summed over the chart axis (the reference route)."""
    gnu = _grad(grid, nu)
    p = model.dphi_dgrad_nu(gnu)
    return np.sum(gnu[..., :, None] * p[..., None, :], axis=-3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stress_contraction_matches_broadcast_sum(m):
    grid, model = Grid.periodic(32), ComplexFluidModel(m=m, a=1.3)
    nu = np.random.default_rng(m).standard_normal(grid.extents + (m,))
    stress = substructural_stress(grid, OrderField(grid, nu), model).values
    assert np.array_equal(stress.view(np.int64), _broadcast_stress(grid, nu, model).view(np.int64))
    # components constant along y have exactly zero y-derivatives, so products
    # such as (d nu/dx)(+0) are signed zeros; the reference's sum starts from
    # +0 and drops their sign, so equality is by value there
    nu[...] = np.sin(grid.axis_coords(0)[:, None, None] + np.arange(m))
    reference = _broadcast_stress(grid, nu, model)
    assert np.any(reference == 0.0)
    assert np.array_equal(substructural_stress(grid, OrderField(grid, nu), model).values, reference)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("builder", [taylor_green_vorticity, two_mode_vorticity])
def test_cfl_number_matches_magnitude_formula(n, builder):
    grid = Grid.periodic(n)
    omega = builder(grid) + 0.3 * np.random.default_rng(n).standard_normal(grid.extents)
    state = make_state(grid, lambda g: omega - np.mean(omega))
    v = state.velocity().values
    dt = 0.2 * grid.spacing[0]
    reference = float(np.max(np.sqrt(np.sum(v * v, axis=-1)))) * dt / min(grid.spacing)
    assert cfl_number(state, dt) == reference


def test_rhs_zero_for_uniform_nu():
    grid = Grid.periodic(32)
    state = make_state(grid)
    assert linf_norm(transport_rhs(state, MODEL2)) == 0.0


def test_rhs_nonzero_for_generic_nu():
    grid = Grid.periodic(64)
    state = TransportState.from_vorticity(grid, np.zeros(grid.extents), generic_order_parameter(grid))
    assert linf_norm(transport_rhs(state, MODEL2)) > 0.1


def test_eigencomponent_nu_is_discretely_conserving():
    # Each chart component a single trig mode: the stencil cancellations are
    # exact and the source sits at the rounding floor.
    grid = Grid.periodic(64)
    te = substructural_stress(grid, eigencomponent_order_parameter(grid), MODEL2)
    assert curl_div_norms(te)[1] <= 1e-9


# ---------------------------------------------------------------------------
# potential condition
# ---------------------------------------------------------------------------


def test_potential_condition_pressure_form():
    # T = -pi*I for scalar pi: div T = -grad(pi), curl of it refines away
    def tensor_for(n):
        grid = Grid.periodic(n)
        x, y = grid.meshgrid()
        pi_field = np.sin(x) * np.cos(y) + 0.4 * np.sin(2 * x) * np.sin(y)
        return grid, pi_field

    tensors = []
    for n in (32, 64, 128):
        grid, pi_field = tensor_for(n)
        from croccolab.fieldcalc import TensorField

        tensors.append(TensorField(grid, -pi_field[..., None, None] * np.eye(2)))
    report = potential_condition_check(tensors)
    assert report.verdict == "conserving"


def test_potential_condition_uniform_nu_exact():
    tensors = [
        substructural_stress(Grid.periodic(n), uniform_order_parameter(Grid.periodic(n)), MODEL2)
        for n in (32, 64, 128)
    ]
    report = potential_condition_check(tensors)
    assert report.verdict == "conserving"
    assert report.norms[-1][1] == 0.0


def test_potential_condition_constructed_gradient_refines():
    tensors = [
        substructural_stress(Grid.periodic(n), potential_order_parameter(Grid.periodic(n)), MODEL2)
        for n in (32, 64, 128)
    ]
    report = potential_condition_check(tensors)
    assert report.verdict == "conserving"
    assert report.observed_order >= 1.8


def test_potential_condition_radial_refines():
    tensors = [
        substructural_stress(Grid.periodic(n), radial_order_parameter(Grid.periodic(n)), MODEL1)
        for n in (64, 128, 256)
    ]
    report = potential_condition_check(tensors)
    assert report.verdict == "conserving"


def test_potential_condition_generic_altering():
    tensors = [
        substructural_stress(Grid.periodic(n), generic_order_parameter(Grid.periodic(n)), MODEL2)
        for n in (32, 64, 128)
    ]
    report = potential_condition_check(tensors)
    assert report.verdict == "altering"
    assert min(e for _, e in report.norms) > 0.5  # bounded away from zero


@pytest.mark.parametrize("scale", [1e-10, 1e10])
def test_potential_condition_verdict_is_scale_free(scale):
    def scaled(builder):
        grids = [Grid.periodic(n) for n in (32, 64, 128)]
        return [
            TensorField(g, scale * substructural_stress(g, builder(g), MODEL2).values) for g in grids
        ]

    assert potential_condition_check(scaled(generic_order_parameter)).verdict == "altering"
    assert potential_condition_check(scaled(potential_order_parameter)).verdict == "conserving"
    exact = potential_condition_check(scaled(eigencomponent_order_parameter))
    assert exact.verdict == "conserving" and exact.observed_order == float("inf")


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_step_cfl_guard():
    grid = Grid.periodic(32)
    state = make_state(grid, taylor_green_vorticity)
    config = TransportConfig(dt=10.0, steps=1, model=MODEL2)
    with pytest.raises(CFLError):
        step(state, config)


def test_step_uniform_nu_is_pure_advection_bit_for_bit():
    grid = Grid.periodic(32)
    state = make_state(grid, two_mode_vorticity, uniform_order_parameter)
    dt = 0.2 * grid.spacing[0]
    stepped = step(state, TransportConfig(dt=dt, steps=1, model=MODEL2))

    # hand-rolled pure-advection RK4 (no source path at all)
    def advect_only(om, psi):
        return _arakawa(grid, psi, om)

    om0, psi0 = state.omega.values, state.psi.values
    k1 = advect_only(om0, psi0)
    psi1 = solve_streamfunction(grid, om0 + 0.5 * dt * k1)
    k2 = advect_only(om0 + 0.5 * dt * k1, psi1)
    psi2 = solve_streamfunction(grid, om0 + 0.5 * dt * k2)
    k3 = advect_only(om0 + 0.5 * dt * k2, psi2)
    psi3 = solve_streamfunction(grid, om0 + dt * k3)
    k4 = advect_only(om0 + dt * k3, psi3)
    om1 = om0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.array_equal(stepped.omega.values, om1)


def test_first_step_matches_rhs_taylor():
    grid = Grid.periodic(64)
    state = TransportState.from_vorticity(grid, np.zeros(grid.extents), generic_order_parameter(grid))
    rhs0 = transport_rhs(state, MODEL2).values
    dt = 1e-3
    stepped = step(state, TransportConfig(dt=dt, steps=1, model=MODEL2))
    rate = (stepped.omega.values - state.omega.values) / dt
    assert np.max(np.abs(rate - rhs0)) <= 1e-5 + 4.0 * dt  # O(dt) + tiny advection feedback


def test_taylor_green_is_discrete_steady_state():
    grid = Grid.periodic(64)
    state = make_state(grid, taylor_green_vorticity)
    config = TransportConfig(dt=0.25 * grid.spacing[0], steps=20, model=MODEL2, report_every=10)
    result = run(config, state)
    m0 = result.samples[0].max_omega
    assert max(abs(s.max_omega - m0) for s in result.samples) <= 1e-12


def test_conserving_run_enstrophy_drift_small():
    grid = Grid.periodic(64)
    state = make_state(grid)
    config = TransportConfig(dt=0.25 * grid.spacing[0], steps=100, model=MODEL2, report_every=25)
    result = run(config, state)
    assert result.enstrophy_drift < 1e-7


def test_altering_run_changes_enstrophy():
    grid = Grid.periodic(64)
    dt = 0.25 * grid.spacing[0]
    cons = run(
        TransportConfig(dt=dt, steps=50, model=MODEL2, report_every=25),
        make_state(grid),
    )
    alt = run(
        TransportConfig(dt=dt, steps=50, model=MODEL2, report_every=25),
        make_state(grid, two_mode_vorticity, generic_order_parameter),
    )
    assert alt.enstrophy_drift > 10.0 * cons.enstrophy_drift
    assert abs(alt.samples[-1].te_work_rate) > 0.0  # energy transfer observable


def test_advected_mode_moves_nu():
    grid = Grid.periodic(32)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    config = TransportConfig(dt=0.2 * grid.spacing[0], steps=5, model=MODEL2, mode="advected")
    result = run(config, state)
    assert not np.array_equal(result.final_state.nu.values, state.nu.values)


def test_run_samples_and_diagnostics():
    grid = Grid.periodic(32)
    state = make_state(grid, taylor_green_vorticity)
    config = TransportConfig(dt=0.2 * grid.spacing[0], steps=10, model=MODEL2, report_every=5)
    result = run(config, state)
    assert [round(s.t / config.dt) for s in result.samples] == [0, 5, 10]
    assert enstrophy(state) > 0.0
    assert te_work_rate(state, MODEL2) == 0.0  # uniform nu: no transfer
    assert cfl_number(state, config.dt) <= 0.5


def test_frozen_run_matches_public_step_loop_bit_for_bit():
    grid = Grid.periodic(32)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    config = TransportConfig(dt=0.2 * grid.spacing[0], steps=6, model=MODEL2, report_every=4)
    result = run(config, state)
    manual = state
    for _ in range(config.steps):
        manual = step(manual, config)
    assert np.array_equal(result.final_state.omega.values, manual.omega.values)
    assert np.array_equal(result.final_state.psi.values, manual.psi.values)
    final = result.samples[-1]
    assert final.rhs_norm == l2_norm(transport_rhs(manual, MODEL2))
    assert final.te_work_rate == te_work_rate(manual, MODEL2)


@pytest.fixture
def stress_builds(monkeypatch):
    """List that gains one entry per `transport._stress_factors` call, the first step of every stress build."""
    calls = []
    build = transport._stress_factors

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(transport, "_stress_factors", counted)
    return calls


def test_frozen_run_builds_the_stress_once_per_nu(stress_builds):
    calls = stress_builds
    grid = Grid.periodic(32)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    config = TransportConfig(dt=0.2 * grid.spacing[0], steps=10, model=MODEL2, report_every=5)
    first = run(config, state)
    assert len(calls) == 1
    again = run(config, state)  # the same nu: every step and sample reads the memo
    assert len(calls) == 1
    assert again.samples == first.samples
    for name in ("omega", "psi", "nu"):
        got, want = getattr(again.final_state, name).values, getattr(first.final_state, name).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def test_advected_sample_builds_the_source_once(stress_builds):
    grid = Grid.periodic(32)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    run(TransportConfig(dt=0.2 * grid.spacing[0], steps=0, model=MODEL2, mode="advected"), state)
    assert len(stress_builds) == 1  # rhs_norm and te_work_rate of the one sample share a build


def test_source_memo_lets_go_of_a_replaced_nu():
    grid = Grid.periodic(16)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    transport_rhs(state, MODEL2)
    replaced = weakref.ref(state.nu)
    del state
    transport_rhs(make_state(grid, two_mode_vorticity, uniform_order_parameter), MODEL2)
    gc.collect()
    assert replaced() is None


@pytest.mark.parametrize("mode", ["frozen", "advected"])
def test_source_memo_dies_with_its_nu(mode):
    grid = Grid.periodic(16)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    nu = weakref.ref(state.nu)
    result = run(TransportConfig(dt=0.2 * grid.spacing[0], steps=4, model=MODEL2, mode=mode, report_every=2), state)
    assert transport._SOURCE_MEMO  # the run left its last source memoized
    final = weakref.ref(result.final_state.nu)
    del state, result
    gc.collect()
    assert nu() is None and final() is None
    assert not transport._SOURCE_MEMO


def test_enstrophy_drift_from_zero_enstrophy_is_infinite():
    grid = Grid.periodic(32)
    state = TransportState.from_vorticity(grid, np.zeros(grid.extents), generic_order_parameter(grid))
    result = run(TransportConfig(dt=0.2 * grid.spacing[0], steps=5, model=MODEL2), state)
    assert result.samples[0].enstrophy == 0.0 and result.samples[-1].enstrophy > 0.0
    assert result.enstrophy_drift == math.inf
    still = TransportState.from_vorticity(grid, np.zeros(grid.extents), uniform_order_parameter(grid))
    assert run(TransportConfig(dt=0.2 * grid.spacing[0], steps=5, model=MODEL2), still).enstrophy_drift == 0.0


def flow_energy(state):
    return 0.5 * float(np.sum(state.psi.values * state.omega.values)) * state.grid.cell_volume


@pytest.mark.parametrize("mode", ["frozen", "advected"])
def test_work_rate_is_the_semi_discrete_rate_of_flow_energy(mode):
    # dE - integral(work dt) is the trapezoid error alone: it shrinks 4x per dt halving
    grid = Grid.periodic(32)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    defects = []
    for dt in (0.025, 0.0125, 0.00625):
        steps = round(0.5 / dt)
        result = run(TransportConfig(dt=dt, steps=steps, model=MODEL2, mode=mode, report_every=1), state)
        work = np.array([s.te_work_rate for s in result.samples])
        integral = dt * (np.sum(work) - 0.5 * (work[0] + work[-1]))
        defects.append(abs(flow_energy(result.final_state) - flow_energy(state) - integral))
    assert defects[0] / defects[1] >= 3.5 and defects[1] / defects[2] >= 3.5, defects


def test_work_rate_builds_no_field(monkeypatch):
    grid = Grid.periodic(32)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    transport_rhs(state, MODEL2)  # memoizes the checked source, as a run's sample does before the work rate
    built, init = [], fieldcalc.Field.__init__
    monkeypatch.setattr(fieldcalc.Field, "__init__",
                        lambda self, *args, **kwargs: built.append(type(self)) or init(self, *args, **kwargs))
    work = te_work_rate(state, MODEL2)
    assert built == []
    monkeypatch.undo()
    assert work == _field_sample(state, MODEL2).te_work_rate


def test_enstrophy_drift_is_a_running_max_over_every_step():
    # omega0 = -a*S against the frozen source S: the enstrophy falls to ~0 at
    # t = a and climbs back to Z0 at t = 2a, the end of the run, so the
    # samples (t = 0 and the last step) alone would miss the excursion.
    grid = Grid.periodic(32)
    nu = generic_order_parameter(grid)
    source = transport_rhs(TransportState.from_vorticity(grid, np.zeros(grid.extents), nu), MODEL2)
    config = TransportConfig(dt=0.2 * grid.spacing[0], steps=12, model=MODEL2, report_every=100)
    state = TransportState.from_vorticity(grid, -0.5 * config.steps * config.dt * source.values, nu)
    result = run(config, state)
    assert [s.t for s in result.samples] == [0.0, result.final_state.t]
    z0 = enstrophy(state)
    peak, manual = 0.0, state
    for _ in range(config.steps):
        manual = step(manual, config)
        peak = max(peak, abs(enstrophy(manual) - z0))
    assert result.enstrophy_drift == peak / abs(z0)
    assert result.enstrophy_drift > 0.9
    assert abs(result.samples[-1].enstrophy - z0) / abs(z0) < 1e-3


def _reference_source(grid, nu, model):
    """(-curl(div T), div T) through Fields and a broadcast stress."""
    gnu = order_grad(OrderField(grid, nu)).values
    p = model.dphi_dgrad_nu(gnu)
    div_te = div_tensor(TensorField(grid, np.sum(gnu[..., :, None] * p[..., None, :], axis=-3)))
    return -curl_vector(div_te).values, div_te.values


def _field_stage_step(state, config):
    """One unrolled RK4 step whose stages build Fields, a broadcast stress and per-component Jacobians.

    The reference route for the stage loop of `step`; nu moves only in advected mode.
    """
    grid, model, dt = state.grid, config.model, config.dt
    advected = config.mode == "advected"
    v = state.velocity().values
    assert float(np.max(np.sqrt(np.sum(v * v, axis=-1)))) * dt / grid.spacing[0] <= CFL_LIMIT

    def rate(om, nu, psi):
        src = _reference_source(grid, nu, model)[0]
        adv = _arakawa_rolls(grid, psi, om)
        dnu = np.stack([_arakawa_rolls(grid, psi, nu[..., a]) for a in range(nu.shape[-1])], axis=-1)
        return (adv + src if np.any(src) else adv), dnu

    om0, nu0, psi0 = state.omega.values, state.nu.values, state.psi.values

    def nu_at(c, k):
        return nu0 + c * dt * k if advected else nu0

    k1o, k1n = rate(om0, nu0, psi0)
    om = om0 + 0.5 * dt * k1o
    k2o, k2n = rate(om, nu_at(0.5, k1n), solve_streamfunction(grid, om))
    om = om0 + 0.5 * dt * k2o
    k3o, k3n = rate(om, nu_at(0.5, k2n), solve_streamfunction(grid, om))
    om = om0 + dt * k3o
    k4o, k4n = rate(om, nu_at(1.0, k3n), solve_streamfunction(grid, om))
    om1 = om0 + (dt / 6.0) * (k1o + 2.0 * k2o + 2.0 * k3o + k4o)
    nu1 = nu0 + (dt / 6.0) * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) if advected else nu0
    psi1 = solve_streamfunction(grid, om1)
    return TransportState(ScalarField(grid, om1), ScalarField(grid, psi1), OrderField(grid, nu1), state.t + dt)


def _field_sample(state, model):
    """A RunSample with the source, div T and velocity built through Fields."""
    src, div_te = _reference_source(state.grid, state.nu.values, model)
    work = float(np.sum(state.velocity().values * -div_te)) * state.grid.cell_volume
    return transport.RunSample(state.t, l2_norm(state.omega), linf_norm(state.omega), enstrophy(state),
                               l2_norm(ScalarField(state.grid, src)), work)


@pytest.mark.parametrize("mode", ["frozen", "advected"])
@pytest.mark.parametrize("n, steps", [(32, 8), (48, 8), (256, 4)])
@pytest.mark.parametrize("nu_builder", [generic_order_parameter, uniform_order_parameter])
def test_run_bit_identical_to_field_stage_loop(nu_builder, n, steps, mode):
    # 48 is not a power of two; 256 runs the Jacobian over several row blocks
    grid = Grid.periodic(n)
    state = make_state(grid, two_mode_vorticity, nu_builder)
    config = TransportConfig(dt=0.25 * grid.spacing[0], steps=steps, model=MODEL2, mode=mode, report_every=2)
    result = run(config, state)
    manual, samples = state, [_field_sample(state, MODEL2)]
    for k in range(config.steps):
        manual = _field_stage_step(manual, config)
        if (k + 1) % config.report_every == 0:
            samples.append(_field_sample(manual, MODEL2))
    for name in ("omega", "psi", "nu"):
        got, want = getattr(result.final_state, name).values, getattr(manual, name).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
    assert len(result.samples) == len(samples)
    for got, want in zip(result.samples, samples):
        for name in ("t", "l2_omega", "max_omega", "enstrophy", "rhs_norm", "te_work_rate"):
            assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("mode", ["frozen", "advected"])
def test_chart_mismatch_raises_model_error(mode):
    grid = Grid.periodic(16)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)  # m = 2
    config = TransportConfig(dt=0.2 * grid.spacing[0], steps=2, model=MODEL1, mode=mode)
    with pytest.raises(ModelError, match="chart dimension mismatch"):
        step(state, config)
    with pytest.raises(ModelError, match="chart dimension mismatch"):
        run(config, state)


def test_run_rejects_an_inconsistent_initial_state():
    grid = Grid.periodic(32)
    state = make_state(grid, two_mode_vorticity, generic_order_parameter)
    config = TransportConfig(dt=0.2 * grid.spacing[0], steps=1, model=MODEL2)
    stale = TransportState(state.omega, ScalarField(grid, 1.01 * state.psi.values), state.nu)
    with pytest.raises(PoissonError, match="streamfunction residual"):
        run(config, stale)
    assert run(config, state).final_state.t == config.dt


def near_overflow_order_parameter(grid):
    """Positive nu within a factor 1.3 of the largest double: one advected step overflows it."""
    nu = generic_order_parameter(grid).values
    return OrderField(grid, 1e308 + 7e307 * nu / np.max(np.abs(nu)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_advected_blow_up_raises_typed_errors():
    grid = Grid.periodic(16)
    dt = 0.25 * grid.spacing[0]
    # nu itself overflows: a = 0 keeps the source zero, so only the new state's check can see it
    state = make_state(grid, two_mode_vorticity, near_overflow_order_parameter)
    config = TransportConfig(dt=dt, steps=3, model=ComplexFluidModel(m=2, a=0.0), mode="advected")
    with pytest.raises(FieldValueError, match="OrderField"):
        run(config, state)
    # the stress overflows inside the first stage: the NaN stage vorticity fails its Poisson solve
    huge = OrderField(grid, 1e200 * generic_order_parameter(grid).values)
    state = make_state(grid, two_mode_vorticity, lambda g: huge)
    with pytest.raises(PoissonError, match="residual nan"):
        step(state, TransportConfig(dt=dt, steps=1, model=MODEL2, mode="advected"))
