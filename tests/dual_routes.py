"""Independent cross-check routes for the dual-route tests (acceptance criterion 8).

Each route rebuilds a library quantity a second way, so a test can compare
the library's route with this one:

* ``korteweg_stress_expanded``: div of the dyadic capillary stress by the
  product rule, against ``div_tensor(korteweg_stress(...))``;
* ``korteweg_enthalpy_alt``: the specific enthalpy xi by the pressure route,
  against ``korteweg_enthalpy(...).xi``;
* ``stress_divergence_expanded``: div of the dyadic substructural stress by
  the product rule, against ``div_tensor(substructural_stress(...))``;
* ``read_field_whole``: a field file read whole and its CSV payload decoded
  and split into one list of lines, against ``fieldio.read_field``, which
  decodes the payload in streamed blocks and names what is wrong with a
  malformed one in a second streamed pass;
* ``korteweg_embedding``: a capillary state as an m=1 order-parameter
  state, so the general engine can be checked against the capillary one.

Kept with the tests, not in the package, because nothing but a test reads
them.  ``read_field_whole`` shares ``fieldio``'s header parsers and its
row-error message; the other routes use the public API only.
"""

import math

import numpy as np

from croccolab.crocco import ComplexState, KortewegState, korteweg_pressures
from croccolab.fieldcalc import (
    Grid,
    GridError,
    OrderField,
    VectorField,
    div_vector,
    hessian_scalar,
    order_grad,
    order_second_grad,
)
from croccolab.fieldio import (
    ENCODINGS,
    KINDS,
    LAYOUT,
    MAGIC,
    FieldFileError,
    _csv_row_error,
    _parse_header,
    _values,
)
from croccolab.models import ComplexFluidModel, KortewegCoEnergy, KortewegModel, OrderCoEnergy


def _rho_p(state: KortewegState, model: KortewegModel) -> np.ndarray:
    """rho * P with P = dphi_dgrad_iota."""
    return state.rho.values[..., None] * model.dphi_dgrad_iota(state.grad_iota.values)


def korteweg_stress_expanded(state: KortewegState, model: KortewegModel) -> np.ndarray:
    """``(div rho*P) grad(iota) + (grad^2 iota) rho*P``, the product rule for div of the dyadic stress."""
    rho_p = _rho_p(state, model)
    div_rho_p = div_vector(VectorField(state.grid, rho_p)).values
    hess = hessian_scalar(state.iota).values
    return div_rho_p[..., None] * state.grad_iota.values + np.einsum("...ij,...j->...i", hess, rho_p)


def korteweg_enthalpy_alt(state: KortewegState, model: KortewegModel, coenergy: KortewegCoEnergy) -> np.ndarray:
    """``xi = phi + iota*p_bar - iota^2*div(rho*P) + iota*p_check - P.grad(iota)``, the pressure route."""
    iota, g_iota = state.iota.values, state.grad_iota.values
    pres = korteweg_pressures(state, model, coenergy)
    div_rho_p = div_vector(VectorField(state.grid, _rho_p(state, model))).values
    p_grad_iota = np.sum(model.dphi_dgrad_iota(g_iota) * g_iota, axis=-1)
    phi = model.phi(iota, g_iota, state.eta.values)
    return phi + iota * pres.p_bar.values - iota**2 * div_rho_p + iota * pres.p_check.values - p_grad_iota


def stress_divergence_expanded(grid: Grid, nu: OrderField, model: ComplexFluidModel) -> np.ndarray:
    """``(grad nu)^T div(P) + P^T gradgrad(nu)`` with ``P = dphi/dgrad nu``, the product rule for div T."""
    gnu = order_grad(nu).values
    p = model.dphi_dgrad_nu(gnu)
    div_p = np.stack([div_vector(VectorField(grid, p[..., a, :])).values for a in range(nu.m)], axis=-1)
    hess = order_second_grad(nu).values
    return np.einsum("...ai,...a->...i", gnu, div_p) + np.einsum("...aj,...aji->...i", p, hess)


def korteweg_embedding(
    state: KortewegState,
    model: KortewegModel,
) -> tuple[ComplexState, ComplexFluidModel, OrderCoEnergy]:
    """Embed a capillary state as an m=1 order-parameter state (nu == iota).

    The embedded model has gamma = f(iota, eta) (no chart coupling) and
    a = beta, so constitutive partials reproduce the capillary ones exactly;
    inertia is excluded (the constrained and unconstrained theories disagree
    on the co-energy route).
    """
    grid = state.grid
    cstate = ComplexState(
        v=state.v,
        iota=state.iota,
        eta=state.eta,
        nu=OrderField(grid, state.iota.values[..., None]),
    )
    cmodel = ComplexFluidModel(
        m=1,
        gamma_kind=model.f_kind,
        k=0.0,
        a=model.beta,
        f_kind=model.f_kind,
        c=model.c,
        iota_ref=model.iota_ref,
        f_well_1=model.well_1,
        f_well_2=model.well_2,
        e0=model.e0,
        c_v=model.c_v,
    )
    return cstate, cmodel, OrderCoEnergy.zero(1)


def read_field_whole(path: str):
    """Read a field file whole; a CSV payload is decoded and split into one list of lines."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith((MAGIC + "\n").encode("utf-8")):
        got = blob.split(b"\n", 1)[0][:40]
        raise FieldFileError(f"magic mismatch: expected {MAGIC!r}, got {got!r}")
    mark = blob.find(b"\npayload\n")
    if mark < 0:
        raise FieldFileError("missing payload line")
    header = _parse_header(blob[len(MAGIC) + 1 : mark + 1].decode("utf-8", "replace").splitlines())
    payload = blob[mark + len(b"\npayload\n") :]
    kind = header["kind"]
    cls = KINDS.get(kind)
    if cls is None:
        raise FieldFileError(f"unknown kind {kind!r}")
    (dim,) = _values(header, "dim", int, 1)
    extents = _values(header, "extents", int, dim)
    spacing = _values(header, "spacing", float, dim)
    boundary = _values(header, "boundary", str, dim)
    (m,) = _values(header, "m", int, 1)
    (components,) = _values(header, "components", int, 1)
    if header["layout"] != LAYOUT:
        raise FieldFileError(f"unsupported layout {header['layout']!r}")
    encoding = header["encoding"]
    if encoding not in ENCODINGS:
        raise FieldFileError(f"unknown encoding {encoding!r}")
    try:
        grid = Grid(extents, spacing, boundary)
    except GridError as exc:
        raise FieldFileError(f"header grid rejected: {exc}") from None
    chart = "m" in cls.axes
    if (m < 1) if chart else (m != 0):
        raise FieldFileError(f"m = {m} does not fit kind {kind!r}, which needs m {'>= 1' if chart else '= 0'}")
    shape = cls.component_shape(dim, m)
    if math.prod(shape) != components:
        raise FieldFileError(
            f"components = {components} does not match kind {kind!r} with m = {m} and dim = {dim},"
            f" which has {math.prod(shape)}"
        )
    n_cells = grid.n_cells
    if encoding == "binary":
        expected = n_cells * components * 8
        if len(payload) != expected:
            raise FieldFileError(f"payload length mismatch: expected {expected} bytes, got {len(payload)}")
        flat = np.frombuffer(payload, dtype="<f8")
    else:
        lines = payload.decode("utf-8", "replace").splitlines()
        if "" in lines:
            raise FieldFileError(f"CSV payload row {lines.index('') + 1} is blank")
        if len(lines) != n_cells:
            raise FieldFileError(f"payload length mismatch: expected {n_cells} lines, got {len(lines)}")
        try:
            flat = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError as exc:
            message = _csv_row_error(lines, components, 1) or f"malformed CSV payload: {exc}"
            raise FieldFileError(message) from exc
        if flat.shape[1] != components:
            raise FieldFileError(f"payload width mismatch: expected {components} components, got {flat.shape[1]}")
    return cls(grid, flat.reshape(grid.extents + shape))
