"""Independent cross-check routes for the dual-route tests (acceptance criterion 8).

Each route rebuilds a library quantity a second way, from the public API
only, so a test can compare the library's route with this one:

* ``korteweg_stress_expanded``: div of the dyadic capillary stress by the
  product rule, against ``div_tensor(korteweg_stress(...))``;
* ``korteweg_enthalpy_alt``: the specific enthalpy xi by the pressure route,
  against ``korteweg_enthalpy(...).xi``;
* ``stress_divergence_expanded``: div of the dyadic substructural stress by
  the product rule, against ``div_tensor(substructural_stress(...))``.

Kept with the tests, not in the package, because nothing but a test reads
them.
"""

import numpy as np

from croccolab.crocco import KortewegState, korteweg_pressures
from croccolab.fieldcalc import (
    Grid,
    OrderField,
    VectorField,
    div_vector,
    hessian_scalar,
    order_grad,
    order_second_grad,
)
from croccolab.models import ComplexFluidModel, KortewegCoEnergy, KortewegModel


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
