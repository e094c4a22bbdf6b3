"""The sympy oracle of the layered-phase relation on ``smectic_wavy``.

``wavy_oracle(model)`` derives the lhs and every term of the relation from
the layer potential, independently of the module's microstress formula and
of the stencils, and returns a function of the cell coordinates.  Shared by
the per-term oracle test and acceptance criterion 5.
"""

import functools
import math

import numpy as np
import sympy as sp

_X = _x, _y = sp.symbols("x y")
# the layer terms are polynomials in sin x, cos x, sin y, cos y, m = |grad w| and r = 1/m
_RING = _sx, _cx, _sy, _cy, _m, _r = sp.symbols("sx cx sy cy m r")


def _ring(expr):
    trig = {sp.sin(_x): _sx, sp.cos(_x): _cx, sp.sin(_y): _sy, sp.cos(_y): _cy}
    return sp.Poly(sp.sympify(expr).subs(trig), *_RING, domain="QQ")


def wavy_oracle(model):
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
