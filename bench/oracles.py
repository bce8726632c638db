"""High-precision mpmath oracles, computed apart from qfrac's own routes.

* ``(a; q)_oo`` and ``h(z; a_1, a_2)`` at sampled complex arguments, against
  products carried to 10^-22 in 24-digit arithmetic.
* The K_{a,c} eigen-action at a few angles: the operator's integral
  definition is evaluated with the trapezoid rule in 24 digits and compared
  with ``apply_K`` (quadrature route) and with ``apply_K_eigen`` (closed
  form).  For the eigenfunction h(x; -1/c, -cq) H_n(x) the operand's
  h-factor cancels the kernel's 1/h(cos phi; -1/c, -cq), so the integrand
  is even, 2pi-periodic and analytic in the strip |Im phi| < (a/2) ln(1/q);
  the rule then converges geometrically (error below e^{-50} here).  The
  two high-precision routes must agree to 1e-15, which certifies the oracle
  itself.

The arguments come from the seed.  Nothing here is timed.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from qfrac import qcore
from qfrac.context import QContext
from qfrac.operators import KParams, apply_K, apply_K_eigen, eigen_k_basis

DPS = 24
POCH_RTOL = 1e-12
K_QUAD_RTOL = 1e-9     # apply_K integrates to quad_rel_tol = 1e-11
K_CLOSED_RTOL = 1e-12
ORACLE_SELF_RTOL = 1e-15
TRAPEZOID_N = 256


def _poch(x, q):
    """(x; q)_oo with the tail below 10^-(DPS-2) dropped."""
    out, t, tiny = mp.mpf(1), x, mp.mpf(10) ** (2 - DPS)
    while abs(t) > tiny:
        out *= 1 - t
        t *= q
    return out


def _h(z, params, q):
    out = mp.mpf(1)
    for p in params:
        out *= _poch(p * z, q) * _poch(p / z, q)
    return out


def _hermite(n, x, q):
    prev, cur = mp.mpf(1), 2 * x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, 2 * x * cur - (1 - q**k) * prev
    return cur


def _rel(got, want) -> float:
    return float(abs(mp.mpc(got) - want) / max(abs(want), mp.mpf(10) ** -300))


def _k_eigen_oracle(q, a, c, n, theta, nodes):
    """(K_{a,c} h(.; -1/c, -cq) H_n)(cos theta) from the integral definition."""
    z = mp.expj(theta)
    qa2 = q ** (a / 2)
    const = _poch(q, q) * _poch(q**a, q) / (2 * mp.pi)
    total = mp.mpf(0)
    for j in range(nodes // 2 + 1):
        phi = 2 * mp.pi * j / nodes
        zeta = mp.expj(phi)
        g = (_poch(zeta**2, q) * _poch(zeta**-2, q) * _hermite(n, mp.cos(phi), q)
             / _h(zeta, [qa2 * z, qa2 / z], q))
        total += g if j in (0, nodes // 2) else 2 * g
    integral = const * total * mp.pi / nodes
    pref = q ** (a * (a - 3) / 4) * ((1 - q) / (2 * c)) ** a
    return pref * _h(z, [-c * q ** (1 - a / 2), -qa2 / c], q) * integral


def _k_closed_oracle(q, a, c, n, theta):
    z = mp.expj(theta)
    pref = q ** (a * (a - 3) / 4 + n * a / 2) * ((1 - q) / (2 * c)) ** a
    return pref * _h(z, [-c * q ** (1 - a / 2), -q ** (a / 2) / c], q) \
        * _hermite(n, mp.cos(theta), q)


def _draw(rng, lo, hi) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def check_all(seed: int) -> list[str]:
    """Failed oracle comparisons, as messages; empty when all agree."""
    rng = np.random.default_rng(seed)
    errors = []
    with mp.workdps(DPS):
        for qf in (0.3, 0.5, 0.7):
            ctx, q = QContext(q=qf), mp.mpf(qf)
            for _ in range(3):
                arg = mp.mpf(_draw(rng, 0.0, 6.28))
                x = _draw(rng, 0.05, 0.9) * complex(math.cos(arg), math.sin(arg))
                err = _rel(qcore.qpoch_infinite(x, ctx), _poch(mp.mpc(x), q))
                if err > POCH_RTOL:
                    errors.append(f"qpoch_infinite({x}; q={qf}) off by {err:.2e}")
                params = [_draw(rng, -0.9, 0.9), _draw(rng, -0.9, 0.9)]
                z = _draw(rng, 0.8, 1.25) * complex(math.cos(arg), math.sin(arg))
                err = _rel(qcore.h_product_z(z, params, ctx), _h(mp.mpc(z), params, q))
                if err > POCH_RTOL:
                    errors.append(f"h_product_z({z}; {params}, q={qf}) off by {err:.2e}")

        qf = (0.3, 0.5)[int(rng.integers(2))]
        a, c, n = _draw(rng, 0.6, 1.0), _draw(rng, 1.15, 1.35), int(rng.integers(4))
        thetas = np.array([_draw(rng, 0.2, 1.5), _draw(rng, 1.6, 2.9)])
        ctx, q = QContext(q=qf), mp.mpf(qf)
        label = f"K[a={a},c={c},q={qf}] h H_{n}"
        quad = apply_K(KParams(a, c), eigen_k_basis(c, n, ctx), ctx).on_theta(thetas)
        closed = apply_K_eigen(KParams(a, c), n, thetas, ctx)
        for th, got_quad, got_closed in zip(thetas, quad, closed):
            th_mp = mp.mpf(float(th))
            fine = _k_eigen_oracle(q, a, c, n, th_mp, TRAPEZOID_N)
            exact = _k_closed_oracle(q, a, c, n, th_mp)
            if _rel(fine, exact) > ORACLE_SELF_RTOL:
                errors.append(f"{label}: mpmath oracle not converged at theta={th}")
            err = _rel(got_quad, fine)
            if err > K_QUAD_RTOL:
                errors.append(f"{label}: apply_K off by {err:.2e} at theta={th}")
            err = _rel(got_closed, exact)
            if err > K_CLOSED_RTOL:
                errors.append(f"{label}: apply_K_eigen off by {err:.2e} at theta={th}")
    return errors
