"""Invariant battery for the scalar kernels and the quadrature engine.

Runs the module-level invariants (Pochhammer identities, h-product and
Poisson kernel positivity, generating function, Askey-Wilson orthogonality,
quadrature exactness, determinism and refinement) and the registry's
foundation cases I0a-I0d at q in {0.3, 0.5, 0.7}, in under a minute, and
reports one line per check.  This is what `qfrac selftest` executes.
"""

from __future__ import annotations

import math

import numpy as np

from .context import QContext
from .errors import QFracError
from .identities import REGISTRY, IdentityCase, run_case
from .qcore import (
    h_poles,
    h_product,
    qpoch_finite,
    qpoch_infinite,
    qpoch_real_index,
)
from .qfunctions import (
    AWParams,
    aw_norm_Mn,
    aw_polynomial_all,
    aw_weight,
    hermite_cq_all,
    poisson_kernel,
    theta_grid,
)
from .quadrature import converged_value, integrate_theta

_CHECKS = []


def _check(name):
    def deco(fn):
        _CHECKS.append((name, fn))
        return fn

    return deco


def _registry_check(name, case_id, *extras):
    """A check that runs the registry case case_id at q in {0.3, 0.5, 0.7},
    once per parameter map in extras, against the registry's tolerance."""

    def check():
        worst = 0.0
        for q in (0.3, 0.5, 0.7):
            for extra in extras or ({},):
                rep = run_case(IdentityCase(case_id, {"q": q, **extra}))
                worst = max(worst, rep.residual.max_rel if rep.residual else math.inf)
        return worst, REGISTRY[case_id].tol

    _CHECKS.append((name, check))


def _rel(a, b):
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


@_check("pochhammer splitting (a;q)_{m+n} = (a;q)_m (a q^m;q)_n")
def _c_split():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for q in (0.3, 0.5, 0.7):
        ctx = QContext(q=q)
        for _ in range(25):
            a = complex(*rng.uniform(-0.9, 0.9, 2)) * 0.7
            m, n = rng.integers(0, 11, 2)
            lhs = qpoch_finite(a, int(m + n), ctx)
            rhs = qpoch_finite(a, int(m), ctx) * qpoch_finite(a * q ** int(m), int(n), ctx)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    return worst, 1e-13


@_check("limit consistency (a;q)_oo = (a;q)_N (a q^N;q)_oo")
def _c_limit():
    rng = np.random.default_rng(7)
    worst = 0.0
    for q in (0.3, 0.5, 0.7):
        ctx = QContext(q=q)
        for _ in range(20):
            a = complex(*rng.uniform(-0.9, 0.9, 2))
            n = int(rng.integers(0, 21))
            lhs = qpoch_infinite(a, ctx)
            rhs = qpoch_finite(a, n, ctx) * qpoch_infinite(a * q**n, ctx)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    return worst, 1e-12


@_check("real-index reduction (a;q)_n == finite product")
def _c_realindex():
    worst = 0.0
    for q in (0.3, 0.5, 0.7):
        ctx = QContext(q=q)
        for n in (0, 1, 3, 7):
            for a in (0.3, -0.55, 0.2 + 0.4j):
                worst = max(worst, _rel(qpoch_real_index(a, n, ctx),
                                        qpoch_finite(a, n, ctx)))
    return worst, 1e-12


_registry_check("Jacobi triple product (I0d)", "I0d")


@_check("h-product positivity for real |a_j| < 1")
def _c_hpos():
    rng = np.random.default_rng(99)
    ctx = QContext(q=0.5)
    worst = 1.0
    for _ in range(30):
        params = rng.uniform(-0.95, 0.95, 3)
        th = rng.uniform(0.05, np.pi - 0.05)
        val = h_product(th, list(params), ctx)
        worst = min(worst, float(np.real(val)))
    return (0.0 if worst > 0 else 1.0), 0.5


_registry_check("q-Hermite orthogonality, m,n <= 8 (I0a)", "I0a")


@_check("generating function sum H_n t^n/(q;q)_n == 1/(t e^{it},t e^{-it};q)_oo")
def _c_genfun():
    worst = 0.0
    for q in (0.3, 0.5, 0.7):
        ctx = QContext(q=q)
        for t in (0.5, -0.4):
            for th in theta_grid(7):
                H = hermite_cq_all(120, np.cos(th), ctx)
                coeff, total = 1.0, 0.0
                for n in range(121):
                    total += coeff * float(np.real(H[n]))
                    coeff *= t / (1.0 - q ** (n + 1))
                z = np.exp(1j * th)
                rhs = 1.0 / (qpoch_infinite(t * z, ctx) * qpoch_infinite(t / z, ctx))
                worst = max(worst, abs(total - rhs) / abs(rhs))
    return worst, 1e-10


_registry_check("Askey-Wilson integral, |a_j| <= 0.6 (I0c)", "I0c")


@_check("AW orthogonality m,n <= 4 vs closed-form M_n")
def _c_aworth():
    ctx = QContext(q=0.5)
    t = AWParams(0.3, 0.2, 0.1, 0.05)
    pairs = [(m, n) for m in range(5) for n in range(m, 5)]

    def igr(phis):
        P = aw_polynomial_all(4, np.cos(phis), t, ctx)
        w = aw_weight(phis, t, ctx)
        return np.stack([w * P[m] * P[n] for (m, n) in pairs], axis=1)

    res = integrate_theta(igr, ctx, strip=math.inf, poles=h_poles(t.as_tuple()))
    gram = np.atleast_1d(converged_value(res, "AW orthogonality Gram matrix"))
    mn = aw_norm_Mn(np.arange(5), t, ctx)
    want = np.array([mn[n] if m == n else 0.0 for (m, n) in pairs])
    return float(np.max(np.abs(gram - want))) / mn[0], 1e-8


_registry_check("Poisson kernel series == product form, t = 0.4, -0.35 (I0b)", "I0b",
                {"t": 0.4}, {"t": -0.35})


@_check("Poisson kernel positivity for t > 0")
def _c_poisson_positive():
    worst = 0.0
    for q in (0.3, 0.5, 0.7):
        ctx = QContext(q=q)
        for (th, ph) in ((np.pi / 3, np.pi / 4), (1.1, 2.0)):
            if np.real(poisson_kernel(th, ph, 0.4, ctx, form="product")) <= 0:
                worst = 1.0
    return worst, 0.5


@_check("quadrature exactness: degree <= 13 polynomials in cos phi")
def _c_exact():
    ctx = QContext(q=0.5)
    worst = 0.0
    for deg in (5, 9, 13):
        coeffs = np.arange(1, deg + 2, dtype=float)

        def igr(phis, coeffs=coeffs):
            return np.polyval(coeffs, np.cos(phis))

        got = complex(converged_value(integrate_theta(igr, ctx, strip=math.inf), f"degree {deg}"))
        nodes, wts = np.polynomial.legendre.leggauss(40)
        want = float(np.sum(wts * np.polyval(coeffs, np.cos(0.5 * np.pi * (nodes + 1)))) * 0.5 * np.pi)
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    return worst, 1e-12


@_check("quadrature determinism: identical bits on repeat")
def _c_determinism():
    ctx = QContext(q=0.5)

    def igr(phis):
        return np.sin(phis) * np.exp(np.cos(phis))

    a = integrate_theta(igr, ctx)
    b = integrate_theta(igr, ctx)
    same = (a.value == b.value) and (a.err_est == b.err_est) and (a.evals == b.evals)
    return (0.0 if same else 1.0), 0.5


@_check("quadrature refinement monotonicity under tolerance halving")
def _c_monotone():
    def igr(phis):
        return 1.0 / (0.002 + (phis - 1.1) ** 2)

    vals = []
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        ctx = QContext(q=0.5, quad_rel_tol=tol)
        vals.append(complex(converged_value(integrate_theta(igr, ctx), f"tol {tol}")).real)
    ref = vals[-1]  # tightest run as reference
    diffs = [abs(v - ref) for v in vals[:-1]]
    ok = all(d1 >= d2 or d1 < 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
    return (0.0 if ok else 1.0), 0.5


def run_selftest(verbose: bool = False) -> bool:
    all_ok = True
    for name, fn in _CHECKS:
        try:
            worst, tol = fn()
        except QFracError as exc:  # a numerical breakdown fails its check
            worst, tol, name = math.inf, 0.0, f"{name}: {type(exc).__name__}: {exc}"
        ok = worst <= tol
        all_ok = all_ok and ok
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}  (worst {worst:.3e}, tol {tol:.0e})")
    return all_ok
