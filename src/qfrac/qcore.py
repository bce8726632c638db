"""Scalar q-series primitives.

Everything here accepts complex scalars or numpy arrays and broadcasts;
results come back as numpy scalars/arrays of complex128.  The base q and
all truncation controls live in a QContext.

Every truncated infinite series in qfrac (the theta sums here, the Poisson
kernel's series form and the q-exponential in qfunctions, the bilinear
series in identities) stops by one rule, settled_sum: after three
consecutive terms past n = 4 below tol * max(|partial sum|, floor), summed
in blocks of 32, 64, ... terms up to max_terms, NonConvergent past it.

Notation used throughout the docstrings:

    (a; q)_n   = prod_{k=0}^{n-1} (1 - a q^k)          finite Pochhammer
    (a; q)_oo  = prod_{k>=0}     (1 - a q^k)           infinite Pochhammer
    (a; q)_b   = (a; q)_oo / (a q^b; q)_oo             real-index extension
    h(cos t; a_1..a_n) = prod_j (a_j e^{it}; q)_oo (a_j e^{-it}; q)_oo
"""

from __future__ import annotations

import math

import numpy as np

from .context import QContext
from .errors import DivisionNearZero, NonConvergent, SingularLowerParameter

__all__ = [
    "qpoch_finite",
    "qpoch_infinite",
    "qpoch_infinite_tail_bound",
    "qpoch_real_index",
    "euler_product",
    "h_product",
    "h_product_z",
    "h_poles",
    "settled_sum",
    "jtp_theta_series",
    "jtp_theta_logq_derivative_series",
    "bhs_terminating",
]


def _asarr(a):
    return np.asarray(a, dtype=np.complex128)


def _maybe_scalar(value, *inputs):
    """Collapse 0-d results back to python complex when all inputs were scalars."""
    if all(np.ndim(x) == 0 for x in inputs):
        return complex(value) if np.ndim(value) == 0 else complex(value[()])
    return value


def qpoch_finite(a, n: int, ctx: QContext):
    """Finite q-Pochhammer (a; q)_n = prod_{k=0}^{n-1} (1 - a q^k).

    n = 0 returns exactly 1.
    """
    if n < 0:
        raise ValueError("qpoch_finite needs n >= 0")
    av = _asarr(a)
    out = np.ones_like(av)
    qk = 1.0
    for _ in range(n):
        out = out * (1.0 - av * qk)
        qk *= ctx.q
    return _maybe_scalar(out, a)


def _trunc_count(mod_a: float, ctx: QContext) -> int:
    """Smallest N with mod_a * q^N < eps_trunc."""
    if mod_a < ctx.eps_trunc:
        return 0
    n = math.log(mod_a / ctx.eps_trunc) / math.log(1.0 / ctx.q)
    return int(math.floor(n)) + 1


def qpoch_infinite(a, ctx: QContext):
    """Infinite q-Pochhammer (a; q)_oo, truncated at the smallest N with
    |a| q^N < ctx.eps_trunc.

    The dropped tail satisfies  |tail| <= |a| q^N / ((1-q)(1 - |a| q^N))
    relative to the returned value (see qpoch_infinite_tail_bound).
    Raises NonConvergent if N would exceed ctx.max_terms.
    """
    av = _asarr(a)
    mod = float(np.max(np.abs(av))) if av.size else 0.0
    n_terms = _trunc_count(mod, ctx)
    if n_terms > ctx.max_terms:
        raise NonConvergent(
            f"(a;q)_oo needs {n_terms} factors > max_terms={ctx.max_terms}"
        )
    out = np.ones_like(av)
    scaled = av.copy()
    for _ in range(n_terms):
        out = out * (1.0 - scaled)
        scaled *= ctx.q
    return _maybe_scalar(out, a)


def qpoch_infinite_tail_bound(a, ctx: QContext) -> float:
    """Relative error bound of the truncation used by qpoch_infinite."""
    mod = float(np.max(np.abs(np.asarray(a))))
    n_terms = _trunc_count(mod, ctx)
    r = mod * ctx.q**n_terms
    return r / ((1.0 - ctx.q) * (1.0 - r))


def euler_product(ctx: QContext) -> float:
    """(q; q)_oo for the context base."""
    return float(np.real(qpoch_infinite(ctx.q, ctx)))


def qpoch_real_index(a, beta: float, ctx: QContext):
    """Real-index Pochhammer (a; q)_beta = (a; q)_oo / (a q^beta; q)_oo.

    Agrees with qpoch_finite for nonnegative integer beta.  Raises
    DivisionNearZero when the denominator is smaller than eps_trunc.
    """
    num = _asarr(qpoch_infinite(a, ctx))
    den = _asarr(qpoch_infinite(_asarr(a) * ctx.q**beta, ctx))
    if np.min(np.abs(den)) < ctx.eps_trunc:
        raise DivisionNearZero("(a q^beta; q)_oo vanishes within eps_trunc")
    return _maybe_scalar(num / den, a)


def h_product_z(z, params, ctx: QContext):
    """h in the variable z: prod_j (a_j z; q)_oo (a_j / z; q)_oo.

    On |z| = 1 with z = e^{i theta} this is h(cos theta; a_1..a_n).
    The empty parameter list gives 1.
    """
    zv = _asarr(z)
    out = np.ones_like(zv)
    for aj in params:
        out = out * _asarr(qpoch_infinite(aj * zv, ctx))
        out = out * _asarr(qpoch_infinite(aj / zv, ctx))
    return _maybe_scalar(out, z)


def h_poles(params):
    """The poles of 1/h(cos t; params) nearest the contour, as rows
    (centre, distance): e^{+-it} = 1/a_j puts them at Re t = +-|arg a_j| (0 for
    a_j > 0, pi for a_j < 0) and |Im t| = -ln|a_j|.  Zero parameters have
    none."""
    a = np.array([p for p in np.ravel(params) if p != 0], dtype=np.complex128)
    return np.stack((np.abs(np.angle(a)), -np.log(np.abs(a))), axis=-1)


def h_product(theta, params, ctx: QContext):
    """h(cos theta; a_1,...,a_n) = prod_j (a_j e^{i t}, a_j e^{-i t}; q)_oo."""
    tv = np.asarray(theta, dtype=np.float64)
    out = h_product_z(np.exp(1j * tv), params, ctx)
    return _maybe_scalar(np.asarray(out), theta)


def settled_sum(terms, tol: float, floor: float, ctx: QContext, what: str):
    """Sum of a truncated series whose terms(n), for an index array n, has
    shape (len(n),) + the shape of one term.  Returns (sum, number of terms).

    The one stopping rule of qfrac's truncated series: stop after the first
    three consecutive terms past n = 4 that each fall below
    tol * max(|partial sum through that term|, floor), maxima taken over the
    components.  terms is called on n = 0..31, 0..63, ... up to
    ctx.max_terms until the stop falls inside.  Raises NonConvergent when a
    term before the stop is not finite (terms past it may overflow), or when
    no stop comes within ctx.max_terms.
    """
    size = 32
    while True:
        size = min(size, ctx.max_terms)
        n = np.arange(size)
        with np.errstate(all="ignore"):
            t = np.asarray(terms(n), dtype=np.complex128)
            totals = np.cumsum(t, axis=0)
            scale = np.maximum(np.abs(totals).reshape(size, -1).max(axis=1), floor)
            small = (n > 4) & (np.abs(t).reshape(size, -1).max(axis=1) < tol * scale)
        stops = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
        stop = int(stops[0]) + 3 if stops.size else size
        bad = np.flatnonzero(~np.isfinite(t[:stop]).reshape(stop, -1).all(axis=1))
        if bad.size:
            raise NonConvergent(f"{what}: term {bad[0]} overflows")
        if stops.size:
            return totals[stop - 1], stop
        if size == ctx.max_terms:
            raise NonConvergent(f"{what}: stopping rule not met within max_terms")
        size *= 2


def _paired_theta_sum(zv, pair, what: str, ctx: QContext):
    """sum over m >= 0 of pair(m, q^{binom(m+1,2)}, z^{m+1}, z^{-m}), the terms
    m+1 and -m of a bilateral theta sum, settled with tolerance eps_trunc and
    floor 1.  The powers of z are running products, one rounding per step."""
    def terms(m):
        zs = np.broadcast_to(zv, m.shape + zv.shape)
        zp = np.cumprod(zs, axis=0)
        zm = np.divide.accumulate(np.concatenate((np.ones_like(zs[:1]), zs[1:])), axis=0)
        m = m.reshape(m.shape + (1,) * zv.ndim)
        return pair(m, ctx.q ** (m * (m + 1) / 2.0), zp, zm)

    return settled_sum(terms, ctx.eps_trunc, 1.0, ctx, what)[0]


def jtp_theta_series(z, ctx: QContext):
    """Bilateral theta sum  sum_{n=-oo}^{oo} q^{binom(n,2)} z^n.

    By the Jacobi triple product this equals (q, -z, -q/z; q)_oo.  Terms are
    paired as (n, 1-n), which share the exponent binom(n,2).
    """
    zv = _asarr(z)
    if np.any(zv == 0):
        raise ValueError("jtp series needs z != 0")
    out = _paired_theta_sum(zv, lambda m, w, zp, zm: w * (zp + zm), "bilateral theta series", ctx)
    return _maybe_scalar(out, z)


def jtp_theta_logq_derivative_series(z, ctx: QContext):
    """sum_k q^{binom(k,2)} z^k (k log q / 2) / (q; q)_oo.

    This is d/da of the theta sum with z -> z q^{a/2} at fixed a, the building
    block of the closed-form infinitesimal generator.  Same pairing and
    truncation policy as jtp_theta_series.
    """
    zv = _asarr(z)
    if np.any(zv == 0):
        raise ValueError("jtp derivative series needs z != 0")
    half_logq = 0.5 * math.log(ctx.q)
    out = _paired_theta_sum(zv, lambda m, w, zp, zm: w * half_logq * ((m + 1) * zp - m * zm),
                            "theta derivative series", ctx)
    return _maybe_scalar(out / euler_product(ctx), z)


def bhs_terminating(upper, lower, arg, n_max: int, ctx: QContext):
    """Terminating basic hypergeometric sum

        sum_{k=0}^{n_max} [prod_j (u_j; q)_k / prod_j (l_j; q)_k]
                          * arg^k / (q; q)_k.

    One upper parameter must equal q^{-n_max} (termination); entries of
    `upper` may be numpy arrays (broadcast, e.g. theta-dependent parameters).
    Raises SingularLowerParameter if some (l_j; q)_k vanishes for k <= n_max.

    The accumulation runs in extended precision: a q^{-n} upper parameter
    makes the terms reach q^{-n(n+1)/2}-size magnitudes that cancel down to
    an O(1) sum, which costs ~n(n+1)/2 log10(1/q) digits in the result.
    """
    if n_max < 0:
        raise ValueError("bhs_terminating needs n_max >= 0")
    scalar_uppers = [u for u in upper if np.ndim(u) == 0]
    target = ctx.q ** (-n_max)
    if not any(abs(complex(u) - target) <= 1e-8 * target for u in scalar_uppers):
        raise ValueError("no upper parameter equals q^{-n_max}: series would not terminate")

    shape = np.broadcast_shapes(*(np.shape(u) for u in upper), np.shape(arg))
    term = np.ones(shape, dtype=np.clongdouble)
    total = term.copy()
    argv = np.asarray(arg, dtype=np.clongdouble)
    q_ext = np.clongdouble(ctx.q)
    uppers = []
    for u in upper:
        # reconstruct the terminating parameter exactly in working precision
        # (its rounding error is amplified by the full cancellation)
        if np.ndim(u) == 0 and abs(complex(u) - target) <= 1e-8 * target:
            uppers.append(q_ext ** (-n_max))
        else:
            uppers.append(np.asarray(u, dtype=np.clongdouble))
    qk = np.clongdouble(1.0)
    for k in range(n_max):
        for u in uppers:
            term = term * (1.0 - u * qk)
        for l in lower:
            fac = 1.0 - np.clongdouble(complex(l)) * qk
            if abs(complex(fac)) < 1e-13:
                raise SingularLowerParameter(
                    f"lower parameter {l} hits q^-{k}: (l;q)_k vanishes"
                )
            term = term / fac
        qk = qk * q_ext
        term = term * argv / (1.0 - qk)
        total = total + term
    out = np.asarray(total, dtype=np.complex128)
    return _maybe_scalar(out, arg, *upper)
