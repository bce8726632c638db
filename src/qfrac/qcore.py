"""Scalar q-series primitives.

Everything here accepts complex scalars or numpy arrays and broadcasts;
results come back as numpy scalars/arrays of complex128.  The base q and
all truncation controls live in a QContext.

Every infinite product (a; q)_oo goes through qpoch_infinite: it multiplies
out the few factors that bring max|a| q^m down to 1/4, and sums the rest by
Euler's series in 8-21 terms at q = 0.3..0.9, truncated where the dropped
terms fall below eps_trunc relative to the value (qpoch_infinite_tail_bound).

Every truncated infinite series in qfrac (the theta sums here, the Poisson
kernel's series form and the q-exponential in qfunctions, the bilinear
series in identities) stops by one rule, settled_sum: after three
consecutive terms past n = 4 below tol * max(|partial sum|, floor), summed
in blocks of 16, 16, 32, 64, ... new terms up to max_terms, NonConvergent
past it.

Within one identity case (table_scope, opened by identities.run_identity)
the h products are computed once per exact key (stored); a call outside any
case gets a fresh store of its own.

Notation used throughout the docstrings:

    (a; q)_n   = prod_{k=0}^{n-1} (1 - a q^k)          finite Pochhammer
    (a; q)_oo  = prod_{k>=0}     (1 - a q^k)           infinite Pochhammer
    (a; q)_b   = (a; q)_oo / (a q^b; q)_oo             real-index extension
    h(cos t; a_1..a_n) = prod_j (a_j e^{it}; q)_oo (a_j e^{-it}; q)_oo
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
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
    "table_scope",
    "stored",
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


def _peel_radius(q: float) -> float:
    """|x| up to which qpoch_infinite sums (x; q)_oo as Euler's series: 1/4,
    lowered to 5(1-q)/2 for q > 0.9.  The series' terms then sum in
    magnitude to at most (-|x|; q)_oo / (|x|; q)_oo < exp(2|x|/(1-q)) <= e^5
    times the value, which bounds the digits its cancellation costs."""
    return min(0.25, 2.5 * (1.0 - q))


def _peel_count(mod_a: float, q: float) -> int:
    """Smallest m with mod_a q^m <= _peel_radius(q)."""
    r = _peel_radius(q)
    if mod_a <= r:
        return 0
    return math.ceil(math.log(mod_a / r) / math.log(1.0 / q))


def _euler_tail(x: float, n: int, q: float) -> float:
    """Bound on |sum_{k>=n} c_k x^k| / |(x; q)_oo| for 0 <= |x| = x < 1, with
    c_k = (-1)^k q^{binom(k,2)} / (q; q)_k: past n the terms fall at least by
    rho = x q^n / (1 - q^{n+1}) each, and |(x; q)_oo| >= (x; q)_oo >=
    exp(-x / ((1-q)(1-x)))."""
    if x == 0.0:
        return 0.0
    rho = x * q**n / (1.0 - q ** (n + 1))
    if rho >= 1.0:
        return math.inf
    c_n = q ** (n * (n - 1) / 2.0) / math.prod(1.0 - q**k for k in range(1, n + 1))
    return c_n * x**n / ((1.0 - rho) * math.exp(-x / ((1.0 - q) * (1.0 - x))))


@functools.lru_cache(maxsize=64)
def _euler_coefficients(q: float, eps_trunc: float) -> tuple:
    """c_0..c_{N-1} of Euler's series (x; q)_oo = sum_k c_k x^k, with N the
    smallest count whose tail bound at |x| = _peel_radius(q) is below
    eps_trunc.  Built on first use for each (q, eps_trunc)."""
    r = _peel_radius(q)
    n = 1
    while _euler_tail(r, n, q) >= eps_trunc:
        n += 1
    coeffs = [1.0]
    for k in range(1, n):
        coeffs.append(-coeffs[-1] * q ** (k - 1) / (1.0 - q**k))
    return tuple(coeffs)


def qpoch_infinite(a, ctx: QContext):
    """Infinite q-Pochhammer (a; q)_oo.

    With m the fewest factors that bring max|a| q^m to _peel_radius(q) (1/4
    for q <= 0.9), (a; q)_oo = (a; q)_m (a q^m; q)_oo: the m factors are
    multiplied out, and the tail by Euler's identity
    (x; q)_oo = sum_k (-1)^k q^{binom(k,2)} x^k / (q; q)_k (Gasper & Rahman,
    Basic Hypergeometric Series, 1.3), summed by Horner over the first N
    coefficients, N the fewest whose dropped terms at |x| = _peel_radius(q)
    stay below ctx.eps_trunc relative to the value (qpoch_infinite_tail_bound;
    N = 8, 9, 12, 21 at q = 0.3, 0.5, 0.7, 0.9 for eps_trunc = 1e-15).  The
    coefficients are built once per (q, eps_trunc).  Raises NonConvergent if
    m + N would exceed ctx.max_terms.
    """
    av = _asarr(a)
    mod = float(np.max(np.abs(av))) if av.size else 0.0
    q = ctx.q
    m = _peel_count(mod, q)
    coeffs = _euler_coefficients(q, ctx.eps_trunc)
    if m + len(coeffs) > ctx.max_terms:
        raise NonConvergent(
            f"(a;q)_oo needs {m} factors and {len(coeffs)} series terms > max_terms={ctx.max_terms}"
        )
    out = np.ones_like(av)
    x = av.copy()
    for _ in range(m):
        out *= 1.0 - x
        x *= q
    tail = np.full_like(av, coeffs[-1])
    for c in coeffs[-2::-1]:
        tail *= x
        tail += c
    out *= tail
    return _maybe_scalar(out, a)


def qpoch_infinite_tail_bound(a, ctx: QContext) -> float:
    """Relative error bound of the Euler-series truncation used by
    qpoch_infinite: the dropped terms over |(x; q)_oo| at x = max|a| q^m
    (_euler_tail), at most ctx.eps_trunc."""
    mod = float(np.max(np.abs(np.asarray(a))))
    x = mod * ctx.q ** _peel_count(mod, ctx.q)
    return _euler_tail(x, len(_euler_coefficients(ctx.q, ctx.eps_trunc)), ctx.q)


@functools.lru_cache(maxsize=64)
def euler_product(ctx: QContext) -> float:
    """(q; q)_oo for the context base, computed once per context."""
    return float(np.real(qpoch_infinite(ctx.q, ctx)))


def qpoch_real_index(a, beta: float, ctx: QContext):
    """Real-index Pochhammer (a; q)_beta = (a; q)_oo / (a q^beta; q)_oo.

    Agrees with qpoch_finite for nonnegative integer beta.  Raises
    DivisionNearZero when the denominator is smaller than eps_trunc.
    """
    av = _asarr(a)
    num, den = qpoch_infinite(np.stack((av, av * ctx.q**beta)), ctx)
    if np.min(np.abs(den)) < ctx.eps_trunc:
        raise DivisionNearZero("(a q^beta; q)_oo vanishes within eps_trunc")
    return _maybe_scalar(num / den, a)


_TABLES = contextvars.ContextVar("qfrac_tables", default=None)


@contextlib.contextmanager
def table_scope():
    """Open one table store for the calls made inside the block: stored
    keeps its values there, and the store is dropped when the block returns
    or raises.  identities.run_identity opens one per identity case."""
    token = _TABLES.set({})
    try:
        yield
    finally:
        _TABLES.reset(token)


def stored(key, compute):
    """compute(), kept in the open table store under key, a hashable exact
    key, and returned from it to every later call with an equal key.  A
    stored array is read-only.  A call outside any table_scope gets a fresh
    store of its own, so nothing is reused there."""
    store = _TABLES.get()
    if store is None:
        store = {}
    if key not in store:
        value = compute()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        store[key] = value
    return store[key]


def h_product_z(z, params, ctx: QContext):
    """h in the variable z: prod_j (a_j z; q)_oo (a_j / z; q)_oo, all 2n
    products in one qpoch_infinite call, stored per (z, params, ctx) within
    an identity case (read-only).

    On |z| = 1 with z = e^{i theta} this is h(cos theta; a_1..a_n).
    The empty parameter list gives 1.
    """
    zv = _asarr(z)
    if len(params) == 0:
        return _maybe_scalar(np.ones_like(zv), z)

    def product():
        args = np.stack([w for aj in params for w in (aj * zv, aj / zv)])
        return _maybe_scalar(np.prod(qpoch_infinite(args, ctx), axis=0), z)

    pv = np.asarray(params)  # exact key: the bytes of the points and of the parameters
    return stored(("h_product_z", zv.shape, zv.tobytes(), pv.dtype.str, pv.tobytes(), ctx),
                  product)


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
    components.  terms is called on consecutive blocks n = 0..15, 16..31,
    32..63, ..., each once and in order, up to ctx.max_terms, until the stop
    falls inside, so a series that stops at n evaluates at most 2n terms
    (the first possible stop is n = 8).  Raises NonConvergent when a term
    before the stop is not finite (terms past it may overflow), or when no
    stop comes within ctx.max_terms.
    """
    t = np.empty((0,), dtype=np.complex128)
    size = 16
    while True:
        size = min(size, ctx.max_terms)
        with np.errstate(all="ignore"):
            block = np.asarray(terms(np.arange(len(t), size)), dtype=np.complex128)
            t = np.concatenate((t.reshape((-1,) + block.shape[1:]), block))
            totals = np.cumsum(t, axis=0)
            scale = np.maximum(np.abs(totals).reshape(size, -1).max(axis=1), floor)
            small = (np.arange(size) > 4) & (np.abs(t).reshape(size, -1).max(axis=1) < tol * scale)
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
    floor 1.  The powers of z are running products from m = 0, one rounding
    per step."""
    def terms(m):
        zs = np.broadcast_to(zv, (m[-1] + 1,) + zv.shape)
        zp = np.cumprod(zs, axis=0)[m]
        zm = np.divide.accumulate(np.concatenate((np.ones_like(zs[:1]), zs[1:])), axis=0)[m]
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
