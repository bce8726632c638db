"""Polynomial families, weights and q-exponentials.

Continuous q-Hermite polynomials H_n(x|q) and their weight, the Poisson
kernel in both series and product form, the four-parameter Askey-Wilson
polynomials p_n(x; t1,t2,t3,t4) with weight and normalization constants, the
three q-monomial bases, and the q-exponential.

poisson_factors is the integrand of every Poisson-kernel integral (the
operators' and the bilinear kernels' coupling integrals): per evaluation, the
node factor w_H sin phi h(.; num) / h(.; den) and the product-form kernel
from one qpoch_infinite call.  poisson_kernel_z, the vectorized product
form, is its kernel alone.

All grids are theta-grids on [0, pi]; integrals always fold the sin(theta)
Jacobian into the integrand before quadrature so no endpoint singularity
survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .errors import DomainError, DivisionNearZero, PoleOnContour, SingularLowerParameter
from .qcore import (
    bhs_terminating,
    euler_product,
    h_product_z,
    qpoch_finite,
    qpoch_infinite,
    settled_sum,
)

__all__ = [
    "ThetaPoint",
    "AWParams",
    "theta_grid",
    "hermite_cq",
    "hermite_cq_all",
    "weight_wH",
    "weight_wH_sin",
    "poisson_kernel",
    "poisson_factors",
    "poisson_kernel_z",
    "aw_polynomial",
    "aw_polynomial_all",
    "aw_polynomial_x",
    "aw_polynomial_series",
    "aw_weight",
    "aw_norm_Mn",
    "basis_phi_quarter",
    "basis_rho",
    "basis_phi_a",
    "q_exponential",
    "q_exponential_x",
    "q_exponential_direct",
]


@dataclass(frozen=True)
class ThetaPoint:
    """A point on the orthogonality interval parameterized by theta."""

    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise DomainError("theta must lie in [0, pi]")

    @property
    def x(self) -> float:
        return math.cos(self.theta)

    @property
    def z(self) -> complex:
        return complex(math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class AWParams:
    """Askey-Wilson parameter quadruple (t1, t2, t3, t4)."""

    t1: complex
    t2: complex
    t3: complex
    t4: complex

    def as_tuple(self):
        return (self.t1, self.t2, self.t3, self.t4)

    def validate(self, ctx: QContext, n_max: int = 64) -> None:
        """Reject quadruples whose pairwise products hit q^{-m} (these are
        zeros of the normalization denominators)."""
        ts = self.as_tuple()
        for j in range(4):
            for k in range(j + 1, 4):
                p = complex(ts[j] * ts[k])
                for m in range(n_max):
                    if abs(p * ctx.q**m - 1.0) < 1e-10:
                        raise PoleOnContour(
                            f"t{j+1}*t{k+1} = q^-{m} vanishes a normalization factor"
                        )
                    if abs(p) * ctx.q**m < 0.5:
                        break


def theta_grid(n: int = 17) -> np.ndarray:
    """n Chebyshev-spaced points in the open interval (0, pi)."""
    j = np.arange(n)
    return (2 * j + 1) * np.pi / (2 * n)


def hermite_cq_all(n: int, x, ctx: QContext, head=None) -> np.ndarray:
    """H_0..H_n at x in one recurrence pass; shape (n+1,) + shape(x).

    H_0 = 1, H_1 = 2x, 2x H_k = H_{k+1} + (1 - q^k) H_{k-1}.  head, the rows
    H_0..H_m of an earlier call at the same x, is continued, not recomputed.
    """
    xv = np.asarray(x, dtype=np.complex128)
    out = np.empty((n + 1,) + xv.shape, dtype=np.complex128)
    out[0] = 1.0
    if n >= 1:
        out[1] = 2.0 * xv
    known = 2
    if head is not None:
        known = min(len(head), n + 1)
        out[:known] = head[:known]
    qk = 1.0
    for k in range(1, n):
        qk *= ctx.q
        if k + 1 >= known:
            out[k + 1] = 2.0 * xv * out[k] - (1.0 - qk) * out[k - 1]
    return out


def _tn_over_qn(t, m: int, ctx: QContext) -> np.ndarray:
    """t^n / (q; q)_n for n = 0..m, as running products."""
    return np.cumprod(np.concatenate(([1.0], t / (1.0 - np.cumprod(np.full(m, ctx.q))))))


def hermite_cq(n: int, x, ctx: QContext):
    """Continuous q-Hermite polynomial H_n(x|q) by the three-term recurrence."""
    val = hermite_cq_all(n, x, ctx)[n]
    return complex(val) if np.ndim(x) == 0 else val


def weight_wH_sin(theta, ctx: QContext):
    """w_H(cos t|q) sin t = (q; q)_oo (e^{2it}; q)_oo (e^{-2it}; q)_oo / (2 pi).

    This is the form every integrand uses: the sin(theta) Jacobian of
    x = cos(theta) cancels the 1/sqrt(1-x^2) of the weight, and the
    (e^{+-2it}; q)_oo pair vanishes like sin^2 at the endpoints, so the
    product extends continuously by 0 to theta in {0, pi}.
    """
    out = euler_product(ctx) * _edge_pair(np.asarray(theta, dtype=np.float64), ctx) / (2.0 * np.pi)
    return float(out) if np.ndim(theta) == 0 else out


def _edge_pair(tv, ctx: QContext):
    """(e^{2it}, e^{-2it}; q)_oo for real t: a conjugate pair, |(e^{2it}; q)_oo|^2."""
    p = np.asarray(qpoch_infinite(np.exp(2j * tv), ctx))
    return p.real**2 + p.imag**2


def weight_wH(theta, ctx: QContext):
    """Normalized q-Hermite weight w_H(cos t|q); positive on (0, pi).

    Raises DomainError at the endpoints, where only the sin-folded form
    weight_wH_sin is finite.
    """
    tv = np.asarray(theta, dtype=np.float64)
    if np.any(tv <= 0.0) or np.any(tv >= np.pi):
        raise DomainError("w_H is singular at theta in {0, pi}; use weight_wH_sin")
    out = weight_wH_sin(tv, ctx) / np.sin(tv)
    return float(out) if np.ndim(theta) == 0 else out


def poisson_kernel(theta, phi, t, ctx: QContext, form: str = "product"):
    """Poisson kernel of the continuous q-Hermite polynomials, theta
    broadcast against phi (scalar angles give a complex).

    form="series":  sum_n H_n(cos theta) H_n(cos phi) t^n / (q; q)_n, one
                    settled_sum over every pair
    form="product": (t^2; q)_oo / prod (t e^{+-i(theta +- phi)}; q)_oo

    Requires |t| < 1; positive for real angles and 0 < t < 1.
    """
    if abs(t) >= 1.0:
        raise DomainError("poisson_kernel needs |t| < 1")
    shape = np.broadcast(theta, phi).shape
    th, ph = (np.broadcast_to(a, shape).ravel() for a in (theta, phi))
    if form == "product":
        val = poisson_kernel_z(np.exp(1j * ph)[None, :], np.exp(1j * th), t, ctx)[0]
    elif form == "series":
        x, h = np.cos([th, ph]), None

        def terms(n):
            nonlocal h
            h = hermite_cq_all(n[-1], x, ctx, head=h)
            return _tn_over_qn(t, n[-1], ctx)[n, None] * h[n, 0] * h[n, 1]

        val = settled_sum(terms, ctx.eps_trunc, 1.0, ctx, "poisson series")[0]
    else:
        raise ValueError("form must be 'series' or 'product'")
    return val.reshape(shape) if shape else complex(val[0])


def _on_unit_circle(w) -> bool:
    """Every |w| = 1 to rounding (e^{i phi} of a real phi), not merely near it."""
    return bool(np.all(np.abs(np.abs(w) - 1.0) <= 4.0 * np.finfo(float).eps))


def poisson_factors(z, t, num, den, ctx: QContext):
    """The factors of a q-Hermite Poisson-kernel integrand, for one integral
    over the points z.  Returns factors(zeta) -> (node, kernel) for nodes
    zeta = e^{i phi}, of shape (m,) shared by every z or (m, len(z)) with
    column k holding the nodes of z_k:

        node   = w_H(cos phi) sin phi h(cos phi; num) / h(cos phi; den),
                 of shape (m, 1) or (m, len(z));
        kernel = (t^2; q)_oo / (t zeta z, t z/zeta, t zeta/z, t/(zeta z); q)_oo,
                 the (m, len(z)) matrix; on |z| = 1, z = e^{i theta}, this is
                 poisson_kernel(theta, phi, t).

    Every product of one evaluation, (t^2; q)_oo included, comes from one
    qpoch_infinite call on the concatenated arguments, so they share one
    truncation, set by the largest modulus among them; the edge pair's first
    factor 1 - e^{2i phi} is taken out, so its modulus 1 does not set it.
    The constants of the integral, (q; q)_oo / 2pi, t z and t/z, are
    computed here, once; an empty z gives the node factor alone.

    Conjugate products are taken as |.|^2: in node, for real phi, the edge
    pair (e^{2i phi}, e^{-2i phi}; q)_oo and the (alpha zeta, alpha/zeta; q)_oo
    of h for real alpha (complex alpha keeps both); in kernel, for real t
    with zeta and z on the unit circle, the denominator
    |(t zeta z, t zeta/z; q)_oo|^2.  Off the circle (D_q's |z| = q^{+-1/2},
    the Richardson points z(1 +- delta)) the kernel takes all four products.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))[None, :]
    # t rides on the per-z factors so each argument takes one rounding per
    # node: near phi = theta the factor 1 - t zeta/z cancels, and any further
    # rounding there moves the last bits of every integral of the kernel
    tz, t_z = t * z, t / z
    t2 = np.full(1 if z.size else 0, t * t, dtype=np.complex128)
    kernel_pairs = np.imag(t) == 0 and _on_unit_circle(z)
    params = list(num) + list(den)
    lone = [j + 1 for j, a in enumerate(params) if np.imag(a) != 0]  # rows of complex alpha
    num_rows, den_rows = range(1, 1 + len(num)), range(1 + len(num), 1 + len(params))
    wconst = euler_product(ctx) / (2.0 * np.pi)

    def factors(zeta):
        zeta = np.atleast_1d(np.asarray(zeta, dtype=np.complex128))
        zeta = zeta.reshape(len(zeta), -1)
        e2 = zeta * zeta
        # rows: q e^{2i phi}, alpha zeta for every alpha, alpha / zeta for
        # complex alpha, then the kernel's pairs or its four products, then t^2
        args = [ctx.q * e2] + [a * zeta for a in params] + [params[j - 1] / zeta for j in lone]
        if kernel_pairs and _on_unit_circle(zeta):
            kern = [zeta * tz, zeta * t_z]
        else:
            inv = 1.0 / zeta
            kern = [zeta * tz, inv * tz, zeta * t_z, inv * t_z]
        p = qpoch_infinite(np.concatenate([w.ravel() for w in args + kern + [t2]]), ctx)
        knum = p[-1] if z.size else 1.0
        pn = p[:len(args) * zeta.size].reshape((len(args),) + zeta.shape)
        pk = p[len(args) * zeta.size:p.size - t2.size].reshape((len(kern),) + kern[0].shape)
        h = pn[:1 + len(params)]
        h = h.real**2 + h.imag**2
        if lone:
            h = h.astype(np.complex128)
            h[lone] = pn[lone] * pn[1 + len(params):]
        edge = 1.0 - e2
        node = wconst * (edge.real**2 + edge.imag**2) * h[0]
        for j in num_rows:
            node = node * h[j]
        for j in den_rows:
            node = node / h[j]
        if len(pk) == 2:
            pair = pk[0] * pk[1]
            return node, knum / (pair.real**2 + pair.imag**2)
        return node, knum / np.prod(pk, axis=0)

    return factors


def poisson_kernel_z(zeta, z, t, ctx: QContext) -> np.ndarray:
    """The product-form Poisson kernel of poisson_factors, as the
    (len(zeta), len(z)) matrix; zeta is one node array for every z, or an
    (m, len(z)) array whose column k holds the nodes of z_k."""
    return poisson_factors(z, t, (), (), ctx)(zeta)[1]


def aw_polynomial_all(n: int, x, t: AWParams, ctx: QContext, head=None) -> np.ndarray:
    """p_0..p_n at arbitrary (possibly complex) x in one pass of the three-term
    recurrence; shape (n+1,) + shape(x).

    p_n is symmetric in t1..t4, so the parameter of largest modulus leads the
    recurrence and its scale, the running product (t1 t2, t1 t3, t1 t4; q)_m t1^{-m}
    (a small lead would cancel against its own 1/t1 in every step and its
    t1^{-m}).  All four 0 is the continuous q-Hermite limit H_m(x|q).  head,
    the rows p_0..p_m of an earlier call at the same x and t, is continued
    from its last two rows, divided by their scale, not recomputed."""
    a, b, c, d = sorted(t.as_tuple(), key=abs, reverse=True)
    xv = np.asarray(x, dtype=np.complex128)
    if a == 0:
        return hermite_cq_all(n, xv, ctx, head=head)
    q, T = ctx.q, a * b * c * d
    qm = q ** np.arange(n)
    step = (1 - a * b * qm) * (1 - a * c * qm) * (1 - a * d * qm) / a  # scale_{m+1} / scale_m
    A = step * (1 - T * qm / q) / ((1 - T * qm * qm / q) * (1 - T * qm * qm))
    C = (a * (1 - qm) * (1 - b * c * qm / q) * (1 - b * d * qm / q) * (1 - c * d * qm / q)
         / ((1 - T * qm * qm / (q * q)) * (1 - T * qm * qm / q)))
    scale = np.concatenate(([1.0], np.cumprod(step))).tolist()
    out = np.empty((n + 1,) + xv.shape, dtype=np.complex128)
    out[0], known = 1.0, 1
    if head is not None:
        known = min(len(head), n + 1)
        out[:known] = head[:known]
    p = out[known - 1] / scale[known - 1]  # the rows without their scale
    p_prev = out[known - 2] / scale[known - 2] if known > 1 else 0.0
    x2, A, B, C = 2 * xv, A.tolist(), (A + C - a - 1 / a).tolist(), C.tolist()
    for k in range(known - 1, n):
        p, p_prev = ((x2 + B[k]) * p - C[k] * p_prev) / A[k], p
        out[k + 1] = p * scale[k + 1]
    return out


def aw_polynomial_x(n: int, x, t: AWParams, ctx: QContext):
    """p_n at arbitrary (possibly complex) x: the last row of aw_polynomial_all."""
    out = aw_polynomial_all(n, x, t, ctx)[n]
    return complex(out) if np.ndim(x) == 0 else out


def aw_polynomial(n: int, theta, t: AWParams, ctx: QContext):
    """Askey-Wilson polynomial p_n(cos theta; t1, t2, t3, t4).

    Normalization: p_n = (t1 t2, t1 t3, t1 t4; q)_n t1^{-n} * 4phi3(q,q),
    evaluated through the stable three-term recurrence (the terminating
    series form is kept in aw_polynomial_series as the cross-check route).
    Real for real theta and real parameters; degree n in x.
    """
    out = aw_polynomial_x(n, np.cos(np.asarray(theta, dtype=np.float64)), t, ctx)
    return complex(out) if np.ndim(theta) == 0 else out


def aw_polynomial_series(n: int, theta, t: AWParams, ctx: QContext):
    """p_n via the terminating 4phi3 sum (reference route for small n)."""
    a = complex(t.t1)
    if a == 0:
        raise DomainError("aw_polynomial needs t1 != 0")
    lowers = [a * t.t2, a * t.t3, a * t.t4]
    for l in lowers:
        for k in range(n):
            if abs(complex(l) - ctx.q ** (-k)) < 1e-12:
                raise SingularLowerParameter(f"t1*t_j = q^-{k}")
    z = np.exp(1j * np.asarray(theta, dtype=np.float64))
    T = a * t.t2 * t.t3 * t.t4
    uppers = [ctx.q ** (-n), T * ctx.q ** (n - 1), a * z, a / z]
    series = bhs_terminating(uppers, lowers, ctx.q, n, ctx)
    scale = (qpoch_finite(lowers[0], n, ctx) * qpoch_finite(lowers[1], n, ctx)
             * qpoch_finite(lowers[2], n, ctx)) * a ** (-n)
    out = scale * np.asarray(series)
    return complex(out) if np.ndim(theta) == 0 else out


def aw_weight(theta, t: AWParams, ctx: QContext):
    """Askey-Wilson weight w(cos t; t1..t4) =
    (e^{2it}, e^{-2it}; q)_oo / prod_j (t_j e^{it}, t_j e^{-it}; q)_oo.

    Nonnegative on (0, pi) for real parameters with all |t_j| < 1; raises
    PoleOnContour otherwise.  Orthogonality holds in d(theta) directly (no
    Jacobian: the numerator already vanishes at the endpoints).
    """
    for j, tj in enumerate(t.as_tuple()):
        if abs(tj) >= 1.0:
            raise PoleOnContour(f"|t{j+1}| >= 1 puts a pole on the contour")
    tv = np.asarray(theta, dtype=np.float64)
    out = np.real(_edge_pair(tv, ctx) / h_product_z(np.exp(1j * tv), t.as_tuple(), ctx))
    return float(out) if np.ndim(theta) == 0 else out


def aw_norm_Mn(n, t: AWParams, ctx: QContext):
    """Closed-form L2 norm M_n of p_n against aw_weight:

        M_n = 2 pi (T q^{2n}; q)_oo (T q^{n-1}; q)_n
              / [ (q^{n+1}; q)_oo  prod_{j<k} (t_j t_k q^n; q)_oo ],
        T = t1 t2 t3 t4,

    for an integer n or an integer array of n, with the eight infinite
    products in one qpoch_infinite call.  Raises DivisionNearZero if the
    denominator vanishes at any n.
    """
    ts = t.as_tuple()
    T = ts[0] * ts[1] * ts[2] * ts[3]
    nv = np.asarray(n)
    qn = ctx.q**nv
    # (T q^{n-1}; q)_n as a product over k < max(n), masked to k < n
    m = np.arange(int(np.max(nv, initial=0)))
    fin = np.prod(np.where(m < nv[..., None], 1.0 - (T * qn / ctx.q)[..., None] * ctx.q**m, 1.0),
                  axis=-1)
    pairs = [ts[j] * ts[k] * qn for j in range(4) for k in range(j + 1, 4)]
    prods = qpoch_infinite(np.stack(np.broadcast_arrays(T * qn * qn, ctx.q * qn, *pairs)), ctx)
    num = 2.0 * np.pi * prods[0] * fin
    den = prods[1] * np.prod(prods[2:], axis=0)
    if np.any(np.abs(den) < ctx.eps_trunc):
        raise DivisionNearZero("vanishing normalization denominator in M_n")
    val = num / den
    if np.all(np.abs(val.imag) < 1e-10 * np.maximum(np.abs(val), 1.0)):
        val = val.real
    return val.item() if val.ndim == 0 else val


def basis_phi_quarter(n: int, theta, ctx: QContext):
    """phi_n(x) = (q^{1/4} e^{it}, q^{1/4} e^{-it}; q^{1/2})_n
               = prod_{k<n} [1 - 2 x q^{1/4 + k/2} + q^{1/2 + k}]."""
    x = np.cos(np.asarray(theta, dtype=np.float64))
    out = np.ones_like(x, dtype=np.complex128)
    rq = math.sqrt(ctx.q)
    base = ctx.q**0.25
    for k in range(n):
        out = out * (1.0 - 2.0 * x * base + base * base)
        base *= rq
    out = np.real(out)
    return float(out) if np.ndim(theta) == 0 else out


def basis_rho(n: int, theta, ctx: QContext):
    """rho_n(x) = (1 + e^{2it}) e^{-int} (-q^{2-n} e^{2it}; q^2)_{n-1} for n > 0,
    rho_0 = 1.  Real-valued trigonometric polynomial of degree n in x."""
    tv = np.asarray(theta, dtype=np.float64)
    if n == 0:
        out = np.ones_like(tv)
        return float(out) if np.ndim(theta) == 0 else out
    z2 = np.exp(2j * tv)
    out = (1.0 + z2) * np.exp(-1j * n * tv)
    arg = ctx.q ** (2 - n)
    for _ in range(n - 1):
        out = out * (1.0 + arg * z2)
        arg *= ctx.q * ctx.q
    out = np.real(out)
    return float(out) if np.ndim(theta) == 0 else out


def basis_phi_a(a, nu, theta, ctx: QContext):
    """phi_nu(x; a) = (a e^{it}; q)_nu (a e^{-it}; q)_nu.

    Integer nu uses the finite product prod_{k<nu} [1 - 2 a x q^k + a^2 q^{2k}];
    real nu uses the real-index extension h(x; a) / h(x; a q^nu), which needs
    |a| < 1 and |a q^nu| < 1.
    """
    tv = np.asarray(theta, dtype=np.float64)
    z = np.exp(1j * tv)
    if float(nu) == int(nu) and nu >= 0:
        k = int(nu)
        out = np.asarray(qpoch_finite(a * z, k, ctx)) * np.asarray(qpoch_finite(a / z, k, ctx))
        return complex(out) if np.ndim(theta) == 0 else out
    if abs(a) >= 1.0 or abs(a) * ctx.q ** float(nu) >= 1.0:
        raise DomainError("real-index basis_phi_a needs |a| < 1 and |a q^nu| < 1")
    num = h_product_z(z, [a], ctx)
    den = h_product_z(z, [a * ctx.q ** float(nu)], ctx)
    den_abs = np.min(np.abs(np.asarray(den)))
    if den_abs < ctx.eps_trunc:
        raise DivisionNearZero("h(x; a q^nu) vanishes within eps_trunc")
    out = np.asarray(num) / np.asarray(den)
    return complex(out) if np.ndim(theta) == 0 else out


def q_exponential(theta, tval, ctx: QContext):
    """q-exponential E_q(cos t; tval) via its q-Hermite expansion

        E_q(x; t) = [ sum_n q^{n^2/4} t^n H_n(x|q) / (q; q)_n ] / (q t^2; q^2)_oo.

    The double-product definition is kept in q_exponential_direct as the
    cross-check route.  Needs |tval| < 1.
    """
    out = q_exponential_x(np.cos(np.asarray(theta, dtype=np.float64)), tval, ctx)
    return complex(out) if np.ndim(theta) == 0 else out


def q_exponential_x(x, tval, ctx: QContext):
    """E_q as an entire function of (possibly complex) x."""
    if abs(tval) >= 1.0:
        raise DomainError("q_exponential needs |tval| < 1")
    x, h = np.asarray(x, dtype=np.complex128), None

    def terms(n):
        nonlocal h
        h = hermite_cq_all(n[-1], x, ctx, head=h)
        coeff = _tn_over_qn(tval, n[-1], ctx)[n] * ctx.q ** (n * n / 4.0)
        return coeff.reshape((-1,) + (1,) * x.ndim) * h[n]

    total = settled_sum(terms, ctx.eps_trunc, 1.0, ctx, "q-exponential series")[0]
    ctx2 = ctx.with_q(ctx.q * ctx.q)
    out = total / qpoch_infinite(ctx.q * tval * tval, ctx2)
    return out if out.ndim else complex(out)


def q_exponential_direct(theta, tval, ctx: QContext):
    """E_q by its double-Pochhammer definition:

        E_q(cos t; a) = (a^2; q^2)_oo / (q a^2; q^2)_oo *
            sum_n (-i e^{it} q^{(1-n)/2}, -i e^{-it} q^{(1-n)/2}; q)_n
                  (-i a)^n q^{n^2/4} / (q; q)_n.

    Factor k of term n is 1 + i w q^e, e = (1-n)/2 + k, w = e^{+-it}; one with
    e < 0 is written q^e (q^-e + i w), so every factor stays bounded, and the
    q^{2e} taken out cancel q^{n^2/4} up to q^{1/4} at odd n."""
    if abs(tval) >= 1.0:
        raise DomainError("q_exponential needs |tval| < 1")
    q, z = ctx.q, complex(np.exp(1j * theta))

    def terms(n):
        k = np.arange(n[-1] + 1)
        e = (1 - n[:, None]) / 2.0 + k[None, :]
        qe = q ** np.abs(e)
        f = np.where(e < 0, (qe + 1j * z) * (qe + 1j / z), (1.0 + 1j * z * qe) * (1.0 + 1j * qe / z))
        prod = np.prod(np.where(k[None, :] < n[:, None], f, 1.0), axis=1)
        coeff = _tn_over_qn(-1j * tval, n[-1], ctx)[n]
        return prod * coeff * q ** (0.25 * (n % 2))

    total = settled_sum(terms, ctx.eps_trunc, 1.0, ctx, "direct q-exponential series")[0]
    ctx2 = ctx.with_q(ctx.q * ctx.q)
    pref = qpoch_infinite(tval * tval, ctx2) / qpoch_infinite(ctx.q * tval * tval, ctx2)
    return pref * total
