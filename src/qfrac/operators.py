"""The integral and divided-difference operators.

Functions of x = (z + 1/z)/2 are carried as AnalyticFn values: a vectorized
evaluator over complex z together with the annulus rho < |z| < 1/rho on which
the evaluator is trustworthy.  Integral operators only ever sample their
operand on the unit circle, but their *outputs* extend off the circle (the
angle enters the kernel only through parameters of modulus q^{a/2} or r), and
divided differences consume that headroom one q^{1/2} layer per application.
Composing past the annulus raises AnnulusExhausted instead of silently
evaluating a wrong branch of the integral representation.  An integral
operator's output memoizes its values per exact point z, never per neighbour.

Operands may be stacked (stack, or the eigenbases over a list of degrees),
one trailing column each; every operator applies to all columns at once, on
one quadrature rule.

The integral operators state where their integrand stops being analytic:
the kernel's peak at phi = |arg z| with its poles' distance from the contour,
for each z, the poles of the operand's 1/h factor, and the operand's annulus.
So at moderate t = q^{a/2}, q^{1/2} or r they run the periodic trapezoid
rule, and at t near 1, or with the operand's poles near the contour, the
sinh-mapped Clenshaw-Curtis rule split at the peaks and the poles (see
quadrature).  An integral that does not converge raises NonConvergent; no
operator returns an unconverged value.

Operators:

    apply_Dq          Askey-Wilson divided difference
    poisson_integral  the integral against the q-Hermite Poisson kernel that
                      dq_inverse, apply_K and apply_T share
    k_norm, eq_ratio  the constant of K_{a,c} and the ratio of its E_q action
    dq_inverse        the classical right inverse (independent of apply_K)
    apply_K           two-parameter fractional integral K_{a,c}
    apply_K_eigen     closed-form action of K_{a,c} on its eigenbasis
    apply_J_series    closed-form infinitesimal generator on the eigenbasis
    generator_fd      one-sided finite-difference generator (Richardson)
    left_inverse_apply  D_q^{floor(a)+1} K_{1-frac(a), c'} K_{a,c}
    apply_T           three-parameter positive operator T(a,b,r)
    apply_Bq          the divided-difference companion of T
    adjoint_pairing   both sides of the E_q adjoint relation
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import cheb_apply_dq, cheb_eval, cheb_fit_adaptive
from .context import QContext
from .errors import AnnulusExhausted, DivisionNearZero, ParamDomain
from .qcore import h_poles, h_product_z, qpoch_infinite
from .qfunctions import hermite_cq_all, poisson_factors, q_exponential
from .quadrature import QuadResult, converged_value, integrate_theta

__all__ = [
    "AnalyticFn",
    "KParams",
    "TParams",
    "analytic_from_x",
    "stack",
    "eigen_k_basis",
    "eigen_t_basis",
    "apply_Dq",
    "poisson_integral",
    "k_norm",
    "eq_ratio",
    "dq_inverse",
    "apply_K",
    "apply_K_eigen",
    "apply_J_series",
    "generator_fd",
    "left_inverse_apply",
    "apply_T",
    "apply_Bq",
    "bq_norm_constant",
    "bq_special_case",
    "adjoint_pairing",
]


@dataclass
class KParams:
    """Parameters of K_{a,c}: order a > 0 and contour parameter c.

    The window 1 < c < 1/q keeps h(cos phi; -1/c, -c q) nonzero on the
    contour (both parameters negative, so every factor is 1 + positive).
    """

    a: float
    c: float

    def validate(self, ctx: QContext, allow_zero_a: bool = False) -> None:
        if self.a < 0 or (self.a == 0 and not allow_zero_a):
            raise ParamDomain(f"order a must be positive, got {self.a}")
        if not (1.0 < self.c < 1.0 / ctx.q):
            raise ParamDomain("c outside (1, 1/q)")
        _min_factor_check([-1.0 / self.c, -self.c * ctx.q], ctx)


@dataclass
class TParams:
    """Parameters of T(a, b, r): |a| < 1, |b| < 1, -1 < r < 1."""

    a: complex
    b: complex
    r: float

    def validate(self, ctx: QContext) -> None:
        if abs(self.a) >= 1.0 or abs(self.b) >= 1.0:
            raise ParamDomain("T(a,b,r) needs |a| < 1 and |b| < 1")
        if not (-1.0 < self.r < 1.0):
            raise ParamDomain("T(a,b,r) needs -1 < r < 1")
        _min_factor_check([self.a, self.b], ctx)


def _min_factor_check(params, ctx: QContext) -> None:
    """Reject parameters whose Pochhammer factors nearly vanish somewhere on
    the contour (catches |alpha| ~ q^{-k} configurations the modulus bounds
    alone miss).  Over phi and both signs the smallest factor is exact:
    min |1 - alpha q^k e^{+-i phi}| = |1 - |alpha| q^k|."""
    for alpha in params:
        mod = abs(alpha)
        k = 0
        qk = 1.0
        while mod * qk > 0.3 and k < ctx.max_terms:
            if abs(1.0 - mod * qk) <= 1e-8:
                raise ParamDomain(
                    f"kernel factor 1 - ({alpha}) q^{k} e^{{i phi}} vanishes on the contour"
                )
            qk *= ctx.q
            k += 1


@dataclass
class AnalyticFn:
    """An evaluable function of x = (z + 1/z)/2 with annulus bookkeeping.

    eval maps a complex ndarray of z values to values, with a trailing
    column per stacked operand if any; it must satisfy eval(z) == eval(1/z).
    Evaluation is permitted on the unit circle always, and elsewhere only
    for rho < min(|z|, 1/|z|).  Operator outputs memoize (memoize=True) one
    value per distinct point, keyed by the exact z: a bit-exact repeat of a
    point is read back, and every other point is computed from itself.
    """

    eval: object
    annulus_rho: float
    label: str = ""
    memoize: bool = False
    _memo: dict = field(default_factory=dict, repr=False)

    def __call__(self, z):
        zv = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        mods = np.abs(zv)
        inner = np.minimum(mods, 1.0 / mods)
        on_circle = np.abs(mods - 1.0) <= 1e-12
        if np.any(~on_circle & (inner <= self.annulus_rho * (1.0 + 1e-9))):
            raise AnnulusExhausted(
                f"{self.label or 'function'} valid on ({self.annulus_rho:.6g}, "
                f"{1/self.annulus_rho:.6g}); requested |z| outside"
            )
        if self.memoize:
            keys = zv.tolist()
            missing = [k for k in keys if k not in self._memo]
            if missing:
                vals = np.asarray(self.eval(np.array(missing)), dtype=np.complex128)
                self._memo.update(zip(missing, vals.tolist()))
            out = np.array([self._memo[k] for k in keys], dtype=np.complex128)
        else:
            out = np.asarray(self.eval(zv), dtype=np.complex128)
        return out if np.ndim(z) else out[0] if out.ndim > 1 else complex(out[0])

    def on_theta(self, theta):
        """Values on the unit circle at z = e^{i theta}."""
        return self(np.exp(1j * np.asarray(theta, dtype=np.float64)))


def _annulus_strip(f: AnalyticFn) -> float:
    """-ln annulus_rho: f(e^{i phi}) is analytic for |Im phi| below it."""
    return -math.log(f.annulus_rho) if f.annulus_rho > 0 else math.inf


def analytic_from_x(fn, rho: float = 1e-9, label: str = "") -> AnalyticFn:
    """Wrap a vectorized function of x; symmetric in z -> 1/z by construction."""
    return AnalyticFn(lambda z: fn((z + 1.0 / z) / 2.0), rho, label)


def stack(fns) -> AnalyticFn:
    """The list of operands fns as one function with a column per operand,
    values of shape (len(z), len(fns)), valid where all of them are."""
    return AnalyticFn(lambda z: np.stack([np.asarray(f(z)) for f in fns], axis=-1),
                      max(f.annulus_rho for f in fns), label=",".join(f.label for f in fns))


def _h_hermite_basis(params, n, label, ctx: QContext) -> AnalyticFn:
    """h(x; params) H_n(x | q) for one degree n, or stacked over a list of
    degrees from one h product and one recurrence."""
    degrees = np.atleast_1d(n)

    def ev(z):
        hn = hermite_cq_all(int(degrees.max()), (z + 1.0 / z) / 2.0, ctx)[degrees]
        out = h_product_z(z, params, ctx) * hn
        return out[0] if np.ndim(n) == 0 else out.T

    return AnalyticFn(ev, 1e-9, label=f"{label} H_{n}")


def eigen_k_basis(c: float, n, ctx: QContext) -> AnalyticFn:
    """h(x; -1/c, -c q) H_n(x | q): the K_{a,c} eigenfunction of index n, or
    one column per degree for a list n."""
    return _h_hermite_basis([-1.0 / c, -c * ctx.q], n, "h(x;-1/c,-cq)", ctx)


def eigen_t_basis(a, b, n, ctx: QContext) -> AnalyticFn:
    """h(x; a, b) H_n(x | q): the T(a,b,r) eigenfunction of index n, or one
    column per degree for a list n."""
    return _h_hermite_basis([a, b], n, "h(x;a,b)", ctx)


def _trail(a, n: int):
    """a with n trailing length-1 axes, to broadcast against n operand axes."""
    return np.reshape(a, np.shape(a) + (1,) * n)


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------

def _dq_quotient(f: AnalyticFn, z, q: float):
    rq = math.sqrt(q)
    num = f(rq * z) - f(z / rq)
    den = (rq - 1.0 / rq) * (z - 1.0 / z) / 2.0
    return num / _trail(den, np.ndim(num) - np.ndim(den))


def _divided_difference(quot, f: AnalyticFn, scale, label, ctx: QContext) -> AnalyticFn:
    """z -> scale * quot(z) for a divided-difference quotient quot of f,
    which consumes one q^{1/2} layer of f's annulus.  The removable
    singularity at z^2 = 1 is evaluated by the symmetric offset
    z(1 +- delta), delta = 1e-6, Richardson-extrapolated once; every point
    goes to quot in one batch."""
    rq = math.sqrt(ctx.q)
    if f.annulus_rho > rq * (1.0 + 1e-12):
        raise AnnulusExhausted(
            f"{label} needs annulus_rho <= q^(1/2)={rq:.6g}, operand has {f.annulus_rho:.6g}"
        )

    def ev(z):
        zv = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        regular = np.abs(zv * zv - 1.0) > 1e-4
        n = int(np.sum(regular))
        offsets = 1.0 + np.array([1e-6, -1e-6, 5e-7, -5e-7])
        vals = quot(np.concatenate((zv[regular], np.outer(zv[~regular], offsets).ravel())))
        out = np.empty(zv.shape + vals.shape[1:], dtype=np.complex128)
        out[regular] = vals[:n]
        mean = 0.5 * vals[n:].reshape((-1, 2, 2) + vals.shape[1:]).sum(axis=2)  # at d, d/2
        out[~regular] = (4.0 * mean[:, 1] - mean[:, 0]) / 3.0
        return scale * out

    return AnalyticFn(ev, min(f.annulus_rho / rq, 1.0), label=label)


def apply_Dq(f: AnalyticFn, ctx: QContext) -> AnalyticFn:
    """Askey-Wilson operator (D_q f)(x) =
    [f(q^{1/2} z) - f(q^{-1/2} z)] / [(q^{1/2} - q^{-1/2})(z - 1/z)/2]."""
    return _divided_difference(lambda w: _dq_quotient(f, w, ctx.q), f, 1.0,
                               f"Dq[{f.label}]", ctx)


# ---------------------------------------------------------------------------
# K_{a,c} family
# ---------------------------------------------------------------------------

def poisson_integral(t, g, h_params, g_strip, z, pref, ctx: QContext) -> QuadResult:
    """pref(z) * integral_0^pi w_H(cos phi) sin phi g(e^{i phi}) P_t(phi, z)
    / h(cos phi; h_params) dphi for every z of a batch, with P_t the
    q-Hermite Poisson kernel.  g is the operand alone: it maps an array of
    nodes zeta = e^{i phi} to its values, is even in phi and analytic for
    |Im phi| < g_strip; the poles of 1/h(.; h_params) are stated as h_poles
    gives them.  pref is a scalar or one value per z.  g's values may carry
    a trailing column per stacked operand, each integrated on the one rule.

    pref rides inside the integrand: it can span many orders of magnitude
    across a batch, and folding it in keeps every component O(1) for the
    per-component error budgets.  Each integrand evaluation takes the
    weight, 1/h and the kernel from one poisson_factors evaluation.

    The kernel of z_k peaks at phi = |arg(z_k sign t)| with its poles at
    |Im phi| = -ln(|t| max(|z_k|, 1/|z_k|)) (t = 0 makes it constant).
    integrate_theta gets these peaks, 1/h's poles and g_strip, and picks the
    rule from them: the trapezoid rule when the narrowest of them allows,
    else the sinh-mapped rule, on nodes shared by every z when the peaks are
    wide enough, else per z.
    """
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    factors = poisson_factors(z, t, (), h_params, ctx)

    def integrand(phis):
        zeta = np.exp(1j * phis)
        node, kernel = factors(zeta)
        gv = np.asarray(g(zeta.ravel()))
        gv = gv.reshape(node.shape + gv.shape[1:])
        cols = gv.ndim - node.ndim
        return _trail(node, cols) * gv * _trail(pref, cols) * _trail(kernel, cols)

    peaks = h_poles(t * np.where(np.abs(z) >= 1.0, z, 1.0 / z)).T if t else None
    return integrate_theta(integrand, ctx, strip=g_strip, peaks=peaks, poles=h_poles(h_params))


def _poisson_operator(t, f: AnalyticFn, params, pref_const, pref_params, label,
                      ctx: QContext) -> AnalyticFn:
    """The operator f -> pref_const h(x; pref_params) * poisson_integral of
    the operand f against 1/h(.; params) at t, shared by D_q^{-1}, K_{a,c}
    and T(a,b,r).  f is analytic as far as its annulus allows.  The output
    carries annulus max(|t|, 1e-9) and memoizes its pointwise quadratures.
    The prefactor h(z; pref_params) is an h_product_z, kept per z within an
    identity case."""
    g_strip = _annulus_strip(f)

    def ev(zv):
        pref = pref_const * np.asarray(h_product_z(zv, pref_params, ctx))
        res = poisson_integral(t, f, params, g_strip, zv, pref, ctx)
        return np.atleast_1d(converged_value(res, label))

    return AnalyticFn(ev, max(abs(t), 1e-9), label=label, memoize=True)


def k_norm(a, c, q, n=0, factor=1.0):
    """q^{a(a-3)/4 + n a/2} factor ((1-q)/(2c))^a: at n = 0 the constant C of
    K_{a,c}, else its eigenvalue C q^{na/2} on h(.; -1/c, -cq) H_n.  factor
    enters where the 5phi4 and 4phi3 closed forms carry theirs."""
    return q ** (a * (a - 3.0) / 4.0 + n * a / 2.0) * factor * ((1.0 - q) / (2.0 * c)) ** a


def eq_ratio(a, tval, base, ctx: QContext) -> complex:
    """R = (q^{a+1} t^2; B)_oo / (q t^2; B)_oo with Pochhammer base B = q^2
    (base="q2") or B = q (base="q"): the factor of the E_q action of K_{a,c}."""
    q = ctx.q
    bctx = ctx.with_q(q * q) if base == "q2" else ctx
    return complex(qpoch_infinite(q ** (a + 1.0) * tval * tval, bctx)) / complex(
        qpoch_infinite(q * tval * tval, bctx)
    )


def apply_K(p: KParams, f: AnalyticFn, ctx: QContext) -> AnalyticFn:
    """The q-fractional integral operator

        (K_{a,c} f)(cos t) = q^{a(a-3)/4} ((1-q)/(2c))^a
            h(cos t; -c q^{1-a/2}, -q^{a/2}/c) *
            integral_0^pi  w_H(cos phi) (q^a; q)_oo f(cos phi) sin phi dphi
                / [ h(cos phi; q^{a/2} e^{it}, q^{a/2} e^{-it})
                    h(cos phi; -1/c, -c q) ],

    the Poisson-kernel integral at t = q^{a/2}.  The operand is sampled on
    the contour only; the output carries annulus q^{a/2}.
    """
    p.validate(ctx)
    a, c, q = p.a, p.c, ctx.q
    qa2 = q ** (a / 2.0)
    return _poisson_operator(qa2, f, [-1.0 / c, -c * q], k_norm(a, c, q),
                             [-c * q ** (1.0 - a / 2.0), -qa2 / c],
                             f"K[{a},{c}]({f.label})", ctx)


def dq_inverse(c: float, f: AnalyticFn, ctx: QContext) -> AnalyticFn:
    """The classical right inverse of D_q,

        (D_q^{-1} f)(cos t) = q^{-1/2} (1-q)/(2c) h(cos t; -c q^{1/2}, -q^{1/2}/c)
            * integral of w_H (q; q)_oo f sin phi
              / [h(cos phi; q^{1/2} e^{+-it}) h(cos phi; -1/c, -c q)],

    coded directly from its own formula (not via apply_K) so the two routes
    can be compared."""
    KParams(1.0, c).validate(ctx)
    q = ctx.q
    rq = math.sqrt(q)
    return _poisson_operator(rq, f, [-1.0 / c, -c * q], (1.0 / rq) * (1.0 - q) / (2.0 * c),
                             [-c * rq, -rq / c], f"Dq^-1[{c}]({f.label})", ctx)


def apply_K_eigen(p: KParams, n: int, theta, ctx: QContext):
    """Closed form of K_{a,c} h(.; -1/c, -cq) H_n:

        q^{a(a-3)/4 + n a/2} ((1-q)/(2c))^a
            h(cos t; -c q^{1-a/2}, -q^{a/2}/c) H_n(cos t | q).

    Valid including a = 0, where the prefactor collapses to 1.
    """
    if p.a > 0:
        p.validate(ctx)
    a, c, q = p.a, p.c, ctx.q
    tv = np.asarray(theta, dtype=np.float64)
    z = np.exp(1j * tv)
    pref = k_norm(a, c, q, n)
    hpart = np.asarray(h_product_z(z, [-c * q ** (1.0 - a / 2.0), -q ** (a / 2.0) / c], ctx))
    hn = hermite_cq_all(n, np.cos(tv), ctx)[n]
    out = pref * hpart * hn
    return complex(out) if np.ndim(theta) == 0 else out


def apply_J_series(p: KParams, n: int, theta, ctx: QContext):
    """Closed-form generator action (J_t(a,c) h(.; -1/c, -cq) H_n)(cos t):
    the a-derivative of the eigen-action, assembled from the two bilateral
    theta-derivative sums.

        q^{a(a-3)/4 + na/2} ((1-q)/(2c))^a [
            h(cos t; -c q^{1-a/2}, -q^{a/2}/c) log((1-q) q^{a/2 + n/2 - 3/4} / (2c))
          + S'(z q^{a/2}/c) (-q^{a/2}/(cz), -c z q^{1-a/2}; q)_oo
          + S'(q^{a/2}/(zc)) (-q^{a/2} z/c, -c q^{1-a/2}/z; q)_oo ] H_n(cos t)

    with S' the log-q theta derivative sum and z = e^{it}.  The log exponent
    a/2 + n/2 - 3/4 is d/da of the eigenvalue exponent a(a-3)/4 + na/2; it is
    what the finite-difference generator converges to.
    """
    from .qcore import jtp_theta_logq_derivative_series

    p.validate(ctx, allow_zero_a=True)
    a, c, q = p.a, p.c, ctx.q
    tv = np.asarray(theta, dtype=np.float64)
    z = np.exp(1j * tv)
    qa2 = q ** (a / 2.0)
    pref = k_norm(a, c, q, n)
    logterm = math.log((1.0 - q) * q ** (a / 2.0 + n / 2.0 - 0.75) / (2.0 * c))
    t1 = np.asarray(h_product_z(z, [-c * q ** (1.0 - a / 2.0), -qa2 / c], ctx)) * logterm
    s_plus = np.asarray(jtp_theta_logq_derivative_series(z * qa2 / c, ctx))
    s_minus = np.asarray(jtp_theta_logq_derivative_series(qa2 / (z * c), ctx))
    t2 = s_plus * np.asarray(qpoch_infinite(-qa2 / (c * z), ctx)) \
        * np.asarray(qpoch_infinite(-c * z * q ** (1.0 - a / 2.0), ctx))
    t3 = s_minus * np.asarray(qpoch_infinite(-qa2 * z / c, ctx)) \
        * np.asarray(qpoch_infinite(-c * q ** (1.0 - a / 2.0) / z, ctx))
    hn = hermite_cq_all(n, np.cos(tv), ctx)[n]
    out = pref * (t1 + t2 + t3) * hn
    return complex(out) if np.ndim(theta) == 0 else out


def generator_fd(f: AnalyticFn, a: float, c: float, theta, ctx: QContext,
                 delta: float = 1e-3):
    """One-sided finite-difference generator on a theta grid,

        (K_{a+d,c} f - K_{a,c} f) / d,

    Richardson-extrapolated over d and d/2 (K_{0,c} is read as the identity).
    This is the independent oracle for the closed-form generator."""
    tv = np.asarray(theta, dtype=np.float64)

    def k_values(order):
        if order == 0.0:
            return np.asarray(f.on_theta(tv))
        return np.asarray(apply_K(KParams(order, c), f, ctx).on_theta(tv))

    base = k_values(a)
    d1 = (k_values(a + delta) - base) / delta
    d2 = (k_values(a + delta / 2.0) - base) / (delta / 2.0)
    return 2.0 * d2 - d1


def left_inverse_apply(p: KParams, f: AnalyticFn, ctx: QContext,
                       middle_exponent: float = 0.5) -> AnalyticFn:
    """The left-inverse composite D_q^{floor(a)+1} K_{1-frac(a), c q^{-s a}} K_{a,c} f
    with s = middle_exponent (0.5 follows the composition law; 1.0 is the
    alternate convention the suite disambiguates).

    The middle-and-inner composite is sampled on the unit circle, where both
    integral representations are valid, and represented by an adaptive
    Chebyshev interpolant; the divided differences are applied exactly on
    that representation.  Coefficient decay is the runtime check that the
    composite really is analytic enough to absorb floor(a)+1 layers; if it
    is not, the tail never falls below tolerance and NonConvergent surfaces.
    Nothing about the left-inverse identity itself is assumed.  Stacked
    operands share one fit grid; each column is differenced on its own.
    """
    p.validate(ctx)
    a, c, q = p.a, p.c, ctx.q
    frac = a - math.floor(a)
    m = int(math.floor(a)) + 1
    b = 1.0 - frac
    c_mid = c * q ** (-middle_exponent * a)
    mid = KParams(b, c_mid)
    mid.validate(ctx)  # ParamDomain here is the documented window restriction

    inner = apply_K(p, f, ctx)
    outer = apply_K(mid, inner, ctx)
    fit = cheb_fit_adaptive(outer.on_theta)
    cols, rho = [], 1e-9
    for coeffs in np.reshape(fit.T, (-1, len(fit))):
        # trim the sub-tolerance noise tail: D_q amplifies coefficient n by
        # ~q^{-n/2} per application, so rounding-floor coefficients must not
        # ride through the divided differences
        mags = np.abs(coeffs)
        keep = np.nonzero(mags > 1e-13 * mags.max())[0]
        n_keep = max(int(keep[-1]) + 1 if keep.size else 1, m + 4)
        coeffs = coeffs[:n_keep]
        for _ in range(m):
            coeffs = cheb_apply_dq(coeffs, q)
        cols.append(coeffs)
        tail = np.abs(coeffs[-max(2, len(coeffs) // 8):]).max()
        top = max(np.abs(coeffs).max(), 1e-300)
        # empirical Bernstein decay -> conservative annulus for the interpolant
        rho = max(rho, min(0.999, (tail / top) ** (1.0 / max(len(coeffs) - 1, 1))))

    def ev(z):
        x = (z + 1.0 / z) / 2.0
        vals = [cheb_eval(coeffs, x) for coeffs in cols]
        return vals[0] if fit.ndim == 1 else np.stack(vals, axis=-1)

    return AnalyticFn(ev, rho, label=f"Dq^{m} K[{b},{c_mid:.4g}] K[{a},{c}]({f.label})")


# ---------------------------------------------------------------------------
# T(a,b,r) family
# ---------------------------------------------------------------------------

def apply_T(p: TParams, f: AnalyticFn, ctx: QContext) -> AnalyticFn:
    """(T(a,b,r) f)(cos t) = h(cos t; a, b) (r^2; q)_oo *
        integral of w_H f sin phi / [h(cos phi; r e^{it}, r e^{-it})
                                     h(cos phi; a, b)],

    the Poisson-kernel integral at t = r.  Output annulus |r| (r = 0
    degenerates to the rank-one projection onto h(.; a, b), since P_0 = 1)."""
    p.validate(ctx)
    a, b, r = p.a, p.b, p.r
    return _poisson_operator(r, f, [a, b], 1.0, [a, b], f"T[{a},{b},{r}]({f.label})", ctx)


def _g_weight(z, a, b, ctx: QContext):
    """g(x; a, b) = (-q^{1/4} e^{it}, -q^{1/4} e^{-it}; q^{1/2})_oo / h(x; a, b)."""
    ctx_half = ctx.with_q(math.sqrt(ctx.q))
    num = np.asarray(qpoch_infinite(-ctx.q**0.25 * z, ctx_half)) * np.asarray(
        qpoch_infinite(-ctx.q**0.25 / z, ctx_half)
    )
    den = np.asarray(h_product_z(z, [a, b], ctx))
    return num / den


def bq_norm_constant(ctx: QContext) -> float:
    """(1-q) / (2 q^{1/4}): the scale that makes B_q(a,b) T(a,b,r) equal
    T(a,b, r q^{-1/2}) exactly.

    The bare divided-difference quotient multiplies every T-eigenfunction
    h(.; a, b) H_n by [2 q^{1/4}/(1-q)] q^{-n/2} (the n = 0 case is a two-line
    computation from D_q applied to the numerator product of g), so the shift
    property holds only after dividing by that constant.
    """
    return (1.0 - ctx.q) / (2.0 * ctx.q**0.25)


def _bq_direct_quotient(f, z, a, b, ctx: QContext):
    q = ctx.q
    rq = math.sqrt(q)
    hx = np.asarray(h_product_z(z, [a, b], ctx))
    hshift = np.asarray(h_product_z(z, [a / rq, b / rq], ctx))
    t_plus = (1.0 - a * z / rq) * (1.0 - b * z / rq) * f(rq * z)
    t_minus = z * z * (1.0 - a / (rq * z)) * (1.0 - b / (rq * z)) * f(z / rq)
    den = (q**0.75 - q ** (-0.25)) * (z * z - 1.0) / 2.0
    return hx * (t_plus - t_minus) / (hshift * den)


def apply_Bq(a, b, f: AnalyticFn, ctx: QContext, form: str = "direct",
             normalized: bool = True) -> AnalyticFn:
    """The divided-difference operator with B_q(a,b) T(a,b,r) = T(a,b,r q^{-1/2}).

    form="direct":   h(x;a,b) [(1-q^{-1/2}az)(1-q^{-1/2}bz) f(q^{1/2}z)
                      - z^2 (1-q^{-1/2}a/z)(1-q^{-1/2}b/z) f(q^{-1/2}z)]
                     / [h(x; q^{-1/2}a, q^{-1/2}b) (q^{3/4}-q^{-1/4})(z^2-1)/2]
    form="factored": (1/g(x;a,b)) D_q(g(.;a,b) f)  with
                     g = (-q^{1/4}e^{it}, -q^{1/4}e^{-it}; q^{1/2})_oo / h(x;a,b).

    normalized=True rescales either quotient by bq_norm_constant(ctx), which
    is required for the shift property to hold with constant 1; the bare
    quotient is kept reachable because the two forms are cross-checked
    against each other.
    """
    scale = bq_norm_constant(ctx) if normalized else 1.0
    label = f"Bq[{a},{b}]({f.label})"
    if form == "direct":
        return _divided_difference(lambda w: _bq_direct_quotient(f, w, a, b, ctx), f, scale,
                                   label, ctx)
    if form == "factored":
        g_rho = max(abs(a), abs(b), 1e-9)
        gf = AnalyticFn(
            lambda z: _g_weight(z, a, b, ctx) * np.asarray(f(z)),
            max(f.annulus_rho, g_rho),
            label=f"g*({f.label})",
        )
        dgf = apply_Dq(gf, ctx)

        def ev_f(z):
            g = _g_weight(z, a, b, ctx)
            if float(np.min(np.abs(g))) < 1e-280:
                raise DivisionNearZero("g(x; a, b) vanishes at requested point")
            return scale * np.asarray(dgf(z)) / g

        return AnalyticFn(ev_f, dgf.annulus_rho, label=label)
    raise ValueError("form must be 'direct' or 'factored'")


def bq_special_case(a, f: AnalyticFn, ctx: QContext) -> AnalyticFn:
    """B_q(a, q^{1/2} a) in its simplified form

        [ (1-az)/(1 - a q^{-1/2}/z) f(q^{1/2}z)
          - z^2 (1-a/z)/(1 - a q^{-1/2} z) f(q^{-1/2}z) ]
        / [(q^{3/4} - q^{-1/4})(z^2 - 1)/2].

    The first quotient's divisor carries the factor a (the general-form
    denominators are (1 - a q^{-1/2} z^{+-1}); dropping a would not even be
    symmetric in z -> 1/z).
    """
    q = ctx.q
    rq = math.sqrt(q)

    def quot(z):
        t_plus = (1.0 - a * z) / (1.0 - a / (rq * z)) * f(rq * z)
        t_minus = z * z * (1.0 - a / z) / (1.0 - a * z / rq) * f(z / rq)
        den = (q**0.75 - q ** (-0.25)) * (z * z - 1.0) / 2.0
        return (t_plus - t_minus) / den

    return _divided_difference(quot, f, bq_norm_constant(ctx), f"Bq[{a},q^.5 a]({f.label})", ctx)


# ---------------------------------------------------------------------------
# adjoint pairing
# ---------------------------------------------------------------------------

def adjoint_pairing(p: KParams, f: AnalyticFn, tval, side: str, ctx: QContext,
                    base: str = "q2"):
    """One side of the E_q adjoint relation.

    side="left":  integral of E_q(x; t) (K_{a,c} f)(x) w_H dx
                    / h(x; -c q^{1-a/2}, -q^{a/2}/c)
    side="right": C R * integral of E_q(x; t q^{a/2}) f(x) w_H dx / h(x; -cq, -1/c)

    with C = k_norm(a, c, q) and R = eq_ratio(a, t, base); the suite decides
    which Pochhammer base makes left == right.  A stacked f gives one value
    per operand.
    """
    p.validate(ctx)
    a, c, q = p.a, p.c, ctx.q

    def pairing(g, t, hpars):
        """integral of E_q(x; t) g(x) w_H dx / h(x; hpars)."""
        factors = poisson_factors((), 0.0, (), hpars, ctx)

        def igr(phis):
            e = np.asarray(q_exponential(phis, t, ctx))
            zeta = np.exp(1j * phis)
            gv = np.asarray(g(zeta))
            cols = gv.ndim - 1
            return _trail(e, cols) * gv * _trail(factors(zeta)[0][:, 0], cols)

        res = integrate_theta(igr, ctx, strip=_annulus_strip(g), poles=h_poles(hpars))
        value = converged_value(res, f"adjoint pairing, {side}")
        return complex(value) if np.ndim(value) == 0 else value

    if side == "left":
        return pairing(apply_K(p, f, ctx), tval, [-c * q ** (1.0 - a / 2.0), -q ** (a / 2.0) / c])
    if side != "right":
        raise ValueError("side must be 'left' or 'right'")
    return k_norm(a, c, q) * eq_ratio(a, tval, base, ctx) * pairing(
        f, tval * q ** (a / 2.0), [-c * q, -1.0 / c])
