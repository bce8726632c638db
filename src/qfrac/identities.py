"""Registry of operator/series identities as parameterized residual checks.

Every identity the operators satisfy is a registry entry with an id (I0a..I23),
a tolerance, an optional set of convention variants, and a runner that
evaluates both sides over a theta grid and reports the residual.  Conventions
with two circulating written forms (the generator-relation parameter, the
Pochhammer base of the q-exponential identities, the left-inverse middle
parameter) are first-class variants: the suite runs all of them and records
which one holds numerically.

Residual normalization: max_rel divides the worst pointwise deviation by the
larger of the two sides' sup over the grid, so zeros of either side cannot
produce false failures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import operators as op
from .context import QContext
from .errors import CaseInvalid, ParamDomain, QFracError
from .qcore import (
    bhs_terminating,
    euler_product,
    h_poles,
    h_product_z,
    jtp_theta_series,
    qpoch_finite,
    qpoch_infinite,
    settled_sum,
    table_scope,
)
from .qfunctions import (
    AWParams,
    aw_norm_Mn,
    aw_polynomial,
    aw_polynomial_all,
    aw_polynomial_x,
    aw_weight,
    hermite_cq_all,
    poisson_factors,
    poisson_kernel,
    q_exponential,
    q_exponential_x,
    theta_grid,
    weight_wH_sin,
)
from .quadrature import converged_value, eval_counter, integrate_theta

__all__ = [
    "IdentityCase",
    "Residual",
    "IdentityReport",
    "REGISTRY",
    "registry_ids",
    "run_identity",
    "run_case",
    "run_suite",
    "variant_groups_ok",
    "suite_failures",
    "default_cases",
    "bilinear_kernel_6",
    "bilinear_series_6",
    "bilinear_kernel_7",
    "bilinear_series_7",
    "section6_constants",
    "section7_constants",
]

_FLOOR = 1e-300


@dataclass(frozen=True)
class IdentityCase:
    """One parameterized identity check: registry id, parameter map, and an
    optional convention-variant tag."""

    id: str
    params: dict
    variant: str | None = None

    def key(self) -> str:
        items = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        v = f";{self.variant}" if self.variant else ""
        return f"{self.id}[{items}{v}]"


@dataclass
class Residual:
    """Outcome of one identity check over its sample grid."""

    max_abs: float
    max_rel: float
    grid_points: int
    lhs_scale: float
    passed: bool
    notes: str = ""


@dataclass
class IdentityReport:
    """Suite record: case plus residual (or a skip reason), bookkeeping."""

    case: IdentityCase
    residual: Residual | None
    status: str  # "pass" | "fail" | "skip"
    skip_reason: str = ""
    evals: int = 0
    seconds: float | None = None


def _mk_ctx(params: dict, base: QContext | None) -> QContext:
    q = params.get("q")
    if q is None:
        raise CaseInvalid("every case needs q")
    if not (0.0 < q < 1.0):
        raise CaseInvalid(f"q={q} outside (0, 1)")
    if base is None:
        return QContext(q=q)
    return replace(base, q=q)


def _grid(params: dict) -> np.ndarray:
    return theta_grid(int(params.get("grid_points", 17)))


def _resid(lhs, rhs, tol: float, notes: str = "") -> Residual:
    lhs = np.atleast_1d(np.asarray(lhs))
    rhs = np.atleast_1d(np.asarray(rhs))
    max_abs = float(np.max(np.abs(lhs - rhs)))
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), _FLOOR)
    max_rel = max_abs / scale
    return Residual(max_abs, max_rel, lhs.size, scale, max_rel <= tol, notes)


def _merge(parts: list[Residual], tol: float, notes: str = "") -> Residual:
    worst = max(parts, key=lambda r: r.max_rel)
    return Residual(
        max_abs=max(r.max_abs for r in parts),
        max_rel=worst.max_rel,
        grid_points=sum(r.grid_points for r in parts),
        lhs_scale=worst.lhs_scale,
        passed=all(r.passed for r in parts),
        notes=notes or "; ".join(r.notes for r in parts if r.notes),
    )


def _cos2t() -> op.AnalyticFn:
    return op.analytic_from_x(lambda x: 2.0 * x * x - 1.0, label="cos2t")


def _test_fns(eigenfunction: op.AnalyticFn):
    """Three-element test set for operator identities: 1, cos 2 theta and an
    eigenfunction of the family."""
    return [op.analytic_from_x(lambda x: np.ones_like(x), label="1"), _cos2t(), eigenfunction]


def _k_op(a, c, ctx: QContext):
    """f -> K_{a,c} f; op.apply_K is looked up at each call, so an instrumented
    replacement of the module attribute sees every application."""
    return lambda f: op.apply_K(op.KParams(a, c), f, ctx)


def _t_op(a, b, r, ctx: QContext):
    """f -> T(a,b,r) f, with op.apply_T looked up at each call likewise."""
    return lambda f: op.apply_T(op.TParams(a, b, r), f, ctx)


def _poch_ratio(a, beta, ctx: QContext):
    """(q^{a+beta+1}; q)_oo / (q^{beta+1}; q)_oo, broadcast over beta."""
    q = ctx.q
    num, den = qpoch_infinite(np.stack(np.broadcast_arrays(q ** (a + beta + 1.0), q ** (beta + 1.0))),
                              ctx)
    return num / den


# ---------------------------------------------------------------------------
# foundations I0a-I0d
# ---------------------------------------------------------------------------

def _run_I0a(params, variant, ctx, tol):
    """Orthogonality of the continuous q-Hermite family, m, n <= nmax."""
    nmax = int(params.get("n", 8))
    pairs = [(m, n) for m in range(nmax + 1) for n in range(m, nmax + 1)]

    def igr(phis):
        H = hermite_cq_all(nmax, np.cos(phis), ctx)
        w = weight_wH_sin(phis, ctx)
        return np.stack([w * H[m] * H[n] for (m, n) in pairs], axis=1)

    gram = np.atleast_1d(converged_value(integrate_theta(igr, ctx, strip=math.inf),
                                         "q-Hermite Gram matrix"))
    want = np.array([
        complex(qpoch_finite(ctx.q, n, ctx)) if m == n else 0.0 for (m, n) in pairs
    ])
    return _resid(gram, want, tol, notes=f"pairs m,n<={nmax}")


def _run_I0b(params, variant, ctx, tol):
    """Poisson kernel: series form == product form."""
    t = params.get("t", 0.4)
    thetas, phis = theta_grid(9)[:, None], np.array([np.pi / 4.0, 2.0])
    lhs = poisson_kernel(thetas, phis, t, ctx, form="series").ravel()
    rhs = poisson_kernel(thetas, phis, t, ctx, form="product").ravel()
    return _resid(lhs, rhs, tol, notes=f"t={t}")


_I0C_QUADS = [
    (0.6, -0.4, 0.3, -0.05),
    (0.5, 0.2, 0.1, 0.05),
    (0.3, 0.3, 0.3, 0.3),
    (0.0, 0.0, 0.0, 0.0),
]


def _run_I0c(params, variant, ctx, tol):
    """Askey-Wilson integral: quadrature == closed form over |a_j| <= 0.6."""
    lhs, rhs = [], []
    for quad in _I0C_QUADS:
        factors = poisson_factors((), 0.0, (), [a for a in quad if a != 0.0], ctx)

        def igr(phis, factors=factors):
            return factors(np.exp(1j * phis))[0][:, 0]

        res = integrate_theta(igr, ctx, strip=math.inf, poles=h_poles(quad))
        lhs.append(complex(converged_value(res, f"Askey-Wilson integral {quad}")))
        prod = complex(qpoch_infinite(quad[0] * quad[1] * quad[2] * quad[3], ctx))
        for j in range(4):
            for k in range(j + 1, 4):
                prod /= complex(qpoch_infinite(quad[j] * quad[k], ctx))
        rhs.append(prod)
    return _resid(lhs, rhs, tol, notes=f"{len(_I0C_QUADS)} parameter quadruples")


def _run_I0d(params, variant, ctx, tol):
    """Jacobi triple product: bilateral series == infinite product."""
    zs = params.get("z")
    if zs is None:
        mods = [0.5, 1.0, 2.0]
        args = [0.4, 1.3, 2.8]
        zs = [m * np.exp(1j * a) for m in mods for a in args] + [1.3, -0.6, 2.0]
    zs = np.asarray(np.atleast_1d(zs), dtype=np.complex128)
    lhs = np.asarray(jtp_theta_series(zs, ctx))
    rhs = complex(qpoch_infinite(ctx.q, ctx)) * np.asarray(
        qpoch_infinite(-zs, ctx)
    ) * np.asarray(qpoch_infinite(-ctx.q / zs, ctx))
    return _resid(lhs, rhs, tol, notes=f"{zs.size} points")


# ---------------------------------------------------------------------------
# K family I1-I5
# ---------------------------------------------------------------------------

def _composition(outer, inner, whole, fns, params, tol):
    """A composition law outer(inner f) == whole f on the test functions fns,
    stacked through one application of each operator."""
    grid = _grid(params)
    f = op.stack(fns)
    lhs, rhs = outer(inner(f)).on_theta(grid), whole(f).on_theta(grid)
    return _merge([_resid(lhs[:, j], rhs[:, j], tol, notes=g.label) for j, g in enumerate(fns)],
                  tol)


def _run_I1(params, variant, ctx, tol):
    """Composition law K_{b, c q^{-a/2}} K_{a,c} = K_{a+b,c}."""
    a, b, c = params["a"], params["b"], params["c"]
    c_outer = c * ctx.q ** (-a / 2.0)
    op.KParams(b, c_outer).validate(ctx)
    op.KParams(a + b, c).validate(ctx)
    return _composition(_k_op(b, c_outer, ctx), _k_op(a, c, ctx), _k_op(a + b, c, ctx),
                        _test_fns(op.eigen_k_basis(c, 1, ctx)), params, tol)


def _limit_ladder(op_at, ladder, params, verdict):
    """An identity limit on f = cos 2 theta: the sup-residual |op_at(s) f - f|
    at each rung s of the ladder.  verdict(residuals) returns the pass flag
    and the notes that follow the residuals."""
    grid = _grid(params)
    f = _cos2t()
    fref = np.asarray(f.on_theta(grid))
    res = [float(np.max(np.abs(op_at(s)(f).on_theta(grid) - fref))) for s in ladder]
    passed, tail = verdict(res)
    notes = "residuals=" + ",".join(f"{r:.3e}" for r in res) + "; " + tail
    return Residual(res[-1], res[-1], len(grid) * len(res), 1.0, passed, notes)


# the rungs of the identity-limit ladders: a -> 0+ (I2) and r -> 1- (I18)
_I2_LADDER = (0.1, 0.03, 0.01)
_I18_LADDER = (0.9, 0.99, 0.999)


def _run_I2(params, variant, ctx, tol):
    """Identity limit of K_{a,c} on f = cos 2 theta along a -> 0+.

    Pass rule: the sup-residual decreases monotonically along the ladder and
    by at least 3x overall.  (The per-step ratio for 0.03 -> 0.01 sits at
    3 (1 - O(a)) < 3 because the error is C a with a concave correction, so
    only the whole-ladder factor is a robust criterion.)"""

    def verdict(res):
        monotone = all(r1 > r2 for r1, r2 in zip(res, res[1:]))
        overall = res[0] / max(res[-1], _FLOOR)
        return monotone and overall >= 3.0, f"overall_ratio={overall:.2f}"

    return _limit_ladder(lambda a: _k_op(a, params["c"], ctx), _I2_LADDER, params, verdict)


def _run_I3(params, variant, ctx, tol):
    """Lowering: D_q K_{a,c} = K_{a-1,c} for a > 1."""
    a, c = params["a"], params["c"]
    if a <= 1.0:
        raise CaseInvalid("lowering needs a > 1")
    return _composition(lambda g: op.apply_Dq(g, ctx), _k_op(a, c, ctx), _k_op(a - 1.0, c, ctx),
                        _test_fns(op.eigen_k_basis(c, 1, ctx)), params, tol)


def _eigen_actions(apply, basis, eigen, ns, params, tol, notes="", shared_scale=False):
    """An eigen-action apply(f) == eigen(f, grid), f = basis(ns) stacking f_n
    for each n in ns, one column each, judged on each column's own scale or,
    with shared_scale (for eigenvalues r^n that fall to rounding level), on
    the largest of them."""
    grid = _grid(params)
    ns = list(ns)
    f = basis(ns)
    lhs, rhs = apply(f).on_theta(grid), eigen(f, grid)
    if shared_scale:
        return _resid(lhs, rhs, tol, notes)
    return _merge([_resid(lhs[:, j], rhs[:, j], tol, notes=f"n={n}") for j, n in enumerate(ns)],
                  tol, notes=notes)


def _run_I4(params, variant, ctx, tol):
    """Left inverse D_q^{floor(a)+1} K_{1-frac(a), c'} K_{a,c} = I on the
    eigenbasis test set; variants choose c' = c q^{-a/2} / c q^{-a}."""
    p = op.KParams(params["a"], params["c"])
    expo = {"half": 0.5, "full": 1.0}[variant or "half"]
    return _eigen_actions(lambda f: op.left_inverse_apply(p, f, ctx, middle_exponent=expo),
                          lambda ns: op.eigen_k_basis(p.c, ns, ctx),
                          lambda f, grid: np.asarray(f.on_theta(grid)), (1, 2), params, tol)


def _run_I5(params, variant, ctx, tol):
    """Eigen-action of K_{a,c} against the closed form, n <= nmax."""
    p = op.KParams(params["a"], params["c"])
    p.validate(ctx)
    nmax = int(params.get("n", 8))
    return _eigen_actions(_k_op(p.a, p.c, ctx), lambda ns: op.eigen_k_basis(p.c, ns, ctx),
                          lambda f, grid: np.stack([op.apply_K_eigen(p, n, grid, ctx)
                                                    for n in range(nmax + 1)], axis=-1),
                          range(nmax + 1), params, tol, notes=f"n<={nmax}")


# ---------------------------------------------------------------------------
# generator I6-I8
# ---------------------------------------------------------------------------

def _run_I6(params, variant, ctx, tol):
    """Closed-form generator vs the Richardson finite difference of (4.1)."""
    a, c, n = params["a"], params["c"], int(params["n"])
    grid = _grid(params)
    lhs = op.apply_J_series(op.KParams(a, c), n, grid, ctx)
    rhs = op.generator_fd(op.eigen_k_basis(c, n, ctx), a, c, grid, ctx, delta=1e-3)
    return _resid(lhs, rhs, tol)


def _run_I7(params, variant, ctx, tol):
    """Generator at a = 0 vs (K_{d,c} - I)/d, Richardson-extrapolated."""
    c = params["c"]
    grid = _grid(params)
    ns = [1, 3]
    rhs = op.generator_fd(op.eigen_k_basis(c, ns, ctx), 0.0, c, grid, ctx, delta=2e-3)
    return _merge([_resid(op.apply_J_series(op.KParams(0.0, c), n, grid, ctx), rhs[:, j], tol,
                          notes=f"n={n}") for j, n in enumerate(ns)], tol)


def _run_I8(params, variant, ctx, tol):
    """Generator relation J_t(a,c) = J_t(0, c') K_{a,c}.

    Left side: the finite-difference definition (K_{a+d,c}-K_{a,c})/d on the
    eigenbasis (the operator definition itself, no closed form).  Right side:
    the composed closed forms under the candidate parameter, i.e. the a = 0
    generator closed form with c' = c q^{-a/2} (variant "half") or c' = c q^{-a}
    (variant "full") applied to the closed eigen-action of K_{a,c}.
    """
    a, c, n = params["a"], params["c"], int(params["n"])
    expo = {"half": 0.5, "full": 1.0}[variant or "half"]
    cv = c * ctx.q ** (-expo * a)
    mid = op.KParams(0.0, cv)
    mid.validate(ctx, allow_zero_a=True)
    grid = _grid(params)
    lhs = op.generator_fd(op.eigen_k_basis(c, n, ctx), a, c, grid, ctx, delta=1e-3)
    rhs = op.k_norm(a, c, ctx.q, n) * np.asarray(op.apply_J_series(mid, n, grid, ctx))
    return _resid(lhs, rhs, tol, notes=f"c'={cv:.6g}")


# ---------------------------------------------------------------------------
# section 5 actions I9-I12
# ---------------------------------------------------------------------------

def _phi_fn(aval, beta, ctx):
    """phi_beta(x; aval) as an AnalyticFn via the h-ratio."""

    def ev(z):
        return h_product_z(z, [aval], ctx) / h_product_z(z, [aval * ctx.q**beta], ctx)

    # the denominator's nearest poles sit at |z| = |aval| q^beta and its inverse
    return op.AnalyticFn(ev, abs(aval) * ctx.q**beta, label=f"phi_{beta}(x;{aval:.3g})")


def _run_phi_action(first, image):
    """Runner of K_{a,c} phi_beta(x; alpha), alpha = first(c, q) one of -1/c
    (I9) and -cq (I10), against

        C (q^{a+beta+1}; q)_oo / (q^{beta+1}; q)_oo prod_j phi_{beta_j}(x; alpha_j)

    with C = op.k_norm and the pairs (alpha_j, beta_j) = image(a, c, beta, q).
    """

    def run(params, variant, ctx, tol):
        a, c, beta = params["a"], params["c"], params["beta"]
        q = ctx.q
        grid = _grid(params)
        lhs = _k_op(a, c, ctx)(_phi_fn(first(c, q), beta, ctx)).on_theta(grid)
        rhs = op.k_norm(a, c, q) * _poch_ratio(a, beta, ctx)
        for alpha_j, beta_j in image(a, c, beta, q):
            rhs = rhs * np.asarray(_phi_fn(alpha_j, beta_j, ctx)(np.exp(1j * grid)))
        return _resid(lhs, rhs, tol)

    return run


_run_I9 = _run_phi_action(
    lambda c, q: -1.0 / c,
    lambda a, c, beta, q: [(-q ** (a / 2.0) / c, beta), (-c * q ** (1.0 - a / 2.0), a)])
_run_I10 = _run_phi_action(
    lambda c, q: -c * q, lambda a, c, beta, q: [(-c * q ** (1.0 - a / 2.0), a + beta)])


def _run_I11(params, variant, ctx, tol):
    """E_q action of K_{a,c} under a Pochhammer-base convention.

        K_{a,c}[h(.;-1/c,-cq) E_q(.;t)] = pref * R *
            h(.;-q^{a/2}/c, -c q^{1-a/2}) E_q(.; t q^{a/2}),
        R = (q^{a+1} t^2; B)_oo / (q t^2; B)_oo,  B = q^2 or q per variant.
    """
    a, c, tval = params["a"], params["c"], params["tval"]
    q = ctx.q
    grid = _grid(params)
    base = variant or "q2"

    def fev(z):
        x = (z + 1.0 / z) / 2.0
        return np.asarray(h_product_z(z, [-1.0 / c, -c * q], ctx)) * np.asarray(
            q_exponential_x(x, tval, ctx)
        )

    f = op.AnalyticFn(fev, 1e-9, label="h*Eq")
    lhs = _k_op(a, c, ctx)(f).on_theta(grid)
    z = np.exp(1j * grid)
    rhs = op.k_norm(a, c, q) * op.eq_ratio(a, tval, base, ctx) * np.asarray(
        h_product_z(z, [-q ** (a / 2.0) / c, -c * q ** (1.0 - a / 2.0)], ctx)
    ) * np.asarray(q_exponential(grid, tval * q ** (a / 2.0), ctx))
    return _resid(lhs, rhs, tol, notes=f"base={base}")


def _run_I12(params, variant, ctx, tol):
    """Adjoint pairing: both sides of the E_q relation under a base variant."""
    a, c, tval = params["a"], params["c"], params["tval"]
    base = variant or "q2"
    p = op.KParams(a, c)
    f = op.eigen_k_basis(c, [0, 1], ctx)
    lhs = op.adjoint_pairing(p, f, tval, "left", ctx, base=base)
    rhs = op.adjoint_pairing(p, f, tval, "right", ctx, base=base)
    return _merge([_resid([lhs[n]], [rhs[n]], tol, notes=f"n={n}") for n in (0, 1)], tol,
                  notes=f"base={base}")


# ---------------------------------------------------------------------------
# section 6: Askey-Wilson actions and the bilinear kernel I13-I16
# ---------------------------------------------------------------------------

def _aw_fn(n, t: AWParams, ctx):
    return op.analytic_from_x(lambda x: aw_polynomial_x(n, x, t, ctx),
                              label=f"p_{n}")


def _shift6(a, c, a3, a4, q) -> AWParams:
    """(-q^{a/2}/c, -c q^{1+a/2}, q^{-a/2} a3, q^{-a/2} a4): the section-6
    image quadruple of (-1/c, -cq, a3, a4)."""
    return AWParams(-q ** (a / 2.0) / c, -c * q ** (1.0 + a / 2.0),
                    q ** (-a / 2.0) * a3, q ** (-a / 2.0) * a4)


def _c6(a, n, ctx: QContext):
    """C_n = (q^{a+n+1}; q)_oo / (q^{n+1}; q)_oo q^{an/2}, broadcast over n."""
    return _poch_ratio(a, n, ctx) * ctx.q ** (a * n / 2.0)


def _k_on_aw(n, t: AWParams, params, ctx):
    """K_{a,c} p_n(.; t) on the grid, with the grid, z = e^{i theta} on it,
    and the two factors of every section-6 closed form:
    (q^{a+1}; q)_oo / (q; q)_oo and h(x; -c q^{1-a/2}) / h(x; -c q^{1+a/2})."""
    a, c, q = params["a"], params["c"], ctx.q
    grid = _grid(params)
    lhs = _k_op(a, c, ctx)(_aw_fn(n, t, ctx)).on_theta(grid)
    z = np.exp(1j * grid)
    hrat = np.asarray(h_product_z(z, [-q ** (1.0 - a / 2.0) * c], ctx)) / np.asarray(
        h_product_z(z, [-c * q ** (1.0 + a / 2.0)], ctx)
    )
    return grid, z, lhs, _poch_ratio(a, 0, ctx), hrat


def _run_5phi4(first):
    """Runner of K_{a,c} p_n(.; alpha, a2, a3, a4) against the 5phi4 closed
    form, alpha = first(c, q) one of the two parameters -1/c (I13) and -cq
    (I14) that h(.; -1/c, -cq) cancels:

        alpha^{-n} q^{a(a-3)/4} ((1-q)/(2c))^a (a2 alpha, a3 alpha, a4 alpha; q)_n
            (q^{a+1}; q)_oo / (q; q)_oo h(x; -c q^{1-a/2}) / h(x; -c q^{1+a/2})
            * 5phi4(q^{-n}, q^{n-1} alpha a2 a3 a4, q, q^{a/2} alpha z, q^{a/2} alpha / z;
                    a2 alpha, a3 alpha, a4 alpha, q^{a+1}).
    """

    def run(params, variant, ctx, tol):
        a, c, n = params["a"], params["c"], int(params["n"])
        a2, a3, a4 = params["a2"], params["a3"], params["a4"]
        q = ctx.q
        alpha = first(c, q)
        _, z, lhs, ratio, hrat = _k_on_aw(n, AWParams(alpha, a2, a3, a4), params, ctx)
        pref = op.k_norm(a, c, q, factor=alpha ** (-n))
        pochs = complex(
            qpoch_finite(a2 * alpha, n, ctx) * qpoch_finite(a3 * alpha, n, ctx)
            * qpoch_finite(a4 * alpha, n, ctx)
        )
        upper = [q ** (-n), q ** (n - 1) * alpha * a2 * a3 * a4, q,
                 q ** (a / 2.0) * alpha * z, q ** (a / 2.0) * alpha / z]
        lower = [a2 * alpha, a3 * alpha, a4 * alpha, q ** (a + 1.0)]
        phi54 = np.asarray(bhs_terminating(upper, lower, q, n, ctx))
        rhs = pref * pochs * ratio * hrat * phi54
        return _resid(lhs, rhs, tol)

    return run


def _run_I15(params, variant, ctx, tol):
    """Special case a2 = -cq: the reduced 4phi3 closed form and the transmutation to
    p_n(.; -q^{a/2}/c, -c q^{1+a/2}, q^{-a/2} a3, q^{-a/2} a4)."""
    a, c, n = params["a"], params["c"], int(params["n"])
    a3, a4 = params["a3"], params["a4"]
    q = ctx.q
    if abs(q ** (-a / 2.0) * a3) >= 1.0 or abs(q ** (-a / 2.0) * a4) >= 1.0:
        raise ParamDomain("shifted parameters q^{-a/2} a_j leave the unit disc")
    grid, z, lhs, ratio, hrat = _k_on_aw(n, AWParams(-1.0 / c, -c * q, a3, a4), params, ctx)
    # reduced 4phi3 closed form
    pref = op.k_norm(a, c, q, factor=(-1.0) ** n * c**n)
    pochs = complex(
        qpoch_finite(q, n, ctx) * qpoch_finite(-a3 / c, n, ctx)
        * qpoch_finite(-a4 / c, n, ctx)
    )
    upper = [q ** (-n), q**n * a3 * a4, -q ** (a / 2.0) * z / c, -q ** (a / 2.0) / (z * c)]
    lower = [-a3 / c, -a4 / c, q ** (a + 1.0)]
    rhs_405 = pref * pochs * ratio * hrat * np.asarray(
        bhs_terminating(upper, lower, q, n, ctx)
    )
    # transmutation closed form
    rhs_trans = op.k_norm(a, c, q) * _c6(a, n, ctx) * hrat \
        * aw_polynomial(n, grid, _shift6(a, c, a3, a4, q), ctx)
    return _merge([
        _resid(lhs, rhs_405, tol, notes="4phi3"),
        _resid(lhs, rhs_trans, tol, notes="transmutation"),
    ], tol)


def _bilinear_constants(n, t_shift: AWParams, t_base: AWParams, cn, ctx: QContext):
    """(M_n(t_shift), M_n(t_base), c_n) over n as reals: a bilinear formula's constants."""
    return (np.real(aw_norm_Mn(n, t_shift, ctx)), np.real(aw_norm_Mn(n, t_base, ctx)),
            np.real(cn))


def section6_constants(n, a: float, c: float, a3, a4, ctx: QContext):
    """(A_n, B_n, C_n) of the section-6 bilinear formula, broadcast over n."""
    return _bilinear_constants(n, _shift6(a, c, a3, a4, ctx.q),
                               AWParams(-1.0 / c, -c * ctx.q, a3, a4), _c6(a, n, ctx), ctx)


def _coupling_factors(z, s, t_shift: AWParams, ctx: QContext):
    """poisson_factors of the coupling integrals at the points z and t = s:
    2pi / (q; q)_oo times their node factor is the coupling weight
    w0 = w(cos theta; t_shift) h(cos theta; t_shift.t1, t_shift.t2)^2
       = (e^{+-2i theta}; q)_oo h(cos theta; t_shift.t1, t_shift.t2)
         / h(cos theta; t_shift.t3, t_shift.t4),
    the h^2 cancelling two of w's four h factors."""
    return poisson_factors(z, s, (t_shift.t1, t_shift.t2), (t_shift.t3, t_shift.t4), ctx)


def _bilinear_kernel(phi1, phi2, h_params, t_shift: AWParams, s, t_base: AWParams,
                     ctx: QContext) -> complex:
    """[w_H sin phi1 / h(phi1; h_params)] [w_H sin phi2 / h(phi2; h_params)]
    / w(phi2; t_base) * integral_0^pi w0(theta) P_s(theta, phi1) P_s(theta, phi2) dtheta
    with w0 the coupling weight of _coupling_factors and P_s the q-Hermite
    Poisson kernel: the kernel of both bilinear formulas.  The integrand's
    poles are the kernels' peaks, at theta = |arg(s e^{i phi_k})| and
    |Im theta| = -ln|s|, and those w0 keeps, of 1/h(cos theta; t_shift.t3,
    t_shift.t4)."""
    zpair = np.exp(1j * np.array([phi1, phi2]))
    br1, br2 = poisson_factors((), 0.0, (), h_params, ctx)(zpair)[0][:, 0]
    factors = _coupling_factors(zpair, s, t_shift, ctx)

    def igr(ths):
        node, kernels = factors(np.exp(1j * ths))
        return node[:, 0] * kernels[:, 0] * kernels[:, 1]

    res = integrate_theta(igr, ctx, strip=math.inf,
                          poles=h_poles([s * zpair[0], s * zpair[1], t_shift.t3, t_shift.t4]))
    inner = complex(converged_value(res, f"coupling integral at s={s:.6g}"))
    return br1 * br2 * (2.0 * np.pi / euler_product(ctx)) * inner / aw_weight(phi2, t_base, ctx)


def bilinear_kernel_6(phi1: float, phi2: float, p: op.KParams, a3, a4,
                      ctx: QContext) -> complex:
    """The section-6 bilinear kernel K(cos phi1, cos phi2):

        [w_H sin phi1 / h(phi1;-1/c,-cq)] [w_H sin phi2 / h(phi2;-1/c,-cq)]
        / w(phi2; -1/c,-cq,a3,a4)
        * integral of w_0(theta) P(theta, phi1) P(theta, phi2) d theta,

    P the q-Hermite Poisson kernel at t = q^{a/2}.  Its (q^a; q)_oo numerator
    is the factor of the operator kernel (as (r^2; q)_oo is in the
    three-parameter family), which is what makes the diagonal of the
    companion orthogonality equal A_n C_n^2.
    """
    p.validate(ctx)
    a, c, q = p.a, p.c, ctx.q
    for s, name in ((q ** (-a / 2.0) * a3, "q^{-a/2} a3"), (q ** (-a / 2.0) * a4, "q^{-a/2} a4"),
                    (c * q ** (1.0 + a / 2.0), "c q^{1+a/2}")):
        if abs(s) >= 1.0:
            raise ParamDomain(f"|{name}| >= 1 puts a pole in w_0")
    return _bilinear_kernel(phi1, phi2, [-1.0 / c, -c * q], _shift6(a, c, a3, a4, q),
                            q ** (a / 2.0), AWParams(-1.0 / c, -c * q, a3, a4), ctx)


def _bilinear_series(phi1: float, phi2: float, constants, t: AWParams,
                     ctx: QContext, tol: float):
    """sum_n A_n (C_n / B_n)^2 p_n(phi1; t) p_n(phi2; t), (A_n, B_n, C_n) =
    constants(n) for an array of n, settled with tolerance tol and floor
    _FLOOR; returns (value, n_terms)."""
    x, p = np.cos([phi1, phi2]), None

    def terms(n):
        nonlocal p
        An, Bn, Cn = constants(n)
        p = aw_polynomial_all(n[-1], x, t, ctx, head=p)
        return An * (Cn / Bn) ** 2 * p[n, 0] * p[n, 1]

    value, n_terms = settled_sum(terms, tol, _FLOOR, ctx, "bilinear series")
    return complex(value), n_terms


def bilinear_series_6(phi1: float, phi2: float, p: op.KParams, a3, a4,
                      ctx: QContext, tol: float = 1e-12):
    """sum_n A_n (C_n / B_n)^2 p_n(phi1) p_n(phi2) with the section-6
    constants; returns (value, n_terms)."""
    a, c = p.a, p.c
    return _bilinear_series(phi1, phi2, lambda n: section6_constants(n, a, c, a3, a4, ctx),
                            AWParams(-1.0 / c, -c * ctx.q, a3, a4), ctx, tol)


_SPOT_PAIRS = ((1.0, 1.8), (0.7, 2.2), (1.3, 1.3))


def _spot_pairs(kernel, series, t_base: AWParams, ctx, tol) -> list[Residual]:
    """kernel(phi1, phi2) / w(phi1; t_base) against the series value at the
    spot pairs of a bilinear formula."""
    parts = []
    for (p1, p2) in _SPOT_PAIRS:
        kv = kernel(p1, p2) / aw_weight(p1, t_base, ctx)
        sv, _ = series(p1, p2)
        parts.append(_resid([kv], [sv], tol, notes=f"pair({p1},{p2})"))
    return parts


def _run_I16(params, variant, ctx, tol):
    """Section-6 bilinear formula at spot pairs plus the triple-integral
    orthogonality: diagonal == A_n C_n^2, off-diagonal below 1e-7 x diagonal."""
    a, c = params["a"], params["c"]
    a3, a4 = params["a3"], params["a4"]
    q = ctx.q
    p = op.KParams(a, c)
    t_base = AWParams(-1.0 / c, -c * q, a3, a4)
    parts = _spot_pairs(lambda p1, p2: bilinear_kernel_6(p1, p2, p, a3, a4, ctx),
                        lambda p1, p2: bilinear_series_6(p1, p2, p, a3, a4, ctx, tol=1e-11),
                        t_base, ctx, tol)

    # reduced triple integrals: Itilde_0 and Itilde_1 from one application of
    # the same Poisson kernel, and the products (0,0), (1,1), (0,1) of
    # w0 Itilde_n Itilde_m as one three-component integral
    tsh = _shift6(a, c, a3, a4, q)
    w0 = _coupling_factors((), 0.0, tsh, ctx)

    def igr(ths):
        res = op.poisson_integral(q ** (a / 2.0),
                                  lambda zeta: aw_polynomial_all(1, zeta.real, t_base, ctx).T,
                                  [-1.0 / c, -c * q], math.inf, np.exp(1j * ths), 1.0, ctx)
        i = converged_value(res, "Itilde_0,1")
        return w0(np.exp(1j * ths))[0][:, :1] * i[:, [0, 1, 1]] * i[:, [0, 1, 0]]

    # Itilde_n has annulus q^{a/2}; w0 keeps the poles of 1/h(.; t3, t4)
    res = integrate_theta(igr, ctx, strip=-math.log(q ** (a / 2.0)),
                          poles=h_poles([tsh.t3, tsh.t4]))
    triple = 2.0 * np.pi / euler_product(ctx) * converged_value(res, "triple integrals")
    An, _, Cn = section6_constants(np.arange(2), a, c, a3, a4, ctx)
    diag = An * Cn**2
    parts += [_resid([triple[n]], [diag[n]], tol, notes=f"int2 diag n={n}") for n in (0, 1)]
    off, scale = abs(triple[2]), float(np.max(np.abs(diag)))
    parts.append(Residual(off, off / scale, 1, scale, off / scale < 1e-7,
                          notes="int2 offdiag (0,1)"))
    return _merge(parts, tol)


# ---------------------------------------------------------------------------
# section 7: T family I17-I23
# ---------------------------------------------------------------------------

def _run_I17(params, variant, ctx, tol):
    """Multiplicative semigroup T(a,b,r) T(a,b,s) = T(a,b,rs)."""
    a, b, r, s = params["a"], params["b"], params["r"], params["s"]
    return _composition(_t_op(a, b, r, ctx), _t_op(a, b, s, ctx), _t_op(a, b, r * s, ctx),
                        _test_fns(op.eigen_t_basis(a, b, 2, ctx)), params, tol)


def _run_I18(params, variant, ctx, tol):
    """Identity limit of T(a,b,r) as r -> 1- on f = cos 2 theta.

    Pass rule: monotone decrease and at least 3x per rung (the error is
    essentially linear in 1 - r, so each rung contracts by about 10)."""

    def verdict(res):
        ratios = [r1 / max(r2, _FLOOR) for r1, r2 in zip(res, res[1:])]
        return all(r >= 3.0 for r in ratios), "ratios=" + ",".join(f"{r:.2f}" for r in ratios)

    return _limit_ladder(lambda r: _t_op(params["a"], params["b"], r, ctx), _I18_LADDER,
                         params, verdict)


def _run_I19(params, variant, ctx, tol):
    """Eigen-action: T(a,b,r) h(.;a,b) H_n = r^n h(.;a,b) H_n, n <= nmax."""
    tp = op.TParams(params["a"], params["b"], params["r"])
    tp.validate(ctx)
    nmax = int(params.get("n", 6))
    return _eigen_actions(_t_op(tp.a, tp.b, tp.r, ctx),
                          lambda ns: op.eigen_t_basis(tp.a, tp.b, ns, ctx),
                          lambda f, grid: tp.r ** np.arange(nmax + 1) * f.on_theta(grid),
                          range(nmax + 1), params, tol, notes=f"n<={nmax}", shared_scale=True)


def _bq_forms(a, b, r, n, ref, params, ctx, tol):
    """Both general B_q(a,b) forms on T(a,b,r) f, f = h(.;a,b) H_n, against
    ref(f, T(a,b,r) f)."""
    if r * ctx.q ** (-0.5) >= 1.0:
        raise ParamDomain("r q^{-1/2} must stay below 1")
    grid = _grid(params)
    f = op.eigen_t_basis(a, b, n, ctx)
    tf = _t_op(a, b, r, ctx)(f)
    want = ref(f, tf).on_theta(grid)
    parts = []
    for form in ("direct", "factored"):
        lhs = op.apply_Bq(a, b, tf, ctx, form=form).on_theta(grid)
        parts.append(_resid(lhs, want, tol, notes=form))
    return _merge(parts, tol)


def _run_I20(params, variant, ctx, tol):
    """Shift property B_q(a,b) T(a,b,r) = T(a,b, r q^{-1/2}), both B_q forms."""
    a, b, r = params["a"], params["b"], params["r"]
    return _bq_forms(a, b, r, int(params.get("n", 2)),
                     lambda f, tf: _t_op(a, b, r * ctx.q ** (-0.5), ctx)(f), params, ctx, tol)


def _shift7(t: AWParams, r) -> AWParams:
    """(t1 r, t2 r, t3/r, t4/r): the section-7 image quadruple of t."""
    return AWParams(t.t1 * r, t.t2 * r, t.t3 / r, t.t4 / r)


def _c7(t: AWParams, r, n, ctx: QContext):
    """c_n = (r^2 t1 t2 q^n; q)_oo / (t1 t2 q^n; q)_oo r^n, broadcast over n."""
    tq = t.t1 * t.t2 * ctx.q**n
    num, den = qpoch_infinite(np.stack(np.broadcast_arrays(r * r * tq, tq)), ctx)
    return num / den * r**n


def _run_I21(params, variant, ctx, tol):
    """Transmutation: T(t1,t2,r) p_n(.;t) = c_n [h(x;t1,t2)/h(x;t1 r,t2 r)]
    p_n(x; t1 r, t2 r, t3/r, t4/r)."""
    t1, t2, t3, t4, r = (params[k] for k in ("t1", "t2", "t3", "t4", "r"))
    n = int(params["n"])
    if abs(t3 / r) >= 1.0 or abs(t4 / r) >= 1.0:
        raise ParamDomain("t3/r, t4/r must stay inside the unit disc")
    grid = _grid(params)
    t = AWParams(t1, t2, t3, t4)
    lhs = _t_op(t1, t2, r, ctx)(_aw_fn(n, t, ctx)).on_theta(grid)
    z = np.exp(1j * grid)
    hr = np.asarray(h_product_z(z, [t1, t2], ctx)) / np.asarray(
        h_product_z(z, [t1 * r, t2 * r], ctx)
    )
    rhs = _c7(t, r, n, ctx) * hr * aw_polynomial(n, grid, _shift7(t, r), ctx)
    return _resid(lhs, rhs, tol)


def section7_constants(n, t: AWParams, r: float, ctx: QContext):
    """(a_n, b_n, c_n) of the section-7 bilinear formula, broadcast over n."""
    return _bilinear_constants(n, _shift7(t, r), t, _c7(t, r, n, ctx), ctx)


def bilinear_kernel_7(phi1: float, phi2: float, p: op.TParams, t: AWParams,
                      ctx: QContext) -> complex:
    """The section-7 kernel k_0(cos phi1, cos phi2) with
    W_0(cos th | t1 r, t2 r, t3/r, t4/r) = w(cos th; ...) h^2(cos th; t1 r, t2 r)
    (the variable of w is read as cos theta)."""
    p.validate(ctx)
    t1, t2, r = p.a, p.b, p.r
    t3, t4 = t.t3, t.t4
    if (t1, t2) != (t.t1, t.t2):
        raise CaseInvalid("TParams (a, b) must equal (t1, t2) of the quadruple")
    for s, name in ((t3 / r, "t3/r"), (t4 / r, "t4/r"), (t1 * r, "t1 r"), (t2 * r, "t2 r")):
        if abs(s) >= 1.0:
            raise ParamDomain(f"|{name}| >= 1 puts a pole in W_0")
    return _bilinear_kernel(phi1, phi2, [t1, t2], _shift7(t, r), r, t, ctx)


def bilinear_series_7(phi1: float, phi2: float, p: op.TParams, t: AWParams,
                      ctx: QContext, tol: float = 1e-12):
    """sum_n a_n (c_n / b_n)^2 p_n(phi1; t) p_n(phi2; t); returns (value, n)."""
    return _bilinear_series(phi1, phi2, lambda n: section7_constants(n, t, p.r, ctx),
                            t, ctx, tol)


def _run_I22(params, variant, ctx, tol):
    """Section-7 bilinear formula: kernel/w(phi1;t) == truncated series."""
    t1, t2, t3, t4, r = (params[k] for k in ("t1", "t2", "t3", "t4", "r"))
    t = AWParams(t1, t2, t3, t4)
    p = op.TParams(t1, t2, r)
    return _merge(_spot_pairs(lambda p1, p2: bilinear_kernel_7(p1, p2, p, t, ctx),
                              lambda p1, p2: bilinear_series_7(p1, p2, p, t, ctx, tol=1e-11),
                              t, ctx, tol), tol)


def _run_I23(params, variant, ctx, tol):
    """b = q^{1/2} a: the simplified B_q form agrees with both general
    forms on a T-image of an eigenfunction."""
    a = params["a"]
    return _bq_forms(a, math.sqrt(ctx.q) * a, params["r"], 2,
                     lambda f, tf: op.bq_special_case(a, tf, ctx), params, ctx, tol)


# ---------------------------------------------------------------------------
# registry and drivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityDef:
    id: str
    summary: str
    tol: float
    runner: object
    required: tuple
    variants: tuple = ()


REGISTRY = {
    d.id: d
    for d in [
        IdentityDef("I0a", "q-Hermite orthogonality", 1e-9, _run_I0a, ("q",)),
        IdentityDef("I0b", "Poisson kernel series == product", 1e-11, _run_I0b, ("q",)),
        IdentityDef("I0c", "Askey-Wilson integral", 1e-9, _run_I0c, ("q",)),
        IdentityDef("I0d", "Jacobi triple product", 1e-11, _run_I0d, ("q",)),
        IdentityDef("I1", "K composition law", 1e-7, _run_I1, ("q", "a", "b", "c")),
        IdentityDef("I2", "K identity limit ladder", 1e-7, _run_I2, ("q", "c")),
        IdentityDef("I3", "D_q K_{a,c} = K_{a-1,c}", 1e-7, _run_I3, ("q", "a", "c")),
        IdentityDef("I4", "left inverse", 1e-7, _run_I4, ("q", "a", "c"),
                    ("half", "full")),
        IdentityDef("I5", "K eigen-action", 1e-7, _run_I5, ("q", "a", "c")),
        IdentityDef("I6", "generator closed form vs FD", 1e-5, _run_I6,
                    ("q", "a", "c", "n")),
        IdentityDef("I7", "generator at a=0", 1e-5, _run_I7, ("q", "c")),
        IdentityDef("I8", "generator relation parameter", 1e-5, _run_I8,
                    ("q", "a", "c", "n"), ("half", "full")),
        IdentityDef("I9", "K on phi_beta(x;-1/c)", 1e-7, _run_I9,
                    ("q", "a", "c", "beta")),
        IdentityDef("I10", "K on phi_beta(x;-cq)", 1e-7, _run_I10,
                    ("q", "a", "c", "beta")),
        IdentityDef("I11", "K on h E_q base convention", 1e-7, _run_I11,
                    ("q", "a", "c", "tval"), ("q2", "q")),
        IdentityDef("I12", "E_q adjoint pairing base convention", 1e-7, _run_I12,
                    ("q", "a", "c", "tval"), ("q2", "q")),
        IdentityDef("I13", "K maps p_n to 5phi4", 1e-7,
                    _run_5phi4(lambda c, q: -1.0 / c),
                    ("q", "a", "c", "n", "a2", "a3", "a4")),
        IdentityDef("I14", "companion 5phi4 map", 1e-7,
                    _run_5phi4(lambda c, q: -c * q),
                    ("q", "a", "c", "n", "a2", "a3", "a4")),
        IdentityDef("I15", "4phi3 special case + transmutation", 1e-7, _run_I15,
                    ("q", "a", "c", "n", "a3", "a4")),
        IdentityDef("I16", "section-6 bilinear kernel", 1e-6, _run_I16,
                    ("q", "a", "c", "a3", "a4")),
        IdentityDef("I17", "T semigroup", 1e-7, _run_I17, ("q", "a", "b", "r", "s")),
        IdentityDef("I18", "T identity limit ladder", 1e-7, _run_I18, ("q", "a", "b")),
        IdentityDef("I19", "T eigen-action", 1e-7, _run_I19, ("q", "a", "b", "r")),
        IdentityDef("I20", "B_q shift of T", 1e-6, _run_I20, ("q", "a", "b", "r")),
        IdentityDef("I21", "T transmutation of p_n", 1e-7, _run_I21,
                    ("q", "t1", "t2", "t3", "t4", "r", "n")),
        IdentityDef("I22", "section-7 bilinear kernel", 1e-6, _run_I22,
                    ("q", "t1", "t2", "t3", "t4", "r")),
        IdentityDef("I23", "B_q special case b=q^{1/2}a", 1e-7, _run_I23,
                    ("q", "a", "r")),
    ]
}


def registry_ids():
    return list(REGISTRY)


def run_identity(case: IdentityCase, base_ctx: QContext | None = None) -> Residual:
    """Evaluate one identity case; raises CaseInvalid/ParamDomain on
    parameter violations (a rejected case is never a silent pass).

    The case runs inside one qcore.table_scope: an h product that repeats
    an earlier one of the same case (same points, parameters and context)
    reads its stored value back, bit for bit, and the store is dropped when
    the case returns or raises."""
    spec = REGISTRY.get(case.id)
    if spec is None:
        raise CaseInvalid(f"unknown identity id {case.id!r}")
    if spec.variants and case.variant is not None and case.variant not in spec.variants:
        raise CaseInvalid(f"{case.id} has variants {spec.variants}, got {case.variant!r}")
    missing = [k for k in spec.required if k not in case.params]
    if missing:
        raise CaseInvalid(f"{case.id} missing parameters: {', '.join(missing)}")
    ctx = _mk_ctx(case.params, base_ctx)
    with table_scope():
        return spec.runner(case.params, case.variant, ctx, spec.tol)


def default_cases() -> list[IdentityCase]:
    """The deterministic default grid: every registry id appears at least
    once; window-invalid combinations are kept (they become skip records)."""
    qs = (0.3, 0.5, 0.7)
    cs = (1.2, 1.4)
    cases: list[IdentityCase] = []
    add = cases.append
    for q in qs:
        add(IdentityCase("I0a", {"q": q, "n": 8}))
        for t in (0.4, -0.35):
            add(IdentityCase("I0b", {"q": q, "t": t}))
        add(IdentityCase("I0c", {"q": q}))
        add(IdentityCase("I0d", {"q": q}))
        for c in cs:
            for (a, b) in ((0.4, 1.0), (1.0, 0.4)):
                add(IdentityCase("I1", {"q": q, "a": a, "b": b, "c": c}))
            add(IdentityCase("I2", {"q": q, "c": c}))
            for a in (1.5, 2.3):
                add(IdentityCase("I3", {"q": q, "a": a, "c": c}))
            for a in (0.5, 1.0, 1.5):
                for v in ("half", "full"):
                    add(IdentityCase("I4", {"q": q, "a": a, "c": c}, variant=v))
            for a in (0.4, 1.0, 1.7):
                add(IdentityCase("I5", {"q": q, "a": a, "c": c, "n": 8}))
        for (a, n, c) in ((0.4, 2, 1.2), (1.0, 1, 1.2), (1.7, 3, 1.2)):
            add(IdentityCase("I6", {"q": q, "a": a, "c": c, "n": n}))
        add(IdentityCase("I7", {"q": q, "c": 1.2}))
        for (a, c) in ((0.4, 1.2), (0.4, 1.4), (1.0, 1.2)):
            for v in ("half", "full"):
                add(IdentityCase("I8", {"q": q, "a": a, "c": c, "n": 2}, variant=v))
        for beta in (0.5, 1.0, 2.3):
            add(IdentityCase("I9", {"q": q, "a": 0.8, "c": 1.2, "beta": beta}))
            add(IdentityCase("I10", {"q": q, "a": 0.8, "c": 1.2, "beta": beta}))
        for v in ("q2", "q"):
            add(IdentityCase("I11", {"q": q, "a": 0.8, "c": 1.2, "tval": 0.25}, variant=v))
            add(IdentityCase("I12", {"q": q, "a": 0.8, "c": 1.2, "tval": 0.25}, variant=v))
        for n in (1, 3, 6):
            add(IdentityCase("I13", {"q": q, "a": 0.8, "c": 1.2, "n": n,
                                     "a2": 0.3, "a3": 0.2, "a4": 0.1}))
            add(IdentityCase("I14", {"q": q, "a": 0.8, "c": 1.2, "n": n,
                                     "a2": 0.3, "a3": 0.2, "a4": 0.1}))
            add(IdentityCase("I15", {"q": q, "a": 0.8, "c": 1.2, "n": n,
                                     "a3": 0.2, "a4": 0.1}))
        add(IdentityCase("I16", {"q": q, "a": 0.8, "c": 1.2, "a3": 0.2, "a4": 0.1}))
        for (r, s) in ((0.2, 0.5), (0.5, 0.8)):
            add(IdentityCase("I17", {"q": q, "a": 0.4, "b": 0.3, "r": r, "s": s}))
        add(IdentityCase("I18", {"q": q, "a": 0.4, "b": 0.3}))
        for r in (0.2, 0.5, 0.8):
            add(IdentityCase("I19", {"q": q, "a": 0.4, "b": 0.3, "r": r, "n": 6}))
        for r in (0.2, 0.5):
            add(IdentityCase("I20", {"q": q, "a": 0.4, "b": 0.3, "r": r, "n": 2}))
        for (r, n) in ((0.2, 1), (0.5, 1), (0.5, 4), (0.8, 4)):
            add(IdentityCase("I21", {"q": q, "t1": 0.4, "t2": 0.3, "t3": 0.2,
                                     "t4": 0.1, "r": r, "n": n}))
        add(IdentityCase("I22", {"q": q, "t1": 0.4, "t2": 0.3, "t3": 0.2,
                                 "t4": 0.1, "r": 0.5}))
        add(IdentityCase("I23", {"q": q, "a": 0.35, "r": 0.3}))
    return cases


def run_case(case: IdentityCase, base_ctx: QContext | None = None) -> IdentityReport:
    """Run one case and classify it: a parameter or case violation is a
    skip with its reason, a numerical breakdown (any other QFracError) a
    fail with the error in notes; evals counts the integrand nodes."""
    eval_counter.n = 0
    t0 = time.perf_counter()
    residual, status, reason = None, "skip", ""
    try:
        residual = run_identity(case, base_ctx)
        status = "pass" if residual.passed else "fail"
    except (ParamDomain, CaseInvalid) as exc:
        reason = str(exc)
    except QFracError as exc:
        # numerical breakdown inside a valid case is a failure, not a skip
        residual = Residual(math.inf, math.inf, 0, 0.0, False,
                            notes=f"{type(exc).__name__}: {exc}")
        status = "fail"
    return IdentityReport(case, residual, status, reason, eval_counter.n,
                          time.perf_counter() - t0)


def variant_groups_ok(reports: list[IdentityReport]):
    """The convention-variant contract: within every variant group that ran,
    exactly one variant passes.  Returns (ok, resolved) with resolved mapping
    each group's base case key to the surviving variant (None on violation).
    Groups whose members were all window-skipped yield no verdict."""
    groups: dict[str, list[IdentityReport]] = {}
    for r in reports:
        if r.case.variant is None:
            continue
        base = IdentityCase(r.case.id, r.case.params).key()
        groups.setdefault(base, []).append(r)
    ok = True
    resolved: dict[str, str | None] = {}
    for base, rs in sorted(groups.items()):
        passed = [r.case.variant for r in rs if r.status == "pass"]
        ran = [r for r in rs if r.status != "skip"]
        if len(passed) == 1:
            resolved[base] = passed[0]
        elif not ran:
            continue
        else:
            ok = False
            resolved[base] = None
    return ok, resolved


def suite_failures(reports: list[IdentityReport]) -> list[str]:
    """Case keys that make a suite run count as failed: non-variant failures
    plus violations of the exactly-one-variant rule (an intentionally wrong
    convention variant failing on its own is the expected record)."""
    bad = [r.case.key() for r in reports
           if r.status == "fail" and r.case.variant is None]
    ok, resolved = variant_groups_ok(reports)
    if not ok:
        bad.extend(k for k, v in resolved.items() if v is None)
    return bad


def run_suite(grid_spec: str = "default", base_ctx: QContext | None = None
              ) -> list[IdentityReport]:
    """Run a named case grid serially; reports come back in case order."""
    if grid_spec == "default":
        cases = default_cases()
    elif grid_spec == "quick":
        cases = [c for c in default_cases() if c.params["q"] == 0.5]
    elif grid_spec == "empty":
        cases = []
    else:
        raise CaseInvalid(f"unknown grid spec {grid_spec!r}")
    return [run_case(c, base_ctx) for c in cases]
