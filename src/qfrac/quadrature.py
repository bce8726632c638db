"""Quadrature on [0, pi]: a periodic trapezoid rule, a sinh-mapped
Gauss-Legendre rule and adaptive Gauss-Kronrod.

Integrands that are even, 2pi-periodic and analytic in the strip
|Im phi| < b (every Poisson-kernel integral) may state b.  When the rule size
that b predicts fits under a fixed cap, they get the trapezoid rule on the
nodes pi j / M, whose error falls like e^{-2bM} (Trefethen & Weideman,
SIAM Rev. 56 (2014) 385-458).  M doubles from 16, each step evaluating only
the new odd nodes, until two successive rules agree.

Integrands that peak may state their peaks too: per component a centre and
the distance of its poles from the contour (the Poisson kernel as t -> 1).
When b is too narrow for the trapezoid rule and the rest of the integrand
leaves room, [0, pi] is split at each centre and each piece gets
Gauss-Legendre under the sinh map of Johnston & Elliott (IJNME 62 (2005)
564-578), which clusters the nodes at the peak on the scale of the pole
distance; every component has nodes of its own, and M doubles from 16 until
two successive rules agree.

Every other integrand, and every strip too narrow for either cap, gets
adaptive refinement: a 15-point Kronrod rule with the embedded 7-point Gauss
rule is applied per panel; panels whose |K15 - G7| exceeds their share of the
error budget are bisected, leftmost-first, so the panel ordering (and
therefore the floating point result) is identical on every run with the same
context.

All three rules share one convergence test: every component's error estimate
is at most quad_rel_tol * max(|value|, L1 mass), the mass being the integral
of |f| (an integral that cancels to 0 is judged against what it cancels).

Integrands may be vector valued: f(nodes) may return shape (m,) or (m, B)
for B simultaneous integrals (one rule, driven by the worst component).
That is how operator applications evaluate a whole theta-grid with a single
quadrature.
"""

from __future__ import annotations

import functools
import heapq
import math
import threading
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .errors import NonConvergent

__all__ = ["QuadResult", "integrate_theta", "converged_value", "eval_counter"]

# QUADPACK dqk15 abscissae/weights (Kronrod 15 with embedded Gauss 7).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

# full 15-node layout: +-xgk[0..6], 0; Gauss nodes are the odd Kronrod indices
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:7:2] = _WG[:3]
_WGFULL[7] = _WG[3]
_WGFULL[9:15:2] = _WG[2::-1]

_FLOOR_SCALE = 1e-300


class _EvalCounter(threading.local):
    def __init__(self):
        self.n = 0


eval_counter = _EvalCounter()
"""Thread-local integrand evaluation counter (identity reports read it)."""


@dataclass
class QuadResult:
    """Outcome of one integration.

    err_ratio is the worst component's error estimate over its allowance
    quad_rel_tol * max(|value|, L1 mass); converged means err_ratio <= 1 and
    the rule stopped on that test, not on a depth or size cap.  err_est is
    the largest absolute estimate.  value is complex for scalar integrands,
    an ndarray for vector ones.  evals counts the nodes f was called on; the
    sinh-mapped rule gives every component nodes of its own, and each of
    those counts once.
    """

    value: object
    err_est: float
    evals: int
    converged: bool
    err_ratio: float


def converged_value(res: QuadResult, what: str):
    """res.value, or NonConvergent naming what was integrated, the error
    ratio and the node count when the rule did not converge."""
    if not res.converged:
        raise NonConvergent(
            f"{what}: quadrature did not converge after {res.evals} nodes "
            f"(err_est/(tol*mass) = {res.err_ratio:.3g})"
        )
    return res.value


def _panel(f, lo, hi):
    """One GK15 application; returns (kronrod_vec, |K-G| per component,
    L1 magnitude per component, nodes used).  The L1 magnitude sets the
    rounding floor below which an error estimate is pure noise."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * _NODES
    fx = np.asarray(f(x), dtype=np.complex128)
    eval_counter.n += x.size
    if fx.ndim == 1:
        k15 = half * (_WK @ fx)
        g7 = half * (_WGFULL @ fx)
        l1 = half * (_WK @ np.abs(fx))
    else:
        k15 = half * np.tensordot(_WK, fx, axes=(0, 0))
        g7 = half * np.tensordot(_WGFULL, fx, axes=(0, 0))
        l1 = half * np.tensordot(_WK, np.abs(fx), axes=(0, 0))
    err = np.abs(np.atleast_1d(k15 - g7))
    return k15, err, np.atleast_1d(l1), x.size


_MAX_PANELS = 20000


def _quad_vec(f, ctx: QContext, n_initial=4):
    """Global adaptive refinement: always bisect the panel with the largest
    |K15 - G7| relative to its component's scale, until every component's
    accumulated estimate meets its own tolerance.  Components are budgeted
    individually (their magnitudes can differ by many orders inside one
    batch).  The pop order is a deterministic function of the computed
    errors, and the final accumulation runs over panels sorted by position,
    so results are bit-stable and independent of how callers batch their
    components."""
    edges = np.pi * np.arange(n_initial + 1) / n_initial
    alive = {}  # lo -> (hi, value, err_vec, depth)
    coarse = None
    mass = None  # per-component L1 magnitude; budgets are honest against it
    evals = 0
    panels0 = []
    for i in range(n_initial):
        val, err, l1, n = _panel(f, edges[i], edges[i + 1])
        evals += n
        coarse = val if coarse is None else coarse + val
        mass = l1 if mass is None else mass + l1
        alive[float(edges[i])] = (float(edges[i + 1]), val, err, 0)
        panels0.append(float(edges[i]))

    scale = np.maximum(np.maximum(np.abs(np.atleast_1d(coarse)), mass), _FLOOR_SCALE)
    tol_vec = 0.5 * ctx.quad_rel_tol * scale
    # below ~100 eps relative to the integrand's own mass an |K-G| estimate
    # is rounding noise; such panels cannot be improved by splitting
    noise_floor = 100.0 * np.finfo(float).eps * scale
    err_total = np.zeros_like(scale)
    for rec in alive.values():
        err_total = err_total + rec[2]

    def priority(err_vec):
        return float(np.max(err_vec / scale))

    heap = []
    for plo in panels0:
        heapq.heappush(heap, (-priority(alive[plo][2]), plo))

    frozen_bad = False
    while heap and bool(np.any(err_total > tol_vec)) and len(alive) < _MAX_PANELS:
        neg_pri, plo = heapq.heappop(heap)
        rec = alive.get(plo)
        if rec is None or priority(rec[2]) != -neg_pri:
            continue  # stale heap entry
        phi, val, err, depth = rec
        if depth >= ctx.quad_max_depth:
            frozen_bad = True  # cannot be improved further
            continue
        if bool(np.all(err <= noise_floor)):
            continue  # estimate is rounding-level; splitting cannot help
        mid = 0.5 * (plo + phi)
        lv, lerr, _, n1 = _panel(f, plo, mid)
        rv, rerr, _, n2 = _panel(f, mid, phi)
        evals += n1 + n2
        err_total = err_total + lerr + rerr - err
        alive[plo] = (mid, lv, lerr, depth + 1)
        alive[mid] = (phi, rv, rerr, depth + 1)
        heapq.heappush(heap, (-priority(lerr), plo))
        heapq.heappush(heap, (-priority(rerr), mid))

    total = np.zeros_like(np.atleast_1d(coarse))
    err_total = np.zeros_like(scale)
    for plo in sorted(alive):
        _, val, err, _ = alive[plo]
        total = total + np.atleast_1d(val)
        err_total = err_total + err

    value = total if total.size > 1 else total[0]
    ratio = _err_ratio(err_total, total, mass, ctx)
    return QuadResult(value, float(np.max(err_total)), evals,
                      ratio <= 1.0 and not frozen_bad, ratio)


def _err_ratio(err, value, mass, ctx: QContext) -> float:
    """Worst err / (quad_rel_tol * max(|value|, mass)) over the components."""
    scale = np.maximum(np.maximum(np.abs(value), mass), _FLOOR_SCALE)
    return float(np.max(err / (ctx.quad_rel_tol * scale)))


# Periodic trapezoid rule.  M starts at _TRAP_M0 and stops at the cap
# _TRAP_MAX_M.  After the first call (the _TRAP_M0 + 1 starting nodes) one f
# call gets at most _TRAP_BLOCK nodes x components, which bounds the memory
# of a call.
_TRAP_M0 = 16
_TRAP_MAX_M = 8192
_TRAP_BLOCK = 4096


def _block_sums(f, x, per_call, w=None):
    """Sums over the leading axis of w f(x) and |w f(x)|, f called on blocks
    of per_call rows of x (w = None weighs every node 1)."""
    total = l1 = 0.0
    for i in range(0, len(x), per_call):
        fx = np.asarray(f(x[i:i + per_call]), dtype=np.complex128)
        if w is not None:
            fx = w[i:i + per_call] * fx
        total = total + fx.sum(axis=0)
        l1 = l1 + np.abs(fx).sum(axis=0)
    eval_counter.n += x.size
    return total, l1


def _trapezoid(f, ctx: QContext) -> QuadResult:
    """Trapezoid rule for an even 2pi-periodic f: half of the rule on
    [0, 2pi], so the end nodes 0 and pi weigh 1/2.  Converged once
    |I_2M - I_M| meets the shared test; at the cap M = _TRAP_MAX_M it stops
    with converged=False."""
    m = _TRAP_M0
    x = np.pi * np.arange(m + 1) / m
    fx = np.array(f(x), dtype=np.complex128)
    eval_counter.n += x.size
    fx[[0, -1]] *= 0.5
    total, l1 = fx.sum(axis=0), np.abs(fx).sum(axis=0)
    per_call = max(1, _TRAP_BLOCK // fx[0].size)
    value = np.pi / m * total
    evals = m + 1
    while True:
        new, new_l1 = _block_sums(f, np.pi * (2 * np.arange(m) + 1) / (2 * m), per_call)
        evals += m
        m *= 2
        total, l1 = total + new, l1 + new_l1
        prev, value = value, np.pi / m * total
        err = np.abs(np.atleast_1d(value - prev))
        ratio = _err_ratio(err, np.atleast_1d(value), np.atleast_1d(np.pi / m * l1), ctx)
        if ratio <= 1.0 or m >= _TRAP_MAX_M:
            return QuadResult(value, float(np.max(err)), evals, ratio <= 1.0, ratio)


# Sinh-mapped Gauss-Legendre rule: M nodes per piece, doubling from _SINH_M0
# to the cap _SINH_MAX_M; f is called on blocks of rows as in the trapezoid
# rule.  The rule size is predicted from _SINH_SAMPLES points of the line
# |Im phi| = strip.
_SINH_M0 = 16
_SINH_MAX_M = 4096
_SINH_SAMPLES = 64


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on the three-term recurrence of P_m, from the
    asymptotic guesses cos(pi (k - 1/4) / (m + 1/2))."""
    x = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for j in range(2, m + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _bernstein_rho(s):
    """rho of the Bernstein ellipse through s, the foci being -1 and 1:
    Gauss-Legendre on [-1, 1] loses a factor rho^2 per node to a pole at s."""
    root = np.sqrt(s - 1.0) * np.sqrt(s + 1.0)
    return np.maximum(np.abs(s + root), np.abs(s - root))


def _sinh_pieces(centre, width):
    """Lengths V of the mapped pieces [0, centre] and [centre, pi]: shape
    (2, B), phi = centre -+ width sinh(v), v in [0, V]."""
    return np.arcsinh(np.stack((centre, np.pi - centre)) / width)


def _sinh_m_pred(centre, width, strip, ctx: QContext) -> float:
    """Predicted M for the sinh-mapped rule: ln(1/quad_rel_tol) / (2 ln rho)
    at the smallest Bernstein rho, over both pieces of every component, of
    the peak's pole (v = i pi/2) and of the line Im phi = strip, wherever
    along it f's other poles sit."""
    span = _sinh_pieces(centre, width)[..., None]
    sigma = np.linspace(-1.0, 1.0, _SINH_SAMPLES)
    x = width[:, None] * np.sinh(0.5 * span * (1.0 + sigma))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = _bernstein_rho(-1.0 + 1j * np.pi / span)
        if math.isfinite(strip):
            line = 2.0 * np.arcsinh((x + 1j * strip) / width[:, None]) / span - 1.0
            rho = np.concatenate((rho, _bernstein_rho(line)), axis=-1)
    rho = np.min(rho[span[..., 0] > 0], axis=-1)  # an empty piece costs nothing
    return math.log(1.0 / ctx.quad_rel_tol) / (2.0 * math.log(float(np.min(rho))))


def _sinh_gl(f, centre, width, ctx: QContext) -> QuadResult:
    """Integral of f over [0, pi], split at each component's centre and each
    piece mapped by phi = centre -+ width sinh(v) (Johnston & Elliott, IJNME
    62 (2005) 564-578), which clusters the nodes at the peak on the scale of
    its width; Gauss-Legendre in v.  Converged once |I_2M - I_M| meets the
    shared test; at the cap M = _SINH_MAX_M it stops with converged=False."""
    span = _sinh_pieces(centre, width)
    sign = np.array([-1.0, 1.0])[:, None, None]
    per_call = max(1, _TRAP_BLOCK // centre.size)
    m, prev, evals = _SINH_M0, None, 0
    while True:
        s, w = _gauss_legendre(m)
        v = 0.5 * span[:, None, :] * (1.0 + s[:, None])  # (2, m, B)
        x = (centre + sign * width * np.sinh(v)).reshape(2 * m, -1)
        wt = (0.5 * span[:, None, :] * w[:, None] * width * np.cosh(v)).reshape(2 * m, -1)
        value, l1 = _block_sums(f, x, per_call, wt)
        evals += x.size
        if prev is not None:
            err = np.abs(value - prev)
            ratio = _err_ratio(err, value, l1, ctx)
            if ratio <= 1.0 or m >= _SINH_MAX_M:
                return QuadResult(value, float(np.max(err)), evals, ratio <= 1.0, ratio)
        prev, m = value, 2 * m


def integrate_theta(f, ctx: QContext, strip: float | None = None,
                    peaks=None) -> QuadResult:
    """Integral of f over [0, pi].

    f receives a numpy array of nodes and must return an array of matching
    leading dimension; a trailing dimension of size B makes the quadrature
    vector valued.

    strip, when given, states that f is even, 2pi-periodic and analytic for
    |Im phi| < strip (math.inf for an entire f).  The trapezoid rule's error
    then falls like e^{-2 strip M}: it meets quad_rel_tol near
    M_pred = ln(1 / quad_rel_tol) / (2 strip), and the doubling that shows
    it, comparing I_M with I_{M/2}, comes near 2 to 4 M_pred.  The rule runs
    when 4 M_pred is at most half the cap _TRAP_MAX_M, so only a strip stated
    wider than the true one reaches the cap.

    peaks = (centre, width), two arrays of length B, states that component k
    of f also has poles at +-centre_k +- i width_k (strip then bounds the
    rest), and that f accepts an (m, B) node array whose column k holds
    component k's nodes.  The trapezoid rule then sees the strip
    min(strip, min width).  When that is too narrow for it and every width
    lies in (0, strip), the sinh-mapped Gauss-Legendre rule runs if 4 times
    its predicted M (_sinh_m_pred) is at most half its cap _SINH_MAX_M, so
    again only a width stated wider than the true one reaches the cap.

    Every other integrand gets the adaptive rule.  No rule raises on
    failure: a depth or size cap is reported as converged=False on the best
    available value (see converged_value).
    """
    if strip is None:
        return _quad_vec(f, ctx)
    if peaks is not None:
        centre, width = (np.asarray(p, dtype=np.float64) for p in peaks)
        near = min(strip, float(np.min(width)))
    else:
        near = strip
    m_pred = math.log(1.0 / ctx.quad_rel_tol) / (2.0 * near) if near > 0 else math.inf
    if 4.0 * m_pred <= _TRAP_MAX_M / 2:
        return _trapezoid(f, ctx)
    if (peaks is not None and bool(np.all((width > 0) & (width < strip)))
            and 4.0 * _sinh_m_pred(centre, width, strip, ctx) <= _SINH_MAX_M / 2):
        return _sinh_gl(f, centre, width, ctx)
    return _quad_vec(f, ctx)
