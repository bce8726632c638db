"""Quadrature on [0, pi]: a periodic trapezoid rule and Gauss-Legendre,
plain or sinh-mapped at stated singularities.

Integrands that are even, 2pi-periodic and analytic in the strip
|Im phi| < b (every Poisson-kernel integral) may state b.  When the rule size
that b predicts fits under a fixed cap, they get the trapezoid rule on the
nodes pi j / M, whose error falls like e^{-2bM} (Trefethen & Weideman,
SIAM Rev. 56 (2014) 385-458).  M doubles from 16, each step evaluating only
the new odd nodes, until two successive rules agree.

Such integrands also state where their nearest singularities sit: poles
that every component shares (the 1/h factors of an operand), each a centre
on [0, pi] and a distance from the contour, and per component a peak (the
Poisson kernel as t -> 1).  When b is too narrow for the trapezoid rule,
[0, pi] is split at those centres, each gap is halved, and each piece gets
Gauss-Legendre under the sinh map of Johnston & Elliott (IJNME 62 (2005)
564-578) toward its own centre, which clusters the nodes there on the scale
of the distance.  The nodes are shared by every component when the poles
alone leave room, and per component otherwise.  An integrand that states
nothing gets Gauss-Legendre on [0, pi].  Every Gauss-Legendre rule doubles
M from 16 until two successive rules agree.

All rules share one convergence test: every component's error estimate
is at most quad_rel_tol * max(|value|, L1 mass), the mass being the integral
of |f| (an integral that cancels to 0 is judged against what it cancels).
Node sets, block sizes and summation order depend only on the stated
singularities and the context, so results are bit-stable.

Integrands may be vector valued: f(nodes) may return shape (m,) or (m, B)
for B simultaneous integrals (one rule, driven by the worst component).
That is how operator applications evaluate a whole theta-grid with a single
quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .errors import NonConvergent

__all__ = ["QuadResult", "integrate_theta", "converged_value", "eval_counter"]

_FLOOR_SCALE = 1e-300


@dataclass
class _EvalCounter:
    n: int = 0


eval_counter = _EvalCounter()
"""Integrand evaluation counter (identity reports read it)."""


@dataclass
class QuadResult:
    """Outcome of one integration.

    err_ratio is the worst component's error estimate over its allowance
    quad_rel_tol * max(|value|, L1 mass); converged means err_ratio <= 1 and
    the rule stopped on that test, not on a size cap.  err_est is the
    largest absolute estimate.  value is complex for scalar integrands, an
    ndarray for vector ones.  evals counts the nodes f was called on; the
    sinh-mapped rule per component gives every component nodes of its own,
    and each of those counts once.
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
    of per_call rows of x (w = None weighs every node 1, and w of x's shape
    weighs every component of f at its node), and the number of components
    of f."""
    total = l1 = 0.0
    for i in range(0, len(x), per_call):
        fx = np.asarray(f(x[i:i + per_call]), dtype=np.complex128)
        if w is not None:
            wi = w[i:i + per_call]
            fx = wi.reshape(wi.shape + (1,) * (fx.ndim - wi.ndim)) * fx
        total = total + fx.sum(axis=0)
        l1 = l1 + np.abs(fx).sum(axis=0)
    eval_counter.n += x.size
    return total, l1, fx[0].size


def _trapezoid(f, ctx: QContext) -> QuadResult:
    """Trapezoid rule for an even 2pi-periodic f: half of the rule on
    [0, 2pi], so the end nodes 0 and pi weigh 1/2.  Converged once
    |I_2M - I_M| meets the shared test; at the cap M = _TRAP_MAX_M it stops
    with converged=False."""
    m = _TRAP_M0
    w = np.ones(m + 1)
    w[[0, -1]] = 0.5
    total, l1, cols = _block_sums(f, np.pi * np.arange(m + 1) / m, m + 1, w)
    per_call = max(1, _TRAP_BLOCK // cols)
    value = np.pi / m * total
    evals = m + 1
    while True:
        new, new_l1, _ = _block_sums(f, np.pi * (2 * np.arange(m) + 1) / (2 * m), per_call)
        evals += m
        m *= 2
        total, l1 = total + new, l1 + new_l1
        prev, value = value, np.pi / m * total
        err = np.abs(np.atleast_1d(value - prev))
        ratio = _err_ratio(err, np.atleast_1d(value), np.atleast_1d(np.pi / m * l1), ctx)
        if ratio <= 1.0 or m >= _TRAP_MAX_M:
            return QuadResult(value, float(np.max(err)), evals, ratio <= 1.0, ratio)


# Gauss-Legendre rules: M nodes per piece, doubling from _GL_M0 to the cap
# _GL_MAX_M; the first rule goes to f in one call, and later ones in blocks of
# at most _TRAP_BLOCK nodes x components.  The sinh-mapped rule's size is
# predicted from its stated singularities and from _SINH_SAMPLES points of the
# line |Im phi| = strip above each piece; a mapped piece reaches _SINH_REACH
# times that line's distance from its point.
_GL_M0 = 16
_GL_MAX_M = 4096
_SINH_SAMPLES = 64
_SINH_REACH = 4.0


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


def _gl(f, nodes, ctx: QContext) -> QuadResult:
    """Gauss-Legendre with M doubling: nodes(s, w) maps the M-point rule on
    [-1, 1] to the nodes and weights on [0, pi].  Converged once |I_2M - I_M|
    meets the shared test; at the cap M = _GL_MAX_M it stops with
    converged=False."""
    m, prev, evals, per_call = _GL_M0, None, 0, None
    while True:
        x, wt = nodes(*_gauss_legendre(m))
        value, l1, cols = _block_sums(f, x, per_call or len(x), wt)
        per_call = max(1, _TRAP_BLOCK // cols)
        evals += x.size
        if prev is not None:
            err = np.abs(value - prev)
            ratio = _err_ratio(err, value, l1, ctx)
            if ratio <= 1.0 or m >= _GL_MAX_M:
                return QuadResult(value, float(np.max(err)), evals, ratio <= 1.0, ratio)
        prev, m = value, 2 * m


def _bernstein_rho(s):
    """rho of the Bernstein ellipse through s, the foci being -1 and 1:
    Gauss-Legendre on [-1, 1] loses a factor rho^2 per node to a pole at s."""
    root = np.sqrt(s - 1.0) * np.sqrt(s + 1.0)
    return np.maximum(np.abs(s + root), np.abs(s - root))


def _sinh_pieces(centre, dist, line):
    """[0, pi] split at the points centre (shape (n, ...), one column per
    trailing index), each gap halved and each piece mapped toward its own
    point: phi = anchor + sign width sinh(v), v in [0, span].  Coincident
    points merge with the narrowest width.  A piece reaches at most
    _SINH_REACH times line from its point; beyond that the line, not the
    point, sets the node spacing, so the rest of the piece gets its own,
    nearly linear map (width pi, the largest width used).  Returns (anchor,
    sign, width, span), each of shape (n', ...), without the pieces that are
    empty in every column."""
    order = np.argsort(centre, axis=0, kind="stable")
    c = np.take_along_axis(centre, order, axis=0)
    d = np.take_along_axis(dist, order, axis=0)
    d = np.where(c[:, None] == c[None, :], d[None, :], np.inf).min(axis=1)
    half = 0.5 * np.diff(c, axis=0)
    length = np.concatenate((c[:1], np.repeat(half, 2, axis=0), np.pi - c[-1:]))
    anchor = np.repeat(c, 2, axis=0)
    sign = np.tile([-1.0, 1.0], len(c)).reshape((-1,) + (1,) * (c.ndim - 1)) * np.ones_like(length)
    width = np.repeat(np.minimum(d, np.pi), 2, axis=0)
    near = np.minimum(length, _SINH_REACH * line)
    anchor = np.concatenate((anchor, anchor + sign * near))
    sign = np.concatenate((sign, sign))
    width = np.concatenate((width, np.full_like(near, np.pi)))
    span = np.arcsinh(np.concatenate((near, length - near)) / width)
    keep = (span > 0).reshape(len(span), -1).any(axis=1)
    return anchor[keep], sign[keep], width[keep], span[keep]


def _sinh_nodes(pieces):
    """nodes(s, w) for _gl: the rule on every piece of _sinh_pieces."""
    anchor, sign, width, span = (p[:, None] for p in pieces)

    def nodes(s, w):
        shape = (1, -1) + (1,) * (anchor.ndim - 2)
        v = 0.5 * span * (1.0 + s.reshape(shape))
        x = anchor + sign * width * np.sinh(v)
        wt = 0.5 * span * w.reshape(shape) * width * np.cosh(v)
        return x.reshape((-1,) + x.shape[2:]), wt.reshape((-1,) + wt.shape[2:])

    return nodes


def _sinh_m_pred(pieces, centre, dist, line, ctx: QContext) -> float:
    """Predicted M of the sinh-mapped rule: ln(1/quad_rel_tol) / (2 ln rho)
    at the smallest Bernstein rho, over every piece of every column, of the
    poles at +-centre +- i dist and their images across 0 and pi, and of
    the line Im phi = line above each piece, wherever along it f's other
    singularities sit.  Each pole counts at all three of its preimages under
    the map that lie within Im v in [-3pi/2, 3pi/2]."""
    anchor, sign, width, span = (p[:, None] for p in pieces)
    pole = np.concatenate((centre, -centre, 2.0 * np.pi - centre))
    pole = pole + 1j * np.minimum(np.concatenate((dist,) * 3), 1e3)
    v = np.arcsinh(sign * (pole[None] - anchor) / width)
    v = np.concatenate((v, 1j * np.pi - v, -1j * np.pi - v), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = _bernstein_rho(2.0 * v / span - 1.0)
        if math.isfinite(line):
            sigma = np.linspace(-1.0, 1.0, _SINH_SAMPLES).reshape((1, -1) + (1,) * (span.ndim - 2))
            x = np.sinh(0.5 * span * (1.0 + sigma)) + 1j * line / width
            rho = np.concatenate((rho, _bernstein_rho(2.0 * np.arcsinh(x) / span - 1.0)), axis=1)
        rho = np.min(rho, axis=1)[span[:, 0] > 0]  # an empty piece costs nothing
        return float(np.log(1.0 / ctx.quad_rel_tol) / (2.0 * np.log(np.min(rho))))


def integrate_theta(f, ctx: QContext, strip: float | None = None, peaks=None,
                    poles=()) -> QuadResult:
    """Integral of f over [0, pi].

    f receives a numpy array of nodes and must return an array of matching
    leading dimension; a trailing dimension of size B makes the quadrature
    vector valued.

    strip=None is the general case: Gauss-Legendre on [0, pi] with M
    doubling from 16 to 4096; peaks and poles are read only with a strip.

    strip, when given, states that f is even, 2pi-periodic and analytic for
    |Im phi| < strip apart from the singularities stated with it (math.inf
    when there are none elsewhere).  poles, (centre, distance) pairs, are the
    poles at +-centre +- i distance that every component shares;
    peaks = (centre, width), two arrays of length B, states component k's own
    poles at +-centre_k +- i width_k, and that f accepts an (m, B) node array
    whose column k holds component k's nodes.  The narrowest of the strip,
    the pole distances and the widths, b, sets the rule:

    1. the trapezoid rule, whose error falls like e^{-2 b M}: it meets
       quad_rel_tol near M_pred = ln(1 / quad_rel_tol) / (2 b), and the
       doubling that shows it, comparing I_M with I_{M/2}, comes near 2 to
       4 M_pred.  It runs when 4 M_pred is at most half its cap _TRAP_MAX_M;
    2. else, with poles stated, Gauss-Legendre on nodes shared by every
       component, [0, pi] split at the pole centres and each piece mapped
       toward its pole, the peaks counting as a line at the smallest width;
    3. else, with peaks stated, the same rule per component, split at its
       peak and at the poles.

    A sinh-mapped rule runs when 4 times its predicted M (_sinh_m_pred) is
    at most half its cap _GL_MAX_M; failing both, the last one stated runs
    to its cap.  So only a singularity stated farther off than the true one
    reaches a cap.  No rule raises on failure: a size cap is reported as
    converged=False on the best available value (see converged_value).
    """
    if strip is None:
        return _gl(f, lambda s, w: (0.5 * np.pi * (1.0 + s), 0.5 * np.pi * w), ctx)
    pc, pd = np.asarray(poles, dtype=np.float64).reshape(-1, 2).T
    line, rules = strip, []  # each rule: its points and the line left unanchored
    if peaks is not None:
        centre, width = (np.asarray(p, dtype=np.float64) for p in peaks)
        line = min(strip, float(np.min(width)))
        cols = (len(pc), centre.size)
        rules.append((np.vstack((centre, np.broadcast_to(pc[:, None], cols))),
                      np.vstack((width, np.broadcast_to(pd[:, None], cols))), strip))
    if pc.size:
        rules.insert(0, (pc, pd, line))
    near = min(line, float(np.min(pd, initial=math.inf)))
    m_pred = math.log(1.0 / ctx.quad_rel_tol) / (2.0 * near) if near > 0 else math.inf
    if 4.0 * m_pred <= _TRAP_MAX_M / 2 or not rules:
        return _trapezoid(f, ctx)
    for centre, dist, line in rules:
        pieces = _sinh_pieces(centre, dist, line)
        if 4.0 * _sinh_m_pred(pieces, centre, dist, line, ctx) <= _GL_MAX_M / 2:
            break
    return _gl(f, _sinh_nodes(pieces), ctx)
