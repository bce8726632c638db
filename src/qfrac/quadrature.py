"""Quadrature on [0, pi]: one nested rule, the periodic trapezoid rule or
Clenshaw-Curtis, plain or sinh-mapped at stated singularities.

Every rule evaluates f at the angles t_j = pi j / M, j = 0..M: the
trapezoid rule at phi = t_j, Clenshaw-Curtis at s = cos t_j under a map of
[-1, 1] onto [0, pi].  The nodes of M are the even-indexed nodes of 2M, so
one loop doubles M from 16 to one cap, 8192, evaluating only the new odd
nodes and reweighting the values kept, until two successive rules agree.

Integrands that are even, 2pi-periodic and analytic in the strip
|Im phi| < b (every Poisson-kernel integral) may state b.  When the rule size
that b predicts fits under the cap, they get the trapezoid rule, whose error
falls like e^{-2bM} (Trefethen & Weideman, SIAM Rev. 56 (2014) 385-458).

Such integrands also state where their nearest singularities sit: poles
that every component shares (the 1/h factors of an operand), each a centre
on [0, pi] and a distance from the contour, and per component a peak (the
Poisson kernel as t -> 1).  When b is too narrow for the trapezoid rule,
[0, pi] is split at those centres, each gap is halved, and each piece gets
Clenshaw-Curtis under the sinh map of Johnston & Elliott (IJNME 62 (2005)
564-578) toward its own centre, which clusters the nodes there on the scale
of the distance; with poles that near, Clenshaw-Curtis is about as accurate
per node as Gauss-Legendre (Trefethen, SIAM Rev. 50 (2008) 67-87).  The
nodes are shared by every component when the poles alone leave room, and
per component otherwise.  An integrand that states nothing gets
Clenshaw-Curtis on [0, pi].

All rules share one convergence test: every component's error estimate
is at most quad_rel_tol * max(|value|, L1 mass), the mass being the integral
of |f| (an integral that cancels to 0 is judged against what it cancels).
Node sets, block sizes and summation order depend only on the stated
singularities and the context, so results are bit-stable.

Integrands may be vector valued: f(nodes) may return shape (m,) or (m, B)
for B simultaneous integrals (one rule, driven by the worst component), or
(m, B, k) for k stacked operands at B points: one quadrature applies an
operator on a whole theta-grid, to every operand.
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
    ndarray for vector ones.  evals counts the nodes f was called on, each
    once: pieces x (M + 1) for a rule that stopped at M.  The sinh-mapped
    rule per component gives every component nodes of its own, and each of
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


def _err_ratio(err, value, mass, ctx: QContext) -> float:
    """Worst err / (quad_rel_tol * max(|value|, mass)) over the components."""
    scale = np.maximum(np.maximum(np.abs(value), mass), _FLOOR_SCALE)
    return float(np.max(err / (ctx.quad_rel_tol * scale)))


# M doubles from _M0 to the cap _MAX_M.  After the first call (the _M0 + 1
# starting nodes per piece) one f call gets at most _BLOCK nodes x points,
# the first axis of f's components, which bounds its memory per operand
# column; the columns do not count, so an operator inside f runs no more
# often.  The sinh-mapped rule's size is predicted from its stated
# singularities and from _SINH_SAMPLES points of the line |Im phi| = strip
# above each piece; a mapped piece reaches _SINH_REACH times that line's
# distance from its point.
_M0 = 16
_MAX_M = 8192
_BLOCK = 4096
_SINH_SAMPLES = 64
_SINH_REACH = 4.0


def _make_level(m: int, points, w):
    """points(t) at the angles t = pi j / m new at level m (every j at _M0,
    the odd j above it) and the weights w of all m + 1 nodes, read-only."""
    x = points(np.pi * (np.arange(m + 1) if m == _M0 else np.arange(1, m, 2)) / m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _trapezoid(m: int):
    """Level m of the trapezoid rule for an even 2pi-periodic f: half of the
    rule on [0, 2pi], so the end nodes 0 and pi weigh 1/2."""
    w = np.full(m + 1, np.pi / m)
    w[[0, -1]] *= 0.5
    return _make_level(m, np.asarray, w)


@functools.lru_cache(maxsize=None)
def _clenshaw_curtis(m: int):
    """Level m of Clenshaw-Curtis on [-1, 1], nodes cos t_j and weights
    w_j = (c_j/m)(1 - sum_{k=1}^{m/2} b_k cos(2k t_j)/(4k^2 - 1)),
    c_j = 1 at the ends and 2 elsewhere, b_k = 1 at k = m/2 and 2 elsewhere.
    The sum runs over k for j <= m/2 (w is symmetric), reading cos(2k t_j)
    at the index kj mod m of one table, in O(m) memory."""
    h = m // 2
    j = np.arange(h + 1)
    cos = np.cos(2.0 * np.pi * np.arange(m) / m)
    s, kj = np.ones(h + 1), np.zeros(h + 1, dtype=np.int64)
    for k in range(1, h + 1):
        kj += j
        kj %= m
        s -= (1.0 if k == h else 2.0) / (4.0 * k * k - 1.0) * cos[kj]
    w = np.concatenate((s, s[-2::-1])) * (2.0 / m)
    w[[0, -1]] *= 0.5
    return _make_level(m, np.cos, w)


def _nested(f, level, nodes, ctx: QContext) -> QuadResult:
    """The rule level(M), M doubling from _M0: level(M) gives the points new
    at M and the weights of all M + 1 points, and nodes(p) maps points to
    the nodes on [0, pi], of shape (len(p), pieces, ...), and gives the
    map's derivative there, of that shape or a scalar.  f sees each node
    once: the values new at M fill the odd indices between those of M/2,
    and M's weights sum them all.  Converged once |I_M - I_{M/2}| meets the
    shared test; at the cap M = _MAX_M it stops with converged=False."""
    m, per_call, evals, g, prev = _M0, None, 0, None, None
    while True:
        p, w = level(m)
        x, jac = nodes(p)
        rows = x.reshape((-1,) + x.shape[2:])
        step = per_call or len(rows)
        fx = np.concatenate([np.asarray(f(rows[i:i + step]), dtype=np.complex128)
                             for i in range(0, len(rows), step)])
        per_call = max(1, _BLOCK // (fx.shape[1] if fx.ndim > 1 else 1))
        evals += x.size
        eval_counter.n += x.size
        fx = fx.reshape(x.shape[:2] + fx.shape[1:])
        fx = np.reshape(jac, np.shape(jac) + (1,) * (fx.ndim - np.ndim(jac))) * fx
        rest, fx = fx.shape[2:], fx.reshape(fx.shape[:2] + (-1,))
        new = np.concatenate((np.ascontiguousarray(fx).view(np.float64), np.abs(fx)), axis=2)
        if g is None:
            g = new
        else:
            g, old = np.empty((m + 1,) + new.shape[1:]), g
            g[::2], g[1::2] = old, new
        sums = np.einsum("j,jpk->k", w, g)  # real and imaginary parts, then |.|
        value = sums[:-fx.shape[2]].view(np.complex128).reshape(rest)[()]
        l1 = sums[-fx.shape[2]:].reshape(rest)
        if prev is not None:
            err = np.abs(value - prev)
            ratio = _err_ratio(err, value, l1, ctx)
            if ratio <= 1.0 or m >= _MAX_M:
                return QuadResult(value, float(np.max(err)), evals, ratio <= 1.0, ratio)
        prev, m = value, 2 * m


def _bernstein_rho(s):
    """rho of the Bernstein ellipse through s, the foci being -1 and 1:
    Gauss-Legendre on [-1, 1] loses a factor rho^2 per node to a pole at s,
    and Clenshaw-Curtis about as much while rho is near 1."""
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
    """nodes(s) for _nested: the points s of [-1, 1] on every piece of
    _sinh_pieces, and the map's derivative there."""
    anchor, sign, width, span = (p[None] for p in pieces)

    def nodes(s):
        v = 0.5 * span * (1.0 + s.reshape((-1,) + (1,) * (span.ndim - 1)))
        return anchor + sign * width * np.sinh(v), 0.5 * span * width * np.cosh(v)

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

    strip=None is the general case: Clenshaw-Curtis on [0, pi]; peaks and
    poles are read only with a strip.

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
       4 M_pred.  It runs when 4 M_pred is at most half the cap _MAX_M;
    2. else, with poles stated, Clenshaw-Curtis on nodes shared by every
       component, [0, pi] split at the pole centres and each piece mapped
       toward its pole, the peaks counting as a line at the smallest width;
    3. else, with peaks stated, the same rule per component, split at its
       peak and at the poles.

    A sinh-mapped rule runs when 4 times its predicted M (_sinh_m_pred) is
    at most half the cap; failing both, the last one stated runs to the
    cap.  So only a singularity stated farther off than the true one
    reaches the cap.  No rule raises on failure: the cap is reported as
    converged=False on the best available value (see converged_value).
    """
    if strip is None:
        half = 0.5 * np.pi
        return _nested(f, _clenshaw_curtis, lambda s: (half * (1.0 + s[:, None]), half), ctx)
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
    if 4.0 * m_pred <= _MAX_M / 2 or not rules:
        return _nested(f, _trapezoid, lambda t: (t[:, None], 1.0), ctx)
    for centre, dist, line in rules:
        pieces = _sinh_pieces(centre, dist, line)
        if 4.0 * _sinh_m_pred(pieces, centre, dist, line, ctx) <= _MAX_M / 2:
            break
    return _nested(f, _clenshaw_curtis, _sinh_nodes(pieces), ctx)
