"""Property tests: identities hold across the windows they are validated on.

Each test draws parameters from a window, runs the registry case on a
5-point grid through run_identity, and requires it to pass its registry
tolerance.  Draws are derandomized, so every run checks the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from qfrac.identities import IdentityCase, run_identity

_WINDOW = settings(max_examples=10, derandomize=True, database=None, deadline=None)

_q = st.sampled_from((0.3, 0.5, 0.7))


@st.composite
def _k_params(draw):
    """a in [0.3, 1.8], c = 1 + u (0.9/q - 1) with u in [0.05, 1]."""
    q = draw(_q)
    u = draw(st.floats(0.05, 1.0))
    return {"q": q, "a": draw(st.floats(0.3, 1.8)), "c": 1.0 + u * (0.9 / q - 1.0)}


def _signed(lo, hi):
    """A value of modulus in [lo, hi] and either sign."""
    return st.tuples(st.floats(lo, hi), st.sampled_from((1.0, -1.0))).map(lambda p: p[0] * p[1])


@st.composite
def _t_params(draw):
    """a, b in [-0.6, 0.6], |r|, |s| in [0.1, 0.8]."""
    ab = st.floats(-0.6, 0.6)
    return {"q": draw(_q), "a": draw(ab), "b": draw(ab),
            "r": draw(_signed(0.1, 0.8)), "s": draw(_signed(0.1, 0.8))}


def _holds(case_id, params):
    res = run_identity(IdentityCase(case_id, dict(params, grid_points=5)))
    assert res.passed, f"{case_id} {params}: max_rel={res.max_rel:.3e} {res.notes}"


@_WINDOW
@given(_k_params())
def test_k_eigen_action(params):
    _holds("I5", params)


@_WINDOW
@given(_k_params(), st.floats(0.0, 2.5))
def test_k_on_phi_beta_minus_inverse_c(params, beta):
    _holds("I9", dict(params, beta=beta))


@_WINDOW
@given(_k_params(), st.floats(0.0, 2.5))
def test_k_on_phi_beta_minus_cq(params, beta):
    _holds("I10", dict(params, beta=beta))


@_WINDOW
@given(_t_params())
def test_t_semigroup(params):
    _holds("I17", params)


@_WINDOW
@given(_t_params(), _signed(1e-4, 0.8))
def test_t_eigen_action(params, r):
    # |r| reaches 1e-4, where r^n h H_n of the top n falls to rounding level
    params.pop("s")
    _holds("I19", dict(params, r=r))


@_WINDOW
@given(_q, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.floats(-0.25, 0.25),
       st.floats(-0.25, 0.25), st.floats(0.3, 0.8), st.integers(0, 4))
def test_t_transmutation(q, t1, t2, t3, t4, r, n):
    _holds("I21", {"q": q, "t1": t1, "t2": t2, "t3": t3, "t4": t4, "r": r, "n": n})
