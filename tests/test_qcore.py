"""Scalar q-series primitives against independent oracles.

Frozen reference values were computed with mpmath at 30 significant digits;
the live mpmath cross-checks keep to a handful of points so the suite stays
fast.
"""

import contextlib
import math

import mpmath as mp
import numpy as np
import pytest

from qfrac import qcore
from qfrac.context import QContext
from qfrac.errors import DivisionNearZero, NonConvergent, SingularLowerParameter
from qfrac.qcore import (
    _euler_coefficients,
    _peel_count,
    bhs_terminating,
    euler_product,
    h_product,
    h_product_z,
    jtp_theta_logq_derivative_series,
    jtp_theta_series,
    qpoch_finite,
    qpoch_infinite,
    qpoch_infinite_tail_bound,
    qpoch_real_index,
    settled_sum,
    table_scope,
)


class TestQpochFinite:
    def test_empty_product(self, ctx05):
        assert qpoch_finite(0.37 + 0.2j, 0, ctx05) == 1.0

    def test_single_factor(self, ctx05):
        assert qpoch_finite(0.5, 1, ctx05) == pytest.approx(0.5)

    def test_zero_factor(self, ctx05):
        # (2; q)_2 contains 1 - 2q = 0 at q = 1/2
        assert qpoch_finite(2.0, 2, ctx05) == pytest.approx(0.0, abs=1e-15)

    def test_splitting_law(self, ctx_all, rng):
        # (a;q)_{m+n} = (a;q)_m (a q^m; q)_n
        q = ctx_all.q
        for _ in range(40):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.7
            m, n = (int(v) for v in rng.integers(0, 11, 2))
            lhs = qpoch_finite(a, m + n, ctx_all)
            rhs = qpoch_finite(a, m, ctx_all) * qpoch_finite(a * q**m, n, ctx_all)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


class TestQpochInfinite:
    def test_zero_argument(self, ctx05):
        assert qpoch_infinite(0.0, ctx05) == 1.0

    def test_euler_value(self, ctx05):
        # (1/2; 1/2)_oo, mpmath 30 digits
        assert euler_product(ctx05) == pytest.approx(0.28878809508660242128, rel=5e-15)

    def test_one_gives_zero(self, ctx05):
        assert qpoch_infinite(1.0, ctx05) == pytest.approx(0.0, abs=1e-15)

    def test_complex_against_mpmath(self, ctx07):
        got = qpoch_infinite(0.5 + 0.25j, ctx07)
        want = 0.056683496464347830952 - 0.14849872293997705693j
        assert got == pytest.approx(want, rel=5e-14)

    def test_limit_consistency(self, ctx_all, rng):
        # (a;q)_oo == (a;q)_N (a q^N; q)_oo
        for _ in range(25):
            a = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            n = int(rng.integers(0, 21))
            lhs = qpoch_infinite(a, ctx_all)
            rhs = qpoch_finite(a, n, ctx_all) * qpoch_infinite(a * ctx_all.q**n, ctx_all)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_tail_bound_honored(self, ctx05):
        # truncation tail bound plus an allowance for ~N rounding steps; the
        # bound is no looser than the plain product's r / ((1-q)(1-r)),
        # r = |a| q^N with N the first |a| q^N < eps_trunc
        mp.mp.dps = 30
        rounding = 60 * np.finfo(float).eps
        for a in (0.5, -0.8, 0.9):
            got = qpoch_infinite(a, ctx05)
            ref = complex(mp.qp(mp.mpf(a), mp.mpf("0.5")))
            r = abs(a) * 0.5 ** (int(np.log(abs(a) / 1e-15) / np.log(2.0)) + 1)
            assert qpoch_infinite_tail_bound(a, ctx05) <= r / (0.5 * (1 - r))
            assert abs(got - ref) / abs(ref) <= qpoch_infinite_tail_bound(a, ctx05) + rounding

    @pytest.mark.parametrize("q, tol", [(0.3, 1e-15), (0.5, 1e-15), (0.7, 1e-15), (0.9, 5e-15)])
    def test_against_mpmath_up_to_inverse_q(self, q, tol):
        # |a| up to 1/q over the full circle of phases, away from the zeros
        # a = q^-k; the plain product gave 1.9e-15, 2.3e-15, 3.8e-15, 1.3e-14
        ctx = QContext(q=q)
        with mp.workdps(40):
            for mod in np.linspace(0.05, 1.0 / q, 8):
                for phase in np.linspace(-np.pi, np.pi, 7):
                    a = mod * np.exp(1j * phase)
                    ref = complex(mp.qp(mp.mpc(a.real, a.imag), mp.mpf(q)))
                    if abs(ref) > 1e-3:
                        assert abs(qpoch_infinite(a, ctx) - ref) <= tol * abs(ref)
                    assert qpoch_infinite_tail_bound(a, ctx) <= ctx.eps_trunc

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
    def test_near_zeros_absolute(self, q):
        # at a = q^-k (1 + d) the value is tiny; the error stays absolute
        ctx = QContext(q=q)
        with mp.workdps(40):
            for k in (0, 1):
                for d in (0.0, 1e-13, -1e-13, 1e-9j, 1e-6 * np.exp(0.7j)):
                    a = q ** (-k) * (1 + d)
                    ref = complex(mp.qp(mp.mpc(a.real, a.imag), mp.mpf(q)))
                    assert abs(qpoch_infinite(a, ctx) - ref) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("q, tol", [(0.3, 1e-15), (0.5, 1e-15), (0.7, 1e-15), (0.9, 1e-14)])
    def test_peak_accuracy(self, q, tol):
        # a = t e^{i psi} near 1, where a Poisson kernel peaks and 1 - a is
        # tiny; the plain product gave 1.2e-15 to 5.2e-15 and 1.2e-14 to 1.4e-14
        ctx = QContext(q=q)
        with mp.workdps(40):
            for t in (0.9, 0.99, 0.999):
                for psi in np.linspace(-1e-3, 1e-3, 9):
                    a = t * np.exp(1j * psi)
                    ref = complex(mp.qp(mp.mpc(a.real, a.imag), mp.mpf(q)))
                    assert abs(qpoch_infinite(a, ctx) - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("q, n_coeffs", [(0.3, 9), (0.5, 10), (0.7, 13), (0.9, 22)])
    def test_work_budget(self, q, n_coeffs):
        # Euler coefficients at eps_trunc = 1e-15, and factors peeled for
        # |a| <= 1; the plain product took 29, 50, 97 and 328 factors
        assert len(_euler_coefficients(q, 1e-15)) <= n_coeffs
        assert _peel_count(1.0, q) <= math.ceil(math.log(4.0) / math.log(1.0 / q))

    def test_large_q_stays_accurate(self):
        # past q = 0.9 the peel radius shrinks with 1 - q, so the series'
        # cancellation stays bounded
        ctx = QContext(q=0.97)
        with mp.workdps(40):
            for a in (0.999, 0.5 - 0.6j, -1.0):
                ref = complex(mp.qp(mp.mpc(a.real, a.imag), mp.mpf(0.97)))
                assert abs(qpoch_infinite(a, ctx) - ref) <= 1e-13 * abs(ref)

    def test_nonconvergent(self):
        ctx = QContext(q=0.99, max_terms=16)
        with pytest.raises(NonConvergent):
            qpoch_infinite(0.5, ctx)

    def test_array_input(self, ctx05):
        a = np.array([0.0, 0.5, -0.3])
        out = qpoch_infinite(a, ctx05)
        assert out.shape == (3,)
        assert out[0] == 1.0


class TestQpochRealIndex:
    def test_beta_zero(self, ctx05):
        assert qpoch_real_index(0.4, 0.0, ctx05) == pytest.approx(1.0, rel=1e-14)

    def test_integer_index_matches_finite(self, ctx_all):
        for a in (0.3, -0.55, 0.2 + 0.4j):
            for n in (1, 2, 7):
                got = qpoch_real_index(a, n, ctx_all)
                want = qpoch_finite(a, n, ctx_all)
                assert got == pytest.approx(want, rel=1e-12)

    def test_half_index_frozen(self, ctx05):
        # (0.3; 0.5)_{1/2}, mpmath ratio of products at 30 digits
        assert qpoch_real_index(0.3, 0.5, ctx05) == pytest.approx(
            0.80689204052469218351, rel=1e-13)

    def test_division_near_zero(self, ctx05):
        # denominator (a q^beta; q)_oo = 0 exactly when a q^beta = 1
        with pytest.raises(DivisionNearZero):
            qpoch_real_index(2.0, 1.0, ctx05)


class TestHProduct:
    def test_empty_params(self, ctx05):
        assert h_product(1.0, [], ctx05) == 1.0

    def test_real_params_give_real_value(self, ctx05, rng):
        for _ in range(10):
            params = list(rng.uniform(-0.9, 0.9, 3))
            th = rng.uniform(0.0, np.pi)
            val = h_product(th, params, ctx05)
            assert abs(val.imag) < 1e-13 * max(abs(val), 1e-30)

    def test_factorwise_frozen(self, ctx05):
        # h(cos(pi/3); -1/c, -c q), c = 1.4: per-factor mpmath at 30 digits
        got = h_product(np.pi / 3, [-1 / 1.4, -1.4 * 0.5], ctx05)
        assert got.real == pytest.approx(22.344255188949905733, rel=1e-13)

    def test_positivity(self, ctx05, rng):
        for _ in range(20):
            params = list(rng.uniform(-0.95, 0.95, 4))
            th = rng.uniform(0.01, np.pi - 0.01)
            assert h_product(th, params, ctx05).real > 0.0

    def test_one_pochhammer_call(self, ctx05, monkeypatch):
        # every factor of h, and both products of (a; q)_beta, in one call
        shapes = []
        orig = qcore.qpoch_infinite

        def counted(a, ctx):
            shapes.append(np.shape(a))
            return orig(a, ctx)

        monkeypatch.setattr(qcore, "qpoch_infinite", counted)
        h_product_z(np.exp(1j * np.linspace(0.0, 3.0, 7)), [0.3, -0.5, 0.2j], ctx05)
        qpoch_real_index(0.3, 0.5, ctx05)
        assert shapes == [(6, 7), (2,)]

    def test_z_form_symmetry(self, ctx05):
        z = 0.8 * np.exp(0.7j)
        a = h_product_z(z, [0.3, -0.5], ctx05)
        b = h_product_z(1.0 / z, [0.3, -0.5], ctx05)
        assert a == pytest.approx(b, rel=1e-13)


class TestTableStore:
    @staticmethod
    def _counted(monkeypatch):
        calls, orig = [], qcore.qpoch_infinite

        def counted(a, ctx):
            calls.append(1)
            return orig(a, ctx)

        monkeypatch.setattr(qcore, "qpoch_infinite", counted)
        return calls

    def test_reused_only_within_a_scope_and_exactly(self, ctx05, monkeypatch):
        calls = self._counted(monkeypatch)
        z = np.exp(1j * np.linspace(0.1, 3.0, 7))
        h_product_z(z, [0.3, -0.5], ctx05)
        h_product_z(z, [0.3, -0.5], ctx05)
        assert len(calls) == 2
        with table_scope():
            first = h_product_z(z, [0.3, -0.5], ctx05)
            assert h_product_z(z.copy(), [0.3, -0.5], ctx05) is first
            assert len(calls) == 3
            # any other bit of the points, parameters or context is a new key
            h_product_z(z * (1.0 + 2.0**-52), [0.3, -0.5], ctx05)
            h_product_z(z, [0.3, -0.5 * (1.0 + 2.0**-52)], ctx05)
            h_product_z(z, [0.3, -0.5, 0.0], ctx05)
            h_product_z(z, [0.3, -0.5], QContext(q=0.5, eps_trunc=1e-14))
            h_product_z(z[:6], [0.3, -0.5], ctx05)
            assert len(calls) == 8
        h_product_z(z, [0.3, -0.5], ctx05)
        assert len(calls) == 9

    def test_stored_values_read_only(self, ctx05):
        z = np.exp(1j * np.linspace(0.1, 3.0, 7))
        for scope in (table_scope, contextlib.nullcontext):
            with scope():
                out = h_product_z(z, [0.3], ctx05)
                assert not out.flags.writeable
                assert isinstance(h_product_z(0.5j, [0.3], ctx05), complex)

    def test_scopes_nest_and_close_on_raise(self, ctx05, monkeypatch):
        calls = self._counted(monkeypatch)
        z = np.exp(1j * np.linspace(0.1, 3.0, 7))
        with table_scope():
            h_product_z(z, [0.3], ctx05)
            with pytest.raises(NonConvergent):
                with table_scope():
                    h_product_z(z, [0.3], ctx05)
                    raise NonConvergent("forced")
            h_product_z(z, [0.3], ctx05)
        assert len(calls) == 2
        with table_scope():
            h_product_z(z, [0.3], ctx05)
        assert len(calls) == 3


class TestJacobiTripleProduct:
    def test_z_one(self, ctx05):
        lhs = jtp_theta_series(1.0, ctx05)
        rhs = (qpoch_infinite(0.5, ctx05) * qpoch_infinite(-1.0, ctx05)
               * qpoch_infinite(-0.5, ctx05))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_theta_zero(self, ctx05):
        # z = -1 makes the product side contain (1 - 1) = 0
        assert abs(jtp_theta_series(-1.0, ctx05)) < 1e-13

    def test_complex_frozen(self, ctx03):
        got = jtp_theta_series(0.7 + 0.2j, ctx03)
        assert got == pytest.approx(2.2828414605927828984 + 0.15036648641410691315j,
                                    rel=1e-13)

    @pytest.mark.parametrize("mod", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("phase", [0.0, 0.9, 2.4])
    def test_product_identity_ring(self, ctx_all, mod, phase):
        z = mod * np.exp(1j * phase)
        lhs = jtp_theta_series(z, ctx_all)
        rhs = (qpoch_infinite(ctx_all.q, ctx_all) * qpoch_infinite(-z, ctx_all)
               * qpoch_infinite(-ctx_all.q / z, ctx_all))
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def _settled_reference(term, tol, floor, max_terms):
    """The stopping rule one term at a time: stop after three consecutive
    terms past n = 4 below tol max(|partial sum|, floor)."""
    total, small = 0.0, 0
    for n in range(max_terms):
        total += term(n)
        small = small + 1 if n > 4 and abs(term(n)) < tol * max(abs(total), floor) else 0
        if small == 3:
            return total, n + 1
    raise AssertionError("reference loop did not stop")


class TestSettledSum:
    @pytest.mark.parametrize("r", [0.3, -0.7, 0.5, 0.93])
    def test_geometric_against_per_term_loop(self, ctx05, r):
        # stops in the first (r = 0.3), second (-0.7, 0.5) and fifth block (0.93)
        want, want_n = _settled_reference(lambda n: r**n, 1e-15, 1.0, ctx05.max_terms)
        got, got_n = settled_sum(lambda n: r**n, 1e-15, 1.0, ctx05, "geometric")
        assert got_n == want_n
        assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("r", [1e-9, 0.05, 0.3, -0.7, 0.5, 0.93])
    def test_blocks_extend_at_most_twice_the_stop(self, ctx05, r):
        # each call is the next block of indices, and no more than 2n terms
        # are evaluated for a stop at n (8 for r = 1e-9, 445 for r = 0.93)
        blocks = []

        def terms(n):
            blocks.append(n)
            return r**n

        _, n_terms = settled_sum(terms, 1e-15, 1.0, ctx05, "geometric")
        seen = np.concatenate(blocks)
        assert np.array_equal(seen, np.arange(len(seen)))
        assert len(seen) <= 2 * n_terms

    def test_overflow_past_the_stop_is_ignored(self):
        # the sum stops near m = 20; z^-31 = inf later in the first block
        ctx = QContext(q=0.05)
        z = 1e-10
        want = qpoch_infinite(0.05, ctx) * qpoch_infinite(-z, ctx) * qpoch_infinite(-0.05 / z, ctx)
        assert abs(jtp_theta_series(z, ctx) - want) <= 1e-13 * abs(want)

    def test_overflow_before_the_stop_raises(self, ctx05):
        with pytest.raises(NonConvergent, match="bilateral theta series: term 2 overflows"):
            jtp_theta_series(1e-300, ctx05)


class TestThetaLogqDerivative:
    def test_finite_difference_oracle(self, ctx05):
        # series == (log q / 2) d/ds theta(z e^s)|_0 / (q;q)_oo
        import math

        for z in (1.0, 0.8 + 0.3j, 1.6):
            d = 1e-6
            fd = (jtp_theta_series(z * math.e**d, ctx05)
                  - jtp_theta_series(z * math.e**(-d), ctx05)) / (2 * d)
            want = fd * math.log(ctx05.q) / 2.0 / euler_product(ctx05)
            got = jtp_theta_logq_derivative_series(z, ctx05)
            assert got == pytest.approx(want, rel=1e-8)

    def test_conjugation_symmetry(self, ctx05):
        z = 0.9 + 0.4j
        a = jtp_theta_logq_derivative_series(z, ctx05)
        b = jtp_theta_logq_derivative_series(np.conj(z), ctx05)
        assert a == pytest.approx(np.conj(b), rel=1e-13)

    def test_window_doubling_stable(self):
        a = jtp_theta_logq_derivative_series(1.0, QContext(q=0.5, eps_trunc=1e-15))
        b = jtp_theta_logq_derivative_series(1.0, QContext(q=0.5, eps_trunc=1e-18))
        assert a == pytest.approx(b, rel=1e-13)


class TestBhsTerminating:
    def test_single_term(self, ctx05):
        assert bhs_terminating([1.0], [0.3], 0.5, 0, ctx05) == 1.0

    def test_two_term_hand_expansion(self, ctx05):
        # n = 1: 1 + (1-u1)(1-u2) arg / [(1-l1)(1-q)]
        q = 0.5
        u = [q ** (-1), 0.3]
        low = [0.8]
        got = bhs_terminating(u, low, 0.7, 1, ctx05)
        want = 1.0 + (1 - q**-1) * (1 - 0.3) * 0.7 / ((1 - 0.8) * (1 - q))
        assert got == pytest.approx(want, rel=1e-14)

    def test_three_term_brute_force(self, ctx05):
        q = 0.5
        upper = [q**-2, 0.4, -0.2]
        lower = [0.3, 0.1]
        got = bhs_terminating(upper, lower, 0.9, 2, ctx05)
        want = 0.0
        for k in range(3):
            num, den = 1.0, 1.0
            for u in upper:
                for j in range(k):
                    num *= 1 - u * q**j
            for l in lower + [q]:
                for j in range(k):
                    den *= 1 - l * q**j
            want += num / den * 0.9**k
        assert got == pytest.approx(want, rel=1e-13)

    def test_no_termination_parameter_rejected(self, ctx05):
        with pytest.raises(ValueError):
            bhs_terminating([0.4], [0.3], 0.5, 2, ctx05)

    def test_singular_lower(self, ctx05):
        with pytest.raises(SingularLowerParameter):
            bhs_terminating([0.5**-2, 0.1], [0.5**-1], 0.5, 2, ctx05)

    def test_extended_precision_cancellation(self, ctx03):
        # q^{-n} columns cancel catastrophically in double; compare the
        # accumulation against mpmath at 40 digits for n = 6, q = 0.3
        mp.mp.dps = 40
        q = mp.mpf("0.3")
        n = 6
        upper = [0.3 ** (-n), 0.25, -0.15]
        lower = [0.45, -0.2]
        got = bhs_terminating(upper, lower, 0.3, n, ctx03)
        tot = mp.mpf(0)
        for k in range(n + 1):
            term = mp.qp(q**-n, q, k) * mp.qp(mp.mpf("0.25"), q, k) * mp.qp(mp.mpf("-0.15"), q, k)
            term /= mp.qp(mp.mpf("0.45"), q, k) * mp.qp(mp.mpf("-0.2"), q, k) * mp.qp(q, q, k)
            tot += term * q**k
        # ~10 digits cancel; the 80-bit accumulation keeps the result ~1e-8
        # (double alone would sit near 1e-5)
        assert got == pytest.approx(float(tot), rel=1e-7)
