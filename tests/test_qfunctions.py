"""Polynomial families, weights, bases and the q-exponential."""

import mpmath as mp
import numpy as np
import pytest

from qfrac.context import QContext
from qfrac.errors import DivisionNearZero, DomainError, NonConvergent, PoleOnContour
from qfrac.qcore import h_product_z, qpoch_finite, qpoch_infinite, euler_product
from qfrac.qfunctions import (
    AWParams,
    ThetaPoint,
    aw_norm_Mn,
    aw_polynomial,
    aw_polynomial_all,
    aw_polynomial_series,
    aw_polynomial_x,
    aw_weight,
    basis_phi_a,
    basis_phi_quarter,
    basis_rho,
    hermite_cq,
    hermite_cq_all,
    poisson_factors,
    poisson_kernel,
    poisson_kernel_z,
    q_exponential,
    q_exponential_direct,
    theta_grid,
    weight_wH,
    weight_wH_sin,
)
from qfrac.quadrature import integrate_theta


def qbinomial(n, k, q):
    num = den = 1.0
    for j in range(k):
        num *= 1 - q ** (n - j)
        den *= 1 - q ** (j + 1)
    return num / den


class TestHermite:
    def test_h0_h1(self, ctx05):
        assert hermite_cq(0, 0.77, ctx05) == 1.0
        assert hermite_cq(1, 0.3, ctx05) == pytest.approx(0.6)

    def test_h2_hand_value(self, ctx05):
        # H_2 = 4x^2 - (1 - q)
        assert hermite_cq(2, 0.5, ctx05) == pytest.approx(0.5)

    def test_qbinomial_sum_oracle(self, ctx_all, rng):
        # H_n(cos t|q) = sum_k [n choose k]_q e^{i(n-2k)t}
        q = ctx_all.q
        for _ in range(8):
            th = rng.uniform(0, np.pi)
            n = int(rng.integers(0, 9))
            want = sum(qbinomial(n, k, q) * np.exp(1j * (n - 2 * k) * th)
                       for k in range(n + 1))
            got = hermite_cq(n, np.cos(th), ctx_all)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_batch_consistency(self, ctx05):
        xs = np.linspace(-1, 1, 7)
        batch = hermite_cq_all(6, xs, ctx05)
        for n in (0, 3, 6):
            assert np.allclose(batch[n], [hermite_cq(n, x, ctx05) for x in xs])


    def test_head_is_continued_exactly(self, ctx05):
        xs = np.array([0.3, -0.9 + 0.2j])
        head = hermite_cq_all(15, xs, ctx05)
        assert np.array_equal(hermite_cq_all(40, xs, ctx05, head=head),
                              hermite_cq_all(40, xs, ctx05))


class TestWeight:
    def test_endpoint_domain_error(self, ctx05):
        with pytest.raises(DomainError):
            weight_wH(0.0, ctx05)
        with pytest.raises(DomainError):
            weight_wH(np.pi, ctx05)

    def test_frozen_midpoint(self, ctx05):
        # w_H(cos(pi/2)|0.5), factorwise mpmath value
        assert weight_wH(np.pi / 2, ctx05) == pytest.approx(
            1.0450957470754937265, rel=1e-13)

    def test_symmetry(self, ctx05):
        assert weight_wH(np.pi / 3, ctx05) == pytest.approx(
            weight_wH(2 * np.pi / 3, ctx05), rel=1e-13)

    def test_normalization(self, ctx_all):
        r = integrate_theta(lambda t: weight_wH_sin(t, ctx_all), ctx_all)
        assert complex(r.value).real == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self, ctx_all):
        pairs = [(m, n) for m in range(9) for n in range(m, 9)]

        def igr(phis):
            H = hermite_cq_all(8, np.cos(phis), ctx_all)
            w = weight_wH_sin(phis, ctx_all)
            return np.stack([w * H[m] * H[n] for (m, n) in pairs], axis=1)

        gram = np.atleast_1d(integrate_theta(igr, ctx_all).value)
        for (m, n), got in zip(pairs, gram):
            want = qpoch_finite(ctx_all.q, n, ctx_all) if m == n else 0.0
            assert abs(got - want) < 1e-9


class TestPoisson:
    def test_t_zero(self, ctx05):
        assert poisson_kernel(1.0, 2.0, 0.0, ctx05) == pytest.approx(1.0)

    def test_dual_form_frozen(self, ctx05):
        got_p = poisson_kernel(np.pi / 3, np.pi / 4, 0.4, ctx05, form="product")
        got_s = poisson_kernel(np.pi / 3, np.pi / 4, 0.4, ctx05, form="series")
        assert got_p.real == pytest.approx(2.3922684732308152634, rel=1e-12)
        assert got_s == pytest.approx(got_p, rel=1e-10)

    def test_dual_form_grid(self, ctx_all):
        for th in theta_grid(5):
            s = poisson_kernel(float(th), 2.0, -0.35, ctx_all, form="series")
            p = poisson_kernel(float(th), 2.0, -0.35, ctx_all, form="product")
            assert s == pytest.approx(p, rel=1e-10)

    def test_matrix_form(self, ctx05):
        phis, thetas = np.array([np.pi / 4, 2.0]), np.array([0.3, 1.1, 2.9])
        got = poisson_kernel_z(np.exp(1j * phis), np.exp(1j * thetas), -0.35, ctx05)
        assert got.shape == (2, 3)
        for i, ph in enumerate(phis):
            for j, th in enumerate(thetas):
                want = poisson_kernel(th, ph, -0.35, ctx05, form="series")
                assert got[i, j] == pytest.approx(want, rel=1e-10)

    @staticmethod
    def _four_products(zeta, z, t, ctx):
        """The kernel with all four denominator products and (t^2; q)_oo in
        one call."""
        zeta, z = zeta.reshape(len(zeta), -1), z[None, :]
        tz, t_z, inv = t * z, t / z, 1.0 / zeta
        args = np.stack((zeta * tz, inv * tz, zeta * t_z, inv * t_z))
        p = qpoch_infinite(np.append(args.ravel(), t * t), ctx)
        return p[-1] / np.prod(p[:-1].reshape(args.shape), axis=0)

    @pytest.mark.parametrize("t", [0.3, 0.84, 0.9, -0.6])
    def test_conjugate_pairs_match_four_products(self, ctx05, t):
        # 1025 shared nodes (one of them on the peak of z_8), and per-z nodes
        phis = np.linspace(0.0, np.pi, 1025)
        thetas = theta_grid(17)
        z = np.exp(1j * thetas)
        for zeta in (np.exp(1j * phis), np.exp(1j * (phis[:, None] + 0.01 * thetas))):
            got = poisson_kernel_z(zeta, z, t, ctx05)
            want = self._four_products(zeta, z, t, ctx05)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1.2e-14

    @pytest.mark.parametrize("t", [0.99, 0.999])
    def test_conjugate_pairs_at_the_peaks(self, ctx05, t):
        # near phi = theta both forms lose digits as eps / (1 - t); against
        # 40-digit mpmath at the nodes' angles the pairs stay within 4 eps / (1 - t)
        phis = np.linspace(0.0, np.pi, 1025)
        thetas = theta_grid(5)
        got = poisson_kernel_z(np.exp(1j * phis), np.exp(1j * thetas), t, ctx05)
        with mp.workdps(40):
            tt, qq = mp.mpf(t), mp.mpf(ctx05.q)
            for j, th in enumerate(thetas):
                zz = mp.expj(mp.mpf(th))
                for i in range(round(th / np.pi * 1024) - 4, round(th / np.pi * 1024) + 5):
                    ze = mp.expj(mp.mpf(phis[i]))
                    want = complex(mp.qp(tt * tt, qq) / (
                        mp.qp(tt * ze * zz, qq) * mp.qp(tt * zz / ze, qq)
                        * mp.qp(tt * ze / zz, qq) * mp.qp(tt / (ze * zz), qq)))
                    assert abs(got[i, j] - want) <= 4 * np.finfo(float).eps / (1 - t) * abs(want)

    def test_off_circle_takes_four_products(self, ctx05):
        # D_q's |z| = q^{+-1/2}, the Richardson points z(1 +- delta), and a
        # complex t on the circle
        zeta = np.exp(1j * np.linspace(0.0, np.pi, 65))
        z0, rq = np.exp(1j * theta_grid(5)), np.sqrt(ctx05.q)
        for z, t in ((rq * z0, 0.7), (z0 / rq, 0.7), (z0 * (1 + 1e-6), 0.7),
                     (z0 * (1 - 5e-7), 0.7), (z0, 0.5 + 0.2j)):
            got = poisson_kernel_z(zeta, z, t, ctx05)
            assert np.array_equal(got, self._four_products(zeta, z, t, ctx05))

    @pytest.mark.parametrize("t", [0.4, -0.35, 0.9995])
    @pytest.mark.parametrize("num, den", [((), (-1 / 1.2, -0.6)),
                                          ((0.3, -0.2), (0.4 + 0.3j, 0.4 - 0.3j)),
                                          ((0.5j,), (0.25, -0.6 + 0.1j))])
    def test_stacked_factors_match_separate_products(self, ctx_all, t, num, den):
        # the node factor and kernel of one stacked call against the weight,
        # h and the kernel computed on their own, for z on the circle and at
        # |z| = q^{+-1/2}, with real and complex alpha, on shared (m,) and
        # per-z (m, B) nodes
        phis = np.linspace(0.05, np.pi - 0.05, 33)
        thetas = theta_grid(5)
        rq = np.sqrt(ctx_all.q)
        for z in (np.exp(1j * thetas), rq * np.exp(1j * thetas), np.exp(1j * thetas) / rq):
            factors = poisson_factors(z, t, num, den, ctx_all)
            for angles in (phis, phis[:, None] + 0.01 * thetas):
                zeta = np.exp(1j * angles)
                node, kernel = factors(zeta)
                cols = angles.reshape(len(angles), -1)
                want = (weight_wH_sin(cols, ctx_all) * h_product_z(np.exp(1j * cols), num, ctx_all)
                        / h_product_z(np.exp(1j * cols), den, ctx_all))
                assert node.shape == want.shape and kernel.shape == (len(phis), len(z))
                assert np.max(np.abs(node - want) / np.abs(want)) <= 1e-13
                want = poisson_kernel_z(zeta, z, t, ctx_all)
                assert np.max(np.abs(kernel - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("t", [0.4, -0.35, 0.3768])
    def test_batch_equals_pointwise_product_form(self, ctx_all, t):
        # the 2 x 9 matrix on shared nodes from one call: bit for bit the
        # values of one call per point
        phis, thetas = np.array([np.pi / 4.0, 2.0]), theta_grid(9)
        got = poisson_kernel_z(np.exp(1j * phis), np.exp(1j * thetas), t, ctx_all)
        want = [[poisson_kernel(float(th), ph, t, ctx_all) for th in thetas] for ph in phis]
        assert np.array_equal(got, np.array(want))

    @pytest.mark.parametrize("t", [0.4, -0.35, 0.3768])
    def test_broadcast_equals_pointwise(self, ctx_all, t):
        # theta broadcast against phi, as I0b asks for its values: the product
        # form bit for bit one call per pair; the series form shares one
        # stopping rule, set by the largest sum, so a pair may take terms past
        # its own stop, and the gap stays below eps_trunc (1e-15) times that sum
        thetas, phis = theta_grid(9)[:, None], np.array([np.pi / 4.0, 2.0, 0.3])
        for form in ("product", "series"):
            got = poisson_kernel(thetas, phis, t, ctx_all, form=form)
            want = np.array([[poisson_kernel(th, ph, t, ctx_all, form=form) for ph in phis]
                             for th in thetas[:, 0]])
            assert got.shape == (9, 3)
            assert isinstance(poisson_kernel(0.3, 2.0, t, ctx_all, form=form), complex)
            if form == "product":
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_positivity(self, ctx05, rng):
        for _ in range(10):
            th, ph = rng.uniform(0, np.pi, 2)
            t = rng.uniform(0.0, 0.95)
            assert poisson_kernel(th, ph, t, ctx05).real > 0

    def test_generating_function(self, ctx_all):
        # phi = theta collapses the kernel to the generating function squared
        # structure; check the plain generating function directly instead
        q = ctx_all.q
        for t in (0.5, -0.4):
            for th in (0.7, 2.1):
                H = hermite_cq_all(150, np.cos(th), ctx_all)
                coeff, total = 1.0, 0.0
                for n in range(151):
                    total += coeff * H[n].real
                    coeff *= t / (1 - q ** (n + 1))
                z = np.exp(1j * th)
                want = 1.0 / (qpoch_infinite(t * z, ctx_all)
                              * qpoch_infinite(t / z, ctx_all))
                assert total == pytest.approx(want.real, rel=1e-10)


class TestAskeyWilson:
    T = AWParams(0.3, 0.2, 0.1, 0.05)

    def test_p0(self, ctx05):
        assert aw_polynomial(0, 1.1, self.T, ctx05) == 1.0

    def test_p1_two_term_sum(self, ctx05):
        # hand-expanded k = 0, 1 terms of the 4phi3
        q, (a, b, c, d) = 0.5, self.T.as_tuple()
        th = np.pi / 3
        x = np.cos(th)
        pref = (1 - a * b) * (1 - a * c) * (1 - a * d) / a
        k1 = ((1 - q**-1) * (1 - a * b * c * d)
              * (1 - 2 * a * x + a * a) * q
              / ((1 - q) * (1 - a * b) * (1 - a * c) * (1 - a * d)))
        want = pref * (1.0 + k1)
        assert aw_polynomial(1, th, self.T, ctx05) == pytest.approx(want, rel=1e-13)

    def test_recurrence_vs_series(self, ctx_all):
        # the series route cancels ~ q^{-n(n+1)/2}-size terms; extended
        # precision leaves it ~1e-8-accurate at the worst case (q=0.3, n=6)
        for n in (2, 4, 6):
            got = aw_polynomial(n, theta_grid(5), self.T, ctx_all)
            want = aw_polynomial_series(n, theta_grid(5), self.T, ctx_all)
            assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))

    def test_frozen_high_degree(self, ctx05):
        # n = 8 at theta = 1.1, mpmath 50-digit series value
        assert aw_polynomial(8, 1.1, self.T, ctx05).real == pytest.approx(
            -0.313768877861728, rel=1e-12)

    def test_symmetry_t2_t3(self, ctx05):
        swapped = AWParams(0.3, 0.1, 0.2, 0.05)
        for th in theta_grid(5):
            assert aw_polynomial(3, float(th), self.T, ctx05) == pytest.approx(
                aw_polynomial(3, float(th), swapped, ctx05), rel=1e-12)

    def test_degree_and_leading_coefficient(self, ctx05):
        # divided differences at n+2 points: (n+1)-st is 0, n-th is the
        # leading coefficient 2^n (T q^{n-1}; q)_n
        n = 4
        xs = np.linspace(-0.8, 0.8, n + 2)
        vals = [aw_polynomial_x(n, x, self.T, ctx05) for x in xs]

        def divided(xs, vs):
            vs = list(vs)
            for k in range(1, len(xs)):
                vs = [(vs[i + 1] - vs[i]) / (xs[i + k] - xs[i])
                      for i in range(len(vs) - 1)]
            return vs[0]

        prod = 0.3 * 0.2 * 0.1 * 0.05
        lead = 2**n * complex(qpoch_finite(prod * ctx05.q ** (n - 1), n, ctx05))
        got_lead = divided(xs[:n + 1], vals[:n + 1])
        assert got_lead == pytest.approx(lead, rel=1e-8)
        got_zero = divided(xs, vals + [])
        assert abs(got_zero) < 1e-8 * abs(lead)

    def test_weight_pole_rejected(self, ctx05):
        with pytest.raises(PoleOnContour):
            aw_weight(1.0, AWParams(1.0, 0.2, 0.1, 0.05), ctx05)

    def test_weight_all_zero(self, ctx05):
        th = 1.2
        z2 = np.exp(2j * th)
        want = (qpoch_infinite(z2, ctx05) * qpoch_infinite(1 / z2, ctx05)).real
        assert aw_weight(th, AWParams(0, 0, 0, 0), ctx05) == pytest.approx(want, rel=1e-13)
        assert aw_weight(th, AWParams(0, 0, 0, 0), ctx05) > 0

    def test_weight_reflection(self, ctx05):
        t_neg = AWParams(-0.3, -0.2, -0.1, -0.05)
        for th in (0.5, 1.3):
            assert aw_weight(np.pi - th, t_neg, ctx05) == pytest.approx(
                aw_weight(th, self.T, ctx05), rel=1e-12)

    def test_norm_m0_all_zero(self, ctx05):
        got = aw_norm_Mn(0, AWParams(0, 0, 0, 0), ctx05)
        assert got == pytest.approx(2 * np.pi / euler_product(ctx05), rel=1e-13)

    def test_norm_quadrature_oracle(self, ctx05):
        for n in (0, 1, 2, 4):
            def igr(phis, n=n):
                p = aw_polynomial(n, phis, self.T, ctx05)
                return p * p * aw_weight(phis, self.T, ctx05)

            got = complex(integrate_theta(igr, ctx05).value)
            assert got.real == pytest.approx(aw_norm_Mn(n, self.T, ctx05), rel=1e-8)

    def test_orthogonality_matrix(self, ctx_all):
        # int p_m p_n w dtheta == M_n delta_{mn} at 1e-8 relative, m,n <= 6
        pairs = [(m, n) for m in range(7) for n in range(m, 7)]

        def igr(phis):
            P = [aw_polynomial(k, phis, self.T, ctx_all) for k in range(7)]
            w = aw_weight(phis, self.T, ctx_all)
            return np.stack([w * P[m] * P[n] for (m, n) in pairs], axis=1)

        gram = np.atleast_1d(integrate_theta(igr, ctx_all).value)
        for (m, n), got in zip(pairs, gram):
            mn = aw_norm_Mn(n, self.T, ctx_all)
            if m == n:
                assert got.real == pytest.approx(mn, rel=1e-8)
            else:
                assert abs(got) < 1e-8 * mn

    def test_all_degrees_against_series(self, ctx07):
        # every row p_0..p_6 of the one-pass recurrence against the 4phi3
        # route; q = 0.7 keeps the series' cancellation to ~3 digits.  The
        # second quadruple leads with a tiny t1, which the recurrence sorts
        # away; the series gets the same quadruple with 0.3 leading
        th = theta_grid(5)
        for t, t_series in ((self.T, self.T),
                            (AWParams(1e-6, 0.3, 0.2, -0.1), AWParams(0.3, 1e-6, 0.2, -0.1))):
            P = aw_polynomial_all(6, np.cos(th), t, ctx07)
            assert P.shape == (7, 5)
            for n in range(7):
                want = aw_polynomial_series(n, th, t_series, ctx07)
                assert np.max(np.abs(P[n] - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [T, AWParams(1e-6, 0.3, 0.2, -0.1),
                                   AWParams(0.4 + 0.3j, 0.4 - 0.3j, 0.2, 0.1),
                                   AWParams(0.0, 0.0, 0.0, 0.0)])
    def test_continued_rows_match_scratch(self, ctx_all, t):
        # the blocks of the bilinear series: rows 0..15, then continued to
        # 0..31, 0..63 and 0..127, against one pass from n = 0; the head's
        # rows are kept as they are
        x = np.cos(np.array([1.0, 1.8, 0.3]))
        scratch = aw_polynomial_all(127, x, t, ctx_all)
        rows = None
        for n in (15, 31, 63, 127):
            head, rows = rows, aw_polynomial_all(n, x, t, ctx_all, head=rows)
            assert rows.shape == (n + 1, 3)
            if head is not None:
                assert np.array_equal(rows[:len(head)], head)
        scale = np.max(np.abs(scratch), axis=1)
        assert np.all(np.max(np.abs(rows - scratch), axis=1) <= 1e-13 * scale)

    def test_norm_array_matches_scalar(self, ctx_all):
        ns = np.arange(40)
        got = aw_norm_Mn(ns, self.T, ctx_all)
        assert got.shape == (40,)
        for n in ns:
            assert got[n] == pytest.approx(aw_norm_Mn(int(n), self.T, ctx_all), rel=1e-13)

    def test_norm_array_guard(self, ctx05):
        # t1 t2 = q^{-2}: (t1 t2 q^n; q)_oo vanishes for n <= 2, so M_n's
        # denominator does; one such n trips the guard for the whole array
        t = AWParams(2.0, 2.0, 0.1, 0.05)
        assert np.all(np.isfinite(aw_norm_Mn(np.array([3, 5, 6]), t, ctx05)))
        with pytest.raises(DivisionNearZero):
            aw_norm_Mn(np.array([3, 5, 2, 6]), t, ctx05)

    def test_params_validation(self, ctx05):
        with pytest.raises(PoleOnContour):
            AWParams(2.0, 0.5, 0.3, 0.2).validate(ctx05)  # t1 t2 = 1 = q^0


class TestBases:
    def test_phi_a_nu_zero(self, ctx05):
        assert basis_phi_a(0.4, 0, 1.0, ctx05) == 1.0

    def test_phi_a_integer_product_oracle(self, ctx05):
        # (a e^{it}, a e^{-it}; q)_2 = prod_{k<2} [1 - 2 a x q^k + a^2 q^{2k}]
        a, th = 0.4, 1.1
        x = np.cos(th)
        want = 1.0
        for k in range(2):
            want *= 1 - 2 * a * x * 0.5**k + a * a * 0.25**k
        assert basis_phi_a(a, 2, th, ctx05) == pytest.approx(want, rel=1e-13)

    def test_phi_a_real_index_consistency(self, ctx05):
        got = basis_phi_a(0.4, 3, 1.1, ctx05)
        via_ratio = basis_phi_a(0.4, 3.0 + 1e-12, 1.1, ctx05)
        assert got == pytest.approx(via_ratio, rel=1e-9)

    def test_phi_quarter_expansion(self, ctx05):
        # base q^{1/2} product display
        th = 0.9
        x = np.cos(th)
        q = 0.5
        want = 1.0
        for k in range(3):
            want *= 1 - 2 * x * q ** (0.25 + k / 2) + q ** (0.5 + k)
        assert basis_phi_quarter(3, th, ctx05) == pytest.approx(want, rel=1e-13)

    def test_rho(self, ctx05):
        assert basis_rho(0, 0.7, ctx05) == 1.0
        th = 0.7
        assert basis_rho(1, th, ctx05) == pytest.approx(2 * np.cos(th), rel=1e-13)
        assert basis_rho(2, th, ctx05) == pytest.approx(4 * np.cos(th) ** 2, rel=1e-13)
        # rho_3 = 2 cos 3t + 2(1 + q + 1/q) cos t
        want = 2 * np.cos(3 * th) + 2 * (1 + 0.5 + 2.0) * np.cos(th)
        assert basis_rho(3, th, ctx05) == pytest.approx(want, rel=1e-13)

    def test_rho_real(self, ctx05, rng):
        for n in range(1, 7):
            th = rng.uniform(0, np.pi)
            val = basis_rho(n, th, ctx05)
            assert isinstance(val, float)


class TestQExponential:
    def test_t_zero(self, ctx05):
        assert q_exponential(1.0, 0.0, ctx05) == pytest.approx(1.0)

    def test_frozen(self, ctx05):
        assert q_exponential(np.pi / 3, 0.3, ctx05).real == pytest.approx(
            1.6572814509745202481, rel=1e-12)

    def test_dual_definition(self, ctx_all):
        for th in (np.pi / 3, 1.9):
            for t in (0.3, -0.25):
                a = q_exponential(th, t, ctx_all)
                b = q_exponential_direct(th, t, ctx_all)
                assert a == pytest.approx(b, rel=1e-9)

    def test_direct_at_t_zero(self, ctx_all):
        assert q_exponential_direct(np.pi / 3, 0.0, ctx_all) == 1

    def test_direct_unsettled_raises(self, ctx03):
        # about 670 terms are needed against max_terms = 512
        with pytest.raises(NonConvergent, match="stopping rule not met within max_terms"):
            q_exponential_direct(np.pi / 3, -0.95, ctx03)

    def test_real_for_real_args(self, ctx05):
        v = q_exponential(1.3, 0.2, ctx05)
        assert abs(v.imag) < 1e-13 * abs(v)


def test_theta_point():
    p = ThetaPoint(np.pi / 3)
    assert p.x == pytest.approx(0.5)
    assert abs(p.z) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        ThetaPoint(-0.1)


def test_theta_grid_interior():
    g = theta_grid(17)
    assert len(g) == 17
    assert 0 < g[0] and g[-1] < np.pi
