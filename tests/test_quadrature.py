"""Quadrature engine: exactness, error control, determinism."""

import math

import numpy as np
import pytest

from qfrac import quadrature
from qfrac.context import QContext
from qfrac.errors import NonConvergent
from qfrac.qcore import h_poles, h_product_z, qpoch_infinite
from qfrac.qfunctions import poisson_kernel_z, theta_grid, weight_wH_sin
from qfrac.quadrature import converged_value, integrate_theta


def _lorentz_pair(phis, centre, beta):
    # even and 2pi-periodic, poles at +-centre +- i beta
    # cosh b - cos x = 2 sinh^2(b/2) + 2 sin^2(x/2), without cancellation
    def lorentz(x):
        return 0.5 / (np.sinh(0.5 * beta) ** 2 + np.sin(0.5 * x) ** 2)

    return lorentz(phis - centre) + lorentz(phis + centre)


class TestIntegrateTheta:
    def test_sin(self, ctx05):
        r = integrate_theta(np.sin, ctx05)
        assert complex(r.value) == pytest.approx(2.0, abs=1e-14)
        assert r.converged

    def test_weight_normalization(self, ctx_all):
        r = integrate_theta(lambda t: weight_wH_sin(t, ctx_all), ctx_all)
        assert complex(r.value).real == pytest.approx(1.0, abs=1e-10)

    def test_askey_wilson_closed_form(self, ctx05):
        quad = (0.6, -0.4, 0.3, -0.05)

        def igr(phis):
            return weight_wH_sin(phis, ctx05) / np.asarray(
                h_product_z(np.exp(1j * phis), list(quad), ctx05))

        got = complex(integrate_theta(igr, ctx05).value)
        want = complex(qpoch_infinite(np.prod(quad), ctx05))
        for j in range(4):
            for k in range(j + 1, 4):
                want /= complex(qpoch_infinite(quad[j] * quad[k], ctx05))
        assert got == pytest.approx(want, rel=1e-11)

    def test_polynomial_in_cos_machine_accurate(self, ctx05):
        coeffs = np.array([3.0, -2.0, 1.0, 0.5, -1.5, 2.5, 0.25, 1.0, -0.5,
                           0.1, 0.7, -0.3, 0.2, 1.1])  # degree 13

        def igr(phis):
            return np.polyval(coeffs, np.cos(phis))

        got = complex(integrate_theta(igr, ctx05).value)
        nodes, wts = np.polynomial.legendre.leggauss(60)
        phis = 0.5 * np.pi * (nodes + 1.0)
        want = float(np.sum(wts * np.polyval(coeffs, np.cos(phis))) * 0.5 * np.pi)
        assert got == pytest.approx(want, rel=1e-13)

    def test_near_zero_integral_terminates(self, ctx05):
        # antisymmetric-about-pi/2 integrand: value ~ 0, mass ~ 1
        r = integrate_theta(lambda t: np.cos(t) * np.sin(t) ** 2, ctx05)
        assert abs(complex(r.value)) < 1e-12
        assert r.evals < 10000

    def test_peaked_integrand(self, ctx05):
        # periodic Lorentzian spike, its pole stated; reference from a
        # tighter run, and the closed form 2 pi / sinh(beta)
        centre, beta = 1.234567, 1e-2

        def igr(phis):
            return _lorentz_pair(phis, centre, beta)

        got = complex(integrate_theta(igr, ctx05, strip=math.inf, poles=[(centre, beta)]).value)
        tight = QContext(q=0.5, quad_rel_tol=1e-13)
        want = complex(integrate_theta(igr, tight, strip=math.inf, poles=[(centre, beta)]).value)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(2.0 * np.pi / np.sinh(beta), rel=1e-9)

    def test_determinism_bitwise(self, ctx05):
        def igr(phis):
            return np.sin(3 * phis) * np.exp(np.cos(phis))

        a = integrate_theta(igr, ctx05)
        b = integrate_theta(igr, ctx05)
        assert complex(a.value) == complex(b.value)
        assert a.err_est == b.err_est and a.evals == b.evals

    def test_vector_valued_heterogeneous_scales(self, ctx05):
        # components of wildly different magnitude must each converge
        # relative to their own size
        def igr(phis):
            return np.stack([np.sin(phis), 1e6 * np.sin(phis) ** 3,
                             1e-5 * np.cos(4 * phis) ** 2], axis=1)

        r = integrate_theta(igr, ctx05)
        v = np.asarray(r.value)
        assert v[0] == pytest.approx(2.0, rel=1e-12)
        assert v[1] == pytest.approx(1e6 * 4.0 / 3.0, rel=1e-12)
        assert v[2] == pytest.approx(1e-5 * np.pi / 2.0, rel=1e-10)

    def test_size_cap_reports_not_converged(self):
        # a pole 1e-3 from the axis, not stated: plain Clenshaw-Curtis would
        # need M ~ 10^4 and stops at the cap
        ctx = QContext(q=0.5, quad_rel_tol=1e-14)

        def igr(phis):
            return 1.0 / (1e-6 + (phis - 1.0) ** 2)

        r = integrate_theta(igr, ctx)
        assert not r.converged and r.err_ratio > 1.0
        assert r.evals == quadrature._MAX_M + 1

    def test_refinement_monotonicity(self):
        # the pole stated: the trapezoid rule at the wider beta, the
        # sinh-mapped rule at the narrower
        for beta in (math.sqrt(0.002), 1e-3):
            vals = []
            for tol in (1e-5, 1e-7, 1e-9, 1e-12):
                ctx = QContext(q=0.5, quad_rel_tol=tol)
                res = integrate_theta(lambda phis: _lorentz_pair(phis, 1.1, beta), ctx,
                                      strip=math.inf, poles=[(1.1, beta)])
                vals.append(complex(res.value).real)
            ref = vals[-1]
            diffs = [abs(v - ref) for v in vals[:-1]]
            assert all(d1 >= d2 or d1 < 1e-12 for d1, d2 in zip(diffs, diffs[1:]))


class TestTrapezoid:
    def test_trig_polynomials_exact(self, ctx05):
        # cos^{2k} sin^2 has degree 2k + 2 < 32: exact at M = 16, confirmed at 32
        ks = np.arange(7)

        def igr(phis):
            return np.cos(phis)[:, None] ** (2 * ks) * np.sin(phis)[:, None] ** 2

        r = integrate_theta(igr, ctx05, strip=math.inf)
        even = [math.comb(2 * k, k) / 4.0**k for k in range(8)]
        want = np.pi * (np.array(even[:-1]) - np.array(even[1:]))
        assert r.converged and r.evals == 33
        assert np.max(np.abs(r.value - want)) < 1e-15

    def test_poisson_kernel_moderate_t(self, ctx05):
        # the weight integrates the Poisson kernel to 1 at every theta
        t, z = 0.9, np.exp(1j * theta_grid(5))

        def igr(phis):
            return weight_wH_sin(phis, ctx05)[:, None] * poisson_kernel_z(
                np.exp(1j * phis), z, t, ctx05)

        r = integrate_theta(igr, ctx05, strip=-math.log(t))
        assert r.converged and r.err_ratio <= 1.0
        assert np.max(np.abs(r.value - 1.0)) < 1e-12
        assert r.evals < integrate_theta(igr, ctx05).evals

    def test_stated_strip_too_wide(self, ctx05):
        # true strip acosh(1 + 1e-6) = 0.0014 needs M ~ 10^4; stated 1 predicts 13
        def igr(phis):
            return 1.0 / (1.000001 - np.cos(phis))

        r = integrate_theta(igr, ctx05, strip=1.0)
        assert not r.converged and r.err_ratio > 1.0
        assert r.evals == quadrature._MAX_M + 1
        with pytest.raises(NonConvergent, match="did not converge"):
            converged_value(r, "1/(a - cos)")


class TestSinhGL:
    def test_per_column_peaks(self, ctx05):
        # one column per peak; the stated widths are the true ones
        centre, beta = np.array([0.0, 1.3, np.pi]), np.array([1e-3, 1e-4, 2e-3])
        r = integrate_theta(lambda phis: _lorentz_pair(phis, centre, beta), ctx05,
                            strip=math.inf, peaks=(centre, beta))
        # int_0^pi 1/(cosh b - cos(phi -+ c)) summed = int_0^2pi = 2 pi / sinh b
        assert r.converged and r.evals < 2000 * centre.size
        assert np.max(np.abs(r.value * np.sinh(beta) / (2.0 * np.pi) - 1.0)) < 1e-11

    def test_stated_width_too_wide(self, ctx05):
        # true width 1e-9, stated 1e-2: the map clusters too loosely and the
        # rule stops at its cap
        centre = np.array([1.1])
        r = integrate_theta(lambda phis: _lorentz_pair(phis, centre, 1e-9), ctx05,
                            strip=math.inf, peaks=(centre, np.array([1e-2])))
        assert not r.converged and r.err_ratio > 1.0
        assert r.evals % (quadrature._MAX_M + 1) == 0
        with pytest.raises(NonConvergent, match="did not converge"):
            converged_value(r, "peaked pair")

    @pytest.mark.parametrize("d", (1e-2, 1e-4))
    def test_shared_pole_at_pi_and_at_0(self, ctx05, d):
        # 1/(cosh d + cos phi) has its poles at pi +- i d, 1/(cosh d - cos phi)
        # at +-i d; both integrate to pi / sinh d over [0, pi]
        sh2 = np.sinh(0.5 * d) ** 2
        for centre, igr in ((np.pi, lambda phis: 0.5 / (sh2 + np.cos(0.5 * phis) ** 2)),
                            (0.0, lambda phis: 0.5 / (sh2 + np.sin(0.5 * phis) ** 2))):
            r = integrate_theta(igr, ctx05, strip=math.inf, poles=[(centre, d)])
            assert r.converged and np.ndim(r.value) == 0
            assert abs(complex(r.value) * np.sinh(d) / np.pi - 1.0) < 1e-11

    def test_bilinear_kernel_two_peaks_two_poles(self, ctx05):
        # the bilinear kernels' integrand: two Poisson kernels at s = q^{0.4}
        # peaked at phi1, phi2, over a weight with poles 1.1e-3 from the
        # contour at 0 and pi, too near for the trapezoid rule to run on its
        # own; the trapezoid rule on 2^16 nodes is the reference
        s, t3, t4 = ctx05.q ** 0.4, 0.9989, -0.9989
        zpair = np.exp(1j * np.array([1.0, 1.8]))

        def igr(ths):
            zeta = np.exp(1j * ths)
            return weight_wH_sin(ths, ctx05) / h_product_z(zeta, [t3, t4], ctx05) * np.prod(
                poisson_kernel_z(zeta, zpair, s, ctx05), axis=1)

        r = integrate_theta(igr, ctx05, strip=math.inf, poles=h_poles([*(s * zpair), t3, t4]))
        m = 2**16
        fx = igr(np.pi * np.arange(m + 1) / m)
        want = np.pi / m * (fx.sum() - 0.5 * (fx[0] + fx[-1]))
        assert r.converged and r.evals < 4000
        assert abs(complex(r.value) / want - 1.0) < 1e-11


class TestNestedRule:
    @pytest.mark.parametrize("rule", ("trapezoid", "shared", "per_component"))
    def test_every_node_evaluated_once(self, ctx05, rule):
        # a rule that stops at M has called f on pieces x (M + 1) nodes (per
        # component), M a power of two >= 16: each node of M/2 is kept, not
        # evaluated again; the first call gets the 17 nodes of every piece
        centre, beta = np.array([0.0, 1.3, np.pi]), np.array([1e-3, 1e-4, 2e-3])
        igr, kw = {
            "trapezoid": (lambda phis: _lorentz_pair(phis, 1.1, 0.5),
                          {"poles": [(1.1, 0.5)]}),
            "shared": (lambda phis: _lorentz_pair(phis, 1.3, 1e-4),
                       {"poles": [(1.3, 1e-4)]}),
            "per_component": (lambda phis: _lorentz_pair(phis, centre, beta),
                              {"peaks": (centre, beta)}),
        }[rule]
        calls = []

        def spy(phis):
            calls.append(np.shape(phis))
            return igr(phis)

        r = integrate_theta(spy, ctx05, strip=math.inf, **kw)
        assert r.converged
        assert r.evals == sum(math.prod(c) for c in calls)
        pieces, rem = divmod(calls[0][0], quadrature._M0 + 1)
        cols = math.prod(calls[0][1:])
        assert rem == 0 and (pieces == 1) == (rule == "trapezoid")
        m = r.evals // (pieces * cols) - 1
        assert r.evals == pieces * (m + 1) * cols
        assert m >= 16 and m & (m - 1) == 0

    @pytest.mark.parametrize("m", (16, 256, 8192))
    def test_clenshaw_curtis_weights_exact(self, m):
        # the weights of M sum to 2 and integrate x^d exactly for d <= M
        _, w = quadrature._clenshaw_curtis(m)
        x = np.cos(np.pi * np.arange(m + 1) / m)
        assert abs(w.sum() - 2.0) <= 1e-14
        power, worst = np.ones(m + 1), 0.0
        for d in range(m + 1):
            want = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            worst = max(worst, abs(w @ power - want))
            power *= x
        assert worst <= 1e-14
