"""Operator semantics: divided differences, the K and T families, the
generator, the left inverse and the adjoint pairing."""

import math

import numpy as np
import pytest

from qfrac.context import QContext
from qfrac.errors import AnnulusExhausted, NonConvergent, ParamDomain
from qfrac import identities as idn
from qfrac import operators as op
from qfrac import qcore, quadrature
from qfrac.qcore import h_product_z, qpoch_infinite
from qfrac.qfunctions import hermite_cq_all, theta_grid

GRID = theta_grid(9)


class TestAnalyticFn:
    def test_symmetry_invariant(self, ctx05):
        f = op.analytic_from_x(lambda x: x**3 - 0.2 * x)
        for z in (0.8 * np.exp(0.3j), 1.4 * np.exp(1.2j)):
            assert f(z) == pytest.approx(f(1.0 / z), rel=1e-12)

    def test_annulus_guard(self, ctx05):
        f = op.AnalyticFn(lambda z: z + 1.0 / z, annulus_rho=0.9, label="t")
        f(np.exp(0.4j))  # circle always allowed
        with pytest.raises(AnnulusExhausted):
            f(0.5)

    def test_memoization_consistency(self, ctx05):
        calls = {"n": 0}

        def ev(z):
            calls["n"] += z.size
            return z + 1.0 / z

        f = op.AnalyticFn(ev, 1e-9, memoize=True)
        a = f(np.exp(1j * GRID))
        b = f(np.exp(1j * GRID))
        assert np.array_equal(a, b)
        assert calls["n"] == len(GRID)

    def test_memo_keys_the_exact_point(self, ctx05):
        # z(1 + 1e-13) is a point of its own, in a later call and within one
        # batch; only a bit-exact repeat is read back from the memo
        asked = []

        def ev(z):
            asked.extend(z.tolist())
            return np.array(z)

        z = 0.6 + 0.8j  # z and w share one cell of a 1e-12 grid
        w = z * (1.0 + 1e-13)
        f = op.AnalyticFn(ev, 1e-9, memoize=True)
        assert f(z) == z and f(w) == w
        assert asked == [z, w]
        assert f(z) == z and f(np.array([w, z]))[0] == w
        assert asked == [z, w] and len(f._memo) == 2
        g = op.AnalyticFn(ev, 1e-9, memoize=True)
        assert g(np.array([z, w])).tolist() == [z, w]


class TestParams:
    def test_k_window(self, ctx05):
        op.KParams(1.0, 1.5).validate(ctx05)
        with pytest.raises(ParamDomain, match=r"c outside \(1, 1/q\)"):
            op.KParams(1.0, 0.5).validate(ctx05)
        with pytest.raises(ParamDomain, match=r"c outside \(1, 1/q\)"):
            op.KParams(1.0, 2.5).validate(ctx05)
        with pytest.raises(ParamDomain):
            op.KParams(-0.2, 1.5).validate(ctx05)

    def test_t_window(self, ctx05):
        op.TParams(0.4, -0.3, 0.9).validate(ctx05)
        with pytest.raises(ParamDomain):
            op.TParams(1.1, 0.2, 0.5).validate(ctx05)
        with pytest.raises(ParamDomain):
            op.TParams(0.4, 0.2, 1.0).validate(ctx05)
        with pytest.raises(ParamDomain):  # smallest factor 5e-9, between phase samples
            op.TParams((1 - 5e-9) * np.exp(0.0123j), 0.3, 0.5).validate(ctx05)


class TestPoissonIntegral:
    def test_reproducing_property(self, ctx05):
        # integral of w_H H_n(cos phi) P_t(phi, theta) = t^n H_n(cos theta);
        # t = 0 gives delta_{n0}
        grid = theta_grid(5)
        want = hermite_cq_all(3, np.cos(grid), ctx05)
        for t in (0.4, -0.35, 0.0):
            for n in range(4):
                res = op.poisson_integral(
                    t, lambda zeta: hermite_cq_all(n, zeta.real, ctx05)[n], (), math.inf,
                    np.exp(1j * grid), 1.0, ctx05)
                assert np.max(np.abs(res.value - t**n * want[n])) < 1e-12

    def test_one_pochhammer_call_per_evaluation(self, ctx05, calls_per_evaluation):
        # the weight, 1/h and the kernel of one evaluation come from one
        # qpoch_infinite call; the operand x^2 makes none of its own
        counts = calls_per_evaluation(op)
        f = op.analytic_from_x(lambda x: x * x)
        op.apply_K(op.KParams(0.8, 1.2), f, ctx05).on_theta(GRID)
        op.dq_inverse(1.2, f, ctx05).on_theta(GRID)
        op.apply_T(op.TParams(0.4, -0.3, 0.5), f, ctx05).on_theta(GRID)
        op.apply_T(op.TParams(0.4 + 0.3j, 0.4 - 0.3j, 0.5), f, ctx05).on_theta(GRID)
        op.poisson_integral(0.4, lambda zeta: zeta.real, (), math.inf, np.exp(1j * GRID),
                            1.0, ctx05)
        assert len(counts) >= 5 and set(counts) == {1}

    @pytest.mark.parametrize("apply", [
        lambda f, ctx: op.apply_K(op.KParams(0.8, 1.2), f, ctx),
        lambda f, ctx: op.dq_inverse(1.2, f, ctx),
        lambda f, ctx: op.apply_T(op.TParams(0.4 + 0.3j, 0.4 - 0.3j, 0.5), f, ctx),
        lambda f, ctx: op.apply_Dq(op.apply_K(op.KParams(1.5, 1.2), f, ctx), ctx),
        lambda f, ctx: op.left_inverse_apply(op.KParams(0.5, 1.2), f, ctx),
        lambda f, ctx: op.apply_K(op.KParams(0.01, 1.2), f, ctx),
        lambda f, ctx: op.apply_T(op.TParams(0.995, 0.3, 0.5), f, ctx),
    ], ids=["K", "Dq^-1", "T", "Dq K", "left inverse", "K, sinh per point",
            "T, sinh on shared nodes"])
    def test_stacked_operands_share_one_application(self, ctx05, qpoch_calls, apply):
        # each column of one stacked application equals its operand's own
        # application, and makes as many qpoch_infinite calls as the operand
        # that needs the most nodes; the operands make none of their own
        fns = [op.analytic_from_x(lambda x: 3.0 * x * x - x), op.analytic_from_x(lambda x: x * x),
               op.analytic_from_x(lambda x: ((16.0 * x * x - 20.0) * x * x + 5.0) * x)]
        qcore.euler_product(ctx05)  # cached per context: computed before the counts
        before = len(qpoch_calls)
        got = apply(op.stack(fns), ctx05).on_theta(GRID)
        stacked = len(qpoch_calls) - before
        assert got.shape == (len(GRID), len(fns))
        singles = []
        for j, f in enumerate(fns):
            before = len(qpoch_calls)
            want = np.asarray(apply(f, ctx05).on_theta(GRID))
            singles.append(len(qpoch_calls) - before)
            assert np.max(np.abs(got[:, j] - want)) <= 1e-13 * np.max(np.abs(want))
        assert stacked == max(singles)

    @staticmethod
    def _reproduced(coeffs, t, z, ctx):
        # the integral of w_H g P_t(., z) for g = sum_n c_n H_n(cos phi):
        # sum_n c_n t^n H_n((z + 1/z)/2)
        hn = hermite_cq_all(len(coeffs) - 1, (z + 1.0 / z) / 2.0, ctx)
        return sum(c * t**n * hn[n] for n, c in enumerate(coeffs))

    def test_peaked_t_takes_sinh_rule(self, ctx05):
        # |t| = 0.9995 predicts M ~ 25,000 trapezoid nodes: the sinh-mapped
        # rule runs (t < 0 moves the peaks to pi - theta) and reproduces
        # cos^2 = (H_2 + 1 - q)/4
        z = np.exp(1j * np.array([0.7, 2.1]))
        coeffs = [(1.0 - ctx05.q) / 4.0, 0.0, 0.25]
        for t in (0.9995, -0.9995):
            res = op.poisson_integral(t, lambda zeta: zeta.real ** 2, (), math.inf, z, 1.0,
                                      ctx05)
            assert res.converged and res.evals < 2000 * z.size
            assert np.max(np.abs(res.value - self._reproduced(coeffs, t, z, ctx05))) < 1e-12

    def test_sinh_rule_at_divided_difference_points(self, ctx05):
        # z at +-1, at D_q's Richardson points 1 +- 1e-6 and at |z| = q^{+-1/2}
        # with t just inside that annulus: every kernel peaked, every value
        # the reproducing property's
        rq = math.sqrt(ctx05.q)
        w = np.exp(0.9j)
        coeffs = [(1.0 - ctx05.q) / 4.0, 0.25, 0.25]
        for t, z in ((0.999, np.array([1.0, -1.0, 1.0 + 1e-6, 1.0 - 1e-6, -1.0 - 1e-6])),
                     (0.999 * rq, np.array([rq * w, w / rq]))):
            res = op.poisson_integral(
                t, lambda zeta: zeta.real ** 2 + 0.5 * zeta.real, (), math.inf, z, 1.0, ctx05)
            want = self._reproduced(coeffs, t, z, ctx05)
            assert res.converged and res.evals < 2000 * z.size
            assert np.max(np.abs(res.value - want) / np.abs(want)) < 1e-10

    @pytest.mark.parametrize("q", (0.3, 0.7))
    @pytest.mark.parametrize("a", (1e-3, 0.01))
    def test_near_identity_k_against_eigen_action(self, a, q):
        ctx = QContext(q=q)
        p = op.KParams(a, 1.2)
        grid = theta_grid(17)
        for n in range(4):
            got = op.apply_K(p, op.eigen_k_basis(1.2, n, ctx), ctx).on_theta(grid)
            want = op.apply_K_eigen(p, n, grid, ctx)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_operand_pole_near_contour_takes_sinh_rule(self, monkeypatch):
        # I2's rung a = 0.01 at c = 1.4, q = 0.7: 1/h(.; -1/c, -cq) has poles
        # 0.020 from the contour at phi = pi; split there as well as at the
        # kernel's peak, the sinh rule converges, as it does at c = 1.2
        # (poles 0.17 away)
        rules = []
        for name in ("_trapezoid", "_sinh_nodes"):
            def spy(*args, _orig=getattr(quadrature, name), _name=name):
                rules.append(_name)
                return _orig(*args)

            monkeypatch.setattr(quadrature, name, spy)
        ctx = QContext(q=0.7)
        f = op.analytic_from_x(lambda x: 2.0 * x * x - 1.0)
        for c in (1.4, 1.2):
            op.apply_K(op.KParams(0.01, c), f, ctx).on_theta(theta_grid(17))
        assert rules == ["_sinh_nodes", "_sinh_nodes"]

    def test_operand_poles_near_contour(self):
        # 1/h(.; 0.999, 0.3) in T and 1/h(.; -1/c, -cq) at cq = 0.9975 in K put
        # poles 1e-3 and 2.5e-3 from the contour, where the kernels' lie at
        # 0.69 and 0.18: the stated strip must be the operand's
        for cid, params in (
                ("I21", {"q": 0.5, "t1": 0.999, "t2": 0.3, "t3": 0.2, "t4": 0.1,
                         "r": 0.5, "n": 0}),
                ("I9", {"q": 0.7, "a": 0.5, "c": 1.425, "beta": 0.0})):
            params["grid_points"] = 5
            rep = idn.run_case(idn.IdentityCase(cid, params), QContext(q=params["q"]))
            assert rep.status == "pass", rep.residual.notes

    def test_unconverged_integral_fails_the_case(self):
        # a tolerance below rounding: no rule can meet it, so the one chosen
        # runs to its size cap
        ctx = QContext(q=0.7, quad_rel_tol=1e-17)
        f = op.analytic_from_x(lambda x: 2.0 * x * x - 1.0)
        with pytest.raises(NonConvergent, match="did not converge"):
            op.apply_K(op.KParams(0.01, 1.4), f, ctx).on_theta(theta_grid(5))
        rep = idn.run_case(idn.IdentityCase("I2", {"q": 0.7, "c": 1.4, "grid_points": 5}),
                            ctx)
        assert rep.status == "fail"
        assert "NonConvergent" in rep.residual.notes
        assert "did not converge" in rep.residual.notes


class TestDq:
    def test_constant(self, ctx05):
        g = op.apply_Dq(op.analytic_from_x(lambda x: np.ones_like(x)), ctx05)
        assert np.max(np.abs(g.on_theta(GRID))) < 1e-12

    def test_linear(self, ctx05):
        g = op.apply_Dq(op.analytic_from_x(lambda x: x), ctx05)
        assert np.allclose(g.on_theta(GRID), 1.0, atol=1e-12)

    def test_quadratic(self, ctx_all):
        q = ctx_all.q
        g = op.apply_Dq(op.analytic_from_x(lambda x: x * x), ctx_all)
        want = (math.sqrt(q) + 1 / math.sqrt(q)) * np.cos(GRID)
        assert np.allclose(g.on_theta(GRID), want, rtol=1e-11)

    def test_removable_singularity_at_endpoints(self, ctx05):
        g = op.apply_Dq(op.analytic_from_x(lambda x: x * x), ctx05)
        q = ctx05.q
        val = g.on_theta(np.array([0.0, np.pi]))
        want = (math.sqrt(q) + 1 / math.sqrt(q)) * np.array([1.0, -1.0])
        assert np.allclose(val, want, rtol=1e-9)

    def test_stacked_columns_at_regular_and_removable_points(self, ctx05):
        # the regular quotient and the Richardson limit at z^2 = 1 take every
        # column, each bit for bit its operand's own D_q
        fns = [op.analytic_from_x(lambda x: x * x), op.analytic_from_x(lambda x: x**3 - x)]
        theta = np.array([0.0, 0.7, np.pi])
        got = op.apply_Dq(op.stack(fns), ctx05).on_theta(theta)
        assert got.shape == (3, 2)
        for j, f in enumerate(fns):
            assert np.array_equal(got[:, j], op.apply_Dq(f, ctx05).on_theta(theta))
        assert op.apply_Dq(op.stack(fns), ctx05)(1.0).shape == (2,)

    def test_degree_lowering(self, ctx05):
        # D_q of degree 4 has exact degree 3: the 3rd divided difference is
        # its leading coefficient, the 4th vanishes
        g = op.apply_Dq(op.analytic_from_x(lambda x: x**4), ctx05)
        xs = np.linspace(-0.6, 0.6, 5)
        vals = [complex(g(w)) for w in (xs + np.sqrt(xs**2 - 1 + 0j))]

        def divided(xs, vs):
            vs = list(vs)
            for k in range(1, len(xs)):
                vs = [(vs[i + 1] - vs[i]) / (xs[i + k] - xs[i])
                      for i in range(len(vs) - 1)]
            return vs[0]

        d3 = divided(xs[:4], vals[:4])
        d4 = divided(xs, vals)
        assert abs(d4) < 1e-6 * abs(d3)

    def test_annulus_precondition(self, ctx05):
        f = op.AnalyticFn(lambda z: z + 1.0 / z, annulus_rho=0.9)
        with pytest.raises(AnnulusExhausted):
            op.apply_Dq(f, ctx05)

    def test_chain_consumes_layers(self, ctx05):
        f = op.analytic_from_x(lambda x: x**3, rho=1e-9)
        g = op.apply_Dq(op.apply_Dq(f, ctx05), ctx05)
        assert g.annulus_rho == pytest.approx(1e-9 / ctx05.q)


class TestK:
    def test_eigen_action_quadrature(self, ctx_all):
        # both degrees stacked through one application; each column of the
        # stacked basis is bit for bit its own degree's eigenfunction
        p = op.KParams(1.2, 1.35)
        f = op.eigen_k_basis(1.35, [0, 3], ctx_all)
        got = op.apply_K(p, f, ctx_all).on_theta(GRID)
        for j, n in enumerate((0, 3)):
            assert np.array_equal(f.on_theta(GRID)[:, j],
                                  op.eigen_k_basis(1.35, n, ctx_all).on_theta(GRID))
            want = op.apply_K_eigen(p, n, GRID, ctx_all)
            assert np.max(np.abs(got[:, j] - want)) < 1e-8 * np.max(np.abs(want))

    def test_eigen_closed_form_n0(self, ctx05):
        # n = 0 is the bare prefactor times h
        p = op.KParams(0.9, 1.3)
        q = 0.5
        z = np.exp(1j * GRID)
        want = (q ** (0.9 * (0.9 - 3) / 4.0) * ((1 - q) / 2.6) ** 0.9
                * np.asarray(h_product_z(z, [-1.3 * q ** 0.55, -q ** 0.45 / 1.3], ctx05)))
        got = op.apply_K_eigen(p, 0, GRID, ctx05)
        assert np.allclose(got, want, rtol=1e-13)

    def test_a_zero_collapse(self, ctx05):
        got = op.apply_K_eigen(op.KParams(0.0, 1.3), 2, GRID, ctx05)
        z = np.exp(1j * GRID)
        want = np.asarray(h_product_z(z, [-1.3 * 0.5, -1 / 1.3], ctx05)) \
            * hermite_cq_all(2, np.cos(GRID), ctx05)[2]
        assert np.allclose(got, want, rtol=1e-13)

    def test_k1_equals_dq_inverse(self, ctx05):
        f = op.eigen_k_basis(1.4, 1, ctx05)
        a = op.apply_K(op.KParams(1.0, 1.4), f, ctx05).on_theta(GRID)
        b = op.dq_inverse(1.4, f, ctx05).on_theta(GRID)
        assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(b))

    def test_dq_of_k1_recovers(self, ctx05):
        # D_q K_{1,c} = identity, evaluated through the interpolant route
        f = op.eigen_k_basis(1.3, 1, ctx05)
        rec = op.left_inverse_apply(op.KParams(1.0, 1.3), f, ctx05)
        got = rec.on_theta(GRID)
        want = np.asarray(f.on_theta(GRID))
        assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))

    def test_identity_limit_direction(self, ctx05):
        f = op.analytic_from_x(lambda x: 2 * x * x - 1)
        fref = np.asarray(f.on_theta(GRID))
        res = [np.max(np.abs(op.apply_K(op.KParams(a, 1.3), f, ctx05).on_theta(GRID) - fref))
               for a in (0.2, 0.05)]
        assert res[1] < res[0]

    def test_output_annulus_and_offcircle_eval(self, ctx05):
        p = op.KParams(1.6, 1.3)
        f = op.eigen_k_basis(1.3, 1, ctx05)
        kf = op.apply_K(p, f, ctx05)
        assert kf.annulus_rho == pytest.approx(0.5 ** 0.8)
        z = 0.9 * np.exp(0.8j)
        assert kf(z) == pytest.approx(kf(1.0 / z), rel=1e-9)
        with pytest.raises(AnnulusExhausted):
            kf(0.5 ** 0.8)


class TestGenerator:
    def test_series_vs_fd(self, ctx05):
        p = op.KParams(0.8, 1.4)
        lhs = op.apply_J_series(p, 2, GRID, ctx05)
        rhs = op.generator_fd(op.eigen_k_basis(1.4, 2, ctx05), 0.8, 1.4, GRID, ctx05)
        assert np.max(np.abs(lhs - rhs)) < 1e-5 * np.max(np.abs(rhs))

    def test_a_zero_against_fd(self, ctx05):
        lhs = op.apply_J_series(op.KParams(0.0, 1.4), 2, GRID, ctx05)
        rhs = op.generator_fd(op.eigen_k_basis(1.4, 2, ctx05), 0.0, 1.4, GRID, ctx05,
                              delta=2e-3)
        assert np.max(np.abs(lhs - rhs)) < 1e-5 * np.max(np.abs(rhs))

    def test_log_argument_slope_in_c(self, ctx05):
        # J/(P_n h H_n) - theta-sum terms == log((1-q) q^{a/2+n/2-3/4} / (2c));
        # two c values isolate the -log(2c) dependence against the FD oracle
        from qfrac.qcore import jtp_theta_logq_derivative_series

        a, n, th = 0.8, 1, np.array([1.1])
        q = 0.5
        vals = {}
        for c in (1.25, 1.45):
            fd = op.generator_fd(op.eigen_k_basis(c, n, ctx05), a, c, th, ctx05)
            z = np.exp(1j * th)
            pn = q ** (a * (a - 3) / 4.0 + n * a / 2.0) * ((1 - q) / (2 * c)) ** a
            hpart = np.asarray(h_product_z(z, [-c * q ** 0.6, -q ** 0.4 / c], ctx05))
            hn = hermite_cq_all(n, np.cos(th), ctx05)[n]
            s1 = np.asarray(jtp_theta_logq_derivative_series(z * q ** 0.4 / c, ctx05)) \
                * np.asarray(qpoch_infinite(-q ** 0.4 / (c * z), ctx05)) \
                * np.asarray(qpoch_infinite(-c * z * q ** 0.6, ctx05))
            s2 = np.asarray(jtp_theta_logq_derivative_series(q ** 0.4 / (z * c), ctx05)) \
                * np.asarray(qpoch_infinite(-q ** 0.4 * z / c, ctx05)) \
                * np.asarray(qpoch_infinite(-c * q ** 0.6 / z, ctx05))
            vals[c] = complex((fd / (pn * hn) - s1 - s2)[0] / hpart[0])
        got_slope = vals[1.25] - vals[1.45]
        assert got_slope == pytest.approx(math.log(1.45 / 1.25), rel=1e-4)


class TestLeftInverse:
    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_recovery(self, ctx05, a):
        f = op.eigen_k_basis(1.3, 2, ctx05)
        rec = op.left_inverse_apply(op.KParams(a, 1.3), f, ctx05)
        got = rec.on_theta(GRID)
        want = np.asarray(f.on_theta(GRID))
        assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))

    def test_constant_times_h(self, ctx05):
        # the n = 0 eigen path: const * h(.; -1/c, -cq)
        f = op.eigen_k_basis(1.3, 0, ctx05)
        rec = op.left_inverse_apply(op.KParams(0.5, 1.3), f, ctx05)
        got = rec.on_theta(GRID)
        want = np.asarray(f.on_theta(GRID))
        assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))

    def test_window_violation_reported(self, ctx05):
        # c q^{-a/2} leaves (1, 1/q): must raise, not silently continue
        with pytest.raises(ParamDomain):
            op.left_inverse_apply(op.KParams(1.5, 1.4), op.eigen_k_basis(1.4, 1, ctx05),
                                  ctx05)

    def test_alternate_middle_parameter_fails(self, ctx05):
        # the c q^{-a} convention does not invert (recorded, not fixed)
        f = op.eigen_k_basis(1.3, 1, ctx05)
        rec = op.left_inverse_apply(op.KParams(0.5, 1.3), f, ctx05,
                                    middle_exponent=1.0)
        got = rec.on_theta(GRID)
        want = np.asarray(f.on_theta(GRID))
        assert np.max(np.abs(got - want)) > 1e-6 * np.max(np.abs(want))


class TestT:
    def test_eigen(self, ctx_all):
        # the degrees stacked through one application, as I19 runs them
        tp = op.TParams(0.4, 0.3, 0.5)
        f = op.eigen_t_basis(0.4, 0.3, [0, 2, 5], ctx_all)
        got = op.apply_T(tp, f, ctx_all).on_theta(GRID)
        for j, n in enumerate((0, 2, 5)):
            single = op.eigen_t_basis(0.4, 0.3, n, ctx_all).on_theta(GRID)
            assert np.array_equal(f.on_theta(GRID)[:, j], single)
            want = 0.5**n * single
            assert np.max(np.abs(got[:, j] - want)) < 1e-9 * max(np.max(np.abs(want)), 1e-12)

    def test_rank_one_at_r_zero(self, ctx05):
        f = op.eigen_t_basis(0.4, 0.3, 2, ctx05)
        got = op.apply_T(op.TParams(0.4, 0.3, 0.0), f, ctx05).on_theta(GRID)
        assert np.max(np.abs(got)) < 1e-10  # lambda_2 = 0^2

    def test_semigroup(self, ctx05):
        f = op.analytic_from_x(lambda x: 2 * x * x - 1)
        inner = op.apply_T(op.TParams(0.4, 0.3, 0.4), f, ctx05)
        lhs = op.apply_T(op.TParams(0.4, 0.3, 0.5), inner, ctx05).on_theta(GRID)
        rhs = op.apply_T(op.TParams(0.4, 0.3, 0.2), f, ctx05).on_theta(GRID)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))

    def test_identity_limit(self, ctx05):
        f = op.analytic_from_x(lambda x: 2 * x * x - 1)
        fref = np.asarray(f.on_theta(GRID))
        got = op.apply_T(op.TParams(0.4, 0.3, 0.999), f, ctx05).on_theta(GRID)
        assert np.max(np.abs(got - fref)) < 6e-3


class TestBq:
    def test_dual_forms_agree(self, ctx05):
        f = op.eigen_t_basis(0.3, 0.2, 2, ctx05)
        a = op.apply_Bq(0.3, 0.2, f, ctx05, form="direct").on_theta(GRID)
        b = op.apply_Bq(0.3, 0.2, f, ctx05, form="factored").on_theta(GRID)
        assert np.max(np.abs(a - b)) < 1e-8 * np.max(np.abs(a))

    def test_shift_property(self, ctx05):
        q = 0.5
        f = op.eigen_t_basis(0.4, 0.3, 2, ctx05)
        tf = op.apply_T(op.TParams(0.4, 0.3, 0.3), f, ctx05)
        lhs = op.apply_Bq(0.4, 0.3, tf, ctx05).on_theta(GRID)
        rhs = op.apply_T(op.TParams(0.4, 0.3, 0.3 * q ** -0.5), f, ctx05).on_theta(GRID)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))

    def test_norm_constant_value(self, ctx05):
        # the bare quotient acts on h(.;a,b) (n = 0) as 2 q^{1/4}/(1-q)
        f = op.eigen_t_basis(0.4, 0.3, 0, ctx05)
        raw = op.apply_Bq(0.4, 0.3, f, ctx05, normalized=False).on_theta(GRID)
        base = np.asarray(f.on_theta(GRID))
        lam0 = 2 * 0.5 ** 0.25 / (1 - 0.5)
        assert np.allclose(raw / base, lam0, rtol=1e-10)
        assert op.bq_norm_constant(ctx05) == pytest.approx(1.0 / lam0)

    def test_special_case_matches_general(self, ctx_all):
        q = ctx_all.q
        a = 0.35
        f = op.eigen_t_basis(a, math.sqrt(q) * a, 2, ctx_all)
        tf = op.apply_T(op.TParams(a, math.sqrt(q) * a, 0.3), f, ctx_all)
        s = op.bq_special_case(a, tf, ctx_all).on_theta(GRID)
        g = op.apply_Bq(a, math.sqrt(q) * a, tf, ctx_all, form="direct").on_theta(GRID)
        assert np.max(np.abs(s - g)) < 1e-9 * np.max(np.abs(g))


class TestAdjointPairing:
    def test_t_zero_reduces_to_moment(self, ctx05):
        # E_q == 1 at t = 0: both sides are the plain K moment identity
        p = op.KParams(0.8, 1.3)
        f = op.eigen_k_basis(1.3, 1, ctx05)
        left = op.adjoint_pairing(p, f, 0.0, "left", ctx05)
        right = op.adjoint_pairing(p, f, 0.0, "right", ctx05)
        assert left == pytest.approx(right, rel=1e-10)

    def test_linearity_in_f(self, ctx05):
        p = op.KParams(0.8, 1.3)
        f0 = op.eigen_k_basis(1.3, 0, ctx05)
        f1 = op.eigen_k_basis(1.3, 1, ctx05)
        both = op.AnalyticFn(lambda z: 2.0 * np.asarray(f0(z)) + np.asarray(f1(z)),
                             1e-9, "2f0+f1")
        v = op.adjoint_pairing(p, both, 0.2, "left", ctx05)
        v0 = op.adjoint_pairing(p, f0, 0.2, "left", ctx05)
        v1 = op.adjoint_pairing(p, f1, 0.2, "left", ctx05)
        assert v == pytest.approx(2 * v0 + v1, rel=1e-9)

    def test_base_disambiguation(self, ctx05):
        p = op.KParams(0.8, 1.3)
        f = op.eigen_k_basis(1.3, 1, ctx05)
        l2 = op.adjoint_pairing(p, f, 0.25, "left", ctx05, base="q2")
        r2 = op.adjoint_pairing(p, f, 0.25, "right", ctx05, base="q2")
        r1 = op.adjoint_pairing(p, f, 0.25, "right", ctx05, base="q")
        assert l2 == pytest.approx(r2, rel=1e-10)
        assert abs(l2 - r1) > 1e-4 * abs(l2)
