"""Identity registry plumbing: completeness, rejection, determinism, variants."""

import gc
import weakref

import numpy as np
import pytest

from qfrac.context import QContext
from qfrac.errors import CaseInvalid, NonConvergent, ParamDomain
from qfrac import identities as idn
from qfrac import qcore, qfunctions
from qfrac.identities import IdentityCase, run_identity, run_suite
from qfrac import operators as op
from qfrac.qcore import h_product_z, qpoch_infinite
from qfrac.qfunctions import AWParams, aw_norm_Mn, aw_polynomial, aw_weight


ALL_IDS = ["I0a", "I0b", "I0c", "I0d"] + [f"I{k}" for k in range(1, 24)]


class TestRegistry:
    def test_completeness(self):
        assert idn.registry_ids() == ALL_IDS

    def test_default_grid_covers_every_id(self):
        seen = {c.id for c in idn.default_cases()}
        assert seen == set(ALL_IDS)

    def test_default_grid_is_deterministic(self):
        a = [c.key() for c in idn.default_cases()]
        b = [c.key() for c in idn.default_cases()]
        assert a == b

    def test_variant_ids_enumerate_both(self):
        cases = idn.default_cases()
        for vid, variants in (("I8", ("half", "full")), ("I11", ("q2", "q")),
                              ("I12", ("q2", "q")), ("I4", ("half", "full"))):
            seen = {c.variant for c in cases if c.id == vid}
            assert seen == set(variants)


class TestRunIdentity:
    def test_unknown_id(self):
        with pytest.raises(CaseInvalid):
            run_identity(IdentityCase("I99", {"q": 0.5}))

    def test_missing_params(self):
        with pytest.raises(CaseInvalid, match="missing"):
            run_identity(IdentityCase("I5", {"q": 0.5, "a": 1.0}))

    def test_bad_variant(self):
        with pytest.raises(CaseInvalid):
            run_identity(IdentityCase("I8", {"q": 0.5, "a": 0.4, "c": 1.2, "n": 2},
                                      variant="nope"))

    def test_window_violation_raises(self):
        with pytest.raises(ParamDomain, match=r"c outside \(1, 1/q\)"):
            run_identity(IdentityCase("I5", {"q": 0.5, "a": 1.2, "c": 0.5, "n": 2}))

    def test_q_out_of_range(self):
        with pytest.raises(CaseInvalid):
            run_identity(IdentityCase("I0d", {"q": 1.5}))

    def test_residual_determinism(self):
        case = IdentityCase("I0d", {"q": 0.5})
        a = run_identity(case)
        b = run_identity(case)
        assert (a.max_abs, a.max_rel) == (b.max_abs, b.max_rel)

    def test_grid_reversal_invariance(self):
        # same case evaluated with the grid reversed: quadrature reductions
        # must not depend on component order
        base = IdentityCase("I5", {"q": 0.5, "a": 1.0, "c": 1.2, "n": 3})
        r1 = run_identity(base)
        thetas = list(np.linspace(0.3, 2.8, 7))

        grid = np.asarray(thetas)
        ctxq = QContext(q=0.5)
        p = op.KParams(1.0, 1.2)
        f = op.eigen_k_basis(1.2, 3, ctxq)
        fwd = op.apply_K(p, f, ctxq).on_theta(grid)
        rev = op.apply_K(p, f, ctxq).on_theta(grid[::-1])
        scale = np.max(np.abs(fwd))
        assert np.max(np.abs(fwd - rev[::-1])) < 1e-12 * scale
        assert r1.max_rel < 1e-7


class TestCaseTables:
    def test_a_rerun_case_makes_the_same_pochhammer_calls(self, qpoch_calls):
        # no table passes from one case to the next; (q; q)_oo, cached per
        # context for the whole process, is warmed first
        case = IdentityCase("I5", {"q": 0.5, "a": 1.0, "c": 1.2, "n": 3})
        qcore.euler_product(QContext(q=0.5))
        counts = []
        for _ in range(2):
            before = len(qpoch_calls)
            run_identity(case)
            counts.append(len(qpoch_calls) - before)
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("fail", [False, True])
    def test_no_table_outlives_its_case(self, monkeypatch, fail):
        refs = []

        def runner(params, variant, ctx, tol):
            z = np.exp(1j * qfunctions.theta_grid(5))
            refs.append(weakref.ref(h_product_z(z, [0.3], ctx)))
            assert refs[0]() is not None  # held by the case's store
            if fail:
                raise NonConvergent("forced")
            return idn._resid([1.0], [1.0], tol)

        monkeypatch.setitem(idn.REGISTRY, "Itab",
                            idn.IdentityDef("Itab", "tables", 1e-12, runner, ("q",)))
        case = IdentityCase("Itab", {"q": 0.5})
        if fail:
            with pytest.raises(NonConvergent):
                run_identity(case)
        else:
            run_identity(case)
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None
        assert qcore._TABLES.get() is None

    @pytest.mark.parametrize("case", [
        IdentityCase("I1", {"q": 0.5, "a": 0.4, "b": 1.0, "c": 1.2}),
        IdentityCase("I5", {"q": 0.5, "a": 0.5, "c": 1.2, "n": 8}),
        IdentityCase("I16", {"q": 0.5, "a": 0.8, "c": 1.2, "a3": 0.2, "a4": 0.1}),
        IdentityCase("I17", {"q": 0.5, "a": 0.4, "b": 0.3, "r": 0.2, "s": 0.5}),
    ], ids=lambda c: c.key())
    def test_tables_keep_residuals_bit_identical(self, case):
        # the runner called outside any case, with no table reused, against
        # run_identity's scoped run
        spec = idn.REGISTRY[case.id]
        direct = spec.runner(case.params, case.variant, QContext(q=case.params["q"]), spec.tol)
        assert run_identity(case) == direct


class TestBilinearKernels:
    def test_kernel6_symmetry(self, ctx05):
        p = op.KParams(0.8, 1.3)
        a = idn.bilinear_kernel_6(1.0, 1.8, p, 0.2, 0.1, ctx05)
        b = idn.bilinear_kernel_6(1.8, 1.0, p, 0.2, 0.1, ctx05)
        # the theta integral is phi1 <-> phi2 symmetric; the kernel itself
        # carries the asymmetric 1/w(phi2) factor
        t_base = AWParams(-1 / 1.3, -1.3 * 0.5, 0.2, 0.1)
        assert a / aw_weight(1.0, t_base, ctx05) == pytest.approx(
            b / aw_weight(1.8, t_base, ctx05), rel=1e-9)

    def test_kernel6_series_match(self, ctx05):
        p = op.KParams(0.8, 1.3)
        kv = idn.bilinear_kernel_6(1.0, 1.8, p, 0.2, 0.1, ctx05)
        t_base = AWParams(-1 / 1.3, -1.3 * 0.5, 0.2, 0.1)
        sv, nterms = idn.bilinear_series_6(1.0, 1.8, p, 0.2, 0.1, ctx05)
        assert kv / aw_weight(1.0, t_base, ctx05) == pytest.approx(sv, rel=1e-8)
        assert nterms < 120

    def test_kernel6_weight_pole_near_contour(self, ctx05):
        # |q^{-a/2} a3| = 0.9989: w_0's pole sits 1.1e-3 from the contour,
        # far nearer than the kernels' at -ln q^{a/2} = 0.28
        p = op.KParams(0.8, 1.3)
        kv = idn.bilinear_kernel_6(1.0, 1.8, p, 0.757, 0.1, ctx05)
        t_base = AWParams(-1 / 1.3, -1.3 * 0.5, 0.757, 0.1)
        sv, _ = idn.bilinear_series_6(1.0, 1.8, p, 0.757, 0.1, ctx05)
        assert kv / aw_weight(1.0, t_base, ctx05) == pytest.approx(sv, rel=1e-8)

    def test_kernel7_series_match(self, ctx05):
        p = op.TParams(0.4, 0.3, 0.5)
        t = AWParams(0.4, 0.3, 0.2, 0.1)
        kv = idn.bilinear_kernel_7(0.7, 2.2, p, t, ctx05)
        sv, _ = idn.bilinear_series_7(0.7, 2.2, p, t, ctx05)
        assert kv / aw_weight(0.7, t, ctx05) == pytest.approx(sv, rel=1e-8)

    def test_kernel7_weight_pole_near_contour(self, ctx05):
        # |t3/r| = 0.9983: W_0's pole sits 1.7e-3 from the contour
        p = op.TParams(0.4, 0.3, 0.3)
        t = AWParams(0.4, 0.3, 0.2995, 0.1)
        kv = idn.bilinear_kernel_7(0.7, 2.2, p, t, ctx05)
        sv, _ = idn.bilinear_series_7(0.7, 2.2, p, t, ctx05)
        assert kv / aw_weight(0.7, t, ctx05) == pytest.approx(sv, rel=1e-8)

    def test_kernel7_symmetry(self, ctx05):
        p = op.TParams(0.4, 0.3, 0.5)
        t = AWParams(0.4, 0.3, 0.2, 0.1)
        a = idn.bilinear_kernel_7(1.0, 1.8, p, t, ctx05)
        b = idn.bilinear_kernel_7(1.8, 1.0, p, t, ctx05)
        assert a / aw_weight(1.0, t, ctx05) == pytest.approx(
            b / aw_weight(1.8, t, ctx05), rel=1e-9)

    def test_section6_cn_is_one_at_a_zero(self, ctx05):
        for n in (0, 2, 5):
            _, _, cn = idn.section6_constants(n, 0.0, 1.3, 0.2, 0.1, ctx05)
            assert cn == pytest.approx(1.0, rel=1e-13)

    def test_kernel7_pole_rejected(self, ctx05):
        p = op.TParams(0.4, 0.3, 0.1)
        t = AWParams(0.4, 0.3, 0.2, 0.1)  # t3/r = 2 on the contour
        with pytest.raises(ParamDomain):
            idn.bilinear_kernel_7(1.0, 1.5, p, t, ctx05)

    def test_kernel6_weight_pole_rejected(self):
        ctx = QContext(q=0.3)
        p = op.KParams(1.9, 1.2)  # q^{-a/2} a3 > 1
        with pytest.raises(ParamDomain):
            idn.bilinear_kernel_6(1.0, 1.5, p, 0.5, 0.1, ctx)

    def test_coupling_integrand_one_pochhammer_call(self, ctx05, calls_per_evaluation):
        # w0 and both Poisson kernels of one evaluation come from one
        # qpoch_infinite call, in either section
        counts = calls_per_evaluation(idn)
        idn.bilinear_kernel_6(1.0, 1.8, op.KParams(0.8, 1.2), 0.2, 0.1, ctx05)
        idn.bilinear_kernel_7(1.0, 1.8, op.TParams(0.4, 0.3, 0.5), AWParams(0.4, 0.3, 0.2, 0.1),
                              ctx05)
        assert len(counts) >= 2 and set(counts) == {1}


class TestEigenActionScale:
    def test_i19_small_r_judged_on_merged_scale(self):
        # r^4 h H_4 is ~1e-15 here: judged on its own scale the n = 4 part
        # failed on rounding alone (max_rel 1.8e-2 at max_abs 1.7e-14)
        res = run_identity(IdentityCase("I19", {"a": 0.4, "b": 0.3, "q": 0.5,
                                                "r": -0.0002, "n": 4}))
        assert res.passed
        assert res.max_abs < 1e-13 and res.max_rel < 1e-13

    def test_i19_still_fails_a_wrong_eigenvalue(self, monkeypatch):
        # the merged scale keeps the check: T applied at r but compared with
        # the eigenvalues of 1.01 r fails at the 1e-7 tolerance
        apply_t = op.apply_T
        monkeypatch.setattr(op, "apply_T", lambda p, f, ctx: apply_t(
            op.TParams(p.a, p.b, p.r / 1.01), f, ctx))
        res = run_identity(IdentityCase("I19", {"a": 0.4, "b": 0.3, "q": 0.5, "r": 0.5,
                                                "n": 4, "grid_points": 5}))
        assert not res.passed


def _series6_reference(phi1, phi2, a, c, a3, a4, ctx, tol=1e-12):
    """The section-6 series one term at a time, on scalar aw_polynomial and
    aw_norm_Mn: stop after three consecutive terms below tol |running
    total| once n > 4; returns (value, n_terms)."""
    q = ctx.q
    t_base = AWParams(-1 / c, -c * q, a3, a4)
    t_shift = AWParams(-q ** (a / 2) / c, -c * q ** (1 + a / 2), q ** (-a / 2) * a3,
                       q ** (-a / 2) * a4)
    total, small = 0.0, 0
    for n in range(ctx.max_terms):
        cn = (qpoch_infinite(q ** (a + n + 1), ctx) / qpoch_infinite(q ** (n + 1), ctx)
              * q ** (a * n / 2)).real
        term = (aw_norm_Mn(n, t_shift, ctx) * (cn / aw_norm_Mn(n, t_base, ctx)) ** 2
                * aw_polynomial(n, phi1, t_base, ctx) * aw_polynomial(n, phi2, t_base, ctx))
        total += term
        small = small + 1 if n > 4 and abs(term) < tol * abs(total) else 0
        if small == 3:
            return total, n + 1
    raise AssertionError("reference series did not stop")


class TestBilinearSeries:
    P = op.KParams(0.8, 1.2)

    @pytest.mark.parametrize("q, n_terms", [(0.3, 31), (0.5, 54), (0.7, 107)])
    def test_blocks_keep_the_stopping_term(self, q, n_terms):
        # the stops fall in the first, second and third block (32, 64, 128)
        ctx = QContext(q=q)
        want, want_n = _series6_reference(1.0, 1.8, 0.8, 1.2, 0.2, 0.1, ctx)
        got, got_n = idn.bilinear_series_6(1.0, 1.8, self.P, 0.2, 0.1, ctx)
        assert got_n == want_n == n_terms
        assert abs(got - want) < 1e-13 * abs(want)

    def test_pochhammer_calls_per_series(self, monkeypatch):
        # four blocks (16, 32, 64 and 128 terms), each with one stacked
        # qpoch_infinite call per M_n (twice) and one for C_n: 12 calls for
        # the 107-term series
        calls = []

        def counted(a, ctx):
            calls.append(1)
            return qpoch_infinite(a, ctx)

        for module in (qcore, qfunctions, idn):
            monkeypatch.setattr(module, "qpoch_infinite", counted)
        idn.bilinear_series_6(1.0, 1.8, self.P, 0.2, 0.1, QContext(q=0.7))
        assert 0 < len(calls) <= 12

    def test_recurrence_continues_across_blocks(self, monkeypatch):
        # the 107-term series computes p_0..p_127 once: 128 rows over its four
        # blocks, where a fresh pass per block computes 16 + 32 + 64 + 128
        rows, aw_all = [], idn.aw_polynomial_all

        def counted(n, x, t, ctx, head=None):
            rows.append(n + 1 - (0 if head is None else len(head)))
            return aw_all(n, x, t, ctx, head=head)

        monkeypatch.setattr(idn, "aw_polynomial_all", counted)
        _, n_terms = idn.bilinear_series_6(1.0, 1.8, self.P, 0.2, 0.1, QContext(q=0.7))
        assert n_terms == 107 and rows == [16, 16, 32, 64]

    def test_stopping_rule_never_met_raises(self, ctx05):
        # tol = 0 makes no term small, so every block up to max_terms runs
        with pytest.raises(NonConvergent, match="stopping rule not met within max_terms"):
            idn.bilinear_series_6(1.0, 1.8, self.P, 0.2, 0.1, ctx05, tol=0.0)
        p, t = op.TParams(0.4, 0.3, 0.5), AWParams(0.4, 0.3, 0.2, 0.1)
        with pytest.raises(NonConvergent, match="stopping rule not met within max_terms"):
            idn.bilinear_series_7(1.0, 1.8, p, t, ctx05, tol=0.0)

    def test_unmet_stop_fails_the_case(self, monkeypatch):
        series7 = idn.bilinear_series_7
        monkeypatch.setattr(idn, "bilinear_series_7",
                            lambda *args, tol: series7(*args, tol=0.0))
        rep = idn.run_case(IdentityCase("I22", {"q": 0.5, "t1": 0.4, "t2": 0.3, "t3": 0.2,
                                                "t4": 0.1, "r": 0.5}))
        assert rep.status == "fail"
        assert "NonConvergent: bilinear series: stopping rule not met" in rep.residual.notes

    def test_section_constants_broadcast(self, ctx05):
        ns = np.arange(6)
        t = AWParams(0.4, 0.3, 0.2, 0.1)
        for block, one in ((idn.section6_constants(ns, 0.8, 1.2, 0.2, 0.1, ctx05),
                            lambda n: idn.section6_constants(n, 0.8, 1.2, 0.2, 0.1, ctx05)),
                           (idn.section7_constants(ns, t, -0.5, ctx05),
                            lambda n: idn.section7_constants(n, t, -0.5, ctx05))):
            for n in ns:
                assert np.allclose([b[n] for b in block], one(int(n)), rtol=1e-14, atol=0)


class TestSuite:
    def test_empty_grid(self):
        assert run_suite("empty") == []

    def test_unknown_grid(self):
        with pytest.raises(CaseInvalid):
            run_suite("nope")

    def test_skip_records_carry_reason(self):
        rep = idn.run_case(
            IdentityCase("I5", {"q": 0.5, "a": 1.0, "c": 2.5, "n": 2}), None)
        assert rep.status == "skip"
        assert "c outside" in rep.skip_reason

    def test_variant_group_verdict(self):
        reports = [
            idn.run_case(IdentityCase("I11", {"q": 0.5, "a": 0.8, "c": 1.2,
                                               "tval": 0.25}, variant=v), None)
            for v in ("q2", "q")
        ]
        ok, resolved = idn.variant_groups_ok(reports)
        assert ok
        assert resolved == {"I11[a=0.8,c=1.2,q=0.5,tval=0.25]": "q2"}

