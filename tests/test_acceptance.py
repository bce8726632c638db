"""Acceptance criteria for the operator-identity verification suite.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them on
success).  The default identity grid is executed once per session and sliced
per criterion; the per-criterion runtime budgets are checked against the
summed wall-clock of the criterion's own cases.
"""

import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from qfrac.context import QContext
from qfrac.identities import (IdentityCase, bilinear_kernel_6, run_case, run_suite,
                               suite_failures, variant_groups_ok)
from qfrac.operators import KParams


@pytest.fixture(scope="session")
def suite_reports():
    t0 = time.perf_counter()
    reports = run_suite("default")
    elapsed = time.perf_counter() - t0
    print(f"\n[acceptance] default suite: {len(reports)} cases in {elapsed:.1f} s")
    return reports


def _by_id(reports, *ids):
    return [r for r in reports if r.case.id in ids]


def _crit_line(num, desc, ok, detail):
    print(f"ACCEPT-{num} {desc}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _seconds(reports):
    return sum(r.seconds or 0.0 for r in reports)


def _worst(reports):
    rs = [r.residual.max_rel for r in reports if r.residual is not None]
    return max(rs) if rs else 0.0


def test_criterion_1_foundations(suite_reports):
    """I0a-I0d at 1e-9 (I0a/I0c) and 1e-11 (I0b/I0d); < 30 s total."""
    tight = _by_id(suite_reports, "I0b", "I0d")
    loose = _by_id(suite_reports, "I0a", "I0c")
    assert all(r.status == "pass" for r in tight + loose)
    assert all(r.residual.max_rel <= 1e-11 for r in tight)
    assert all(r.residual.max_rel <= 1e-9 for r in loose)
    secs = _seconds(tight + loose)
    ok = _crit_line(1, "foundations I0a-I0d", True,
                    f"worst={_worst(tight + loose):.2e}, {secs:.1f} s")
    assert secs < 30.0
    assert ok


def test_criterion_2_k_family(suite_reports):
    """I1/I3/I5 at 1e-7 on the default grid; I2 contracting >= 3x; < 3 min."""
    core = _by_id(suite_reports, "I1", "I3", "I5")
    ran = [r for r in core if r.status != "skip"]
    assert ran, "no runnable K-family cases"
    assert all(r.status == "pass" for r in ran)
    assert all(r.residual.max_rel <= 1e-7 for r in ran)
    ladders = _by_id(suite_reports, "I2")
    assert all(r.status == "pass" for r in ladders)
    for r in ladders:
        assert "overall_ratio" in r.residual.notes
        ratio = float(r.residual.notes.split("overall_ratio=")[1])
        assert ratio >= 3.0
    secs = _seconds(core + ladders)
    _crit_line(2, "K family I1/I2/I3/I5", True,
               f"worst={_worst(ran):.2e}, {secs:.1f} s")
    assert secs < 180.0


def test_criterion_3_left_inverse(suite_reports):
    """I4 at 1e-7 for a in {0.5, 1.0, 1.5} wherever the windows validate;
    invalid windows are skipped-with-reason, and the alternate middle
    parameter never passes."""
    half = [r for r in _by_id(suite_reports, "I4") if r.case.variant == "half"]
    full = [r for r in _by_id(suite_reports, "I4") if r.case.variant == "full"]
    ran = [r for r in half if r.status != "skip"]
    assert ran
    assert all(r.status == "pass" and r.residual.max_rel <= 1e-7 for r in ran)
    for a in (0.5, 1.0, 1.5):
        assert any(r.case.params["a"] == a for r in ran), f"no valid window at a={a}"
    for r in half + full:
        if r.status == "skip":
            assert r.skip_reason  # skipped-with-reason, never silently passed
    assert all(r.status != "pass" for r in full)
    _crit_line(3, "left inverse I4", True,
               f"{len(ran)} valid windows, worst={_worst(ran):.2e}, "
               f"{len(half) + len(full) - len(ran) - sum(r.status != 'skip' for r in full)} skipped")


def test_criterion_4_generator(suite_reports):
    """I6/I7 at 1e-5; I8 exactly-one-variant disambiguation at 1e-5."""
    fd = _by_id(suite_reports, "I6", "I7")
    assert all(r.status == "pass" and r.residual.max_rel <= 1e-5 for r in fd)
    i8 = _by_id(suite_reports, "I8")
    ok, resolved = variant_groups_ok(i8)
    assert ok, f"variant groups not uniquely resolved: {resolved}"
    winners = {v for v in resolved.values()}
    assert winners == {"half"}  # the composition-law parameter c q^{-a/2}
    _crit_line(4, "generator I6/I7/I8", True,
               f"worst={_worst(fd):.2e}, I8 groups={len(resolved)} all 'half'")


def test_criterion_5_section5(suite_reports):
    """I9/I10 at 1e-7 for beta in {0.5, 1, 2.3}; I11/I12 at 1e-7 under
    exactly one Pochhammer-base variant, recorded per case."""
    acts = _by_id(suite_reports, "I9", "I10")
    assert all(r.status == "pass" and r.residual.max_rel <= 1e-7 for r in acts)
    betas = {r.case.params["beta"] for r in acts}
    assert betas == {0.5, 1.0, 2.3}
    pair = _by_id(suite_reports, "I11", "I12")
    ok, resolved = variant_groups_ok(pair)
    assert ok
    assert set(resolved.values()) == {"q2"}  # the q^2 Pochhammer base holds
    passing = [r for r in pair if r.status == "pass"]
    assert all(r.residual.max_rel <= 1e-7 for r in passing)
    _crit_line(5, "section-5 actions I9-I12", True,
               f"worst={_worst(acts + passing):.2e}, base=q2 in "
               f"{len(resolved)} groups")


def test_criterion_6_section6(suite_reports):
    """I13-I15 at 1e-7 for n <= 6; I16 spot checks at 1e-6 including the
    off-diagonal orthogonality; < 10 min."""
    maps = _by_id(suite_reports, "I13", "I14", "I15")
    ran = [r for r in maps if r.status != "skip"]
    assert ran
    assert all(r.status == "pass" and r.residual.max_rel <= 1e-7 for r in ran)
    assert max(r.case.params["n"] for r in ran) == 6
    kern = _by_id(suite_reports, "I16")
    assert all(r.status == "pass" and r.residual.max_rel <= 1e-6 for r in kern)
    for r in kern:
        assert "int2 offdiag" in r.residual.notes
    secs = _seconds(maps + kern)
    _crit_line(6, "section-6 maps and kernel I13-I16", True,
               f"worst={_worst(ran + kern):.2e}, {secs:.1f} s")
    assert secs < 600.0


def test_criterion_7_section7(suite_reports):
    """I17-I21 and I23 at 1e-7 (I20 at 1e-6); I22 spot checks at 1e-6."""
    strict = _by_id(suite_reports, "I17", "I19", "I21", "I23")
    ran = [r for r in strict if r.status != "skip"]
    assert all(r.status == "pass" and r.residual.max_rel <= 1e-7 for r in ran)
    ladders = _by_id(suite_reports, "I18")
    assert all(r.status == "pass" for r in ladders)
    shift = [r for r in _by_id(suite_reports, "I20") if r.status != "skip"]
    assert all(r.status == "pass" and r.residual.max_rel <= 1e-6 for r in shift)
    kern = _by_id(suite_reports, "I22")
    assert all(r.status == "pass" and r.residual.max_rel <= 1e-6 for r in kern)
    _crit_line(7, "section-7 family I17-I23", True,
               f"worst={_worst(ran + shift + kern):.2e}")


# The default suite's status per case key and its convention-variant
# resolutions, as recorded: a change that moves a case between pass, fail and
# skip, or resolves a variant group differently, must update this record on
# purpose.
_SUITE_RECORD = Path(__file__).with_name("default_suite_status.json")


def test_default_suite_matches_its_record(suite_reports):
    """Same pass/fail/skip sets, the same 23 variant resolutions, and no
    genuine failure."""
    record = json.loads(_SUITE_RECORD.read_text())
    assert {r.case.key(): r.status for r in suite_reports} == record["status"]
    ok, resolved = variant_groups_ok(suite_reports)
    assert ok and resolved == record["variants"] and len(resolved) == 23
    assert suite_failures(suite_reports) == []
    _crit_line("R", "default suite record", True,
               f"{len(record['status'])} cases, {len(resolved)} variant groups")


# Total integrand evaluations per identity id over the default grid, with
# every quadrature rule nested (each node evaluated once).  A change may
# lower a budget, never raise it.
_EVALS_BUDGET = {
    "I0a": 163, "I0b": 0, "I0c": 588, "I0d": 0, "I1": 13306, "I2": 44422,
    "I3": 19620, "I4": 20320, "I5": 3218, "I6": 4731, "I7": 39474, "I8": 8292,
    "I9": 1353, "I10": 2313, "I11": 902, "I12": 2200, "I13": 2313, "I14": 2313,
    "I15": 2313, "I16": 4182, "I17": 2459, "I18": 36981, "I19": 841,
    "I20": 2418, "I21": 777, "I22": 585, "I23": 390,
}


def test_work_budget(suite_reports):
    """Each identity id's total evals over the default grid within its budget."""
    totals = Counter()
    for r in suite_reports:
        totals[r.case.id] += r.evals
    over = {i: (n, _EVALS_BUDGET.get(i, 0)) for i, n in totals.items()
            if n > _EVALS_BUDGET.get(i, 0)}
    _crit_line("W", "work budget", not over, f"{sum(totals.values())} evals")
    assert not over


# qpoch_infinite calls of one case per integrand family: a Poisson-kernel
# operator (K), compositions of K and of T operators, a left inverse, and a
# bilinear kernel's coupling integral.  Each budget is the count of a fresh
# process, whose first case at a q also computes the cached (q; q)_oo.  A
# change may lower a budget, never raise it.
_POCHHAMMER_BUDGET = [
    ("I5[a=0.5,c=1.2,n=8,q=0.5]", lambda: run_case(IdentityCase(
        "I5", {"q": 0.5, "a": 0.5, "c": 1.2, "n": 8})), 12),
    ("I17[a=0.4,b=0.3,q=0.5,r=0.2,s=0.5]", lambda: run_case(IdentityCase(
        "I17", {"q": 0.5, "a": 0.4, "b": 0.3, "r": 0.2, "s": 0.5})), 16),
    ("I1[a=0.4,b=1.0,c=1.2,q=0.3]", lambda: run_case(IdentityCase(
        "I1", {"q": 0.3, "a": 0.4, "b": 1.0, "c": 1.2})), 44),
    ("I4[a=0.5,c=1.2,q=0.3;half]", lambda: run_case(IdentityCase(
        "I4", {"q": 0.3, "a": 0.5, "c": 1.2}, variant="half")), 31),
    ("bilinear_kernel_6(1.0,1.8)", lambda: bilinear_kernel_6(
        1.0, 1.8, KParams(0.8, 1.2), 0.2, 0.1, QContext(q=0.5)), 8),
]


@pytest.mark.parametrize("run, budget", [b[1:] for b in _POCHHAMMER_BUDGET],
                         ids=[b[0] for b in _POCHHAMMER_BUDGET])
def test_pochhammer_budget(qpoch_calls, run, budget):
    """One case per integrand family within its qpoch_infinite call budget."""
    out = run()
    assert getattr(out, "status", "pass") == "pass"
    assert 0 < len(qpoch_calls) <= budget


def test_criterion_8_determinism(tmp_path):
    """Two consecutive suite runs are byte-identical; selftest < 60 s."""
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qfrac", "suite", "--grid", "quick",
             "--out", str(path)],
            capture_output=True, text=True, timeout=3000,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qfrac", "selftest"],
                          capture_output=True, text=True, timeout=300)
    selftest_secs = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _crit_line(8, "determinism + selftest", True,
               f"byte-identical quick suite, selftest {selftest_secs:.1f} s")
    assert selftest_secs < 60.0
