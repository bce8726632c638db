"""The benchmark's layer tracer (bench/tracing.py) against the package.

Tracer() looks every traced entry point up by name and wraps
AnalyticFn.__call__, which reads the memo; a renamed entry point or a
removed memo fails here instead of in `bench/run.py --trace 1`, and the
hit counter is checked against an identity case that really repeats points.
"""

import importlib.util
from pathlib import Path

from qfrac.identities import IdentityCase, run_case

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_tracer_wraps_the_traced_layers():
    tracer = tracing.Tracer()
    with tracer.installed():
        reps = [run_case(IdentityCase("I0d", {"q": 0.5})),
                run_case(IdentityCase("I5", {"q": 0.5, "a": 1.2, "c": 1.4, "n": 3,
                                             "grid_points": 5}))]
    assert [r.status for r in reps] == ["pass", "pass"]
    assert tracer.calls["qcore.theta_series"] > 0
    assert tracer.counts["quadrature.nodes"] > 0
    assert tracer.counts["operators.points_requested"] > 0
    # I5's four degrees n = 0..3 go through K stacked, in one application
    assert tracer.counts["operators.applications"] == 1
    assert tracer.calls["qcore.qpoch_infinite"] > 0


def test_memo_hits_are_counted():
    # I4's rejected variant on the bench's operator_grid parameters: the
    # Chebyshev fit asks the inner K again at the same trapezoid nodes, bit
    # for bit
    tracer = tracing.Tracer()
    with tracer.installed():
        run_case(IdentityCase("I4", {"q": 0.3, "a": 0.5, "c": 1.2, "grid_points": 5},
                              variant="full"))
    assert tracer.counts["operators.memo_hits"] > 0
    assert tracer.counts["operators.memo_misses"] > 0
