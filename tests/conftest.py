import numpy as np
import pytest

from qfrac.context import QContext


@pytest.fixture
def ctx05():
    return QContext(q=0.5)


@pytest.fixture
def ctx03():
    return QContext(q=0.3)


@pytest.fixture
def ctx07():
    return QContext(q=0.7)


@pytest.fixture(params=[0.3, 0.5, 0.7])
def ctx_all(request):
    return QContext(q=request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def qpoch_calls(monkeypatch):
    """qpoch_infinite replaced, under every qfrac module that calls it, by a
    counter: the returned list grows by one per call."""
    from qfrac import identities, operators, qcore, qfunctions

    calls, orig = [], qcore.qpoch_infinite

    def counted(a, ctx):
        calls.append(1)
        return orig(a, ctx)

    for module in (qcore, qfunctions, operators, identities):
        monkeypatch.setattr(module, "qpoch_infinite", counted)
    return calls


@pytest.fixture
def calls_per_evaluation(monkeypatch, qpoch_calls):
    """spy(module) -> a list that gets, for each integrand evaluation of the
    integrals module runs through its integrate_theta, the qpoch_infinite
    calls made during it."""

    def spy(module):
        counts, integrate = [], module.integrate_theta

        def spied(f, ctx, *args, **kwargs):
            def counted(phis):
                before = len(qpoch_calls)
                out = f(phis)
                counts.append(len(qpoch_calls) - before)
                return out

            return integrate(counted, ctx, *args, **kwargs)

        monkeypatch.setattr(module, "integrate_theta", spied)
        return counts

    return spy
