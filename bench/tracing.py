"""Per-layer tracing of qfrac, installed from outside the package.

``Tracer.installed()`` replaces the public functions of each layer, under
every module attribute through which another module calls them, with
wrappers that open a span on entry and close it on exit.  The span stack
gives each span's self time: its duration minus the time covered by the
spans it caused, which keeps the nested quadratures of I1, I4, I16 and I17
apart from the quadrature that contains them.

Every span updates per-name totals (calls, inclusive and self time).  Spans
of operations, integrals, operator applications, Chebyshev fits and
bilinear-kernel calls are also kept, in memory, and written once by
``Tracer.write``; the finer spans (q-Pochhammer products, weights, operator
values) are far too many to keep one by one.  Layers are the modules of
``src/qfrac``; the span name's first component names the layer, and
``bench`` holds the benchmark's own code inside an operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from qfrac import chebyshev, identities, operators, qcore, qfunctions

_clock = time.perf_counter

LAYERS = ("qcore", "qfunctions", "quadrature", "chebyshev", "operators", "identities", "bench")

# Identity ids that some workload runs; each gets an ``identities.<id>.s``
# metric, reported as 0 on the workloads that do not run it.
IDENTITY_IDS = ("I0a", "I0b", "I0c", "I0d", "I1", "I2", "I3", "I4", "I5", "I6", "I7",
                "I9", "I10", "I11", "I13", "I14", "I15", "I16", "I17", "I18", "I19",
                "I21", "I22")

_QUAD = "quadrature.integrate_theta"

_QCORE = {
    "qpoch_infinite": "qcore.qpoch_infinite",
    "qpoch_finite": "qcore.qpoch_finite",
    "qpoch_real_index": "qcore.qpoch_real_index",
    "euler_product": "qcore.euler_product",
    "h_product": "qcore.h_product",
    "h_product_z": "qcore.h_product_z",
    "jtp_theta_series": "qcore.theta_series",
    "jtp_theta_logq_derivative_series": "qcore.theta_series",
    "bhs_terminating": "qcore.bhs_terminating",
}
_QFUNCTIONS = {
    "hermite_cq_all": "qfunctions.hermite_cq_all",
    "weight_wH_sin": "qfunctions.weight_wH_sin",
    "poisson_kernel": "qfunctions.poisson_kernel",
    "aw_polynomial": "qfunctions.aw_polynomial",
    "aw_polynomial_x": "qfunctions.aw_polynomial",
    "aw_weight": "qfunctions.aw_weight",
    "aw_norm_Mn": "qfunctions.aw_norm_Mn",
    "q_exponential": "qfunctions.q_exponential",
    "q_exponential_x": "qfunctions.q_exponential",
}
_CHEBYSHEV = {
    "cheb_fit_adaptive": "chebyshev.fit",
    "cheb_coeffs": "chebyshev.dct",
    "cheb_eval": "chebyshev.eval",
    "cheb_apply_dq": "chebyshev.apply_dq",
}
_OPERATORS = {
    "apply_K": "operators.apply",
    "apply_T": "operators.apply",
    "dq_inverse": "operators.apply",
    "apply_K_eigen": "operators.closed_form",
    "apply_J_series": "operators.closed_form",
    "apply_Dq": "operators.apply_Dq",
    "apply_Bq": "operators.apply_Bq",
    "bq_special_case": "operators.apply_Bq",
    "generator_fd": "operators.generator_fd",
    "left_inverse_apply": "operators.left_inverse_apply",
    "adjoint_pairing": "operators.adjoint_pairing",
}
_IDENTITIES = {
    "bilinear_kernel_6": "identities.bilinear_kernel",
    "bilinear_kernel_7": "identities.bilinear_kernel",
    "bilinear_series_6": "identities.bilinear_series",
    "bilinear_series_7": "identities.bilinear_series",
}
# (home module, span name of each public function, modules calling them)
_GROUPS = (
    (qcore, _QCORE, (qcore, qfunctions, operators, identities)),
    (qfunctions, _QFUNCTIONS, (qfunctions, operators, identities)),
    (chebyshev, _CHEBYSHEV, (chebyshev, operators)),
    (operators, _OPERATORS, (operators,)),
    (identities, _IDENTITIES, (identities,)),
)
# counts taken from a traced call's arguments or result
_COUNTERS = {
    "qpoch_infinite": ("qcore.qpoch_infinite.elements", lambda args, out: np.size(args[0])),
    "cheb_fit_adaptive": ("chebyshev.coeffs", lambda args, out: len(out)),
    "bilinear_series_6": ("identities.bilinear_series.terms", lambda args, out: out[1]),
    "bilinear_series_7": ("identities.bilinear_series.terms", lambda args, out: out[1]),
    "apply_K": ("operators.applications", lambda args, out: 1),
    "apply_T": ("operators.applications", lambda args, out: 1),
    "dq_inverse": ("operators.applications", lambda args, out: 1),
}
# spans kept one by one in Tracer.spans
_KEPT = {_QUAD, "operators.apply", "operators.closed_form", "operators.generator_fd",
         "operators.left_inverse_apply", "operators.adjoint_pairing", "chebyshev.fit",
         "identities.bilinear_kernel", "identities.bilinear_series"}


class _Frame:
    __slots__ = ("key", "start", "child", "quad", "span")


class Tracer:
    """Span stack plus per-name totals; all times in seconds."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.integrand_excl_s = 0.0  # integrand time outside nested integrals
        self.t0 = _clock()
        self._patches = self._build_patches()

    def enter(self, key: str, keep: bool = False) -> _Frame:
        fr = _Frame()
        fr.key, fr.child, fr.quad, fr.span = key, 0.0, 0.0, None
        if keep:
            parent = next((f.span for f in reversed(self.stack) if f.span is not None), None)
            fr.span = len(self.spans)
            self.spans.append([key, parent, 0.0, 0.0])
        self.stack.append(fr)
        fr.start = _clock()
        return fr

    def exit(self, fr: _Frame) -> tuple[float, float]:
        """Close ``fr``; returns its duration and the part of it spent in
        integrals nested inside it."""
        end = _clock()
        dur = end - fr.start
        self.stack.pop()
        self.calls[fr.key] += 1
        self.incl_s[fr.key] += dur
        self.self_s[fr.key] += dur - fr.child
        if fr.span is not None:
            self.spans[fr.span][2:] = [fr.start - self.t0, end - self.t0]
        if self.stack:
            parent = self.stack[-1]
            parent.child += dur
            parent.quad += dur if fr.key == _QUAD else fr.quad
        return dur, fr.quad

    def wrap(self, fn, key: str, counter=None):
        """``fn`` inside a span named ``key``; ``counter`` is a (name, amount)
        pair, ``amount(args, result)`` being added to the count ``name``."""
        keep = key in _KEPT or key.startswith(("identities.I", "bench."))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fr = self.enter(key, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(fr)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, out)
            return out

        return traced

    def wrap_ops(self, ops):
        """The workload's operations, each inside a kept span."""
        return [dataclasses.replace(op, run=self.wrap(op.run, op.span)) for op in ops]

    def _integrate(self, orig, integrand_key: str):
        counts = self.counts

        def integrand_of(f):
            def traced_integrand(phis):
                fr = self.enter(integrand_key)
                try:
                    out = f(phis)
                finally:
                    dur, nested = self.exit(fr)
                self.integrand_excl_s += dur - nested
                counts["quadrature.nodes"] += np.size(phis)
                counts["quadrature.node_components"] += np.size(out)
                return out

            return traced_integrand

        @functools.wraps(orig)
        def traced_integrate(f, ctx, *args, **kwargs):
            fr = self.enter(_QUAD, keep=True)
            try:
                res = orig(integrand_of(f), ctx, *args, **kwargs)
            finally:
                self.exit(fr)
            counts["quadrature.unconverged"] += not res.converged
            return res

        return traced_integrate

    def _analytic_call(self, orig):
        counts = self.counts

        @functools.wraps(orig)
        def traced_call(fn, z):
            before = len(fn._memo)
            fr = self.enter("operators.analytic_fn")
            try:
                out = orig(fn, z)
            finally:
                self.exit(fr)
            if fn.memoize:
                grew = len(fn._memo) - before
                counts["operators.points_requested"] += np.size(z)
                counts["operators.memo_misses"] += grew
                counts["operators.memo_hits"] += np.size(z) - grew
            return out

        return traced_call

    def _build_patches(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every traced entry point."""
        out = []
        for home, names, users in _GROUPS:
            for name, key in names.items():
                orig = getattr(home, name)
                traced = self.wrap(orig, key, _COUNTERS.get(name))
                out += [(m, name, traced) for m in users if getattr(m, name, None) is orig]
        for module in (operators, identities):
            key = f"{module.__name__.rsplit('.', 1)[-1]}.integrand"
            out.append((module, "integrate_theta",
                        self._integrate(module.integrate_theta, key)))
        out.append((operators.AnalyticFn, "__call__",
                    self._analytic_call(operators.AnalyticFn.__call__)))
        return out

    def metrics(self, rounds: int, traced_walls: list[float],
                untraced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round, as name -> (value, unit)."""
        per = 1.0 / rounds
        calls = {k: v * per for k, v in self.calls.items()}
        incl = {k: v * per for k, v in self.incl_s.items()}
        own = {k: v * per for k, v in self.self_s.items()}
        counts = {k: v * per for k, v in self.counts.items()}
        layer_self = {layer: sum(v for k, v in own.items() if k.split(".")[0] == layer)
                      for layer in LAYERS}
        nodes = counts.get("quadrature.nodes", 0.0)
        traced_wall = statistics.median(traced_walls)
        m = {
            "quadrature.calls": (calls.get(_QUAD, 0.0), "count"),
            "quadrature.nodes": (nodes, "count"),
            "quadrature.node_components": (counts.get("quadrature.node_components", 0.0), "count"),
            "quadrature.us_per_node": (1e6 * self.integrand_excl_s * per / nodes if nodes else 0.0,
                                       "us"),
            "quadrature.unconverged": (counts.get("quadrature.unconverged", 0.0), "count"),
            "operators.integrand_self_s": (own.get("operators.integrand", 0.0), "s"),
            "operators.applications": (counts.get("operators.applications", 0.0), "count"),
            "operators.points_requested": (counts.get("operators.points_requested", 0.0), "count"),
            "operators.memo_hits": (counts.get("operators.memo_hits", 0.0), "count"),
            "operators.memo_misses": (counts.get("operators.memo_misses", 0.0), "count"),
            "operators.closed_form_s": (incl.get("operators.closed_form", 0.0), "s"),
            "qcore.qpoch_infinite.calls": (calls.get("qcore.qpoch_infinite", 0.0), "count"),
            "qcore.qpoch_infinite.elements": (counts.get("qcore.qpoch_infinite.elements", 0.0),
                                              "count"),
            "qcore.qpoch_infinite.self_s": (own.get("qcore.qpoch_infinite", 0.0), "s"),
            "qcore.h_product_z.calls": (calls.get("qcore.h_product_z", 0.0), "count"),
            "qcore.h_product_z.self_s": (own.get("qcore.h_product_z", 0.0), "s"),
            "qcore.bhs_terminating.self_s": (own.get("qcore.bhs_terminating", 0.0), "s"),
            "qcore.theta_series.self_s": (own.get("qcore.theta_series", 0.0), "s"),
            "qfunctions.weight_wH_sin.calls": (calls.get("qfunctions.weight_wH_sin", 0.0), "count"),
            "qfunctions.weight_wH_sin.self_s": (own.get("qfunctions.weight_wH_sin", 0.0), "s"),
            "qfunctions.aw_polynomial.self_s": (own.get("qfunctions.aw_polynomial", 0.0), "s"),
            "qfunctions.aw_weight.self_s": (own.get("qfunctions.aw_weight", 0.0), "s"),
            "qfunctions.aw_norm_Mn.self_s": (own.get("qfunctions.aw_norm_Mn", 0.0), "s"),
            "chebyshev.fit_calls": (calls.get("chebyshev.fit", 0.0), "count"),
            "chebyshev.fit_s": (own.get("chebyshev.fit", 0.0) + own.get("chebyshev.dct", 0.0), "s"),
            "chebyshev.coeffs": (counts.get("chebyshev.coeffs", 0.0), "count"),
        }
        for i in IDENTITY_IDS:
            m[f"identities.{i}.s"] = (incl.get(f"identities.{i}", 0.0), "s")
        m["identities.bilinear_series.s"] = (incl.get("identities.bilinear_series", 0.0), "s")
        m["identities.bilinear_series.terms"] = (
            counts.get("identities.bilinear_series.terms", 0.0), "count")
        m["identities.bilinear_kernel.s"] = (incl.get("identities.bilinear_kernel", 0.0), "s")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m["trace.wall_s"] = (traced_wall, "s")
        m["trace.coverage"] = (sum(layer_self.values()) * rounds / sum(traced_walls), "ratio")
        m["trace.untraced_wall_s"] = (untraced_wall, "s")
        m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        return m

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced entry points for the duration of the block."""
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in self._patches]
        try:
            for owner, name, traced in self._patches:
                setattr(owner, name, traced)
            yield self
        finally:
            for owner, name, orig in reversed(saved):
                setattr(owner, name, orig)

    def write(self, path: Path, rounds: int) -> None:
        """Write the kept spans and the per-name totals, once, at the end."""
        names = sorted(self.calls)
        path.write_text(json.dumps({
            "rounds": rounds,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "totals": {k: {"calls": self.calls[k], "incl_s": self.incl_s[k],
                           "self_s": self.self_s[k]} for k in names},
            "counts": dict(self.counts),
        }))
