"""Command-line front end.

    qfrac verify   --id I5 --q 0.5 --a 1.2 --c 1.4 --n 3
    qfrac suite    --grid default --out report.json
    qfrac kernel   --section 6 --q 0.5 --a 0.8 --c 1.3 --a3 0.2 --a4 0.1 --points 3
    qfrac sweep    --id I5 --q 0.5 --c 1.2 --n 4 --vary a=0.4,1.0,1.7
    qfrac eval     --fn hermite --q 0.5 --n 3 --theta 0.5,1.0
    qfrac selftest

Exit status: 0 all checks passed, 1 a check failed (a numerical breakdown
such as NonConvergent included), 2 usage/parameter error.
Reports are byte-identical across runs for a fixed configuration; the JSON
"seconds" field is therefore null unless --timings is given.  CSV cells use
17 significant digits, '.' decimal, ',' separator.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial

import numpy as np

from . import identities as idn
from . import operators as op
from .context import QContext
from .errors import CaseInvalid, ParamDomain, QFracError
from .qcore import h_product, jtp_theta_series, qpoch_finite, qpoch_infinite
from .qfunctions import (
    AWParams,
    aw_polynomial,
    aw_weight,
    basis_phi_a,
    basis_phi_quarter,
    basis_rho,
    hermite_cq,
    poisson_kernel,
    q_exponential,
    weight_wH,
    weight_wH_sin,
)

_PARAM_FLAGS = ("a", "b", "c", "r", "s", "t", "beta", "tval",
                "t1", "t2", "t3", "t4", "a2", "a3", "a4", "phi")
_INT_FLAGS = ("n", "m")


def _fmt(x) -> str:
    """17 significant digits, locale-independent."""
    if isinstance(x, complex):
        if x.imag == 0.0:
            return _fmt(x.real)
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _collect_params(args) -> dict:
    params = {"q": args.q}
    for name in _PARAM_FLAGS + _INT_FLAGS:
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
    return params


def _report_row(rep: idn.IdentityReport, timings: bool) -> dict:
    res = rep.residual
    return {
        "case": rep.case.key(),
        "id": rep.case.id,
        "variant": rep.case.variant,
        "params": {k: rep.case.params[k] for k in sorted(rep.case.params)},
        "max_abs": res.max_abs if res else None,
        "max_rel": res.max_rel if res else None,
        "passed": (rep.status == "pass") if rep.status != "skip" else None,
        "evals": rep.evals,
        "seconds": (round(rep.seconds, 3) if timings and rep.seconds is not None else None),
        "notes": (res.notes if res else rep.skip_reason),
    }


def _json_text(rows) -> str:
    return json.dumps(rows, indent=2, ensure_ascii=False, allow_nan=True) + "\n"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    params = _collect_params(args)
    if getattr(args, "z", None) is not None:
        params["z"] = args.z
    case = idn.IdentityCase(args.id, params, variant=args.variant)
    rep = idn.run_case(case)
    if rep.status == "skip":
        print(f"error: {rep.skip_reason}", file=sys.stderr)
        return 2
    res = rep.residual
    line = (f"{case.key()}: max_abs={_fmt(res.max_abs)} max_rel={_fmt(res.max_rel)} "
            f"passed={res.passed}" + (f" [{res.notes}]" if res.notes else ""))
    print(line)
    if args.out:
        _write(args.out, _json_text([_report_row(rep, args.timings)]))
    return 0 if rep.status == "pass" else 1


def cmd_suite(args) -> int:
    try:
        reports = idn.run_suite(args.grid)
    except CaseInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [_report_row(r, args.timings) for r in reports]
    if args.format == "json":
        text = _json_text(rows)
    else:
        header = ["case", "id", "variant", "max_abs", "max_rel", "passed", "evals",
                  "seconds", "notes"]
        text = _csv_text(header, [
            [r["case"], r["id"], r["variant"] or "", r["max_abs"] or 0.0,
             r["max_rel"] or 0.0, str(r["passed"]),
             r["evals"], r["seconds"] if r["seconds"] is not None else "",
             (r["notes"] or "").replace(",", ";")]
            for r in rows
        ])
    _write(args.out, text)
    n_pass = sum(1 for r in reports if r.status == "pass")
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_skip = sum(1 for r in reports if r.status == "skip")
    bad = idn.suite_failures(reports)
    _, resolved = idn.variant_groups_ok(reports)
    print(f"suite[{args.grid}]: {n_pass} passed, {n_fail} failed, {n_skip} skipped "
          f"({len(reports)} cases); variant groups resolved: {len(resolved)}; "
          f"genuine failures: {len(bad)}", file=sys.stderr)
    for key in bad:
        print(f"  FAILED {key}", file=sys.stderr)
    return 1 if bad else 0


def cmd_kernel(args) -> int:
    ctx = QContext(q=args.q)
    pts = [float(p) for p in np.linspace(0.6, np.pi - 0.6, args.points)]
    try:
        if args.section == 6:
            if args.a is None or args.c is None or args.a3 is None or args.a4 is None:
                print("error: kernel --section 6 needs --a --c --a3 --a4", file=sys.stderr)
                return 2
            t_base = AWParams(-1.0 / args.c, -args.c * args.q, args.a3, args.a4)
            fixed = dict(p=op.KParams(args.a, args.c), a3=args.a3, a4=args.a4, ctx=ctx)
            kernel = partial(idn.bilinear_kernel_6, **fixed)
            series = partial(idn.bilinear_series_6, **fixed)
        else:
            if any(v is None for v in (args.t1, args.t2, args.t3, args.t4, args.r)):
                print("error: kernel --section 7 needs --t1..--t4 --r", file=sys.stderr)
                return 2
            t_base = AWParams(args.t1, args.t2, args.t3, args.t4)
            fixed = dict(p=op.TParams(args.t1, args.t2, args.r), t=t_base, ctx=ctx)
            kernel = partial(idn.bilinear_kernel_7, **fixed)
            series = partial(idn.bilinear_series_7, **fixed)
        rows = []
        for i, p1 in enumerate(pts):
            p2 = pts[(i + 1) % len(pts)]
            kv = kernel(p1, p2) / aw_weight(p1, t_base, ctx)
            sv, _ = series(p1, p2)
            rows.append([p1, p2, kv, sv, abs(kv - sv)])
    except (ParamDomain, CaseInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(args.out, _csv_text(
        ["phi1", "phi2", "kernel_over_w", "series", "abs_residual"], rows))
    return 0


def _parse_vary(spec: str):
    name, _, vals = spec.partition("=")
    if not vals:
        raise CaseInvalid(f"--vary needs name=v1,v2,... got {spec!r}")
    return name.strip(), [float(v) for v in vals.split(",")]


def cmd_sweep(args) -> int:
    base = _collect_params(args)
    try:
        axes = [_parse_vary(s) for s in args.vary]
    except (CaseInvalid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    combos = [{}]
    for name, vals in axes:
        combos = [dict(c, **{name: v}) for c in combos for v in vals]
    rows = []
    worst_fail = False
    for combo in combos:
        params = dict(base)
        params.update(combo)
        if "n" in params:
            params["n"] = int(params["n"])
        rep = idn.run_case(idn.IdentityCase(args.id, params, variant=args.variant))
        res = rep.residual
        if res is None:
            reason = rep.skip_reason.replace(",", ";")
            rows.append([*(combo[n] for n, _ in axes), "", "", f"skip: {reason}"])
            continue
        worst_fail = worst_fail or rep.status == "fail"
        # a residual that could not be computed carries its reason
        status = (rep.status if math.isfinite(res.max_rel)
                  else "fail: " + res.notes.replace(",", ";"))
        rows.append([*(combo[n] for n, _ in axes), res.max_abs, res.max_rel, status])
    header = [n for n, _ in axes] + ["max_abs", "max_rel", "status"]
    _write(args.out, _csv_text(header, rows))
    return 1 if worst_fail else 0


_EVAL_FNS = {
    "hermite": lambda a, ctx, th: hermite_cq(a.n, float(np.cos(th)), ctx),
    "wh": lambda a, ctx, th: weight_wH(th, ctx),
    "wh_sin": lambda a, ctx, th: weight_wH_sin(th, ctx),
    "aw": lambda a, ctx, th: aw_polynomial(a.n, th, AWParams(a.t1, a.t2, a.t3, a.t4), ctx),
    "aw_weight": lambda a, ctx, th: aw_weight(th, AWParams(a.t1, a.t2, a.t3, a.t4), ctx),
    "poisson": lambda a, ctx, th: poisson_kernel(th, a.phi, a.t, ctx),
    "qexp": lambda a, ctx, th: q_exponential(th, a.tval, ctx),
    "phi_quarter": lambda a, ctx, th: basis_phi_quarter(a.n, th, ctx),
    "rho": lambda a, ctx, th: basis_rho(a.n, th, ctx),
    "phi_a": lambda a, ctx, th: basis_phi_a(a.a, a.beta, th, ctx),
    "h": lambda a, ctx, th: h_product(th, [v for v in (a.t1, a.t2, a.t3, a.t4)
                                           if v is not None], ctx),
    "theta_series": lambda a, ctx, th: jtp_theta_series(complex(np.exp(1j * th)), ctx),
    "k_eigen": lambda a, ctx, th: op.apply_K_eigen(op.KParams(a.a, a.c), a.n, th, ctx),
    "qpoch": lambda a, ctx, th: (qpoch_finite(a.a, a.n, ctx) if a.n is not None
                                 else qpoch_infinite(a.a, ctx)),
}


def cmd_eval(args) -> int:
    ctx = QContext(q=args.q)
    fn = _EVAL_FNS.get(args.fn)
    if fn is None:
        print(f"error: unknown --fn {args.fn!r}; choices: {', '.join(sorted(_EVAL_FNS))}",
              file=sys.stderr)
        return 2
    thetas = [float(t) for t in args.theta.split(",")] if args.theta else [np.pi / 3]
    rows = []
    try:
        for th in thetas:
            rows.append([th, complex(fn(args, ctx, th))])
    except (QFracError, TypeError, AttributeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write(args.out, _csv_text(["theta", "value"], rows))
    return 0


def cmd_selftest(args) -> int:
    """Quick invariant battery over qcore/qfunctions/quadrature."""
    from .selftest import run_selftest

    ok = run_selftest(verbose=True)
    return 0 if ok else 1


def _add_common(sub):
    sub.add_argument("--q", type=float, default=0.5, help="base q in (0,1)")
    for name in _PARAM_FLAGS:
        sub.add_argument(f"--{name}", type=float, default=None)
    for name in _INT_FLAGS:
        sub.add_argument(f"--{name}", type=int, default=None)
    sub.add_argument("--out", default=None, help="output path (stdout if omitted)")
    sub.add_argument("--timings", action="store_true",
                     help="include wall-clock seconds in reports (breaks byte-stability)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qfrac",
        description="q-series primitives, Askey-Wilson families, fractional "
                    "integral operators, and their identity verification suite.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run one identity case")
    p.add_argument("--id", required=True, choices=idn.registry_ids())
    p.add_argument("--variant", default=None)
    p.add_argument("--z", type=float, default=None, help="alias kept for I0d sweeps")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run an identity grid and write a report")
    p.add_argument("--grid", default="default", choices=["default", "quick", "empty"])
    p.add_argument("--format", default="json", choices=["json", "csv"])
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("kernel", help="tabulate a bilinear kernel vs its series")
    p.add_argument("--section", type=int, required=True, choices=[6, 7])
    p.add_argument("--points", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("sweep", help="run one identity over a parameter grid (CSV)")
    p.add_argument("--id", required=True, choices=idn.registry_ids())
    p.add_argument("--variant", default=None)
    p.add_argument("--vary", action="append", required=True,
                   help="name=v1,v2,... (repeatable; cartesian product)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a function pointwise")
    p.add_argument("--fn", required=True)
    p.add_argument("--theta", default=None, help="comma-separated theta values")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run the qcore/qfunctions/quadrature invariants")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (0.0 < args.q < 1.0):
        print(f"error: q={args.q} outside (0, 1)", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    rc = args.func(args)
    if getattr(args, "timings", False):
        print(f"total {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
