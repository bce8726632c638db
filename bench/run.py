"""Benchmark of the qfrac identity engine.

    python3 bench/run.py --workload operator_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  A run

1. runs whole rounds of the workload's operations, serially, while the next
   round is expected to end within ``--seconds`` (at least one round), and
   checks every output;
2. without tracing, times ``SETUP_PROBES`` fresh interpreters that import
   qfrac and build the workload's inputs (``setup_s`` is their median);
3. checks the q-series kernels and one K_{a,c} eigen-action against
   high-precision mpmath values (untimed);
4. prints one JSON object as the last line of standard output and writes it,
   with the trace when ``--trace 1``, under ``bench/results/``.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
runs every operation untraced and then traced, and reports the per-layer
metrics of ``tracing.py`` plus the tracing overhead.  BLAS is pinned to one
thread before numpy is imported.  Exit status: 0 when every output is
correct, 1 when a check failed, 2 when the checkout has no ``src/qfrac``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _import_workloads():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def _setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports qfrac and builds the
    inputs of one round, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return elapsed


def _run_round(ops, timings: list[float] | None = None):
    """Run and check every operation once.  Returns the round's wall time,
    the wrong outputs and the operations that raised; ``timings`` receives
    each operation's time."""
    errors, failures = [], []
    t_round = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            reason = op.check(op.run())
        except Exception as exc:  # a raising operation is counted, the run goes on
            reason = None
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        if timings is not None:
            timings.append(time.perf_counter() - t0)
        if reason is not None:
            errors.append(f"{op.name}: {reason}")
    return time.perf_counter() - t_round, errors, failures


def _run_rounds(seconds: float, one_round) -> list:
    """Whole rounds while the next one is expected to end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(ops, seconds: float):
    per_round = []

    def one_round():
        timings: list[float] = []
        outcome = _run_round(ops, timings)
        per_round.append(timings)
        return outcome

    rounds = _run_rounds(seconds, one_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_seconds = [statistics.median(ts) for ts in zip(*per_round)]
    metrics = {
        "wall_s": _metric(statistics.median(r[0] for r in rounds), "s"),
        "slowest_op_s": _metric(max(op_seconds), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return metrics, rounds, op_seconds


def _traced(ops, seconds: float, out_path: Path):
    """Rounds in which each operation runs untraced and then traced, back to
    back, so that both sums see the same state of the machine."""
    import tracing

    tracer = tracing.Tracer()
    traced_ops = tracer.wrap_ops(ops)
    passes = []

    def one_round():
        plain, traced = [], []
        for op, top in zip(ops, traced_ops):
            plain.append(_run_round([op]))
            with tracer.installed():
                traced.append(_run_round([top]))
        for runs in (plain, traced):
            passes.append((sum(r[0] for r in runs), [e for r in runs for e in r[1]],
                           [f for r in runs for f in r[2]]))
        return passes[-1]

    rounds = _run_rounds(seconds, one_round)
    metrics = tracer.metrics(len(rounds), [r[0] for r in rounds],
                             statistics.median(p[0] for p in passes[::2]))
    tracer.write(out_path, len(rounds))
    return {k: _metric(v, u) for k, (v, u) in metrics.items()}, passes, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "qfrac" / "__init__.py").is_file():
        print(f"error: no qfrac package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _import_workloads().build(args.workload, args.seed)
        return 0

    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, rounds, op_seconds = _traced(ops, args.seconds, stem.with_suffix(".trace.json"))
    else:
        metrics, rounds, op_seconds = _end_to_end(ops, args.seconds)
        setup_s = statistics.median(_setup_probe(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES))
        metrics["setup_s"] = _metric(setup_s, "s")
    errors = [e for r in rounds for e in r[1]]
    failures = [f for r in rounds for f in r[2]]

    import oracles

    errors += oracles.check_all(args.seed)
    result = {
        "correct": not errors,
        "attempted": len(rounds) * len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
         "operations": [op.name for op in ops], "op_seconds": op_seconds,
         "errors": errors, "failures": failures},
        indent=1))
    for f in failures:
        print(f"operation failed: {f}", file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
