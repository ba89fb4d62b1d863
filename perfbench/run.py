"""Registration benchmark: correctness gates, then workloads run closed-loop.

    python3 perfbench/run.py --workload reg64 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                      # all three workloads, untraced

One caller in one process makes each call after the previous one returned.
The gates (``gates.py``) run first in a process of their own; if one fails,
nothing is timed and the exit code is 1. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of ``tracing.PER_LAYER``. The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Spans and the per-run
record, with the machine facts, go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import benchenv  # first: pins BLAS threads before numpy loads

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from ngfreg import transfer
from ngfreg.geometry import VectorField3

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = benchenv.ROOT / ".perfbench_out"
SETUP_REPS = 15     # set-up is short; its median over this many runs is reported
PT_REPS = 3         # standalone P^T calls per variant in a traced run
CHILD_TIMEOUT_S = 170

# (name, unit): register_s is the wall time of one operation, a register call
# or, on eval128, one objective evaluation; eval_ms is the wall time per
# objective evaluation (register_s / evaluations on the register workloads).
END_TO_END = (
    ("register_s", "s"),
    ("eval_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("probe_err_mm", "mm"),
)


def machine_facts(case: workloads.Case) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": case.cfg.workers,
        "blas_threads": {v: os.environ.get(v) for v in benchenv.BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = benchenv.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def closed_loop(op, seconds: float, min_ops: int) -> list:
    """Call op() back to back; start another call only while it is expected
    to end within `seconds`, and make at least `min_ops` calls."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(op())
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= min_ops and elapsed + statistics.median(walls) > seconds:
            return results


def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return None


def setup_seconds(case: workloads.Case) -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workloads.build_levels(case)
        times.append(time.perf_counter() - t0)
    return times


def mark_checksum_mismatches(results: list) -> None:
    """Every passing repetition must produce the bytes of the first one."""
    first = next((r.checksum for r in results if r.checksum), None)
    for r in results:
        if not r.failure and r.checksum != first:
            r.failure = f"result checksum {r.checksum} differs from {first}"


def make_op(case: workloads.Case, with_setup: bool):
    """The workload's operation. On eval128 it evaluates the objective at the
    fixed point, checked against a workers=1 evaluation made here, untimed."""
    if workloads.WORKLOADS[case.name].operation == "register":
        return lambda: workloads.register_op(case)
    (obj, y), = workloads.build_levels(case)
    (ref_obj, _), = workloads.build_levels(case, workers=1)
    x = y.field.ravel()
    ref_J, ref_g = ref_obj(x)
    ref_g = np.asarray(ref_g).copy()

    def op():
        o = workloads.build_levels(case)[0][0] if with_setup else obj
        return workloads.evaluate_op(case, o, x, ref_J, ref_g)

    return op


def measure(case: workloads.Case, seconds: float) -> tuple[list, dict, list[str]]:
    wl = workloads.WORKLOADS[case.name]
    setup = setup_seconds(case)
    results = closed_loop(make_op(case, with_setup=False), seconds, wl.min_ops)
    mark_checksum_mismatches(results)
    ok = [r for r in results if not r.failure] or results  # all failed: report them anyway
    times = [r.seconds for r in ok]
    per_eval = [1e3 * r.seconds / max(r.evals, 1) for r in ok]
    samples = {"register_s": times, "eval_ms": per_eval, "setup_s": setup}
    metrics = {
        "register_s": statistics.median(times),
        "eval_ms": statistics.median(per_eval),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "probe_err_mm": statistics.median(r.probe_err_mm for r in ok),
    }
    lines = []
    for name, unit in END_TO_END:
        vals = samples.get(name)
        extra = ""
        if vals is not None:
            t = tail(vals)
            extra = f"  p{t[0]:g} {t[1]:.6g}" if t else "  (no percentile has 10 samples beyond it)"
            extra += f"  n={len(vals)}"
        lines.append(f"{name:14s} {metrics[name]:.6g} {unit}{extra}")
    if wl.operation == "register":  # reported, not gated: it is fixed by the case
        lines.append(f"fold_min_det   {min(r.min_det for r in ok):.6g} (min det grad y)")
    return results, metrics, lines


def time_pt_variants(grid, dtype, plan, workers: int) -> dict[str, float]:
    """Median ms of standalone apply_Pt calls per variant, on a random input
    with the grid and dtype of the traced call (P^T's cost does not depend on
    the values)."""
    rng = np.random.default_rng(0)
    r = VectorField3(grid, rng.standard_normal((3,) + grid.shape).astype(dtype))
    out = {}
    for variant in workloads.PT_VARIANTS:
        times = []
        for _ in range(PT_REPS):
            t0 = time.perf_counter()
            transfer.apply_Pt(r, plan, variant, workers)
            times.append(time.perf_counter() - t0)
        out[variant] = 1e3 * statistics.median(times)
    return out


def measure_traced(case: workloads.Case, seconds: float):
    """Alternate untraced and traced operations; the traced ones give the
    per-layer numbers, the difference of the medians the tracing overhead.
    Returns (results, metrics, lines, tracer, counts consistent)."""
    tracer = tracing.Tracer()
    setup_seconds(case)  # warm-up, as in an untraced run; the first call is otherwise slower
    plain_op = make_op(case, with_setup=True)
    pt_ms: dict[str, float] = {}

    def traced_op():
        result = tracer.run_op(case.name, plain_op)
        captured = tracer.captured.pop("transfer.apply_Pt", None)
        if captured and not pt_ms:
            pt_ms.update(time_pt_variants(*captured, case.cfg.workers))
        return result

    turn = itertools.count()

    def pair():  # alternate which one goes first, so drift does not bias the overhead
        if next(turn) % 2:
            traced = traced_op()
            return plain_op(), traced
        return plain_op(), traced_op()

    pairs = closed_loop(pair, seconds, 1)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    results = plain + traced
    mark_checksum_mismatches(results)
    overhead = (statistics.median(t.seconds for t in traced)
                - statistics.median(p.seconds for p in plain))
    summaries = [tracer.op_summary(op) for op in range(len(traced))]
    reports = [t.report for t in traced if t.report is not None]

    consistent = True
    lines = []
    # traced distance_and_gradient calls per level against 1 + sum(ls_evals)
    for s, t in zip(summaries, traced):
        rep = t.report
        for k in range(len(rep.levels) if rep else 0):
            diff = tracing.level_evals(rep, k) - s["level_dag"][k]
            if diff:
                lines.append(f"level {k}: {diff} evaluation(s) without a distance_and_gradient "
                             "call (non-finite trial points)")
            consistent &= diff >= 0
    keys = ("level_evals", "level_dag", "calls")
    if any(s[key] != summaries[0][key] for s in summaries for key in keys):
        lines.append("call counts differ between traced operations")
        consistent = False

    metrics = tracing.per_layer_metrics(summaries, reports, pt_ms, overhead, tracer.missing)
    if tracer.missing:
        lines.append("missing from the library: " + ", ".join(tracer.missing))

    self_by_layer: dict[str, float] = {}
    for s in summaries:
        for name, v in s["self"].items():
            layer = name.split(".")[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + v / len(summaries)
    root_s = statistics.mean(s["root_s"] for s in summaries)
    lines.append("self time per layer, share of the traced operation "
                 f"({root_s:.4g} s; slabs on pool threads overlap, so the shares can sum "
                 "above 100%): " + ", ".join(
                     f"{k} {v / root_s:.1%}"
                     for k, v in sorted(self_by_layer.items(), key=lambda kv: -kv[1])))
    if metrics["trace.coverage"] < 0.9:
        lines.append(f"layer coverage {metrics['trace.coverage']:.1%} < 90%: the gap is the "
                     "benchmark's own code between calls (op self time)")
    for name, unit, _ in tracing.PER_LAYER:
        lines.append(f"{name:42s} {metrics[name]:.6g} {unit}")
    return results, metrics, lines, tracer, consistent


def run_workload(args) -> int:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
          flush=True)
    gates = subprocess.run([sys.executable, str(HERE / "gates.py"), "--workload", args.workload,
                            "--seed", str(args.seed)], timeout=CHILD_TIMEOUT_S)
    if gates.returncode != 0:
        sys.stderr.write("perfbench: a correctness gate failed; nothing was timed\n")
        return 1
    case = workloads.make_case(args.workload, args.seed)
    facts = machine_facts(case)
    print("machine " + json.dumps(facts), flush=True)

    consistent = True
    if args.trace:
        results, metrics, lines, tracer, consistent = measure_traced(case, args.seconds)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        results, metrics, lines = measure(case, args.seconds)
        units = dict(END_TO_END)
    failed = [r for r in results if r.failure]
    for r in failed:
        print(f"FAILED operation: {r.failure}")
    for line in lines:
        print(line)
    print(f"operations failed/attempted: {len(failed)}/{len(results)}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{stem}.json", workload=args.workload, seed=args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "metrics": metrics,
        "operations": [{"seconds": r.seconds, "evals": r.evals, "failure": r.failure,
                        "checksum": r.checksum, "probe_err_mm": r.probe_err_mm,
                        "fold_min_det": None if math.isnan(r.min_det) else r.min_det}
                       for r in results],
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": consistent and not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        out = child.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1] if child.returncode == 0 else out), flush=True)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(out[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
