"""Span tracing at the ngfreg layer boundaries, from outside the library.

The tracer replaces each public name in ``LAYER_CALLS`` with a wrapper that
records a span (name, start, end, parent, operation) in memory. It replaces
the name in every ``ngfreg`` module that holds it, because the modules call
each other through names they imported (``ngf.apply_P`` is
``transfer.apply_P``). A name that no longer exists is reported as missing.
``ThreadPoolExecutor`` is counted rather than timed, as ``pools_created``.

Spans opened on a pool thread with nothing open there take as parent the
innermost span open on the thread that installed the tracer, which is
blocked in the pool call at that moment.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

# The layer table: "<ngfreg module>.<attribute>"; the module is the layer.
LAYER_CALLS = (
    "multilevel.register",
    "multilevel.build_pyramid",
    "multilevel.prolong_deformation",
    "lbfgs.lbfgs_minimize",
    "objective.LevelObjective.__call__",
    "ngf.precompute_reference_terms",
    "ngf.distance_and_gradient",
    "ngf.ngf_value",
    "ngf.ngf_gradient_wrt_yhat",
    "warp.warp_image",
    "warp.warp_jacobian_apply_transpose",
    "warp.image_gradient",
    "warp.image_gradient_apply_transpose",
    "transfer.build_gather_plan",
    "transfer.apply_P",
    "transfer.apply_Pt",
    "curvature.curvature_value",
    "curvature.curvature_gradient",
    "parallel.run_slabs",
    "parallel.run_tasks",
)
# Keep what the standalone P^T timings need from the last apply_Pt call: the
# grid, dtype and plan, not the input array. Holding that array alive across
# evaluations made reg48 ~30% faster (heap reuse), which would bias the trace.
CAPTURE = {"transfer.apply_Pt": lambda r, plan, *_, **__: (r.grid, r.field.dtype, plan)}
# pool entry points whose first argument is the per-slab kernel: the kernel gets
# a span "<caller>.slab", so the pool call's own self time is the pool overhead
SLAB_CALLS = ("parallel.run_slabs",)
OBJECTIVE = "objective.LevelObjective.__call__"
LEVELS = 3  # per-level metrics L0..L2; both register workloads solve 3 levels

# per-layer metric table: (name, unit, better). "/op" is per traced operation
# (a register call; set-up plus one evaluation on eval128), "/eval" per
# objective evaluation inside it.
PER_LAYER = (
    *((f"lbfgs.L{k}.evals", "count/op", "lower") for k in range(LEVELS)),
    *((f"lbfgs.L{k}.iterations", "count/op", "lower") for k in range(LEVELS)),
    ("lbfgs.accept_ratio", "ratio", "higher"),
    ("lbfgs.self_s", "s/op", "lower"),
    ("lbfgs.nonfinite_trials", "count/op", "lower"),
    *((f"objective.L{k}.evals", "count/op", "lower") for k in range(LEVELS)),
    *((f"objective.L{k}.eval_ms", "ms/eval", "lower") for k in range(LEVELS)),
    ("objective.evals", "count/op", "lower"),
    ("objective.eval_ms", "ms/eval", "lower"),
    ("parallel.run_slabs.calls_per_eval", "count/eval", "lower"),
    ("parallel.run_slabs.ms", "ms/eval", "lower"),
    ("parallel.run_slabs.self_ms", "ms/eval", "lower"),
    ("parallel.pools_created", "count/op", "lower"),
    ("warp.warp_image.ms", "ms/eval", "lower"),
    ("warp.warp_jacobian_apply_transpose.ms", "ms/eval", "lower"),
    ("warp.image_gradient.ms", "ms/eval", "lower"),
    ("warp.image_gradient.calls_per_eval", "count/eval", "lower"),
    ("warp.image_gradient_apply_transpose.ms", "ms/eval", "lower"),
    ("ngf.pointwise.self_ms", "ms/eval", "lower"),
    ("ngf.distance_and_gradient.ms", "ms/eval", "lower"),
    ("transfer.apply_P.ms", "ms/eval", "lower"),
    ("transfer.apply_Pt.ms", "ms/eval", "lower"),
    ("transfer.Pt_gather_ms", "ms", "lower"),
    ("transfer.Pt_scatter_ms", "ms", "lower"),
    ("transfer.Pt_redblack_ms", "ms", "lower"),
    ("curvature.ms", "ms/eval", "lower"),
    ("multilevel.build_pyramid.ms", "ms/op", "lower"),
    ("multilevel.prolong_deformation.ms", "ms/op", "lower"),
    ("ngf.precompute_reference_terms.ms", "ms/op", "lower"),
    ("transfer.build_gather_plan.ms", "ms/op", "lower"),
    ("multilevel.register.self_ms", "ms/op", "lower"),
    ("trace.overhead_s", "s/op", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.missing", "count", "lower"),
)


def _ngfreg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ngfreg" or name.startswith("ngfreg."))]


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1, op index]
        self.pools: Counter = Counter()  # op index -> thread pools created
        self.captured: dict = {}
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._op = -1
        self._restore: list = []

    # ---------------------------------------------------------- span records
    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        tracer = self
        capture = CAPTURE.get(name)
        slabs = name in SLAB_CALLS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if capture:
                tracer.captured[name] = capture(*args, **kwargs)
            if slabs and args:
                stack = tracer._stack()
                caller = tracer.spans[stack[-1]][0] if stack else "op"
                args = (tracer._wrap(f"{caller}.slab", args[0]),) + args[1:]
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def run_op(self, label: str, fn):
        """Run fn() as one traced operation under a root span; returns fn()."""
        self._op += 1
        self.install()
        idx = self._open(f"op.{label}")
        try:
            return fn()
        finally:
            self._close(idx)
            self.uninstall()

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        self.missing = []
        for name in LAYER_CALLS:
            module, attr = name.split(".", 1)
            try:
                mod = importlib.import_module(f"ngfreg.{module}")
            except ImportError:
                self.missing.append(name)
                continue
            if "." in attr:  # a method: replace it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                self._replace(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for m in _ngfreg_modules():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, key, wrapped)
        pool_counter = self._pool_class()
        for m in _ngfreg_modules():
            for key, value in list(vars(m).items()):
                if value is ThreadPoolExecutor:
                    self._replace(m, key, pool_counter)

    def _replace(self, owner, key, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def _pool_class(self):
        tracer = self

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.pools[tracer._op] += 1
                super().__init__(*args, **kwargs)

        return CountingPool

    # ------------------------------------------------------------- analysis
    def op_summary(self, op: int) -> dict:
        """Per-name inclusive/self times of one operation, split into time
        inside objective evaluations and outside, plus per-level counts."""
        idxs = [i for i, s in enumerate(self.spans) if s[4] == op]
        children = defaultdict(list)
        for i in idxs:
            if self.spans[i][3] >= 0:
                children[self.spans[i][3]].append(i)
        root = idxs[0]
        in_eval, level, lbfgs_rank = {}, {}, 0
        for i in idxs:  # parents precede their children
            name, _, _, parent, _ = self.spans[i]
            if name == "lbfgs.lbfgs_minimize":
                level[i] = lbfgs_rank
                lbfgs_rank += 1
            else:
                level[i] = level.get(parent, 0)
            in_eval[i] = name == OBJECTIVE or in_eval.get(parent, False)

        out = {
            "incl_eval": Counter(), "self_eval": Counter(), "calls_eval": Counter(),
            "incl": Counter(), "self": Counter(), "calls": Counter(),
            "level_evals": Counter(), "level_eval_s": Counter(), "level_dag": Counter(),
        }
        for i in idxs:
            name, t0, t1, _, _ = self.spans[i]
            dur = t1 - t0
            kids = [(self.spans[c][1], self.spans[c][2]) for c in children[i]]
            self_s = dur - _covered(t0, t1, kids)
            out["incl"][name] += dur
            out["self"][name] += self_s
            out["calls"][name] += 1
            if in_eval[i]:
                out["incl_eval"][name] += dur
                out["self_eval"][name] += self_s
                out["calls_eval"][name] += 1
            if name == OBJECTIVE:
                out["level_evals"][level[i]] += 1
                out["level_eval_s"][level[i]] += dur
            if name == "ngf.distance_and_gradient":
                out["level_dag"][level[i]] += 1
        out["root_s"] = self.spans[root][2] - self.spans[root][1]
        out["root_self_s"] = out["self"][self.spans[root][0]]
        out["evals"] = out["calls"][OBJECTIVE]
        out["pools"] = self.pools[op]
        return out

    def write(self, path, **meta) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op"],
                       "missing": self.missing, "spans": self.spans}, fh)


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def per_layer_metrics(summaries: list[dict], reports: list, pt_ms: dict,
                      overhead_s: float, missing: list[str]) -> dict:
    """Average the traced operations into the PER_LAYER metrics. `reports` are
    the RegistrationReports of the traced register calls (empty on eval128)."""
    n = len(summaries)

    def mean(f):
        return sum(f(s) for s in summaries) / n

    def per_eval(f):
        return mean(lambda s: f(s) / s["evals"] if s["evals"] else 0.0)

    m = {}
    for k in range(LEVELS):
        m[f"lbfgs.L{k}.evals"] = _mean_report(reports, lambda r: level_evals(r, k))
        m[f"lbfgs.L{k}.iterations"] = _mean_report(
            reports, lambda r: r.levels[k].iterations if k < len(r.levels) else 0)
    evals = _mean_report(reports, lambda r: sum(level_evals(r, k) for k in range(len(r.levels))))
    iters = _mean_report(reports, lambda r: sum(lv.iterations for lv in r.levels))
    m["lbfgs.accept_ratio"] = iters / evals if evals else 0.0
    m["lbfgs.self_s"] = mean(lambda s: s["self"]["lbfgs.lbfgs_minimize"])
    m["lbfgs.nonfinite_trials"] = (evals - mean(lambda s: s["calls"]["ngf.distance_and_gradient"])
                                   if reports else 0.0)
    for k in range(LEVELS):
        m[f"objective.L{k}.evals"] = mean(lambda s: s["level_evals"][k])
        m[f"objective.L{k}.eval_ms"] = mean(
            lambda s: 1e3 * s["level_eval_s"][k] / s["level_evals"][k]
            if s["level_evals"][k] else 0.0)
    m["objective.evals"] = mean(lambda s: s["evals"])
    m["objective.eval_ms"] = per_eval(lambda s: 1e3 * s["incl_eval"][OBJECTIVE])
    m["parallel.run_slabs.calls_per_eval"] = per_eval(
        lambda s: s["calls_eval"]["parallel.run_slabs"])
    m["parallel.run_slabs.ms"] = per_eval(lambda s: 1e3 * s["incl_eval"]["parallel.run_slabs"])
    m["parallel.run_slabs.self_ms"] = per_eval(lambda s: 1e3 * s["self_eval"]["parallel.run_slabs"])
    m["parallel.pools_created"] = mean(lambda s: s["pools"])
    for name in ("warp.warp_image", "warp.warp_jacobian_apply_transpose", "warp.image_gradient",
                 "warp.image_gradient_apply_transpose", "ngf.distance_and_gradient",
                 "transfer.apply_P", "transfer.apply_Pt"):
        m[f"{name}.ms"] = per_eval(lambda s: 1e3 * s["incl_eval"][name])
    m["warp.image_gradient.calls_per_eval"] = per_eval(
        lambda s: s["calls_eval"]["warp.image_gradient"])
    m["ngf.pointwise.self_ms"] = per_eval(
        lambda s: 1e3 * (s["self_eval"]["ngf.ngf_value"]
                         + s["self_eval"]["ngf.ngf_gradient_wrt_yhat"]))
    for variant in ("gather", "scatter", "redblack"):
        m[f"transfer.Pt_{variant}_ms"] = pt_ms.get(variant, 0.0)
    m["curvature.ms"] = per_eval(lambda s: 1e3 * (s["incl_eval"]["curvature.curvature_value"]
                                                 + s["incl_eval"]["curvature.curvature_gradient"]))
    for name in ("multilevel.build_pyramid", "multilevel.prolong_deformation",
                 "ngf.precompute_reference_terms", "transfer.build_gather_plan"):
        m[f"{name}.ms"] = mean(lambda s: 1e3 * (s["incl"][name] - s["incl_eval"][name]))
    m["multilevel.register.self_ms"] = mean(lambda s: 1e3 * s["self"]["multilevel.register"])
    m["trace.overhead_s"] = overhead_s
    m["trace.coverage"] = mean(lambda s: 1 - s["root_self_s"] / s["root_s"])
    m["trace.missing"] = float(len(missing))
    names = [name for name, _, _ in PER_LAYER]
    if set(m) != set(names):
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {set(m) ^ set(names)}")
    return {name: m[name] for name in names}


def level_evals(report, k: int) -> int:
    if k >= len(report.levels):
        return 0
    return 1 + sum(r.ls_evals for r in report.levels[k].records)


def _mean_report(reports: list, f) -> float:
    return sum(f(r) for r in reports) / len(reports) if reports else 0.0
