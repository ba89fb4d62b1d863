"""Limited-memory BFGS with Armijo backtracking line search.

Drives one multilevel level. History pairs are filtered for positive
curvature so the two-loop recursion always produces a descent direction;
a failed line search ends the level gracefully with the best iterate.

The line search starts at ``initial_step``, never tries a longer step and
stops at the first trial that satisfies the Armijo condition, so the
accepted trial is the last objective evaluation of its iteration. After a
rejected trial t it tries the minimizer of the parabola through phi(0),
phi'(0) and phi(t), phi(t) = J(x + t d), kept within [0.1 t, step_shrink t];
a non-finite phi(t) gives step_shrink t (Nocedal & Wright, Numerical
Optimization, Sec. 3.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LbfgsConfig", "StoppingRules", "IterationRecord", "OptimizeTrace",
           "two_loop_direction", "lbfgs_minimize"]


@dataclass(frozen=True)
class LbfgsConfig:
    memory: int = 5
    max_iterations: int = 100
    c1: float = 1e-4
    initial_step: float = 1.0
    step_shrink: float = 0.5
    max_ls_steps: int = 20

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if not (0 < self.c1 < 1):
            raise ValueError("c1 must be in (0, 1)")
        if not (0 < self.step_shrink < 1):
            raise ValueError("step_shrink must be in (0, 1)")
        if not (math.isfinite(self.initial_step) and self.initial_step > 0):
            raise ValueError("initial_step must be finite and > 0")
        if self.max_ls_steps < 1:
            raise ValueError("max_ls_steps must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class StoppingRules:
    tol_J: float = 1e-4        # relative objective change
    tol_grad: float = 1e-3     # |g|_inf relative to the initial gradient
    tol_step: float = 1e-5     # relative step norm
    min_iterations: int = 3

    def __post_init__(self):
        if min(self.tol_J, self.tol_grad, self.tol_step) <= 0:
            raise ValueError("all tolerances must be > 0")


@dataclass
class IterationRecord:
    iteration: int
    J: float
    grad_inf: float
    step: float
    ls_evals: int


@dataclass
class OptimizeTrace:
    records: list[IterationRecord] = field(default_factory=list)
    stop_reason: str = ""
    line_search_failed: bool = False

    @property
    def iterations(self) -> int:
        return len(self.records)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> in numpy's fixed order; BLAS's last bits vary with its thread count."""
    return float(np.sum(a * b))


def two_loop_direction(history: list[tuple[np.ndarray, np.ndarray]], g: np.ndarray) -> np.ndarray:
    """Approximate -H*g from stored (s, y) pairs via the two-loop recursion.

    Empty history returns plain steepest descent; otherwise the initial
    scaling is gamma = <s,y>/<y,y> of the most recent pair.
    """
    if not history:
        return -g
    q = g.copy()
    alphas = []
    rhos = []
    for s, yv in reversed(history):
        rho = 1.0 / _dot(yv, s)
        alpha = rho * _dot(s, q)
        q -= alpha * yv
        alphas.append(alpha)
        rhos.append(rho)
    s_last, y_last = history[-1]
    gamma = _dot(s_last, y_last) / _dot(y_last, y_last)
    q *= q.dtype.type(gamma)
    for (s, yv), alpha, rho in zip(history, reversed(alphas), reversed(rhos)):
        beta = rho * _dot(yv, q)
        q += (alpha - beta) * s
    return -q


def lbfgs_minimize(f, x0: np.ndarray, cfg: LbfgsConfig = LbfgsConfig(),
                   stop: StoppingRules = StoppingRules()):
    """Minimize f(x) -> (J, grad). Returns (best x, OptimizeTrace)."""
    x = np.asarray(x0).copy()
    J, g = f(x)
    g = np.asarray(g)
    trace = OptimizeTrace()
    g0_inf = float(np.max(np.abs(g))) if g.size else 0.0
    if g0_inf <= 0.0:
        trace.stop_reason = "stationary start"
        return x, trace

    history: list[tuple[np.ndarray, np.ndarray]] = []
    x_scale = max(math.sqrt(_dot(x, x)), 1.0)
    rejected_streak = 0

    for it in range(cfg.max_iterations):
        d = two_loop_direction(history, g)
        slope = _dot(g, d)
        if slope >= 0:  # safeguard: fall back to steepest descent
            d = -g
            slope = _dot(g, d)
            history.clear()

        t = cfg.initial_step
        for ls_evals in range(1, cfg.max_ls_steps + 1):
            x_new = x + x.dtype.type(t) * d
            J_new, g_new = f(x_new)
            if not np.isfinite(J_new):
                t *= cfg.step_shrink
            elif J_new <= J + cfg.c1 * t * slope:
                break
            else:  # the failed Armijo test makes the denominator positive; the
                # lower safeguard is Dennis & Schnabel's (1983), Sec. 6.3.2
                t_q = -slope * t * t / (2.0 * (J_new - J - slope * t))
                t = min(max(t_q, 0.1 * t), cfg.step_shrink * t)
        else:
            trace.stop_reason = "line search failed"
            trace.line_search_failed = True
            return x, trace

        s = x_new - x
        yv = np.asarray(g_new) - g
        sy = _dot(s, yv)
        step_norm = math.sqrt(_dot(s, s))
        if sy > 1e-10 * step_norm * math.sqrt(_dot(yv, yv)):
            history.append((s, yv))
            if len(history) > cfg.memory:
                history.pop(0)
            rejected_streak = 0
        else:
            # stale curvature: age the history so directions can recover
            rejected_streak += 1
            if history:
                history.pop(0)
            if rejected_streak >= cfg.memory:
                history.clear()

        J_prev = J
        x, J, g = x_new, float(J_new), np.asarray(g_new)
        g_inf = float(np.max(np.abs(g)))
        trace.records.append(IterationRecord(it, J, g_inf, t, ls_evals))

        if it + 1 >= stop.min_iterations:
            if abs(J_prev - J) <= stop.tol_J * max(abs(J_prev), 1e-30):
                trace.stop_reason = "objective change below tolerance"
                break
            if g_inf <= stop.tol_grad * g0_inf:
                trace.stop_reason = "gradient below tolerance"
                break
            if step_norm <= stop.tol_step * x_scale:
                trace.stop_reason = "step below tolerance"
                break
    else:
        trace.stop_reason = "max iterations"
    return x, trace
