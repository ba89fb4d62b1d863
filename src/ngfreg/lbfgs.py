"""Limited-memory BFGS with Armijo backtracking line search.

Drives one multilevel level. The solver is fixed: it keeps the last
``MEMORY`` curvature pairs, filtered for positive curvature so the two-loop
recursion always produces a descent direction, and a failed line search
ends the level gracefully with the best iterate. A start point whose J or
gradient is not finite raises ``FloatingPointError``.

The line search starts at ``INITIAL_STEP``, never tries a longer step and
stops at the first trial that satisfies the Armijo condition with ``C1``, so
the accepted trial is the last objective evaluation of its iteration. After a
rejected trial t it tries the minimizer of the parabola through phi(0),
phi'(0) and phi(t), phi(t) = J(x + t d), kept within [0.1 t, STEP_SHRINK t];
a non-finite phi(t) gives STEP_SHRINK t. It gives up after ``MAX_LS_STEPS``
trials (Nocedal & Wright, Numerical Optimization, Sec. 3.5).

From iteration ``MIN_ITERATIONS`` on it stops at the first iteration where
the change in J is at most ``TOL_J`` |J|, |g|_inf at most ``TOL_GRAD`` times
the start's, or the step norm at most ``TOL_STEP`` max(|x0|, 1), tested in
that order. No caller sets these constants; they are read at each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import check_integer

__all__ = ["IterationRecord", "OptimizeTrace", "two_loop_direction", "lbfgs_minimize"]


MEMORY = 5          # (s, y) pairs kept
C1 = 1e-4           # Armijo sufficient-decrease constant
INITIAL_STEP = 1.0  # first trial of every line search
STEP_SHRINK = 0.5   # largest backtrack factor
MAX_LS_STEPS = 20   # trials before the line search fails
TOL_J = 1e-4        # relative objective change
TOL_GRAD = 1e-3     # |g|_inf relative to the initial gradient
TOL_STEP = 1e-5     # step norm relative to max(|x0|, 1)
MIN_ITERATIONS = 3  # iterations before any test may stop the level


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


def lbfgs_minimize(f, x0: np.ndarray, max_iterations: int):
    """Minimize f(x) -> (J, grad) in at most max_iterations iterations.
    Returns (best x, OptimizeTrace)."""
    check_integer("max_iterations", max_iterations, 1)
    x = np.asarray(x0).copy()
    J, g = f(x)
    g = np.asarray(g)
    if not (np.isfinite(J) and np.isfinite(g).all()):
        raise FloatingPointError("the objective or its gradient is not finite at the start point")
    trace = OptimizeTrace()
    g0_inf = float(np.max(np.abs(g))) if g.size else 0.0
    if g0_inf <= 0.0:
        trace.stop_reason = "stationary start"
        return x, trace

    history: list[tuple[np.ndarray, np.ndarray]] = []
    x_scale = max(math.sqrt(_dot(x, x)), 1.0)

    for it in range(max_iterations):
        d = two_loop_direction(history, g)
        slope = _dot(g, d)
        if slope >= 0:  # safeguard: fall back to steepest descent
            d = -g
            slope = _dot(g, d)
            history.clear()

        t = INITIAL_STEP
        for ls_evals in range(1, MAX_LS_STEPS + 1):
            x_new = x + x.dtype.type(t) * d
            J_new, g_new = f(x_new)
            if not np.isfinite(J_new):
                t *= STEP_SHRINK
            elif J_new <= J + C1 * t * slope:
                break
            else:  # the failed Armijo test makes the denominator positive; the
                # lower safeguard is Dennis & Schnabel's (1983), Sec. 6.3.2
                t_q = -slope * t * t / (2.0 * (J_new - J - slope * t))
                t = min(max(t_q, 0.1 * t), STEP_SHRINK * t)
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
            if len(history) > MEMORY:
                history.pop(0)
        elif history:
            # stale curvature: age the history so directions can recover;
            # MEMORY rejections in a row empty it
            history.pop(0)

        J_prev = J
        x, J, g = x_new, float(J_new), np.asarray(g_new)
        g_inf = float(np.max(np.abs(g)))
        trace.records.append(IterationRecord(it, J, g_inf, t, ls_evals))

        if it + 1 >= MIN_ITERATIONS:
            if abs(J_prev - J) <= TOL_J * max(abs(J_prev), 1e-30):
                trace.stop_reason = "objective change below tolerance"
                break
            if g_inf <= TOL_GRAD * g0_inf:
                trace.stop_reason = "gradient below tolerance"
                break
            if step_norm <= TOL_STEP * x_scale:
                trace.stop_reason = "step below tolerance"
                break
    else:
        trace.stop_reason = "max iterations"
    return x, trace
