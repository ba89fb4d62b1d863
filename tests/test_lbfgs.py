import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ngfreg
from ngfreg.lbfgs import (
    LbfgsConfig,
    StoppingRules,
    lbfgs_minimize,
    two_loop_direction,
)


def quadratic_problem(rng, n=12):
    Q = rng.standard_normal((n, n))
    A = Q.T @ Q + n * np.eye(n)
    b = rng.standard_normal(n)

    def f(x):
        return 0.5 * float(x @ (A @ x)) - float(b @ x), A @ x - b

    x_star = np.linalg.solve(A, b)
    return f, x_star


def rosenbrock(x):
    J = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return J, g


def test_config_validation():
    with pytest.raises(ValueError):
        LbfgsConfig(memory=0)
    with pytest.raises(ValueError):
        LbfgsConfig(c1=1.5)
    with pytest.raises(ValueError):
        StoppingRules(tol_J=0.0)


@pytest.mark.parametrize("kwargs", [
    {"initial_step": 0.0}, {"initial_step": -1.0}, {"initial_step": float("nan")},
    {"initial_step": float("inf")}, {"max_ls_steps": 0}, {"max_iterations": 0},
    {"max_iterations": -3},
])
def test_config_rejects_what_the_line_search_cannot_honour(kwargs):
    # initial_step=0 used to return the start point as "converged"
    with pytest.raises(ValueError):
        LbfgsConfig(**kwargs)


@pytest.mark.parametrize("eig_max", [1.5, 40.0])
def test_line_search_backtracks_from_initial_step_only(rng, eig_max):
    # every unit step passes Armijo on the well-scaled quadratic; the badly
    # scaled one makes some iterations backtrack
    n = 20
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * rng.uniform(0.5, eig_max, n)) @ Q.T
    b = rng.standard_normal(n)
    calls = []

    def f(x):
        calls.append(x)
        return 0.5 * float(x @ (A @ x)) - float(b @ x), A @ x - b

    cfg = LbfgsConfig()
    _, trace = lbfgs_minimize(f, np.zeros(n), cfg)
    assert trace.iterations >= 3
    assert len(calls) == 1 + sum(r.ls_evals for r in trace.records)
    for r in trace.records:
        k = r.ls_evals
        assert (cfg.initial_step * 0.1 ** (k - 1) <= r.step
                <= cfg.initial_step * cfg.step_shrink ** (k - 1))
        assert r.step <= cfg.initial_step
    if eig_max < 2:
        assert all(r.ls_evals == 1 for r in trace.records)
    else:
        assert any(r.ls_evals > 1 for r in trace.records)


def _recording(f):
    calls = []

    def wrapped(x):
        calls.append(x.copy())
        return f(x)
    return wrapped, calls


def test_backtrack_lands_on_the_minimizer_of_a_quadratic():
    # along d the objective is exactly the parabola that the line search
    # interpolates, so its second trial is the exact minimizer t* = g.g / g'Ag
    A = np.diag([2.0, 3.0, 5.0])
    x0 = np.array([1.0, -2.0, 0.5])
    f, calls = _recording(lambda x: (0.5 * float(x @ (A @ x)), A @ x))
    _, trace = lbfgs_minimize(f, x0, LbfgsConfig(max_iterations=1))
    g = A @ x0
    t_star = float(g @ g) / float(g @ (A @ g))
    assert 0.1 < t_star < 0.5  # the unit step overshoots
    r = trace.records[0]
    assert r.ls_evals == 2
    assert abs(r.step - t_star) <= 1e-12 * t_star
    assert np.allclose(calls[2], x0 - t_star * g, rtol=1e-12, atol=0)


def test_nonfinite_trial_shrinks_by_step_shrink():
    # J is linear inside the box |x|_inf < 0.7 and infinite outside it
    def boxed(x):
        if np.max(np.abs(x)) >= 0.7:
            return float("inf"), np.zeros_like(x)
        return -float(np.sum(x)), -np.ones_like(x)

    cfg = LbfgsConfig(step_shrink=0.3, max_iterations=1)
    f, calls = _recording(boxed)
    _, trace = lbfgs_minimize(f, np.zeros(3), cfg)
    assert trace.records[0].ls_evals == 2
    assert trace.records[0].step == cfg.step_shrink
    assert np.array_equal(calls[2], np.full(3, cfg.step_shrink))


def test_backtrack_is_at_least_a_tenth_of_the_rejected_step():
    # the parabola's minimizer t* = 1/50 lies below 0.1 * t for t = 1
    x0 = np.array([1.0, -1.0])
    f, calls = _recording(lambda x: (25.0 * float(x @ x), 50.0 * x))
    _, trace = lbfgs_minimize(f, x0, LbfgsConfig(max_iterations=1))
    d = -(50.0 * x0)
    assert np.array_equal(calls[1], x0 + 1.0 * d)
    assert np.array_equal(calls[2], x0 + 0.1 * d)
    assert trace.records[0].ls_evals == 3  # J(x0 + 0.1 d) > J(x0)


def test_two_loop_empty_history_is_steepest_descent(rng):
    g = rng.standard_normal(8)
    assert np.array_equal(two_loop_direction([], g), -g)


def test_two_loop_matches_closed_form_inverse(rng):
    # with a single (s, y) pair the implicit inverse Hessian is known in
    # closed form (BFGS update of gamma * I)
    n = 6
    s = rng.standard_normal(n)
    y = rng.standard_normal(n)
    if float(s @ y) < 0:
        y = -y
    g = rng.standard_normal(n)
    rho = 1.0 / float(s @ y)
    gamma = float(s @ y) / float(y @ y)
    V = np.eye(n) - rho * np.outer(y, s)
    H = V.T @ (gamma * np.eye(n)) @ V + rho * np.outer(s, s)
    d = two_loop_direction([(s, y)], g)
    assert np.allclose(d, -H @ g, atol=1e-12)


def test_quadratic_converges_to_solution(rng):
    f, x_star = quadratic_problem(rng)
    x, trace = lbfgs_minimize(f, np.zeros_like(x_star),
                              stop=StoppingRules(tol_grad=1e-8, tol_J=1e-16,
                                                 tol_step=1e-12))
    assert np.max(np.abs(x - x_star)) < 1e-6
    assert trace.iterations < 60


def test_rosenbrock_converges(rng):
    x0 = np.full(8, -1.2)
    x, trace = lbfgs_minimize(
        rosenbrock, x0,
        cfg=LbfgsConfig(max_iterations=300),
        stop=StoppingRules(tol_grad=1e-10, tol_J=1e-18, tol_step=1e-14),
    )
    assert np.max(np.abs(x - 1.0)) < 1e-5
    assert trace.stop_reason != "max iterations"


def test_stationary_start_returns_immediately():
    def f(x):
        return 0.0, np.zeros_like(x)

    x, trace = lbfgs_minimize(f, np.ones(4))
    assert trace.iterations == 0
    assert trace.stop_reason == "stationary start"


def test_monotone_decrease(rng):
    f, _ = quadratic_problem(rng, n=20)
    _, trace = lbfgs_minimize(f, rng.standard_normal(20))
    js = [r.J for r in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))


def test_line_search_failure_reported():
    # the "gradient" points away from descent, so every probe increases J
    # and backtracking must give up cleanly, returning the start point
    def f(x):
        return float(np.sum(x)), -np.ones_like(x)

    x, trace = lbfgs_minimize(f, np.ones(3), cfg=LbfgsConfig(max_ls_steps=5))
    assert trace.line_search_failed
    assert trace.stop_reason == "line search failed"
    assert np.array_equal(x, np.ones(3))


def test_respects_max_iterations(rng):
    f, _ = quadratic_problem(rng, n=30)
    _, trace = lbfgs_minimize(
        f, rng.standard_normal(30),
        cfg=LbfgsConfig(max_iterations=2),
        stop=StoppingRules(tol_grad=1e-16, tol_J=1e-18, tol_step=1e-16, min_iterations=1),
    )
    assert trace.iterations <= 2


_BLAS_PROBE = """
import numpy as np
from ngfreg.lbfgs import lbfgs_minimize
rng = np.random.default_rng(0)
d = rng.uniform(1.0, 100.0, 3 * 16**3)
b = rng.standard_normal(d.size)
x, _ = lbfgs_minimize(lambda x: (float(np.sum(0.5 * d * x * x - b * x)), d * x - b),
                      np.zeros_like(d))
print(x.tobytes().hex())
"""


def test_iterates_do_not_depend_on_blas_threads():
    # a BLAS dot product of a vector this long (a 16^3 deformation grid) is
    # split across the BLAS threads, which changes its last bits
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(ngfreg.__file__).parents[1]), env.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
