"""The numpy L-BFGS behind QAOA's angle search, on functions with known minimizers."""

import math

import numpy as np
import pytest

from qubo_forge import lbfgs


def quadratic(a: np.ndarray, b: np.ndarray):
    """``½xᵀAx − bᵀx`` and its gradient; the minimizer solves ``Ax = b``."""
    return lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)


def rosenbrock(x: np.ndarray) -> tuple[float, np.ndarray]:
    u, v = x
    value = 100.0 * (v - u**2) ** 2 + (1.0 - u) ** 2
    gradient = np.array([-400.0 * u * (v - u**2) - 2.0 * (1.0 - u), 200.0 * (v - u**2)])
    return value, gradient


def cusp(a: float):
    """``√|x − a| − √a`` in one variable: near its minimizer ``a`` the slope is unbounded, so steps there miss
    the curvature condition."""

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        t = x[0] - a
        return math.sqrt(abs(t)) - math.sqrt(a), np.array([math.copysign(0.5 / math.sqrt(abs(t)), t) if t else 0.0])

    return fun


def kinked(x: np.ndarray) -> tuple[float, np.ndarray]:
    """``Σ|x| + |x|²/100``: the slope jumps by 2 at 0."""
    return float(np.abs(x).sum() + 0.01 * x @ x), np.sign(x) + 0.02 * x


def counted(fun):
    points = []

    def wrapped(x):
        points.append(x.copy())
        return fun(x)

    return wrapped, points


def test_convex_quadratic_reaches_its_minimizer():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    a, b = m @ m.T + 6 * np.eye(6), rng.normal(size=6)
    result = lbfgs.lbfgs(quadratic(a, b), np.zeros(6), 100)
    assert result.success
    np.testing.assert_allclose(result.x, np.linalg.solve(a, b), rtol=0, atol=1e-6)


def test_rosenbrock_from_the_classic_start():
    fun, points = counted(rosenbrock)
    result = lbfgs.lbfgs(fun, np.array([-1.2, 1.0]), 400)
    assert result.success and result.fun < 1e-10
    assert result.nfev == len(points) and result.nit <= result.nfev
    assert result.fun == rosenbrock(result.x)[0]


@pytest.mark.parametrize("start", [(-1.2, 1.0), (2.0, -1.0), (0.0, 3.0)])
def test_every_accepted_step_meets_the_strong_wolfe_conditions(start, monkeypatch):
    searches = []
    search = lbfgs._line_search

    def checked(along, f0, g0, stp):
        trials = []

        def recording(step):
            trials.append((step, *along(step)))
            return trials[-1][1:]

        accepted = search(recording, f0, g0, stp)
        searches.append((f0, g0, accepted, trials))
        return accepted

    monkeypatch.setattr(lbfgs, "_line_search", checked)
    assert lbfgs.lbfgs(rosenbrock, np.array(start), 400).success
    assert len(searches) > 10
    for f0, g0, accepted, trials in searches:
        step, f, g = trials[-1]
        assert accepted == step  # the search ends on its last trial
        assert f <= f0 + 1e-3 * step * g0
        assert abs(g) <= 0.9 * abs(g0)


def test_stationary_start_returns_after_one_evaluation():
    fun, points = counted(quadratic(np.eye(3), np.array([1.0, -2.0, 0.5])))
    result = lbfgs.lbfgs(fun, np.array([1.0, -2.0, 0.5]), 100)
    assert (result.fun, result.success, result.nfev, result.nit, len(points)) == (-2.625, True, 1, 0, 1)


def test_iteration_cap_reports_no_convergence():
    result = lbfgs.lbfgs(rosenbrock, np.array([-1.2, 1.0]), 3)
    assert (result.success, result.nit) == (False, 3)
    assert result.fun < rosenbrock(np.array([-1.2, 1.0]))[0]


@pytest.mark.parametrize(
    "fun, x0, path",
    [
        # stage 1 steps on the modified function; a bracketed step flips gamma's sign (``stp > sty``)
        (cusp(0.5), 0.0, (88, 8, True)),
        # a search spends its 20 evaluations, the memory is emptied, and the restart from -g converges
        (kinked, 3.4, (86, 6, True)),
        # a search fails, so does the restart's, and the memory is already empty: not converged
        (cusp(0.75), 0.0, (88, 4, False)),
    ],
)
def test_line_search_corner_cases_follow_scipy_lbfgs_b(fun, x0, path):
    ours = lbfgs.lbfgs(fun, np.array([x0]), 50)
    assert (ours.nfev, ours.nit, ours.success) == path
    assert ours.fun == fun(ours.x)[0]
    optimize = pytest.importorskip("scipy.optimize")
    theirs = optimize.minimize(fun, np.array([x0]), jac=True, method="L-BFGS-B", options={"maxiter": 50})
    assert (theirs.nfev, theirs.nit, theirs.success) == path
    np.testing.assert_allclose(ours.x, theirs.x, rtol=0, atol=1e-15)
    if theirs.success:  # after a failed search scipy returns the restored x but the last trial's value
        assert ours.fun == pytest.approx(theirs.fun, rel=0, abs=1e-15)
