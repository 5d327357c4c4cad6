"""The numpy L-BFGS behind QAOA's angle search, on functions with known minimizers."""

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
