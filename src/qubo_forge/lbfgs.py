"""Limited-memory BFGS for a smooth function of unbounded variables, in numpy.

``lbfgs`` follows the path that L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995;
version 3.0 by Morales & Nocedal, 2011) takes when no variable has a bound:

- **Direction.** The two-loop recursion over the last ``_MEMORY`` pairs
  ``(s, y)`` (Nocedal & Wright, *Numerical Optimization*, Algorithm 7.4),
  starting from ``H0 = (sᵀy / yᵀy)·I`` of the newest pair.  While the memory
  is empty the direction is ``-g``.
- **Step.** ``_line_search`` ports ``dcsrch`` and ``dcstep`` of MINPACK-2
  (Moré & Thuente, *Line search algorithms with guaranteed sufficient
  decrease*, ACM TOMS 20, 1994) with L-BFGS-B's settings.  The first trial
  step is ``min(1/‖d‖, _STPMAX)`` on the first iteration and 1 after it.
- **Memory.** A pair is kept only when ``sᵀy > ε·stp·(−gᵀd)``.  A failed
  line search, or a direction that does not descend, restores the point,
  empties the memory and starts again from ``-g``; with the memory already
  empty the search stops, not converged.
- **Stop.** Converged when ``max|g| <= _PGTOL`` (also at the start) or when
  ``f_old − f <= _FACTR·max(|f_old|, |f|, 1)``; not converged after
  ``max_iters`` iterations.

A point asked for twice in a row is evaluated once, so ``nfev`` counts the
distinct evaluations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MEMORY = 10  # (s, y) pairs kept
_FTOL, _GTOL, _XTOL = 1e-3, 0.9, 0.1  # sufficient decrease, curvature, relative width of the bracket
_STPMAX = 1e10  # the smallest step is 0
_MAX_EVALS = 20  # evaluations per line search
_PGTOL = 1e-5  # gradient stop: the largest |g_i|
_FACTR = 2.2204460492503131e-09  # relative-decrease stop
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LbfgsResult:
    x: np.ndarray
    fun: float
    success: bool  # a stop rule was met, not the iteration cap or a failed line search
    nfev: int
    nit: int


def lbfgs(fun: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray, max_iters: int) -> LbfgsResult:
    """Minimize ``fun``, which returns the value and the gradient at a point, from ``x0``."""
    nfev = 0
    last: tuple[np.ndarray, float, np.ndarray] | None = None  # the latest evaluation

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        nonlocal nfev, last
        if last is None or not np.array_equal(x, last[0]):
            value, gradient = fun(x)
            nfev += 1
            last = (x, float(value), np.asarray(gradient, dtype=float))
        return last

    x, f, g = evaluate(np.array(x0, dtype=float))
    if np.max(np.abs(g)) <= _PGTOL:
        return LbfgsResult(x, f, True, nfev, 0)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_MEMORY)  # (s, y, sᵀy)
    nit = 0
    while True:
        z = x + _direction(g, pairs)
        d = z - x  # L-BFGS-B's rounding: it forms d from z and tries z itself at step 1
        slope = float(g @ d)
        stp = None
        if slope < 0:
            first = min(1.0 / float(np.linalg.norm(d)), _STPMAX) if nit == 0 else 1.0

            def along(step: float) -> tuple[float, float]:
                _, value, gradient = evaluate(z if step == 1.0 else x + step * d)
                return value, float(gradient @ d)

            stp = _line_search(along, f, slope, first)
        if stp is None:
            if not pairs:
                return LbfgsResult(x, f, False, nfev, nit)
            pairs.clear()
            continue

        nit += 1
        f_old, g_old = f, g
        x, f, g = last  # the search ends on the point it evaluated last
        if nit >= max_iters:
            return LbfgsResult(x, f, False, nfev, nit)
        if np.max(np.abs(g)) <= _PGTOL or f_old - f <= _FACTR * max(abs(f_old), abs(f), 1.0):
            return LbfgsResult(x, f, True, nfev, nit)
        sy = (float(g @ d) - slope) * stp
        if sy > _EPS * (-slope * stp):
            pairs.append((stp * d, g - g_old, sy))


def _direction(g: np.ndarray, pairs: deque) -> np.ndarray:
    """``-H·g`` by the two-loop recursion, with ``ρ = 1/sᵀy`` per pair; ``-g`` with no pairs."""
    d = -g
    alphas = []
    for s, y, sy in reversed(pairs):
        alpha = (1.0 / sy) * (s @ d)
        d = d - alpha * y
        alphas.append(alpha)
    if pairs:
        _, y, sy = pairs[-1]
        d = d * (sy / (y @ y))
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        d = d + (alpha - (1.0 / sy) * (y @ d)) * s
    return d


def _line_search(along: Callable[[float], tuple[float, float]], f0: float, g0: float, stp: float) -> float | None:
    """MINPACK-2 ``dcsrch``: a step meeting the strong Wolfe conditions along one direction.

    ``along(stp)`` evaluates the function and its directional derivative at
    step ``stp``; ``f0`` and ``g0 < 0`` are those at step 0.  Returns the step
    evaluated last once it meets ``f <= f0 + _FTOL·stp·g0`` and
    ``|g| <= _GTOL·|g0|``, or once ``dcsrch`` warns that it cannot do better
    (the bracket is narrower than ``_XTOL`` or rounding stalls it, or the step
    is at a bound).  Returns None after ``_MAX_EVALS`` evaluations without
    either.
    """
    gtest = _FTOL * g0
    stx = sty = 0.0  # stx: the step with the least value so far; [stx, sty] brackets a minimizer once brackt
    fx = fy = f0
    gx = gy = g0
    brackt, stage = False, 1
    width = _STPMAX
    width1 = 2.0 * width
    stmin, stmax = 0.0, stp + 4.0 * stp
    for _ in range(_MAX_EVALS):
        f, g = along(stp)
        ftest = f0 + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if (
            (f <= ftest and abs(g) <= _GTOL * -g0)
            or (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax))
            or (stp == _STPMAX and f <= ftest and g <= gtest)
            or (stp == 0.0 and (f > ftest or g >= gtest))
        ):
            return stp
        if stage == 1 and f <= fx and f > ftest:
            # Step on the modified function ψ(stp) = f(stp) − f0 − _FTOL·stp·g0 until ψ ≤ 0 with ψ' ≥ 0.
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax,
            )  # fmt: skip
            fx, fy, gx, gy = fxm + stx * gtest, fym + sty * gtest, gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax)
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:  # the bracket shrank too slowly: bisect it
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax):
            stp = stx  # no better trial can be told apart from stx
    return None


def _sqrt(value: float) -> float:
    return math.sqrt(value) if value >= 0 else math.nan


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2 ``dcstep``: a safeguarded trial step, and the bracket updated with ``(stp, fp, dp)``.

    The four cases of Moré & Thuente (1994): a higher value brackets a
    minimizer (cubic or quadratic fit, nearer to stx); derivatives of opposite
    signs bracket one (cubic or secant, the farther); a smaller derivative of
    the same sign extrapolates, kept inside the bracket or the step bounds;
    a larger one steps to the cubic minimizer in the bracket, or to a bound.
    """
    opposite = dx < 0 < dp or dp < 0 < dx
    if fp > fx:
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * _sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif brackt:
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * _sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
