"""Reference answers and output checks that never call the compiler.

Each reference reads the declared problem from the generator's own
description (or the bundled data file) and answers two questions about a
decoded sample: is it feasible for the *declared* problem, and what is its
objective in minimisation sense.  Optima come from a numpy dynamic
programme or brute force over the declared grid.  The library's own
``analysis`` feasibility checks are deliberately not used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from generators import GRID_HIGH, GRID_LOW, Knapsack, Mixed

TOL = 1e-9


def _on_grid(value: float, low: float, high: float, step: float) -> bool:
    k = (value - low) / step
    return low - TOL <= value <= high + TOL and abs(k - round(k)) <= 1e-7


def _product(levels: np.ndarray, n: int) -> np.ndarray:
    """Every combination of ``n`` values from ``levels``, one per row."""
    return np.stack(np.meshgrid(*[levels] * n, indexing="ij"), axis=-1).reshape(-1, n)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class KnapsackRef:
    spec: Knapsack

    @property
    def optimum(self) -> float:
        """Best total profit by a 0/1 knapsack DP over capacities, as a (negative) energy."""
        best = np.zeros(self.spec.capacity + 1, dtype=np.int64)
        for profit, weight in zip(self.spec.profits, self.spec.weights):
            if weight <= self.spec.capacity:
                best[weight:] = np.maximum(best[weight:], best[:-weight] + profit)
        return -float(best[-1])

    def evaluate(self, decoded: dict[str, float]) -> tuple[bool, float]:
        picks = [decoded[f"obj_{i}"] for i in range(len(self.spec.profits))]
        if any(p not in (0.0, 1.0) for p in picks):
            return False, math.nan
        load = sum(w * p for w, p in zip(self.spec.weights, picks))
        return load <= self.spec.capacity, -float(sum(q * p for q, p in zip(self.spec.profits, picks)))


@dataclass(frozen=True)
class MixedRef:
    spec: Mixed

    def objective(self, values: np.ndarray) -> np.ndarray:
        """Declared objective on rows of variable values (numpy, no Polynomial)."""
        values = np.atleast_2d(values)
        total = np.zeros(len(values))
        for i, j, q in self.spec.quadratic:
            total += q * values[:, i] * values[:, j]
        for i, t in self.spec.cubic:
            total += t * values[:, i] * values[:, i + 1] * values[:, i + 2]
        return total

    @property
    def optimum(self) -> float | None:
        """Brute force over the declared grid when it is small enough (the cubic job).

        One block per value of the first variable keeps the arrays small, so
        the check does not set the workload's peak memory.
        """
        levels = np.arange(GRID_LOW, GRID_HIGH + self.spec.step / 2, self.spec.step)
        if len(levels) ** self.spec.n > 2_000_000:
            return None
        rest = _product(levels, self.spec.n - 1)
        best = np.inf
        for first in levels:
            grid = np.hstack([np.full((len(rest), 1), first), rest])
            feasible = grid[np.abs(grid.sum(axis=1) - 1.0) <= TOL]
            if len(feasible):
                best = min(best, float(self.objective(feasible).min()))
        return best

    def evaluate(self, decoded: dict[str, float]) -> tuple[bool, float]:
        values = np.array([decoded[name] for name in self.spec.names()])
        on_grid = all(_on_grid(v, GRID_LOW, GRID_HIGH, self.spec.step) for v in values)
        feasible = on_grid and abs(values.sum() - 1.0) <= TOL
        return feasible, float(self.objective(values)[0])

    def energy_identity_error(self, model, assignment: dict[str, int]) -> float:
        """|energy(x) - (objective(decode(x)) + lambda * (sum c - 1)^2)| with auxiliaries made consistent."""
        x = dict(assignment)
        for (left, right), aux in model.aux_registry.items():  # creation order: pairs may name earlier auxiliaries
            x[aux] = x[left] * x[right]
        decoded = model.decode(x)
        values = np.array([decoded[name] for name in self.spec.names()])
        (block,) = model.penalties
        expected = float(self.objective(values)[0]) + block.lam * (values.sum() - 1.0) ** 2
        return abs(model.energy(x) - expected)


class ReadmeRef:
    """minimise a + b*c + c**2, s.t. b + c >= 2, a binary, b in {-1, 1, 3}, c on [-2, 2] step 0.25."""

    OPTIMUM = -2.0  # at a = 0, b = 3, c = -1 (README and PAPER)
    C_STEP = 0.25

    @property
    def optimum(self) -> float:
        best = min(
            a + b * c + c * c
            for a in (0, 1)
            for b in (-1, 1, 3)
            for c in np.arange(-2.0, 2.0 + self.C_STEP / 2, self.C_STEP)
            if b + c >= 2 - TOL
        )
        if not close(best, self.OPTIMUM):
            raise AssertionError(f"README brute force gives {best}, documented {self.OPTIMUM}")
        return best

    def evaluate(self, decoded: dict[str, float]) -> tuple[bool, float]:
        a, b, c = decoded["a"], decoded["b"], decoded["c"]
        feasible = a in (0.0, 1.0) and b in (-1.0, 1.0, 3.0) and _on_grid(c, -2.0, 2.0, self.C_STEP)
        return feasible and b + c >= 2 - TOL, a + b * c + c * c


@dataclass(frozen=True)
class IrisRef:
    """Least squares ||X w - y||^2 (X with a trailing ones column) over a weight grid."""

    x: np.ndarray
    y: np.ndarray
    low: float
    high: float
    step: float

    @classmethod
    def from_csv(cls, path: Path, low: float, high: float, step: float) -> "IrisRef":
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        x = np.hstack([data[:, :-1], np.ones((len(data), 1))])
        return cls(x, data[:, -1], low, high, step)

    def names(self) -> list[str]:
        return [f"w_{i}" for i in range(self.x.shape[1])]

    def sse(self, w: np.ndarray) -> np.ndarray:
        residual = np.atleast_2d(w) @ self.x.T - self.y
        return (residual**2).sum(axis=1)

    @property
    def optimum(self) -> float:
        levels = np.arange(self.low, self.high + self.step / 2, self.step)
        grid = _product(levels, self.x.shape[1])
        return float(self.sse(grid).min())

    def evaluate(self, decoded: dict[str, float]) -> tuple[bool, float]:
        w = np.array([decoded[name] for name in self.names()])
        feasible = all(_on_grid(v, self.low, self.high, self.step) for v in w)
        return feasible, float(self.sse(w)[0])


def knapsack_from_file(path: Path) -> Knapsack:
    """Read an ``N W`` / ``p w`` instance file without the library's loader."""
    rows = [line.split() for line in path.read_text().splitlines() if line.strip()]
    n, capacity = int(rows[0][0]), int(float(rows[0][1]))
    return Knapsack(
        profits=tuple(int(float(p)) for p, _ in rows[1 : n + 1]),
        weights=tuple(int(float(w)) for _, w in rows[1 : n + 1]),
        capacity=capacity,
    )


@dataclass
class Quality:
    """Independent verdict on one job's samples."""

    samples: int
    feasible: int
    best: float | None  # best feasible objective, minimisation sense
    errors: list[str]

    def gap(self, optimum: float | None) -> float | None:
        """(E_best - E_ref) / |E_ref|; a job with no feasible sample counts as 1.0."""
        if optimum is None:
            return None
        if self.best is None:
            return 1.0
        return (self.best - optimum) / abs(optimum)


def judge(reference, decoded_samples: list[dict[str, float]], optimum: float | None) -> Quality:
    """Feasibility and objective of every sample; no feasible sample may beat the optimum."""
    errors: list[str] = []
    feasible_values = []
    for decoded in decoded_samples:
        feasible, value = reference.evaluate(decoded)
        if feasible:
            feasible_values.append(value)
    best = min(feasible_values) if feasible_values else None
    if best is not None and optimum is not None and best < optimum - TOL * max(1.0, abs(optimum)):
        errors.append(f"feasible sample {best} beats the reference optimum {optimum}")
    return Quality(len(decoded_samples), len(feasible_values), best, errors)


def sample_energy_errors(model, samples) -> list[str]:
    """Every reported sample energy must equal ``model.energy`` of its assignment."""
    errors = []
    for assignment, energy in samples:
        expected = model.energy(assignment)
        if not close(energy, expected):
            errors.append(f"sample energy {energy} != model.energy {expected}")
            break
    return errors


def json_model_energy(model_json: dict, assignment: dict[str, int]) -> float:
    """Energy of a binary assignment from the exported model file's term lists."""
    total = model_json["offset"]
    for name, coeff in model_json["linear"]:
        total += coeff * assignment[name]
    for left, right, coeff in model_json["quadratic"]:
        total += coeff * assignment[left] * assignment[right]
    return total
