"""Seeded problem generators for the benchmark workloads.

``knapsack`` and ``mixed`` draw plain descriptions (coefficients as Python
numbers); the ``*_problem`` functions declare them through the public
``Problem`` API.  The descriptions are what the independent references in
``references.py`` read, so a reference never looks at a compiled model.

Coefficients are rounded to six decimals before they are written into
expression text, so the text round-trips through the parser exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

GRID_LOW, GRID_HIGH = -2.0, 2.0


@dataclass(frozen=True)
class Knapsack:
    profits: tuple[int, ...]
    weights: tuple[int, ...]
    capacity: int


@dataclass(frozen=True)
class Mixed:
    """Minimise ``sum_{i<=j} q_ij c_i c_j + sum_i t_i c_i c_{i+1} c_{i+2}`` s.t. ``sum c = 1``."""

    n: int
    step: float
    quadratic: tuple[tuple[int, int, float], ...]
    cubic: tuple[tuple[int, float], ...] = ()

    def names(self) -> list[str]:
        return [f"c_{i}" for i in range(self.n)]


def knapsack(rng: random.Random, items: int, slack_bits: int) -> Knapsack:
    """Profits U{1..49}, weights U{1..29}, capacity floor(sum w / 2).

    Draws are repeated until the capacity needs exactly ``slack_bits``
    logarithmic slack bits, so every seed compiles to the same model size
    and per-pass timings stay comparable across seeds.
    """
    while True:
        profits = tuple(rng.randint(1, 49) for _ in range(items))
        weights = tuple(rng.randint(1, 29) for _ in range(items))
        capacity = sum(weights) // 2
        if capacity.bit_length() == slack_bits:
            return Knapsack(profits, weights, capacity)


def mixed(rng: random.Random, n: int, step: float = 0.25, cubic: bool = False) -> Mixed:
    """Dense upper-triangular N(0,1) quadratic over ``n`` grid variables, optional cubic chain."""
    quadratic = tuple((i, j, round(rng.gauss(0.0, 1.0), 6)) for i in range(n) for j in range(i, n))
    chain = tuple((i, round(rng.gauss(0.0, 1.0), 6)) for i in range(n - 2)) if cubic else ()
    return Mixed(n=n, step=step, quadratic=quadratic, cubic=chain)


def knapsack_problem(spec: Knapsack):
    from qubo_forge import Problem

    problem = Problem()
    names = problem.add_binary_variables_array("obj", [len(spec.profits)])
    score = " + ".join(f"{p}*{name}" for p, name in zip(spec.profits, names))
    load = " + ".join(f"{w}*{name}" for w, name in zip(spec.weights, names))
    problem.add_objective(score, direction="maximize")
    problem.add_constraint(f"{load} <= {spec.capacity}")
    return problem.freeze()


def mixed_problem(spec: Mixed):
    from qubo_forge import Problem

    problem = Problem()
    names = problem.add_continuous_variables_array("c", [spec.n], GRID_LOW, GRID_HIGH, spec.step)
    terms = [f"{q!r}*{names[i]}*{names[j]}" for i, j, q in spec.quadratic]
    terms += [f"{t!r}*{names[i]}*{names[i + 1]}*{names[i + 2]}" for i, t in spec.cubic]
    problem.add_objective(" + ".join(terms))
    problem.add_constraint(f"{' + '.join(names)} = 1")
    return problem.freeze()


def readme_problem():
    """The README worked example; its optimum is -2 at a = 0, b = 3, c = -1."""
    from qubo_forge import Problem

    problem = Problem()
    problem.add_binary_variable("a")
    problem.add_discrete_variable("b", [-1, 1, 3])
    problem.add_continuous_variable("c", -2, 2, 0.25)
    problem.add_objective("a + b*c + c**2")
    problem.add_constraint("b + c >= 2")
    return problem.freeze()


def problem_json(problem) -> str:
    """Canonical problem-file text, as ``Problem.save`` writes it."""
    return json.dumps(problem.to_json_dict(), indent=2, sort_keys=True) + "\n"
