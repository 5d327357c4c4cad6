"""Translate declared variables into weighted binary variables plus offset.

Each plan is an affine map ``value = offset + sum(weight_k * bit_k)`` together
with any constraints the encoding itself induces (one-hot exclusivity for
dictionary encodings, monotone chains for domain-wall).  Binary names are
namespaced ``source#k`` so they stay globally unique.

Continuous encodings cover ``[low, high]`` on a grid of step ``precision``.
A stepped encoding takes its steps while each fits in what is left of the
range and ends on that residual, so the all-ones pattern decodes exactly to
``high`` (for domain-wall the residual leads the chain so that wall position
k keeps decoding to ``low + k * precision``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from qubo_forge.expression import Comparison, Polynomial
from qubo_forge.problem import COMPILE_BUDGET, GRID_TOL, ConstraintDecl, VariableDecl, VariableKind, check_encoding


def _clean(value: float) -> float:
    # Normalize float noise in a weight the encoder computes (3 * 0.2 -> 0.6) to 12 significant digits;
    # declared levels are kept exactly.
    return float(f"{value:.12g}")


@dataclass(frozen=True)
class EncodingPlan:
    """Affine binary encoding of one source variable."""

    source: str
    binaries: tuple[tuple[str, float], ...]
    offset: float
    induced: tuple[ConstraintDecl, ...] = ()

    def binary_names(self) -> list[str]:
        return [name for name, _ in self.binaries]

    def decode(self, bits: Mapping[str, int]) -> float:
        """offset + weighted bit sum; callers check ``encoding_valid`` separately."""
        total = self.offset
        for name, weight in self.binaries:
            if name not in bits:
                raise ValueError(f"missing bit '{name}' while decoding '{self.source}'")
            total += weight * bits[name]
        return total

    def encoding_valid(self, bits: Mapping[str, int]) -> bool:
        """Whether the bit pattern satisfies the encoding's induced constraints."""
        return all(decl.evaluate(bits)[0] for decl in self.induced)


def plan_for(source: str, weights: Sequence[float], offset: float, induced: str = "") -> EncodingPlan:
    """The plan ``offset + Σ weights[k]·source#k`` and the constraints its encoding induces.

    ``induced`` is ``"one-hot"`` (exactly one binary set, a dictionary) or ``"chain"`` (each binary at least
    the one before it, a domain wall); without it the encoding induces none.
    """
    names = [f"{source}#{k}" for k in range(len(weights))]
    if induced == "one-hot":
        constraints = [(Polynomial({(name,): 1.0 for name in names}), "=", 1.0, "one-hot")]
    elif induced == "chain":
        variable = Polynomial.variable
        constraints = [(variable(names[k]) - variable(names[k - 1]), ">=", 0.0, f"monotone #{k}") for k in range(1, len(names))]
    else:
        constraints = []
    decls = tuple(
        ConstraintDecl(comparison=Comparison(lhs, op, rhs), hardness="hard", label=f"encoding[{source}] {what}")
        for lhs, op, rhs, what in constraints
    )
    return EncodingPlan(source, tuple(zip(names, weights)), offset, decls)


def encode(decl: VariableDecl) -> EncodingPlan:
    """Build the encoding plan for a declared variable."""
    if decl.kind is VariableKind.BINARY:
        return plan_for(decl.name, [1.0], 0.0)
    if decl.kind is VariableKind.BIPOLAR:
        return plan_for(decl.name, [2.0], -1.0)
    if decl.kind is VariableKind.DISCRETE:
        return plan_for(decl.name, decl.levels, 0.0, "one-hot")
    return encode_range(
        decl.name,
        decl.low,
        decl.high,
        decl.precision,
        method=decl.encoding,
        base=decl.base,
        bound=decl.bound,
    )


def encode_range(
    source: str,
    low: float,
    high: float,
    precision: float,
    method: str = "logarithmic",
    base: int = 2,
    bound: float | None = None,
) -> EncodingPlan:
    """Encode a real interval ``[low, high]`` at the given precision.

    Also used for slack variables, which are just anonymous continuous
    ranges.
    """
    check_encoding(source, method, base, bound, precision)
    span = high - low
    if not span > 0:
        raise ValueError(f"empty range [{low}, {high}] for '{source}'")
    if precision > span + GRID_TOL:
        raise ValueError(f"precision {precision} exceeds range {span} for '{source}'")

    if method == "dictionary":
        weights = _grid(low, high, precision)
    elif method in ("unitary", "domain_wall"):
        # Equal steps in closed form (a running difference would lose digits); capped so a count past the
        # budget builds no more than one weight past it.
        count = max(1, math.ceil(min(span / precision, COMPILE_BUDGET + 1) - GRID_TOL))
        weights = [precision] * (count - 1) + [span - precision * (count - 1)]
    elif method == "logarithmic":
        weights = _fill(span, _powers(precision, base))
    elif method == "arithmetic":
        weights = _fill(span, (k * precision for k in itertools.count(1)))
    else:  # bounded coefficient
        weights = _fill(span, itertools.chain(_powers(precision, 2, bound), itertools.repeat(bound)))
    if len(weights) > COMPILE_BUDGET:
        budget = f"more binaries than the compile budget of {COMPILE_BUDGET}"
        raise ValueError(f"the {method} encoding of '{source}' at precision {precision} needs {budget}")
    weights = [_clean(weight) for weight in weights]
    if method == "dictionary":
        return plan_for(source, weights, 0.0, "one-hot")
    if method == "domain_wall":
        # Residual leads the chain: valid patterns are suffix-ones, so the
        # k-th wall (k ones, k < count) must sum plain precision steps.
        return plan_for(source, weights[::-1], low, "chain")
    return plan_for(source, weights, low)


def _fill(span: float, steps: Iterable[float]) -> list[float]:
    """Take ``steps`` while each fits in what is left of ``span``, then add what is left.  At most
    ``COMPILE_BUDGET`` steps are taken, so a plan past the budget ends one weight past it."""
    weights = []
    remaining = span
    for step in itertools.islice(steps, COMPILE_BUDGET):
        if not step < remaining - GRID_TOL:
            break
        weights.append(step)
        remaining -= step
    if remaining > GRID_TOL:
        weights.append(remaining)
    return weights


def _powers(precision: float, base: int, bound: float = math.inf) -> Iterable[float]:
    """``precision·base**j`` for j = 0, 1, … while at most ``bound``, each ``base - 1`` times: one binary per
    digit step keeps every grid multiple of the precision reachable (base 2: 1, 2, 4, …)."""
    step = precision
    while step <= bound + GRID_TOL:
        yield from itertools.repeat(step, base - 1)
        step *= base


def _grid(low: float, high: float, precision: float) -> list[float]:
    """The grid ``low + k·precision`` below ``high``, then ``high``; past the budget it ends one value past it."""
    values = []
    for k in range(COMPILE_BUDGET):
        if not low + k * precision < high - GRID_TOL:
            break
        values.append(low + k * precision)
    return values + [high]  # grid includes both endpoints
