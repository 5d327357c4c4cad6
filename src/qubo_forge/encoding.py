"""Translate declared variables into weighted binary variables plus offset.

Each plan is an affine map ``value = offset + sum(weight_k * bit_k)`` together
with any constraints the encoding itself induces (one-hot exclusivity for
dictionary encodings, monotone chains for domain-wall).  Binary names are
namespaced ``source#k`` so they stay globally unique.

Continuous encodings cover ``[low, high]`` on a grid of step ``precision``.
Where the chosen weight progression does not sum to the range exactly, a
final residual weight is appended so the all-ones pattern decodes exactly to
``high`` (for domain-wall the residual leads the chain so that wall position
k keeps decoding to ``low + k * precision``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from qubo_forge.expression import Comparison, Polynomial
from qubo_forge.problem import GRID_TOL, ConstraintDecl, VariableDecl, VariableKind, check_encoding


def _clean(value: float) -> float:
    # Normalize accumulated float noise (3 * 0.2 -> 0.6) to 12 significant digits.
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
    """The plan ``offset + Σ weights[k]·source#k``, each weight cleaned, and the constraints its encoding induces.

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
    return EncodingPlan(source, tuple(zip(names, map(_clean, weights))), offset, decls)


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
        return plan_for(source, _grid(low, high, precision), 0.0, "one-hot")
    if method in ("unitary", "domain_wall"):
        count = max(1, math.ceil(span / precision - GRID_TOL))
        weights = [precision] * (count - 1) + [span - precision * (count - 1)]
        if method == "domain_wall":
            # Residual leads the chain: valid patterns are suffix-ones, so the
            # k-th wall (k ones, k < count) must sum plain precision steps.
            return plan_for(source, weights[::-1], low, "chain")
    elif method == "logarithmic":
        weights = _log_weights(span, precision, base, cap=None)
    elif method == "arithmetic":
        weights = []
        partial = 0.0
        k = 1
        while partial + k * precision <= span + GRID_TOL:
            weights.append(k * precision)
            partial += k * precision
            k += 1
        if span - partial > GRID_TOL:
            weights.append(span - partial)
    else:  # bounded coefficient
        weights = _log_weights(span, precision, 2, cap=bound)
    return plan_for(source, weights, low)


def _log_weights(span: float, precision: float, base: int, cap: float | None) -> list[float]:
    """Geometric weights with a final residual so the sum hits span exactly.

    Each power of the base appears ``base - 1`` times (one binary per digit
    step), which keeps every grid multiple of the precision reachable; for
    base 2 this is the familiar 1, 2, 4, ... progression.  ``cap`` switches
    to repeated capped weights once the progression would exceed it.
    """
    weights: list[float] = []
    remaining = span
    step = precision
    while remaining > GRID_TOL:
        if cap is not None and step > cap + GRID_TOL:
            break
        copies = 0
        while copies < base - 1 and step < remaining - GRID_TOL:
            weights.append(step)
            remaining -= step
            copies += 1
        if copies < base - 1 and remaining > GRID_TOL:
            weights.append(remaining)
            remaining = 0.0
        step *= base
    if cap is not None:
        while remaining > cap + GRID_TOL:
            weights.append(cap)
            remaining -= cap
        if remaining > GRID_TOL:
            weights.append(remaining)
    return weights


def _grid(low: float, high: float, precision: float) -> list[float]:
    values = []
    k = 0
    while low + k * precision <= high + GRID_TOL:
        values.append(low + k * precision)
        k += 1
    if abs(values[-1] - high) > GRID_TOL:
        values.append(high)  # grid includes both endpoints
    else:
        values[-1] = high
    return values
