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
from typing import Mapping

from qubo_forge.expression import Comparison, Polynomial
from qubo_forge.problem import ConstraintDecl, VariableDecl, VariableKind

_EPS = 1e-9

CONTINUOUS_ENCODINGS = ("dictionary", "logarithmic", "unitary", "arithmetic", "domain_wall", "bounded")


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

    def affine(self) -> Polynomial:
        """The encoding as a polynomial over its binary variables."""
        terms: dict[tuple[str, ...], float] = {(name,): weight for name, weight in self.binaries}
        if self.offset:
            terms[()] = self.offset
        return Polynomial(terms)

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


def encode(decl: VariableDecl) -> EncodingPlan:
    """Build the encoding plan for a declared variable."""
    if decl.kind is VariableKind.BINARY:
        return EncodingPlan(source=decl.name, binaries=((f"{decl.name}#0", 1.0),), offset=0.0)
    if decl.kind is VariableKind.BIPOLAR:
        return EncodingPlan(source=decl.name, binaries=((f"{decl.name}#0", 2.0),), offset=-1.0)
    if decl.kind is VariableKind.DISCRETE:
        return _dictionary_plan(decl.name, list(decl.levels), offset=0.0)
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
    if method not in CONTINUOUS_ENCODINGS:
        raise ValueError(f"unknown continuous encoding {method!r}; expected one of {CONTINUOUS_ENCODINGS}")
    span = high - low
    if not span > 0:
        raise ValueError(f"empty range [{low}, {high}] for '{source}'")
    if precision > span + _EPS:
        raise ValueError(f"precision {precision} exceeds range {span} for '{source}'")

    if method == "dictionary":
        values = _grid(low, high, precision)
        return _dictionary_plan(source, values, offset=0.0)

    if method == "logarithmic":
        if base < 2:
            raise ValueError(f"logarithmic base must be >= 2, got {base}")
        weights = _log_weights(span, precision, base, cap=None)
    elif method == "unitary":
        count = max(1, math.ceil(span / precision - _EPS))
        weights = [precision] * (count - 1)
        weights.append(span - precision * (count - 1))
    elif method == "arithmetic":
        weights = []
        partial = 0.0
        k = 1
        while partial + k * precision <= span + _EPS:
            weights.append(k * precision)
            partial += k * precision
            k += 1
        if span - partial > _EPS:
            weights.append(span - partial)
    elif method == "domain_wall":
        count = max(1, math.ceil(span / precision - _EPS))
        # Residual leads the chain: valid patterns are suffix-ones, so the
        # k-th wall (k ones, k < count) must sum plain precision steps.
        weights = [span - precision * (count - 1)] + [precision] * (count - 1)
        names = [f"{source}#{k}" for k in range(count)]
        induced = tuple(
            ConstraintDecl(
                comparison=Comparison(
                    lhs=Polynomial.variable(names[k]) - Polynomial.variable(names[k - 1]),
                    op=">=",
                    rhs=0.0,
                ),
                hardness="hard",
                label=f"encoding[{source}] monotone #{k}",
            )
            for k in range(1, count)
        )
        binaries = tuple(zip(names, (_clean(w) for w in weights)))
        return EncodingPlan(source=source, binaries=binaries, offset=low, induced=induced)
    else:  # bounded coefficient
        if bound is None:
            raise ValueError(f"bounded-coefficient encoding of '{source}' needs a coefficient bound")
        if bound < precision - _EPS:
            raise ValueError(f"coefficient bound {bound} is below the precision {precision}")
        weights = _log_weights(span, precision, 2, cap=bound)

    binaries = tuple((f"{source}#{k}", _clean(w)) for k, w in enumerate(weights))
    return EncodingPlan(source=source, binaries=binaries, offset=low)


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
    while remaining > _EPS:
        if cap is not None and step > cap + _EPS:
            break
        copies = 0
        while copies < base - 1 and step < remaining - _EPS:
            weights.append(step)
            remaining -= step
            copies += 1
        if copies < base - 1 and remaining > _EPS:
            weights.append(remaining)
            remaining = 0.0
        step *= base
    if cap is not None:
        while remaining > cap + _EPS:
            weights.append(cap)
            remaining -= cap
        if remaining > _EPS:
            weights.append(remaining)
    return weights


def _grid(low: float, high: float, precision: float) -> list[float]:
    values = []
    k = 0
    while low + k * precision <= high + _EPS:
        values.append(_clean(low + k * precision))
        k += 1
    if abs(values[-1] - high) > _EPS:
        values.append(high)  # grid includes both endpoints
    else:
        values[-1] = high
    return values


def _dictionary_plan(source: str, values: list[float], offset: float) -> EncodingPlan:
    names = [f"{source}#{k}" for k in range(len(values))]
    one_hot = ConstraintDecl(
        comparison=Comparison(
            lhs=Polynomial({(name,): 1.0 for name in names}),
            op="=",
            rhs=1.0,
        ),
        hardness="hard",
        label=f"encoding[{source}] one-hot",
    )
    return EncodingPlan(
        source=source,
        binaries=tuple(zip(names, (_clean(v) for v in values))),
        offset=offset,
        induced=(one_hot,),
    )
