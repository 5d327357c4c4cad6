"""Sparse multilinear-style polynomial algebra over named variables.

A polynomial is a map from monomials to real coefficients.  A monomial is a
sorted tuple of variable names where repetition encodes the exponent, so
``c**2`` is ``("c", "c")`` and the empty tuple is the constant monomial.
Coefficients whose magnitude falls below ``COEFF_EPS`` are dropped after
every operation, which keeps the canonical form stable under float
round-off.

Polynomials are immutable values: every operation returns a new instance,
so they can be shared freely between threads.

This module holds algebra and text only.  A ``Comparison`` is plain data (a
left-hand side, an operator and a constant); whether it holds at a point is
decided by ``problem.ConstraintDecl.evaluate``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, Mapping

# Coefficients below this magnitude are treated as exact zeros.
COEFF_EPS = 1e-12

Monomial = tuple[str, ...]

COMPARISON_OPS = ("=", ">=", ">", "<=", "<")

# The largest exponent the parser accepts, and the largest degree a power or a product may reach
# (so nested powers and chained factors cannot multiply past it).  A degree-16 power of one encoded
# variable already expands to thousands of terms; larger exponents only make the parser run away.
MAX_EXPONENT = 16

# The most terms a power or a product of two sums may expand to, bounded before it is expanded: a
# ``t``-term base to the ``k`` has at most ``C(t + k - 1, k)`` terms, and a product at most its
# distinct monomials (``_product_terms``), so a short text of long sums cannot stall the parser.
MAX_POWER_TERMS = 10_000

# What the tokenizer reads as a variable name (declarations must match it whole) and as a number.
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
NUMBER = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"


class ParseError(ValueError):
    """Raised for malformed expression text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Polynomial:
    """Immutable sparse polynomial over named variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, float] | None = None):
        canonical: dict[Monomial, float] = {}
        if terms:
            for mono, coeff in terms.items():
                key = tuple(sorted(mono))
                value = canonical.get(key, 0.0) + coeff
                if abs(value) < COEFF_EPS:
                    canonical.pop(key, None)
                else:
                    canonical[key] = value
        self._terms = canonical

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: float) -> "Polynomial":
        return cls._wrap({} if abs(value) < COEFF_EPS else {(): float(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls._wrap({(name,): 1.0})

    @classmethod
    def _wrap(cls, canonical: dict[Monomial, float]) -> "Polynomial":
        """Take ownership of a term map that is already canonical, skipping the re-check."""
        poly = cls.__new__(cls)
        poly._terms = canonical
        return poly

    @property
    def terms(self) -> dict[Monomial, float]:
        """Copy of the term map; mutating it does not affect the polynomial."""
        return dict(self._terms)

    @property
    def constant_term(self) -> float:
        return self._terms.get((), 0.0)

    def degree(self) -> int:
        """Max multiplicity-sum over monomials; 0 for constants and zero."""
        return max((len(m) for m in self._terms), default=0)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for mono in self._terms:
            out.update(mono)
        return out

    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self) -> Iterator[tuple[Monomial, float]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial | float | int") -> "Polynomial":
        other = _as_poly(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, 0.0) + coeff
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | float | int") -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "Polynomial | float | int") -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "Polynomial | float | int") -> "Polynomial":
        if isinstance(other, (int, float)):
            return self.scale(other)
        out: dict[Monomial, float] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = tuple(sorted(ma + mb))
                out[mono] = out.get(mono, 0.0) + ca * cb
        return Polynomial._wrap({mono: coeff for mono, coeff in out.items() if not abs(coeff) < COEFF_EPS})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a non-negative integer, got {exponent!r}")
        result = Polynomial.constant(1.0)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial({m: c * factor for m, c in self._terms.items()})

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Evaluate at a point; every variable of the polynomial must be assigned."""
        total = 0.0
        for mono, coeff in self._terms.items():
            term = coeff
            for name in mono:
                if name not in assignment:
                    raise ValueError(f"no value assigned for variable '{name}'")
                term *= assignment[name]
            total += term
        return total

    def substitute(self, name: str, replacement: "Polynomial") -> "Polynomial":
        """Replace every occurrence of ``name`` (with its exponent) by a polynomial, one ``+`` per term."""
        result = Polynomial.zero()
        for mono, coeff in self._terms.items():
            rest = tuple(v for v in mono if v != name)
            result = result + Polynomial({rest: coeff}) * replacement ** (len(mono) - len(rest))
        return result

    # -- canonical text form -------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms by (degree desc, lexicographic), 12 significant digits.

        The output re-parses to an equal polynomial whenever the coefficients
        are representable at 12 significant digits.
        """
        if not self._terms:
            return "0"
        ordered = sorted(self._terms.items(), key=lambda kv: (-len(kv[0]), kv[0]))
        pieces: list[str] = []
        for index, (mono, coeff) in enumerate(ordered):
            sign = "-" if coeff < 0 else "+"
            magnitude = format_float(abs(coeff))
            if mono:
                var_part = "*".join(_monomial_factors(mono))
                body = var_part if magnitude == "1" else f"{magnitude}*{var_part}"
            else:
                body = magnitude
            if index == 0:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)


@dataclass(frozen=True)
class Comparison:
    """A polynomial compared against a constant: all variable terms on the lhs (data and text only)."""

    lhs: Polynomial
    op: str
    rhs: float

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def to_text(self) -> str:
        return f"{self.lhs.to_text()} {self.op} {format_float(self.rhs)}"


def format_float(value: float) -> str:
    """Format with up to 12 significant digits, trimming float noise."""
    text = f"{value:.12g}"
    return "0" if text == "-0" else text


def _monomial_factors(mono: Monomial) -> list[str]:
    factors = [(name, len(list(run))) for name, run in groupby(mono)]
    return [name if power == 1 else f"{name}**{power}" for name, power in factors]


def _as_poly(value: "Polynomial | float | int") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(float(value))


def _accumulate(out: dict[Monomial, float], mono: Monomial, coeff: float) -> None:
    """Add one term in place, dropping the monomial when its sum cancels below ``COEFF_EPS``.

    A dropped monomial that comes back is re-inserted at the end, as a chain
    of ``+`` would place it, so the term order matches too.
    """
    value = out.get(mono, 0.0) + coeff
    if abs(value) < COEFF_EPS:
        out.pop(mono, None)
    else:
        out[mono] = value


def reduce_binary_idempotence(poly: Polynomial, binary_vars: Iterable[str]) -> Polynomial:
    """Collapse exponents above 1 for the given 0/1 variables (b**k -> b)."""
    binary = set(binary_vars)
    out: dict[Monomial, float] = {}
    for mono, coeff in poly:
        seen: list[str] = []
        for name in mono:
            if name in binary and seen and seen[-1] == name:
                continue  # mono is sorted, duplicates are adjacent
            seen.append(name)
        key = tuple(seen)
        out[key] = out.get(key, 0.0) + coeff
    return Polynomial(out)


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<number>{NUMBER})
      | (?P<ident>{IDENTIFIER})
      | (?P<op>\*\*|<=|>=|==|[\^*+\-()/=<>])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def _number(token: tuple[str, str, int]) -> float:
    value = float(token[1])
    if not math.isfinite(value):
        raise ParseError(f"number {token[1]!r} is not finite", token[2])
    return value


def _finite(poly: Polynomial, operator: tuple[str, str, int], addend: Polynomial | None = None) -> Polynomial:
    """``poly`` when its coefficients are finite; else a ``ParseError`` at the operator that folded it.

    For a sum, only the monomials of ``addend`` can have changed, so only they are checked.
    """
    terms = poly._terms
    monomials = terms if addend is None else addend._terms
    if not all(math.isfinite(terms.get(mono, 0.0)) for mono in monomials):
        raise ParseError(f"the result of {operator[1]!r} is not finite", operator[2])
    return poly


def _product_terms(left: Polynomial, right: Polynomial) -> int:
    """A bound on the distinct monomials of ``left * right``, before expanding it.

    It is the smaller of ``len(left) * len(right)`` and the number of monomials
    over their ``v`` variables whose degree lies in the product's degree range
    ``[lo, hi]``: ``C(v + hi, hi) - C(v + lo - 1, lo - 1)``.  Seven sums of eight
    variables (degree 7 exactly) give ``C(14, 7) = 3432``, the terms they expand to.
    """
    if len(left) <= 1 or len(right) <= 1:
        return max(len(left), len(right))
    v = len(left.variables() | right.variables())
    lo = min(map(len, left._terms)) + min(map(len, right._terms))
    hi = left.degree() + right.degree()
    return min(len(left) * len(right), math.comb(v + hi, hi) - (math.comb(v + lo - 1, lo - 1) if lo else 0))


class _Parser:
    """Recursive-descent parser for +, -, *, **/^ and parentheses."""

    def __init__(self, tokens: list[tuple[str, str, int]], known_vars: set[str], length: int):
        self.tokens = tokens
        self.known = known_vars
        self.length = length
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_end(self):
        token = self.peek()
        if token is not None:
            raise ParseError(f"unexpected token {token[1]!r}", token[2])

    def parse_expr(self) -> Polynomial:
        """A sum of terms, each added in place into one private copy of the first (``_accumulate``)."""
        result = Polynomial._wrap(dict(self.parse_term()._terms))
        while True:
            token = self.peek()
            if token is None or token[1] not in ("+", "-"):
                return result
            self.advance()
            rhs = self.parse_term()
            for mono, coeff in rhs:
                _accumulate(result._terms, mono, coeff if token[1] == "+" else -coeff)
            _finite(result, token, rhs)

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            token = self.peek()
            if token is None:
                return result
            if token[1] == "*":
                self.advance()
                factor = self.parse_factor()
                degree = result.degree() + factor.degree()
                if degree > MAX_EXPONENT:
                    raise ParseError(f"a product of degree {degree} is above the largest accepted, {MAX_EXPONENT}", token[2])
                bound = _product_terms(result, factor)
                if bound > MAX_POWER_TERMS:
                    raise ParseError(
                        f"a product of {len(result)} and {len(factor)} terms can expand to "
                        f"{bound} terms, above the largest accepted, {MAX_POWER_TERMS}",
                        token[2],
                    )
                result = _finite(result * factor, token)
            elif token[1] == "/":
                raise ParseError("division is not supported; only polynomial expressions are accepted", token[2])
            else:
                return result

    def parse_factor(self) -> Polynomial:
        token = self.peek()
        if token is not None and token[1] in ("+", "-"):
            self.advance()
            inner = self.parse_factor()
            return inner if token[1] == "+" else -inner
        return self.parse_power()

    def parse_power(self) -> Polynomial:
        base = self.parse_atom()
        token = self.peek()
        if token is not None and token[1] in ("**", "^"):
            self.advance()
            exponent = self.parse_exponent()
            degree = base.degree() * exponent
            if degree > MAX_EXPONENT:
                raise ParseError(f"a power of degree {degree} is above the largest accepted, {MAX_EXPONENT}", token[2])
            bound = math.comb(max(len(base), 1) + exponent - 1, exponent)
            if bound > MAX_POWER_TERMS:
                raise ParseError(
                    f"a power of {len(base)} terms to the {exponent} can expand to {bound} terms, "
                    f"above the largest accepted, {MAX_POWER_TERMS}",
                    token[2],
                )
            return _finite(base**exponent, token)
        return base

    def parse_exponent(self) -> int:
        token = self.peek()
        if token is None:
            raise ParseError("missing exponent", self.length)
        if token[1] == "(":
            self.advance()
            value = self.parse_exponent()
            closing = self.peek()
            if closing is None or closing[1] != ")":
                raise ParseError("missing ')' after exponent", self.length if closing is None else closing[2])
            self.advance()
            return value
        sign = 1
        if token[1] in ("+", "-"):
            sign = -1 if token[1] == "-" else 1
            self.advance()
            token = self.peek()
            if token is None:
                raise ParseError("missing exponent", self.length)
        if token[0] != "number":
            raise ParseError(f"exponent must be an integer literal, got {token[1]!r}", token[2])
        self.advance()
        value = _number(token)
        if sign * value < 0 or value != int(value):
            raise ParseError(f"exponent must be a non-negative integer, got {sign * value:g}", token[2])
        if value > MAX_EXPONENT:
            raise ParseError(f"exponent {value:g} is above the largest accepted, {MAX_EXPONENT}", token[2])
        return int(value)

    def parse_atom(self) -> Polynomial:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression", self.length)
        kind, value, pos = token
        if kind == "number":
            self.advance()
            return Polynomial.constant(_number(token))
        if kind == "ident":
            self.advance()
            if value not in self.known:
                raise ParseError(f"unknown variable '{value}'", pos)
            return Polynomial.variable(value)
        if value == "(":
            self.advance()
            inner = self.parse_expr()
            closing = self.peek()
            if closing is None or closing[1] != ")":
                raise ParseError("missing ')'", self.length if closing is None else closing[2])
            self.advance()
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_expression(text: str, known_vars: Iterable[str]) -> Polynomial:
    """Parse an expression over +, -, *, **/^, parentheses, numbers and known variables.

    The result is canonical and expanded: evaluating it equals evaluating the
    original arithmetic for every assignment.
    """
    tokens = _tokenize(text)
    for kind, value, pos in tokens:
        if value in ("=", "==", "<", ">", "<=", ">="):
            raise ParseError(f"comparison operator {value!r} is not allowed in an expression", pos)
    parser = _Parser(tokens, set(known_vars), len(text))
    poly = parser.parse_expr()
    parser.expect_end()
    return poly


def parse_constraint(text: str, known_vars: Iterable[str]) -> Comparison:
    """Parse ``<expr> <op> <expr>`` into a Comparison with a constant rhs."""
    tokens = _tokenize(text)
    comparators = [(i, tok) for i, tok in enumerate(tokens) if tok[1] in ("=", "==", "<", ">", "<=", ">=")]
    if not comparators:
        raise ParseError("missing comparison operator", len(text))
    if len(comparators) > 1:
        raise ParseError("more than one comparison operator", comparators[1][1][2])
    split, (_, op_text, op_pos) = comparators[0]
    known = set(known_vars)
    left = _Parser(tokens[:split], known, op_pos)
    lhs = left.parse_expr()
    left.expect_end()
    right = _Parser(tokens[split + 1 :], known, len(text))
    rhs = right.parse_expr()
    right.expect_end()
    combined = _finite(lhs - rhs, comparators[0][1], rhs)
    constant = combined.constant_term
    op = "=" if op_text == "==" else op_text
    return Comparison(lhs=combined - constant, op=op, rhs=-constant)
