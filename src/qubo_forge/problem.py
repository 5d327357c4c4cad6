"""User-facing declaration of variables, objectives, and constraints.

A ``Problem`` collects variable declarations (binary, bipolar, discrete,
continuous, plus 1-D/2-D arrays of them), weighted minimize/maximize
objective terms, and hard/weak constraints.  Once built it is frozen and
becomes a read-only value that the compiler consumes.

Problems serialize to a versioned JSON document (schema
``qubo-forge-problem/1``) with expression strings for objectives and
constraints, so files round-trip through the parser.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from qubo_forge.expression import IDENTIFIER, Comparison, Polynomial, parse_constraint, parse_expression

PROBLEM_SCHEMA = "qubo-forge-problem/1"

BOOLEAN_KINDS = ("not", "and", "or", "xor")


class VariableKind(Enum):
    BINARY = "binary"
    BIPOLAR = "bipolar"
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class VariableDecl:
    """A declared variable; range fields are only set for the kinds that use them."""

    name: str
    kind: VariableKind
    levels: tuple[float, ...] | None = None
    low: float | None = None
    high: float | None = None
    precision: float | None = None
    encoding: str = "logarithmic"
    base: int = 2
    bound: float | None = None

    def domain_interval(self) -> tuple[float, float]:
        """Smallest interval containing every admissible value."""
        if self.kind is VariableKind.BINARY:
            return (0.0, 1.0)
        if self.kind is VariableKind.BIPOLAR:
            return (-1.0, 1.0)
        if self.kind is VariableKind.DISCRETE:
            return (min(self.levels), max(self.levels))
        return (self.low, self.high)


@dataclass(frozen=True)
class ObjectiveTerm:
    expr: Polynomial
    direction: str = "minimize"
    weight: float = 1.0

    def __post_init__(self):
        if self.direction not in ("minimize", "maximize"):
            raise ValueError(f"direction must be 'minimize' or 'maximize', got {self.direction!r}")
        if not (0 < self.weight < float("inf")):
            raise ValueError(f"objective weight must be finite and positive, got {self.weight!r}")


@dataclass(frozen=True)
class BooleanRelation:
    kind: str
    output: str
    inputs: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in BOOLEAN_KINDS:
            raise ValueError(f"boolean relation must be one of {BOOLEAN_KINDS}, got {self.kind!r}")
        arity = 1 if self.kind == "not" else 2
        if len(self.inputs) != arity:
            raise ValueError(f"boolean '{self.kind}' takes {arity} input(s), got {len(self.inputs)}")

    def truth(self, values: dict[str, float]) -> bool:
        bits = [int(round(values[name])) for name in self.inputs]
        out = int(round(values[self.output]))
        if self.kind == "not":
            expected = 1 - bits[0]
        elif self.kind == "and":
            expected = bits[0] & bits[1]
        elif self.kind == "or":
            expected = bits[0] | bits[1]
        else:
            expected = bits[0] ^ bits[1]
        return out == expected


@dataclass(frozen=True)
class ConstraintDecl:
    """Either a comparison or a boolean relation, with a hardness tag."""

    comparison: Comparison | None = None
    boolean: BooleanRelation | None = None
    hardness: str = "hard"
    slack_precision: float | None = None
    label: str = ""

    def __post_init__(self):
        if (self.comparison is None) == (self.boolean is None):
            raise ValueError("constraint must hold exactly one of a comparison or a boolean relation")
        if self.hardness not in ("hard", "weak"):
            raise ValueError(f"hardness must be 'hard' or 'weak', got {self.hardness!r}")
        if self.slack_precision is not None and not 0 < self.slack_precision < math.inf:
            raise ValueError(f"slack_precision must be finite and positive when given, got {self.slack_precision!r}")

    def variables(self) -> set[str]:
        if self.comparison is not None:
            return self.comparison.lhs.variables()
        return {self.boolean.output, *self.boolean.inputs}

    def evaluate(self, values: Mapping[str, float]) -> tuple[bool, float]:
        """``(satisfied, residual)``: a boolean relation's truth, or the comparison on the exact
        left-hand side (a non-strict one holds iff ``residual <= expression.FEASIBILITY_TOL``)."""
        if self.boolean is not None:
            satisfied = self.boolean.truth(values)
            return satisfied, 0.0 if satisfied else 1.0
        value = self.comparison.lhs.evaluate(values)
        return self.comparison.holds(value), self.comparison.violation(value)

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.comparison is not None:
            return self.comparison.to_text()
        rel = self.boolean
        return f"{rel.output} = {rel.kind}({', '.join(rel.inputs)})"


class Problem:
    """Mutable builder for a declared problem; ``freeze()`` locks it for compilation."""

    def __init__(self):
        self._variables: dict[str, VariableDecl] = {}
        self.objectives: list[ObjectiveTerm] = []
        self.constraints: list[ConstraintDecl] = []
        # Optional solver defaults carried by the problem file; CLI flags override.
        self.solver_defaults: dict[str, Any] = {}
        self._frozen = False

    # -- variable declaration --------------------------------------------

    @property
    def variables(self) -> list[VariableDecl]:
        return list(self._variables.values())

    @property
    def frozen(self) -> bool:
        return self._frozen

    def variable(self, name: str) -> VariableDecl:
        return self._variables[name]

    def variable_names(self) -> set[str]:
        return set(self._variables)

    def _register(self, decl: VariableDecl) -> str:
        if self._frozen:
            raise ValueError("problem is frozen; no further declarations allowed")
        if decl.name in self._variables:
            raise ValueError(f"variable '{decl.name}' already declared")
        if not re.fullmatch(IDENTIFIER, decl.name):
            raise ValueError(f"invalid variable name {decl.name!r}: names must match {IDENTIFIER}")
        if decl.name.startswith("__"):
            raise ValueError("names starting with '__' are reserved for slack/auxiliary binaries")
        self._variables[decl.name] = decl
        return decl.name

    def add_binary_variable(self, name: str) -> str:
        return self._register(VariableDecl(name=name, kind=VariableKind.BINARY))

    def add_bipolar_variable(self, name: str) -> str:
        return self._register(VariableDecl(name=name, kind=VariableKind.BIPOLAR))

    def add_discrete_variable(self, name: str, levels: Sequence[float]) -> str:
        levels = tuple(float(v) for v in levels)
        if not levels:
            raise ValueError("discrete variable needs at least one level")
        if not all(math.isfinite(v) for v in levels):
            raise ValueError(f"discrete variable '{name}' needs finite levels, got {levels}")
        if len(set(levels)) != len(levels):
            raise ValueError("discrete levels must be distinct")
        return self._register(VariableDecl(name=name, kind=VariableKind.DISCRETE, levels=levels))

    def add_continuous_variable(
        self,
        name: str,
        low: float,
        high: float,
        precision: float,
        encoding: str = "logarithmic",
        base: int = 2,
        bound: float | None = None,
    ) -> str:
        low, high, precision = float(low), float(high), float(precision)
        if not all(math.isfinite(v) for v in (low, high, precision)) or (bound is not None and not math.isfinite(bound)):
            raise ValueError(
                f"continuous variable '{name}' needs finite low, high, precision and bound, "
                f"got low={low}, high={high}, precision={precision}, bound={bound}"
            )
        if not low < high:
            raise ValueError(f"continuous variable '{name}' needs low < high, got [{low}, {high}]")
        if not 0 < precision <= high - low:
            raise ValueError(f"precision must be in (0, high - low], got {precision}")
        return self._register(
            VariableDecl(
                name=name,
                kind=VariableKind.CONTINUOUS,
                low=low,
                high=high,
                precision=precision,
                encoding=encoding,
                base=base,
                bound=bound,
            )
        )

    def _array_names(self, name: str, shape: Sequence[int]) -> list:
        if len(shape) not in (1, 2) or any(int(s) <= 0 for s in shape):
            raise ValueError("arrays must be 1-D or 2-D with positive extents")
        if len(shape) == 1:
            return [f"{name}_{i}" for i in range(int(shape[0]))]
        return [[f"{name}_{i}_{j}" for j in range(int(shape[1]))] for i in range(int(shape[0]))]

    def add_binary_variables_array(self, name: str, shape: Sequence[int]) -> list:
        names = self._array_names(name, shape)
        for flat in _flatten(names):
            self.add_binary_variable(flat)
        return names

    def add_bipolar_variables_array(self, name: str, shape: Sequence[int]) -> list:
        names = self._array_names(name, shape)
        for flat in _flatten(names):
            self.add_bipolar_variable(flat)
        return names

    def add_discrete_variables_array(self, name: str, shape: Sequence[int], levels: Sequence[float]) -> list:
        names = self._array_names(name, shape)
        for flat in _flatten(names):
            self.add_discrete_variable(flat, levels)
        return names

    def add_continuous_variables_array(
        self,
        name: str,
        shape: Sequence[int],
        low: float,
        high: float,
        precision: float,
        encoding: str = "logarithmic",
        base: int = 2,
        bound: float | None = None,
    ) -> list:
        names = self._array_names(name, shape)
        for flat in _flatten(names):
            self.add_continuous_variable(flat, low, high, precision, encoding, base, bound)
        return names

    # -- objectives and constraints ----------------------------------------

    def add_objective(self, expr: str | Polynomial, direction: str = "minimize", weight: float = 1.0) -> None:
        if self._frozen:
            raise ValueError("problem is frozen")
        if isinstance(expr, str):
            expr = parse_expression(expr, self.variable_names())
        else:
            self._check_declared(expr.variables(), "objective")
        _check_finite(expr, "objective")
        self.objectives.append(ObjectiveTerm(expr=expr, direction=direction, weight=float(weight)))

    def add_constraint(
        self,
        constraint: str | Comparison,
        hardness: str = "hard",
        slack_precision: float | None = None,
    ) -> None:
        if self._frozen:
            raise ValueError("problem is frozen")
        if isinstance(constraint, str):
            comparison = parse_constraint(constraint, self.variable_names())
        else:
            comparison = constraint
            self._check_declared(comparison.lhs.variables(), "constraint")
        _check_finite(comparison.lhs, "constraint")
        if not math.isfinite(comparison.rhs):
            raise ValueError(f"constraint right-hand side must be finite, got {comparison.rhs!r}")
        self.constraints.append(
            ConstraintDecl(comparison=comparison, hardness=hardness, slack_precision=slack_precision)
        )

    def add_boolean_constraint(self, kind: str, output: str, inputs: Sequence[str], hardness: str = "hard") -> None:
        if self._frozen:
            raise ValueError("problem is frozen")
        relation = BooleanRelation(kind=kind, output=output, inputs=tuple(inputs))
        names = {relation.output, *relation.inputs}
        self._check_declared(names, "boolean constraint")
        for name in sorted(names):
            if self._variables[name].kind is not VariableKind.BINARY:
                raise ValueError(f"boolean constraints require unipolar binary variables; '{name}' is not")
        self.constraints.append(ConstraintDecl(boolean=relation, hardness=hardness))

    def _check_declared(self, names: Iterable[str], where: str) -> None:
        unknown = sorted(set(names) - self.variable_names())
        if unknown:
            raise ValueError(f"{where} uses undeclared variable(s): {', '.join(unknown)}")

    # -- validation and freezing ---------------------------------------------

    def validate(self) -> None:
        if not self.objectives:
            raise ValueError("problem needs at least one objective")
        for term in self.objectives:
            self._check_declared(term.expr.variables(), "objective")
        for decl in self.constraints:
            self._check_declared(decl.variables(), "constraint")

    def freeze(self) -> "Problem":
        """Validate and lock the problem; frozen problems are shareable read-only."""
        self.validate()
        self._frozen = True
        return self

    # -- JSON problem file ------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        variables = []
        for decl in self._variables.values():
            entry: dict[str, Any] = {"name": decl.name, "kind": decl.kind.value}
            if decl.kind is VariableKind.DISCRETE:
                entry["levels"] = list(decl.levels)
            elif decl.kind is VariableKind.CONTINUOUS:
                entry.update(low=decl.low, high=decl.high, precision=decl.precision, encoding=decl.encoding)
                if decl.encoding == "logarithmic" and decl.base != 2:
                    entry["base"] = decl.base
                if decl.bound is not None:
                    entry["bound"] = decl.bound
            variables.append(entry)
        objectives = [
            {"expression": term.expr.to_text(), "direction": term.direction, "weight": term.weight}
            for term in self.objectives
        ]
        constraints = []
        for decl in self.constraints:
            entry: dict[str, Any] = {"hardness": decl.hardness}
            if decl.comparison is not None:
                entry["comparison"] = decl.comparison.to_text()
                if decl.slack_precision is not None:
                    entry["slack_precision"] = decl.slack_precision
            else:
                rel = decl.boolean
                entry["boolean"] = {"kind": rel.kind, "output": rel.output, "inputs": list(rel.inputs)}
            constraints.append(entry)
        data = {
            "schema": PROBLEM_SCHEMA,
            "variables": variables,
            "objectives": objectives,
            "constraints": constraints,
        }
        if self.solver_defaults:
            data["solver"] = dict(self.solver_defaults)
        return data

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "Problem":
        schema = data.get("schema")
        if schema != PROBLEM_SCHEMA:
            raise ValueError(f"unsupported problem schema {schema!r}; expected {PROBLEM_SCHEMA!r}")
        problem = cls()
        for entry in data.get("variables", []):
            kind = entry["kind"]
            if kind == "binary":
                problem.add_binary_variable(entry["name"])
            elif kind == "bipolar":
                problem.add_bipolar_variable(entry["name"])
            elif kind == "discrete":
                problem.add_discrete_variable(entry["name"], entry["levels"])
            elif kind == "continuous":
                problem.add_continuous_variable(
                    entry["name"],
                    entry["low"],
                    entry["high"],
                    entry["precision"],
                    encoding=entry.get("encoding", "logarithmic"),
                    base=entry.get("base", 2),
                    bound=entry.get("bound"),
                )
            else:
                raise ValueError(f"unknown variable kind {kind!r}")
        for entry in data.get("objectives", []):
            problem.add_objective(
                entry["expression"],
                direction=entry.get("direction", "minimize"),
                weight=entry.get("weight", 1.0),
            )
        for entry in data.get("constraints", []):
            if "comparison" in entry:
                problem.add_constraint(
                    entry["comparison"],
                    hardness=entry.get("hardness", "hard"),
                    slack_precision=entry.get("slack_precision"),
                )
            elif "boolean" in entry:
                rel = entry["boolean"]
                problem.add_boolean_constraint(
                    rel["kind"], rel["output"], rel["inputs"], hardness=entry.get("hardness", "hard")
                )
            else:
                raise ValueError("constraint entry needs 'comparison' or 'boolean'")
        solver = data.get("solver", {})
        if not isinstance(solver, dict):
            raise ValueError("'solver' section must be an object of option defaults")
        problem.solver_defaults = dict(solver)
        return problem

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Problem":
        """Read a problem file; the result is frozen (a file is a finished declaration)."""
        return cls.from_json_dict(json.loads(Path(path).read_text())).freeze()


def _check_finite(poly: Polynomial, where: str) -> None:
    for mono, coeff in poly:
        if not math.isfinite(coeff):
            raise ValueError(f"{where} has a non-finite coefficient {coeff!r} on {'*'.join(mono) or 'the constant'}")


def _flatten(names: list) -> Iterable[str]:
    for item in names:
        if isinstance(item, list):
            yield from item
        else:
            yield item
