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

import inspect
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from qubo_forge.expression import IDENTIFIER, Comparison, Polynomial, parse_constraint, parse_expression, unwrap_scalar

PROBLEM_SCHEMA = "qubo-forge-problem/1"

BOOLEAN_KINDS = ("not", "and", "or", "xor")

CONTINUOUS_ENCODINGS = ("dictionary", "logarithmic", "unitary", "arithmetic", "domain_wall", "bounded")

# How far two values on a declared grid (ranges, steps, sums of weights, bounds) may differ and still count
# as equal: the float tolerance of the encoder and of the compiler's slack, link and λ-step tests.
GRID_TOL = 1e-9

# The most binaries one variable's encoding may need, the most binary terms an objective or a constraint may
# expand to, and the most pair entries (one per pair of binaries in a monomial of degree >= 3) quadratization
# may index, auxiliaries counted too; each count is known before its work.  Over three 5-bit variables,
# (c0+c1+c2)**6 expands to at most 28,672 terms and indexes 114,660 pairs (about 0.5 s); **7 would index
# 249,795 and **10 expand to 319,332.
COMPILE_BUDGET = 150_000


class ProblemFileError(ValueError):
    """A problem file whose JSON does not have the documented shape; ``path`` names the place."""

    def __init__(self, path: str, message: str):
        super().__init__(f"problem file: {path}: {message}")
        self.path = path


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
    encoding: str | None = None
    base: int | None = None
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


def check_encoding(source: str, method: str, base: int, bound: float | None, precision: float) -> None:
    """Refuse a continuous encoding that cannot be built.

    That is an unknown method, a logarithmic base that is not an integer or is below 2, or a bounded-coefficient
    encoding without its bound or with one below the precision.  Declarations check it, and so does
    ``encoding.encode_range``.
    """
    if method not in CONTINUOUS_ENCODINGS:
        raise ValueError(f"unknown continuous encoding {method!r}; expected one of {CONTINUOUS_ENCODINGS}")
    if method == "logarithmic" and not isinstance(base, (int, np.integer)):
        raise ValueError(f"logarithmic base must be an integer, got {base!r}")
    if method == "logarithmic" and base < 2:
        raise ValueError(f"logarithmic base must be >= 2, got {base}")
    if method == "bounded" and bound is None:
        raise ValueError(f"bounded-coefficient encoding of '{source}' needs a coefficient bound")
    if method == "bounded" and bound < precision - GRID_TOL:
        raise ValueError(f"coefficient bound {bound} is below the precision {precision}")


@dataclass(frozen=True)
class ObjectiveTerm:
    expr: Polynomial
    direction: str
    weight: float

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

    def truth(self, values: Mapping[str, float]) -> bool:
        """Whether the output matches the gate; values may be arrays (one entry per row)."""
        bits = [np.rint(values[name]).astype(int) for name in self.inputs]
        out = np.rint(values[self.output]).astype(int)
        if self.kind == "not":
            expected = 1 - bits[0]
        elif self.kind == "and":
            expected = bits[0] & bits[1]
        elif self.kind == "or":
            expected = bits[0] | bits[1]
        else:
            expected = bits[0] ^ bits[1]
        return unwrap_scalar(out == expected)


@dataclass(frozen=True)
class ConstraintDecl:
    """Either a comparison or a boolean relation, with a hardness tag."""

    hardness: str
    comparison: Comparison | None = None
    boolean: BooleanRelation | None = None
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
        left-hand side (a non-strict one holds iff ``residual <= expression.FEASIBILITY_TOL``).

        Each value may be a column array (one entry per assignment); the results are then
        arrays too.  Scalar values give a Python ``bool`` and ``float``.
        """
        if self.boolean is not None:
            satisfied = self.boolean.truth(values)
            return satisfied, unwrap_scalar(np.where(satisfied, 0.0, 1.0))
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
        check_encoding(name, encoding, base, bound, precision)
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

    def _add_array(self, add: Callable[..., str], name: str, shape: Sequence[int], *args: Any, **kwargs: Any) -> list:
        """Declare ``name_i`` (1-D) or ``name_i_j`` (2-D) through ``add``; return the names in the array's shape."""
        if len(shape) not in (1, 2) or any(int(s) <= 0 for s in shape):
            raise ValueError("arrays must be 1-D or 2-D with positive extents")
        if len(shape) == 1:
            return [add(f"{name}_{i}", *args, **kwargs) for i in range(int(shape[0]))]
        return [[add(f"{name}_{i}_{j}", *args, **kwargs) for j in range(int(shape[1]))] for i in range(int(shape[0]))]

    def add_binary_variables_array(self, name: str, shape: Sequence[int]) -> list:
        return self._add_array(self.add_binary_variable, name, shape)

    def add_bipolar_variables_array(self, name: str, shape: Sequence[int]) -> list:
        return self._add_array(self.add_bipolar_variable, name, shape)

    def add_discrete_variables_array(self, name: str, shape: Sequence[int], levels: Sequence[float]) -> list:
        return self._add_array(self.add_discrete_variable, name, shape, levels)

    def add_continuous_variables_array(
        self, name: str, shape: Sequence[int], low: float, high: float, precision: float, **encoding: Any
    ) -> list:
        """``encoding`` takes the keyword options of ``add_continuous_variable``."""
        return self._add_array(self.add_continuous_variable, name, shape, low, high, precision, **encoding)

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
        default_base = inspect.signature(self.add_continuous_variable).parameters["base"].default  # omitted when unchanged
        variables = []
        for decl in self._variables.values():
            entry: dict[str, Any] = {"name": decl.name, "kind": decl.kind.value}
            if decl.kind is VariableKind.DISCRETE:
                entry["levels"] = list(decl.levels)
            elif decl.kind is VariableKind.CONTINUOUS:
                entry.update(low=decl.low, high=decl.high, precision=decl.precision, encoding=decl.encoding)
                if decl.encoding == "logarithmic" and decl.base != default_base:
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
        """Build a problem from a parsed problem file through its builders; the shape is checked first."""
        data = _check_problem_file(data)
        problem = cls()
        for entry in data["variables"]:
            getattr(problem, f"add_{entry['kind']}_variable")(entry["name"], **_without(entry, "name", "kind"))
        for entry in data["objectives"]:
            problem.add_objective(entry["expression"], **_without(entry, "expression"))
        for entry in data["constraints"]:
            if "comparison" in entry:
                problem.add_constraint(entry["comparison"], **_without(entry, "comparison"))
            else:
                problem.add_boolean_constraint(**entry["boolean"], **_without(entry, "boolean"))
        problem.solver_defaults = dict(data["solver"])
        return problem

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Problem":
        """Read a problem file; the result is frozen (a file is a finished declaration)."""
        return cls.from_json_dict(json.loads(Path(path).read_text())).freeze()


# -- problem-file shape ------------------------------------------------------------

# The JSON types a problem file's fields may take, by the names its error messages use.
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "number": (int, float),
    "integer": (int,),
    "number or null": (int, float, type(None)),
    "boolean": (bool,),
}
_TOP_LEVEL_FIELDS = {
    "schema": "string",
    "variables": "array",
    "objectives": "array",
    "constraints": "array",
    "solver": "object",
}
_VARIABLE_FIELDS = {
    "name": "string",
    "kind": "string",
    "levels": "array",
    "low": "number",
    "high": "number",
    "precision": "number",
    "encoding": "string",
    "base": "integer",
    "bound": "number or null",
}
# The keys each variable kind takes besides name and kind, as (required, optional); it refuses the rest.
_KIND_FIELDS = {
    "binary": ((), ()),
    "bipolar": ((), ()),
    "discrete": (("levels",), ()),
    "continuous": (("low", "high", "precision"), ("encoding", "base", "bound")),
}
_OBJECTIVE_FIELDS = {"expression": "string", "direction": "string", "weight": "number"}
_CONSTRAINT_FIELDS = {
    "comparison": "string",
    "boolean": "object",
    "hardness": "string",
    "slack_precision": "number or null",
}
# The keys each constraint kind (the one of "comparison" and "boolean" it holds) takes besides its own.
_CONSTRAINT_KIND_FIELDS = {"comparison": ("hardness", "slack_precision"), "boolean": ("hardness",)}
_BOOLEAN_FIELDS = {"kind": "string", "output": "string", "inputs": "array"}
_EMPTY_SECTIONS = {"variables": [], "objectives": [], "constraints": [], "solver": {}}


def _check_problem_file(data: Any) -> dict[str, Any]:
    """Check a parsed problem file's keys and JSON types; raise ``ProblemFileError`` naming the path.

    Returns the file with every absent section empty.
    """
    _expect(data, "object", "top level")
    schema = data.get("schema")
    if schema != PROBLEM_SCHEMA:
        raise ProblemFileError("schema", f"unsupported problem schema {schema!r}; expected {PROBLEM_SCHEMA!r}")
    for key, value in data.items():
        if key not in _TOP_LEVEL_FIELDS:
            raise ProblemFileError(key, "unknown key")
        _expect(value, _TOP_LEVEL_FIELDS[key], key)
    data = _EMPTY_SECTIONS | data
    for index, entry in enumerate(data["variables"]):
        path = f"variables[{index}]"
        _check_fields(entry, path, _VARIABLE_FIELDS, ("name", "kind"))
        kind = entry["kind"]
        if kind not in _KIND_FIELDS:
            raise ProblemFileError(f"{path}.kind", f"unknown variable kind {kind!r}")
        required, optional = _KIND_FIELDS[kind]
        _require(entry, path, required)
        _refuse_other_keys(entry, path, ("name", "kind", *required, *optional), f"{kind} variable")
        for position, level in enumerate(entry.get("levels", [])):
            _expect(level, "number", f"{path}.levels[{position}]")
    for index, entry in enumerate(data["objectives"]):
        _check_fields(entry, f"objectives[{index}]", _OBJECTIVE_FIELDS, ("expression",))
    for index, entry in enumerate(data["constraints"]):
        path = f"constraints[{index}]"
        _check_fields(entry, path, _CONSTRAINT_FIELDS, ())
        if ("comparison" in entry) == ("boolean" in entry):
            raise ProblemFileError(path, "needs exactly one of 'comparison' or 'boolean'")
        kind = "comparison" if "comparison" in entry else "boolean"
        _refuse_other_keys(entry, path, (kind, *_CONSTRAINT_KIND_FIELDS[kind]), f"{kind} constraint")
        if kind == "boolean":
            _check_fields(entry["boolean"], f"{path}.boolean", _BOOLEAN_FIELDS, tuple(_BOOLEAN_FIELDS))
            for position, name in enumerate(entry["boolean"]["inputs"]):
                _expect(name, "string", f"{path}.boolean.inputs[{position}]")
    return data


def _check_fields(entry: Any, path: str, fields: dict[str, str], required: Sequence[str]) -> None:
    _expect(entry, "object", path)
    _require(entry, path, required)
    for key, value in entry.items():
        if key not in fields:
            raise ProblemFileError(f"{path}.{key}", "unknown key")
        _expect(value, fields[key], f"{path}.{key}")


def _refuse_other_keys(entry: dict, path: str, allowed: Sequence[str], what: str) -> None:
    for key in entry:
        if key not in allowed:
            raise ProblemFileError(f"{path}.{key}", f"not a key of a {what}")


def _require(entry: dict, path: str, keys: Sequence[str]) -> None:
    for key in keys:
        if key not in entry:
            raise ProblemFileError(f"{path}.{key}", "missing")


def _expect(value: Any, kind: str, path: str) -> None:
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind]):
        raise ProblemFileError(path, f"expected {kind}, got {_json_type(value)}")


def _json_type(value: Any) -> str:
    names = (
        (bool, "boolean"),  # before "number": a JSON true is a Python int too
        (type(None), "null"),
        ((int, float), "number"),
        (str, "string"),
        (list, "array"),
        (dict, "object"),
    )
    return next((name for kind, name in names if isinstance(value, kind)), type(value).__name__)


def _check_finite(poly: Polynomial, where: str) -> None:
    for mono, coeff in poly:
        if not math.isfinite(coeff):
            raise ValueError(f"{where} has a non-finite coefficient {coeff!r} on {'*'.join(mono) or 'the constant'}")


def _without(entry: dict[str, Any], *keys: str) -> dict[str, Any]:
    return {key: value for key, value in entry.items() if key not in keys}
