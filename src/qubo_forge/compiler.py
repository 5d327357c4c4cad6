"""Assemble a solver-ready QUBO from a frozen problem.

The pipeline: substitute every declared variable by its binary encoding,
aggregate the weighted objectives (maximize terms flip sign), turn each
constraint (user-declared plus encoding-induced) into a quadratic penalty,
estimate a penalty weight for each, and reduce the total polynomial to
degree two with auxiliary binaries where needed.

Penalty weights are estimated on the composed objective *before*
quadratization, so they do not depend on auxiliary bookkeeping.  The model
keeps that λ-free objective, so ``QuboModel.with_lambdas`` can weigh the same
penalty blocks again, through the same function, without recompiling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from qubo_forge.encoding import EncodingPlan, encode, encode_range
from qubo_forge.expression import Comparison, Polynomial, format_float, reduce_binary_idempotence, sum_polynomials
from qubo_forge.problem import BooleanRelation, ConstraintDecl, Problem, VariableKind

MODEL_SCHEMA = "qubo-forge-model/1"

LAMBDA_METHODS = ("ub-positive", "mqc", "vlm", "momc", "moc", "ub-naive", "ub-posiform", "manual")

_EPS = 1e-9

WEAK_MULTIPLIER = 0.3  # an estimated λ of a weak constraint is scaled by this; a hard one's is not

_TERM_CHUNK = 2**15  # QuboArrays.energies builds at most this many terms (256 KB of floats) at a time


@dataclass
class CompileConfig:
    """How penalty weights are chosen: an estimation method, or one manual value for every block."""

    lambda_method: str = "vlm"
    manual_lambdas: float | None = None

    def __post_init__(self):
        if self.lambda_method not in LAMBDA_METHODS:
            raise ValueError(f"unknown lambda method {self.lambda_method!r}; expected one of {LAMBDA_METHODS}")
        if self.lambda_method == "manual" and self.manual_lambdas is None:
            raise ValueError("manual lambda method needs manual_lambdas")
        if self.manual_lambdas is not None:
            if not math.isfinite(self.manual_lambdas):
                raise ValueError(f"manual_lambdas must be finite, got {self.manual_lambdas!r}")
            if not self.manual_lambdas > 0:
                raise ValueError("manual lambda values must be positive")


@dataclass(frozen=True)
class PenaltyBlock:
    """One constraint's quadratic penalty: zero iff satisfied (best slack/aux choice)."""

    constraint: ConstraintDecl
    penalty: Polynomial
    lam: float
    slack_plan: EncodingPlan | None = None

    @property
    def label(self) -> str:
        return self.constraint.describe()

    @property
    def hardness(self) -> str:
        return self.constraint.hardness


@dataclass(frozen=True)
class QuboArrays:
    """A compiled QUBO as arrays: ``E(x) = linear·x + Σ values·x[rows]·x[cols] + offset``.

    ``order`` names the binary at each position (sorted); couplers keep the
    polynomial's term order, with ``rows < cols``.
    """

    order: tuple[str, ...]
    linear: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    offset: float

    @classmethod
    def from_model(cls, model: "QuboModel") -> "QuboArrays":
        names: set[str] = set(model.aux_registry.values()) | model.quadratic.variables()
        for plan in model.encodings:
            names.update(plan.binary_names())
        for block in model.penalties:
            if block.slack_plan is not None:
                names.update(block.slack_plan.binary_names())
        order = tuple(sorted(names))
        position = {name: k for k, name in enumerate(order)}
        linear = np.zeros(len(order))
        couplers: list[tuple[int, int, float]] = []
        for mono, coeff in model.quadratic:
            if len(mono) == 1:
                linear[position[mono[0]]] = coeff
            elif len(mono) == 2 and mono[0] != mono[1]:
                couplers.append((position[mono[0]], position[mono[1]], coeff))
            else:
                raise ValueError(f"QUBO term {mono} is neither linear nor a product of two distinct binaries")
        rows, cols = np.array([pair[:2] for pair in couplers], dtype=np.int64).reshape(-1, 2).T
        return cls(order, linear, rows, cols, np.array([pair[2] for pair in couplers]), model.offset)

    def entries(self) -> list[tuple[int, int, float]]:
        """Upper-triangular ``(row, col, value)`` entries by position, linear terms on the diagonal."""
        diagonal = [(i, i, coeff) for i, coeff in enumerate(self.linear.tolist()) if coeff]
        return sorted(diagonal + list(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist())))

    def upper_triangular(self) -> np.ndarray:
        """Dense ``Q`` with the linear terms on its diagonal: ``E(x) = xᵀQx + offset``."""
        q = np.diag(self.linear)
        q[self.rows, self.cols] = self.values
        return q

    def energy(self, x: np.ndarray) -> float:
        """The energy of one assignment vector; see ``energies``."""
        return self.energies(np.asarray(x)[None, :])[0]

    def energies(self, bits: np.ndarray) -> list[float]:
        """Energy of each row of a ``k × n`` matrix: the correctly rounded sum of its terms.

        The rows' terms form a ``k × (n + m + 1)`` matrix, built ``_TERM_CHUNK``
        entries at a time.  Its exact zeros are dropped (they cannot change a
        correctly rounded sum), and ``math.fsum`` runs on each row's slice of
        one flat list, so term order cannot change a result.
        """
        bits = np.asarray(bits, dtype=float)
        n, m = len(self.linear), len(self.values)
        energies: list[float] = []
        step = max(1, _TERM_CHUNK // (n + m + 1))
        for start in range(0, len(bits), step):
            x = bits[start : start + step]
            terms = np.empty((len(x), n + m + 1))
            np.multiply(self.linear, x, out=terms[:, :n])
            couplers = terms[:, n : n + m]
            np.take(x, self.rows, axis=1, out=couplers)
            np.multiply(self.values, couplers, out=couplers)  # values * x[rows] * x[cols], in that order
            couplers *= x[:, self.cols]
            terms[:, n + m] = self.offset
            nonzero = terms != 0.0
            flat = terms[nonzero].tolist()
            ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
            energies.extend(math.fsum(flat[begin:end]) for begin, end in zip([0, *ends], ends))
        return energies


@dataclass
class QuboModel:
    """Degree-<=2 polynomial over binaries plus the metadata to decode and audit it (read-only)."""

    quadratic: Polynomial
    offset: float
    encodings: list[EncodingPlan]
    penalties: list[PenaltyBlock]
    aux_registry: dict[tuple[str, str], str] = field(default_factory=dict)
    cost: Polynomial | None = None  # the λ-free objective that with_lambdas re-weights; None unless compiled

    @cached_property
    def arrays(self) -> QuboArrays:
        return QuboArrays.from_model(self)

    def binary_variables(self) -> list[str]:
        return list(self.arrays.order)

    def energy(self, assignment: dict[str, int]) -> float:
        try:
            x = np.array([assignment[name] for name in self.arrays.order], dtype=float)
        except KeyError as error:
            raise ValueError(f"no value assigned for variable '{error.args[0]}'") from None
        return self.arrays.energy(x)

    def decode(self, assignment: dict[str, int]) -> dict[str, float]:
        """Recover the declared variables' values from a binary assignment."""
        return {plan.source: plan.decode(assignment) for plan in self.encodings}

    def lambdas(self) -> list[float]:
        return [block.lam for block in self.penalties]

    def with_lambdas(self, lambdas: Sequence[float]) -> "QuboModel":
        """The same compiled model with one new λ per penalty block, without recompiling."""
        if self.cost is None:
            raise ValueError("with_lambdas needs a compiled model (one with a cost)")
        if len(lambdas) != len(self.penalties):
            raise ValueError(
                f"with_lambdas needs {len(self.penalties)} values (user + encoding-induced constraints), got {len(lambdas)}"
            )
        if not all(math.isfinite(v) for v in lambdas):
            raise ValueError(f"lambdas must be finite, got {list(lambdas)!r}")
        if not all(v > 0 for v in lambdas):
            raise ValueError("lambda values must be positive")
        blocks = [replace(block, lam=float(lam)) for block, lam in zip(self.penalties, lambdas)]
        return _weigh(self.cost, self.encodings, blocks)

    # -- export -------------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        order, entries = self.arrays.order, self.arrays.entries()
        linear = [[order[i], coeff] for i, j, coeff in entries if i == j]
        quad = [[order[i], order[j], coeff] for i, j, coeff in entries if i != j]

        def plan_dict(plan: EncodingPlan) -> dict[str, Any]:
            return {
                "source": plan.source,
                "binaries": [[name, weight] for name, weight in plan.binaries],
                "offset": plan.offset,
                "induced": [decl.describe() for decl in plan.induced],
            }

        return {
            "schema": MODEL_SCHEMA,
            "variables": list(order),
            "linear": linear,
            "quadratic": quad,
            "offset": self.offset,
            "encodings": [plan_dict(plan) for plan in self.encodings],
            "penalties": [
                {
                    "constraint": index,
                    "label": block.label,
                    "lambda": block.lam,
                    "hardness": block.hardness,
                    "slack": plan_dict(block.slack_plan) if block.slack_plan is not None else None,
                }
                for index, block in enumerate(self.penalties)
            ],
            "aux_registry": [[pair[0], pair[1], aux] for pair, aux in sorted(self.aux_registry.items())],
        }

    def to_matrix_text(self) -> str:
        """Upper-triangular QUBO matrix, one ``row col value`` line per entry.

        Rows and columns are positions in ``binary_variables()``.
        """
        lines = [f"# {i} {name}" for i, name in enumerate(self.arrays.order)]
        lines.append(f"# offset {format_float(self.offset)}")
        lines.extend(f"{i} {j} {format_float(coeff)}" for i, j, coeff in self.arrays.entries())
        return "\n".join(lines) + "\n"

    def save_matrix(self, path: str | Path) -> None:
        Path(path).write_text(self.to_matrix_text())


# -- interval arithmetic ----------------------------------------------------


def _interval_mul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _interval_pow(iv: tuple[float, float], power: int) -> tuple[float, float]:
    if power % 2 == 1:
        return (iv[0] ** power, iv[1] ** power)
    hi = max(abs(iv[0]), abs(iv[1])) ** power
    lo = 0.0 if iv[0] <= 0.0 <= iv[1] else min(abs(iv[0]), abs(iv[1])) ** power
    return (lo, hi)


def polynomial_interval(poly: Polynomial, intervals: dict[str, tuple[float, float]]) -> tuple[float, float]:
    """Conservative bounds on a polynomial given per-variable value intervals."""
    low = high = 0.0
    for mono, coeff in poly:
        term: tuple[float, float] = (1.0, 1.0)
        i = 0
        while i < len(mono):
            j = i
            while j < len(mono) and mono[j] == mono[i]:
                j += 1
            term = _interval_mul(term, _interval_pow(intervals[mono[i]], j - i))
            i = j
        term = (term[0] * coeff, term[1] * coeff) if coeff >= 0 else (term[1] * coeff, term[0] * coeff)
        low += term[0]
        high += term[1]
    return (low, high)


# -- cost and penalties -------------------------------------------------------


def _reduce(poly: Polynomial) -> Polynomial:
    return reduce_binary_idempotence(poly, poly.variables())


def _substitute_all(poly: Polynomial, substitutions: dict[str, Polynomial]) -> Polynomial:
    """Replace each variable that has a substitution, one at a time in name order."""
    for name in sorted(poly.variables()):
        if name in substitutions:
            poly = poly.substitute(name, substitutions[name])
    return poly


def compose_cost(objectives: Sequence, substitutions: dict[str, Polynomial]) -> Polynomial:
    """Weighted signed sum of objectives with variables replaced by their encodings."""
    signed = [term.expr.scale(term.weight if term.direction == "minimize" else -term.weight) for term in objectives]
    return _reduce(sum_polynomials(_substitute_all(poly, substitutions) for poly in signed))


def equality_penalty(comparison: Comparison) -> Polynomial:
    """(lhs - rhs)^2, expanded and idempotence-reduced; zero iff the equality holds."""
    return _reduce((comparison.lhs - comparison.rhs) ** 2)


def inequality_to_penalty(
    comparison: Comparison,
    bounds: tuple[float, float],
    precision: float,
    slack_source: str,
) -> tuple[Polynomial, EncodingPlan | None]:
    """Slack-augmented squared penalty for an inequality over binary variables.

    ``bounds`` are (min, max) of the lhs over encodable assignments.  The
    slack is sized so every feasible lhs value admits a zeroing slack:
    ``[-(max - rhs), 0]`` for >=, ``[0, rhs - min]`` for <=.  Strict
    inequalities are tightened by one precision step first.
    """
    op, rhs = comparison.op, comparison.rhs
    if op == ">":
        op, rhs = ">=", rhs + precision
    elif op == "<":
        op, rhs = "<=", rhs - precision

    cheap = _binary_pair_penalty(comparison.lhs, op, rhs)
    if cheap is not None:
        return cheap, None

    low, high = bounds
    if op == ">=":
        slack_low, slack_high = -(high - rhs), 0.0
        unsatisfiable = high < rhs - _EPS
    else:
        slack_low, slack_high = 0.0, rhs - low
        unsatisfiable = low > rhs + _EPS

    if unsatisfiable:
        warnings.warn(f"constraint unsatisfiable: '{comparison.to_text()}' over lhs range [{low}, {high}]")
    if unsatisfiable or slack_high - slack_low < precision - _EPS:
        # No slack, or an equality-tight window with no representable slack value besides zero.
        return _reduce((comparison.lhs - rhs) ** 2), None

    plan = encode_range(slack_source, slack_low, slack_high, precision, method="logarithmic")
    return _reduce((comparison.lhs + plan.affine() - rhs) ** 2), plan


def _binary_pair_penalty(lhs: Polynomial, op: str, rhs: float) -> Polynomial | None:
    """Product penalty for ``b - b' >= 0`` chains (domain-wall); avoids a slack bit."""
    if op != ">=" or abs(rhs) > _EPS:
        return None
    if len(lhs) != 2 or any(len(m) != 1 for m, _ in lhs):
        return None
    coeffs = sorted(lhs, key=lambda kv: kv[1])
    (neg_mono, neg_c), (pos_mono, pos_c) = coeffs
    if abs(neg_c + 1.0) > _EPS or abs(pos_c - 1.0) > _EPS:
        return None
    upper, lower = pos_mono[0], neg_mono[0]
    # lower * (1 - upper): 1 exactly on the single violating row.
    return Polynomial({(lower,): 1.0, tuple(sorted((lower, upper))): -1.0})


def boolean_penalty(relation: BooleanRelation, aux_source: str) -> tuple[Polynomial, EncodingPlan | None]:
    """Quadratic gate penalty: zero exactly on truth-table rows (min over aux for xor)."""
    z = relation.output
    if relation.kind == "not":
        (x,) = relation.inputs
        poly = (Polynomial.variable(x) + Polynomial.variable(z) - 1) ** 2
        return _reduce(poly), None
    x, y = relation.inputs
    bx, by, bz = Polynomial.variable(x), Polynomial.variable(y), Polynomial.variable(z)
    if relation.kind == "and":
        return _reduce(bx * by - 2 * (bx + by) * bz + 3 * bz), None
    if relation.kind == "or":
        return _reduce(bx * by + bx + by - 2 * bx * bz - 2 * by * bz + bz), None
    # xor as a parity check: x + y + z - 2w is zero exactly on consistent rows.
    plan = EncodingPlan(source=aux_source, binaries=((f"{aux_source}#0", -2.0),), offset=0.0)
    return _reduce((bx + by + bz + plan.affine()) ** 2), plan


# -- penalty weight estimation -------------------------------------------------


def one_flip_bounds(poly: Polynomial) -> dict[str, tuple[float, float]]:
    """Per-variable (max-gain, max-loss) bounds for a single 0/1 flip.

    For each variable the linear coefficient always fires, while each
    higher-order monomial contributes at most its positive (or negative)
    part.  Exact for degree <= 2, an upper bound above that.
    """
    bounds: dict[str, list[float]] = {}
    for mono, coeff in poly:
        for name in set(mono):
            entry = bounds.setdefault(name, [0.0, 0.0])
            if len(mono) == 1:
                entry[0] += coeff
                entry[1] -= coeff
            else:
                entry[0] += max(coeff, 0.0)
                entry[1] += max(-coeff, 0.0)
    return {name: (up, down) for name, (up, down) in bounds.items()}


def estimate_lambda(method: str, objective: Polynomial, penalty: Polynomial | None = None) -> float:
    """Penalty-weight estimate for one constraint; momc/moc also inspect the penalty."""
    coeffs = [c for m, c in objective if m]
    gamma = objective.constant_term

    if method == "ub-positive":
        if any(c < 0 for c in coeffs):
            raise ValueError("ub-positive needs an objective with only positive coefficients")
        return sum(coeffs)
    if method == "mqc":
        return (max(coeffs) if coeffs else 0.0) + gamma
    if method == "vlm":
        return _vlm(objective)
    if method == "ub-naive":
        return sum(c for c in coeffs if c > 0) - sum(c for c in coeffs if c < 0)
    if method == "ub-posiform":
        return _posiform_bound(objective)
    if method == "momc":
        if penalty is None:
            raise ValueError("momc needs the constraint penalty")
        steps = [d for pair in one_flip_bounds(penalty).values() for d in pair if d > _EPS]
        denominator = min(steps) if steps else 1.0
        return _vlm(objective) / denominator
    if method == "moc":
        if penalty is None:
            raise ValueError("moc needs the constraint penalty")
        objective_bounds = one_flip_bounds(objective)
        ratios = []
        for name, pen_pair in one_flip_bounds(penalty).items():
            obj_pair = objective_bounds.get(name, (0.0, 0.0))
            for obj_d, pen_d in zip(obj_pair, pen_pair):
                if pen_d > _EPS:  # zero-denominator ratios are skipped
                    ratios.append(obj_d / pen_d)
        return max(ratios) if ratios else _vlm(objective)
    raise ValueError(f"unknown lambda method {method!r}")


def _vlm(objective: Polynomial) -> float:
    bounds = one_flip_bounds(objective)
    return max((max(pair) for pair in bounds.values()), default=0.0)


def _posiform_bound(objective: Polynomial) -> float:
    """Upper-minus-lower bound from balanced posiform/negaform rewrites.

    Each quadratic coefficient is split half-and-half onto its two
    variables' linear terms; the absorbed constants of the resulting
    all-negative (upper) and all-positive (lower) forms bound the range.
    """
    if objective.degree() > 2:
        raise ValueError("ub-posiform needs a degree <= 2 objective")
    linear: dict[str, float] = {}
    half_pos: dict[str, float] = {}
    half_neg: dict[str, float] = {}
    for mono, coeff in objective:
        if len(mono) == 1:
            linear[mono[0]] = linear.get(mono[0], 0.0) + coeff
        elif len(mono) == 2:
            for name in mono:
                if coeff > 0:
                    half_pos[name] = half_pos.get(name, 0.0) + coeff / 2.0
                else:
                    half_neg[name] = half_neg.get(name, 0.0) + coeff / 2.0
    names = set(linear) | set(half_pos) | set(half_neg)
    upper = sum(max(linear.get(n, 0.0) + half_pos.get(n, 0.0), 0.0) for n in names)
    lower = sum(min(linear.get(n, 0.0) + half_neg.get(n, 0.0), 0.0) for n in names)
    return upper - lower


# -- quadratization ---------------------------------------------------------------


def quadratize(poly: Polynomial, penalty_scale: float) -> tuple[Polynomial, dict[tuple[str, str], str]]:
    """Reduce a multilinear polynomial to degree <= 2 with auxiliary binaries.

    Repeatedly substitutes the most frequent variable pair among degree->=3
    monomials by a fresh auxiliary, adding the consistency penalty
    ``M * (b_i b_j - 2 b_i y - 2 b_j y + 3 y)``.  Minimizing over the
    auxiliaries reproduces the original on every assignment provided
    ``penalty_scale`` exceeds the polynomial's range bound.
    Only degree->=3 monomials are rewritten; a fresh auxiliary cannot make two
    monomials meet, so every term keeps its coefficient and its place in the order.
    """
    registry: dict[tuple[str, str], str] = {}
    current = {mono: mono for mono, _ in poly if len(mono) >= 3}  # input monomial -> its rewritten form
    # pair -> the input monomials whose degree->=3 form holds it; a pair leaves with its last holder
    holders: dict[tuple[str, str], set[tuple[str, ...]]] = {}
    for mono in current:
        for pair in combinations(mono, 2):
            holders.setdefault(pair, set()).add(mono)
    gadgets: list[Polynomial] = []
    while holders:
        top = max(map(len, holders.values()))
        pair = min(p for p, held in holders.items() if len(held) == top)  # ties break lexicographically
        left, right = pair
        aux = f"__aux{len(registry)}"
        registry[pair] = aux
        for mono in list(holders[pair]):
            form = current[mono]
            for old_pair in combinations(form, 2):
                held = holders[old_pair]
                held.discard(mono)
                if not held:
                    del holders[old_pair]
            stripped = list(form)
            stripped.remove(left)
            stripped.remove(right)
            current[mono] = form = tuple(sorted(stripped + [aux]))
            if len(form) >= 3:
                for new_pair in combinations(form, 2):
                    holders.setdefault(new_pair, set()).add(mono)
        bl, br, by = Polynomial.variable(left), Polynomial.variable(right), Polynomial.variable(aux)
        gadgets.append(penalty_scale * (bl * br - 2 * bl * by - 2 * br * by + 3 * by))
    work = Polynomial({current.get(mono, mono): coeff for mono, coeff in poly})
    return work + sum_polynomials(gadgets), registry


# -- compilation -----------------------------------------------------------------


def infer_slack_precision(decl: ConstraintDecl, problem: Problem) -> float:
    """Slack step for an inequality: the declared value, else the finest continuous grid step in it, else 1."""
    if decl.slack_precision is not None:
        return decl.slack_precision
    precisions = [
        problem.variable(name).precision
        for name in sorted(decl.variables())
        if name in problem.variable_names() and problem.variable(name).kind is VariableKind.CONTINUOUS
    ]
    return min(precisions) if precisions else 1.0


def compile_problem(problem: Problem, config: CompileConfig | None = None) -> QuboModel:
    """Compile a frozen problem into a QuboModel (see module docstring for the pipeline)."""
    if not problem.frozen:
        raise ValueError("problem must be frozen before compilation (call problem.freeze())")
    config = config or CompileConfig()

    plans = [encode(decl) for decl in problem.variables]
    substitutions = {plan.source: plan.affine() for plan in plans}
    intervals = {decl.name: decl.domain_interval() for decl in problem.variables}
    # induced constraints (domain-wall chains) are over the encoding binaries themselves
    intervals.update((name, (0.0, 1.0)) for plan in plans for name in plan.binary_names())

    cost = compose_cost(problem.objectives, substitutions)

    all_constraints: list[ConstraintDecl] = list(problem.constraints)
    for plan in plans:
        all_constraints.extend(plan.induced)

    parts: list[tuple[ConstraintDecl, Polynomial, EncodingPlan | None]] = []
    for index, decl in enumerate(all_constraints):
        if decl.boolean is not None:
            penalty, slack_plan = boolean_penalty(decl.boolean, aux_source=f"__bool{index}")
        else:
            comparison = decl.comparison
            lhs_binary = _reduce(_substitute_all(comparison.lhs, substitutions))
            binary_comparison = Comparison(lhs=lhs_binary, op=comparison.op, rhs=comparison.rhs)
            if comparison.op == "=":
                penalty, slack_plan = equality_penalty(binary_comparison), None
            else:
                bounds = polynomial_interval(comparison.lhs, intervals)
                precision = infer_slack_precision(decl, problem)
                penalty, slack_plan = inequality_to_penalty(
                    binary_comparison, bounds, precision, slack_source=f"__slack{index}"
                )
        parts.append((decl, penalty, slack_plan))

    lambdas = _estimate_lambdas(parts, cost, config)
    blocks = [PenaltyBlock(decl, penalty, lam, slack_plan) for (decl, penalty, slack_plan), lam in zip(parts, lambdas)]
    return _weigh(cost, plans, blocks)


def _estimate_lambdas(parts: list[tuple], cost: Polynomial, config: CompileConfig) -> list[float]:
    """One λ per (declaration, penalty, slack plan) part, in order."""
    if config.lambda_method == "manual":
        return [float(config.manual_lambdas)] * len(parts)

    per_constraint = config.lambda_method in ("momc", "moc")
    base = None if per_constraint else estimate_lambda(config.lambda_method, cost)
    lambdas = []
    for decl, penalty, _ in parts:
        value = estimate_lambda(config.lambda_method, cost, penalty) if per_constraint else base
        if decl.hardness == "weak":
            value *= WEAK_MULTIPLIER
        # a degenerate objective (e.g. constant) estimates no weight; keep the penalty active
        lambdas.append(value if value > 0 else 1.0)
    return lambdas


def _weigh(cost: Polynomial, encodings: list[EncodingPlan], blocks: list[PenaltyBlock]) -> QuboModel:
    """The model ``cost + Σ λ_k·P_k`` in block order, quadratized above degree 2: compile and re-weight both end here."""
    # the cost and every penalty are already idempotence-reduced, so their sum is too
    total = sum_polynomials([cost, *(block.penalty.scale(block.lam) for block in blocks)])

    aux_registry: dict[tuple[str, str], str] = {}
    if total.degree() > 2:
        scale = estimate_lambda("ub-naive", total) + 1.0
        total, aux_registry = quadratize(total, scale)

    offset = total.constant_term
    return QuboModel(total - offset, offset, encodings, blocks, aux_registry, cost)
