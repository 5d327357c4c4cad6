"""Assemble a solver-ready QUBO from a frozen problem.

The pipeline: encode every declared variable as an affine map of binaries,
aggregate the weighted objectives (maximize terms flip sign), turn each
constraint (user-declared plus encoding-induced) into a quadratic penalty,
estimate a penalty weight for each, and reduce what is left above degree two
with auxiliary binaries.

After ``encode`` every stage reads the plans by source name (a name without
one is a binary) and lowers plain term maps, ``{monomial: coefficient}``; no
``Polynomial`` is built.  A declared left-hand side is only read, and a
form's terms are read as one term map (``QuadraticForm.terms``).

Every stage returns a ``QuadraticForm``, the one array form from the first
stage to the solvers: a linear vector and row-major couplers over sorted
binaries, an offset, and the monomials of degree >= 3.  The encodings are one
affine map ``v = o + W·b``, so a degree-2 objective ``xᵀAx + a·x + c`` is
``bᵀ(WᵀAW)b + (Wᵀ(A + Aᵀ)o + Wᵀa)·b + const`` with the 0/1 rule ``b² = b``
folding the diagonal into the linear terms.  Each binary encodes one variable,
so ``WᵀAW`` is one coupler per pair of a term's binaries and no stage builds an
``n × n`` array; a linear constraint's penalty ``(u·b + k)²`` is the upper
triangle of one outer product; a non-linear constraint's square is formed as
a term map and lowered as an objective is.  A monomial of degree >= 3 is
multiplied out over its variables' affine forms with ``b·b = b`` applied at
each product, after its term count is bounded against ``COMPILE_BUDGET``,
alone and added to the compile's other expansions (``_charge``); what stays
above degree two is quadratized.

Penalty weights are estimated on the composed objective *before*
quadratization, so they do not depend on auxiliary bookkeeping.  The model
keeps that λ-free objective, so ``QuboModel.with_lambdas`` can weigh the same
penalty blocks again, through the same function, without recompiling.

The float rule.  A stage's coefficient is a sum of products of its float
inputs: parsed coefficients, objective weights, plan weights and offsets,
right-hand sides, slack offsets and each block's λ (the weighed sum reads the
finished cost and penalty forms).  The compiled value is that exact sum,
rounded, and lies within ``γ_k·Σ|products|`` of it, where
``γ_k = k·u / (1 - k·u)``, ``u = 2⁻⁵³`` and ``k`` bounds the roundings on a
product's path (Higham, *Accuracy and Stability of Numerical Algorithms*).  A
*finished* coefficient, one of a stage's result, below ``COEFF_EPS`` is
dropped, and nothing else is: no product, scaled value or partial sum is
tested against it.  Plan weights below ``COEFF_EPS`` are left out of a plan's
affine map, and an estimated λ below it falls back to 1.  Integer and dyadic
models (every coefficient a multiple of a power of two, such as ``k/8``) stay
exact: no product or sum of theirs needs more than the 53 bits of a float.
"""

from __future__ import annotations

import heapq
import math
import warnings
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import combinations, groupby
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from qubo_forge.encoding import EncodingPlan, encode, encode_range, plan_for
from qubo_forge.expression import (
    COEFF_EPS,
    Comparison,
    Monomial,
    Polynomial,
    format_float,
    reduce_binary_idempotence,  # unused here; the benchmark's span harness wraps this name in this module
)
from qubo_forge.problem import COMPILE_BUDGET, GRID_TOL, BooleanRelation, ConstraintDecl, Problem, VariableKind

MODEL_SCHEMA = "qubo-forge-model/1"

LAMBDA_METHODS = ("ub-positive", "mqc", "vlm", "momc", "moc", "ub-naive", "ub-posiform", "manual")

WEAK_MULTIPLIER = 0.3  # an estimated λ of a weak constraint is scaled by this; a hard one's is not

_TERM_CHUNK = 2**15  # QuadraticForm.energies builds at most this many terms (256 KB of floats) at a time

# The terms and products that the expansions of the running ``compile_problem`` have charged so far (``_charge``),
# or None outside one; each context, so each concurrent compile, holds its own.
_SPENT: ContextVar[list[int] | None] = ContextVar("_SPENT", default=None)


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
        if self.lambda_method != "manual" and self.manual_lambdas is not None:
            raise ValueError(f"manual_lambdas is read only by the manual lambda method, not {self.lambda_method!r}")
        if self.manual_lambdas is not None:
            if not math.isfinite(self.manual_lambdas):
                raise ValueError(f"manual_lambdas must be finite, got {self.manual_lambdas!r}")
            if not self.manual_lambdas > 0:
                raise ValueError("manual lambda values must be positive")


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """``E(b) = linear·b + Σ values·b[rows]·b[cols] + offset + Σ higher[t]·Π_{b ∈ t} b`` over 0/1 binaries.

    ``order`` names the binary at each position (sorted); couplers are in
    row-major order, with ``rows < cols``.  ``higher`` maps each monomial of
    degree >= 3, a sorted tuple of binary names, to its coefficient; only
    ``quadratize`` can bring those down, and a model's arrays have none.
    In a stage's result (``_finish``) coefficients below ``COEFF_EPS`` are
    zero, and a zero coupler is not held.
    """

    order: tuple[str, ...]
    linear: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    offset: float = 0.0
    higher: Mapping[Monomial, float] = field(default_factory=dict)

    @classmethod
    def from_polynomial(
        cls, poly: Iterable[tuple[Monomial, float]], plans: Mapping[str, EncodingPlan] | None = None, what: str = "the polynomial"
    ) -> "QuadraticForm":
        """Distinct canonical ``(monomial, coefficient)`` terms, a ``Polynomial`` for one, with each variable
        that has a plan replaced by the plan's affine map; other names are binaries.

        Monomials of degree <= 2 go straight into the arrays.  Those of degree
        >= 3 are multiplied out over the affine maps (``_expand``, which names
        ``what`` when it refuses); what falls to degree <= 2 is added into the
        arrays, and the rest is ``higher``, finished here.
        """
        plans, low, high = plans or {}, {}, []
        for mono, coeff in poly:
            if len(mono) <= 2:
                low[mono] = coeff
            else:
                high.append((mono, coeff))
        form = _lower(low, plans)
        if not high:
            return _finish(form)
        terms = _expand(high, plans, what)
        higher = {mono: coeff for mono, coeff in terms.items() if len(mono) > 2 and abs(coeff) >= COEFF_EPS}
        pairs = sum(len(mono) * (len(mono) - 1) // 2 for mono in higher)
        _check_budget(pairs, what, "pairs to index for quadratization")
        rest = _lower({mono: coeff for mono, coeff in terms.items() if len(mono) <= 2}, {})
        return _weighted_sum([(1.0, form), (1.0, replace(rest, higher=higher))], {b for mono in higher for b in mono})

    def terms(self) -> dict[Monomial, float]:
        """``{monomial: coefficient}``: the nonzero linear terms, the couplers, the offset under ``()`` when it is
        nonzero, then ``higher``."""
        names = self.order
        out: dict[Monomial, float] = {(names[i],): coeff for i, coeff in enumerate(self.linear.tolist()) if coeff}
        pairs = zip(map(names.__getitem__, self.rows.tolist()), map(names.__getitem__, self.cols.tolist()))
        out.update(zip(pairs, self.values.tolist()))
        if self.offset:
            out[()] = self.offset
        out.update(self.higher)
        return out

    def coefficients(self) -> np.ndarray:
        """Every non-constant coefficient: the nonzero linear terms, the couplers, then ``higher``'s."""
        higher = np.fromiter(self.higher.values(), float, len(self.higher))
        return np.concatenate([self.linear[self.linear != 0.0], self.values, higher])

    def entries(self) -> list[tuple[int, int, float]]:
        """Upper-triangular ``(row, col, value)`` entries by position, linear terms on the diagonal."""
        diagonal = [(i, i, coeff) for i, coeff in enumerate(self.linear.tolist()) if coeff]
        return sorted(diagonal + list(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist())))

    def upper_triangular(self) -> np.ndarray:
        """Dense ``Q`` with the linear terms on its diagonal: ``E(x) = xᵀQx + offset``."""
        q = np.diag(self.linear)
        q[self.rows, self.cols] = self.values
        return q

    @cached_property
    def _exact_in_any_order(self) -> bool:
        """Whether every sum of coefficients is exact: each nonzero one, the offset included, is a multiple
        of ``2**-p`` and their magnitudes times ``2**p`` sum below ``2**53``.

        Scaling by ``2**p`` commutes with rounding, and a float sum of non-negative integers, in any order,
        ends below ``2**53`` exactly when the exact sum does: so one numpy sum of the magnitudes decides."""
        coefficients = np.abs(np.append(self.coefficients(), self.offset))
        coefficients = coefficients[coefficients != 0.0]
        if not len(coefficients):
            return True
        mantissa, exponent = np.frexp(coefficients)  # |c| = digits·2**(exponent - 53), digits a 53-bit integer
        mantissa *= 2.0**53
        digits = mantissa.astype(np.int64)
        del mantissa
        digits &= -digits
        trailing = np.frexp(digits.astype(float))[1] - 1  # digits' trailing zero bits
        del digits
        p = int(np.max(53 - exponent - trailing))
        del exponent, trailing
        with np.errstate(over="ignore"):  # a sum past the float range, or scaled past it, is past the bound too
            return bool(np.ldexp(coefficients.sum(), p) < 2.0**53)

    def energies(self, bits: np.ndarray) -> list[float]:
        """Energy of each row of a ``k × n`` matrix: the correctly rounded sum of its terms.

        The rows' terms form a ``k × (n + m + 1)`` matrix, built ``_TERM_CHUNK``
        entries at a time.  On 0/1 rows each term is a coefficient or zero, so
        when sums of coefficients are exact (``_exact_in_any_order``) a row's
        plain sum is already that sum, and ``+ 0.0`` turns its ``-0.0`` into
        ``0.0``.  Otherwise the exact zeros are dropped (they cannot change a
        correctly rounded sum), and ``math.fsum`` runs on each row's slice of
        one flat list, so term order cannot change a result.
        """
        bits = np.asarray(bits, dtype=float)
        exact = self._exact_in_any_order and bool(np.all((bits == 0.0) | (bits == 1.0)))
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
            if exact:
                energies.extend((terms.sum(axis=1) + 0.0).tolist())
                continue
            nonzero = terms != 0.0
            flat = terms[nonzero].tolist()
            ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
            energies.extend(math.fsum(flat[begin:end]) for begin, end in zip([0, *ends], ends))
        return energies


def _finish(form: QuadraticForm) -> QuadraticForm:
    """A stage's result: each coefficient below ``COEFF_EPS`` is dropped (and -0.0 becomes 0.0)."""
    linear = np.where(np.abs(form.linear) < COEFF_EPS, 0.0, form.linear)
    kept = ~(np.abs(form.values) < COEFF_EPS)
    offset = float(form.offset) if abs(form.offset) >= COEFF_EPS else 0.0
    higher = {mono: coeff for mono, coeff in form.higher.items() if abs(coeff) >= COEFF_EPS}
    return QuadraticForm(form.order, linear, form.rows[kept], form.cols[kept], form.values[kept], offset, higher)


@dataclass(frozen=True)
class _TermsView:
    """A model's linear and coupler terms as ``(monomial, coefficient)`` pairs, counted without building them."""

    arrays: QuadraticForm

    def __len__(self) -> int:
        return int(np.count_nonzero(self.arrays.linear)) + len(self.arrays.values)

    def __iter__(self) -> Iterator[tuple[Monomial, float]]:
        return ((mono, coeff) for mono, coeff in self.arrays.terms().items() if mono)


def _lower(terms: Mapping[Monomial, float], plans: Mapping[str, EncodingPlan]) -> QuadraticForm:
    """Degree-<=2 ``terms`` with each variable replaced by its plan's affine map (``_plan_terms``), unfinished.

    Variable ``u`` is ``o_u + Σ w_p·b_p`` over its own run of binaries (a binary ``b`` is ``1·b``).  A term
    ``A·u·v`` puts ``A·w_p·w_q`` on each pair of their binaries: a square ``u·u`` puts both orders of a pair
    on one coupler, and ``p = q`` on the linear term (``b² = b``).  The linear terms also get
    ``w_p·((A + Aᵀ)o + a)_u``, summed over the terms, so the work is linear in the output.  Nothing is
    dropped: a stage passes its result to ``_finish``.
    """
    symbols = sorted({name for mono in terms for name in mono})
    index = {name: k for k, name in enumerate(symbols)}
    left, right, quad, at, lin, constant = [], [], [], [], [], 0.0
    for mono, coeff in terms.items():
        if len(mono) == 2:
            left.append(index[mono[0]])
            right.append(index[mono[1]])
            quad.append(coeff)
        elif mono:
            at.append(index[mono[0]])
            lin.append(coeff)
        else:
            constant = coeff
    names: list[str] = []
    weight: list[float] = []
    bounds = [0]  # symbol k's binaries are names[bounds[k]:bounds[k + 1]]
    offset = np.zeros(len(symbols))
    for k, symbol in enumerate(symbols):
        for mono, coeff in _plan_terms(symbol, plans).items():
            if mono:
                names.append(mono[0])
                weight.append(coeff)
            else:
                offset[k] = coeff
        bounds.append(len(names))
    if len(set(names)) != len(names):
        raise ValueError("a binary encodes two variables of one polynomial")
    order = sorted(range(len(names)), key=names.__getitem__)
    position = np.empty(len(names), dtype=np.int64)
    position[order] = np.arange(len(names))
    start, count = np.array(bounds[:-1], dtype=np.int64), np.diff(bounds)
    u, v, a = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64), np.array(quad, dtype=float)
    w = np.array(weight, dtype=float)
    # term t spans count[u]·count[v] pairs (p, q), p running over u's binaries and q over v's
    sizes = count[u] * count[v]
    term = np.repeat(np.arange(len(a)), sizes)
    i, j = np.divmod(np.arange(len(term)) - np.repeat(np.cumsum(sizes) - sizes, sizes), count[v][term])
    p, q = start[u][term] + i, start[v][term] + j
    pair = a[term] * (w[p] * w[q])
    square, first, second = (u == v)[term], position[p], position[q]
    diagonal = square & (p == q)
    linear = np.bincount(p[diagonal], pair[diagonal], len(names))
    pair[square] *= 2.0  # the two orders of a square's pair, kept once below
    kept = ~square | (first < second)
    rows, cols = np.minimum(first, second)[kept], np.maximum(first, second)[kept]
    sort = np.argsort(rows * len(names) + cols)
    own = np.zeros(len(symbols))  # the variables' linear coefficients a
    own[at] = lin
    # per variable, (A + Aᵀ)o + a: each term adds A·o_v to u and A·o_u to v
    to_v = a * offset[u]
    through = np.bincount(np.concatenate([u, v]), np.concatenate([a * offset[v], to_v]), len(symbols)) + own
    linear = w * through[np.repeat(np.arange(len(symbols)), count)] + linear
    constant = constant + own @ offset + to_v @ offset[v]
    return QuadraticForm(tuple(names[k] for k in order), linear[order], rows[sort], cols[sort], pair[kept][sort], float(constant))


def _plan_terms(name: str, plans: Mapping[str, EncodingPlan]) -> dict[Monomial, float]:
    """``name``'s plan as terms ``{(b,): w, …, (): o}`` of at least ``COEFF_EPS``; a name without a plan is a binary."""
    plan = plans.get(name)
    terms = [((name,), 1.0)] if plan is None else [*(((b,), w) for b, w in plan.binaries), ((), plan.offset)]
    return {mono: coeff for mono, coeff in terms if abs(coeff) >= COEFF_EPS}


def _check_budget(count: int, what: str, unit: str = "binary terms") -> None:
    if count > COMPILE_BUDGET:
        raise ValueError(f"{what} needs {count} {unit}, above the compile budget of {COMPILE_BUDGET}")


def _charge(count: int, what: str, unit: str) -> None:
    """``_check_budget`` for one expansion; inside ``compile_problem`` it also adds ``count`` to the compile's
    total and refuses ``what`` when that total passes ``COMPILE_BUDGET``."""
    _check_budget(count, what, unit)
    spent = _SPENT.get()
    if spent is not None:
        spent[0] += count
        if spent[0] > COMPILE_BUDGET:
            raise ValueError(f"{what} brings the compile to {spent[0]} terms and products, above its budget of {COMPILE_BUDGET}")


def _times(left: Mapping[Monomial, float], right: Mapping[Monomial, float]) -> dict[Monomial, float]:
    """The product of two sums of multilinear monomials over binaries, with ``b·b = b``."""
    out: dict[Monomial, float] = {}
    for t, a in left.items():
        for u, b in right.items():
            # disjoint runs of sorted names concatenate; a shared binary (b·b = b) or interleaving needs the merge
            key = t + u if not t or not u or t[-1] < u[0] else tuple(sorted(set(t).union(u)))
            out[key] = out.get(key, 0.0) + a * b
    return out


def _expand(terms: Iterable[tuple[Monomial, float]], plans: Mapping[str, EncodingPlan], what: str) -> dict[Monomial, float]:
    """``Σ coeff·Π v`` over binaries: each variable's power multiplied out over its plan's affine map ``o + Σ w·b``.

    Before any product, the term count is bounded by ``Π_v Σ_{j <= min(k_v, bits_v)} C(bits_v, j)``
    per monomial (``v**k_v`` a factor, ``bits_v`` its binaries) and refused above ``COMPILE_BUDGET``.
    """
    factors = [(coeff, [(name, len(list(run))) for name, run in groupby(mono)]) for mono, coeff in terms]
    affine = {name: _plan_terms(name, plans) for _, group in factors for name, _ in group}
    bits = {name: len(form) - (() in form) for name, form in affine.items()}
    counts = [[sum(math.comb(bits[v], j) for j in range(min(k, bits[v]) + 1)) for v, k in group] for _, group in factors]
    _charge(sum(map(math.prod, counts)), what, "binary terms")
    powers: dict[tuple[str, int], dict[Monomial, float]] = {}
    out: dict[Monomial, float] = {}
    for coeff, group in factors:
        product = {(): coeff}
        for name, power in group:
            if (name, power) not in powers:
                powers[name, power] = reduce(_times, [affine[name]] * power, {(): 1.0})
            product = _times(product, powers[name, power])
        for mono, value in product.items():
            out[mono] = out.get(mono, 0.0) + value
    return out


def _weighted_sum(terms: Sequence[tuple[float, QuadraticForm]], names: Iterable[str] = ()) -> QuadraticForm:
    """``Σ scale·form`` over the sorted union of their binaries and ``names``, finished.

    Each entry is the sum of its scaled values from 0.0, added in form order.
    Entries are keyed ``row·n + col`` (linear terms on the diagonal) in one
    ``np.unique``, and one ``np.bincount`` over its inverse sums them.
    """
    order = sorted(set(names).union(*(form.order for _, form in terms)))
    n = len(order)
    position = dict(zip(order, range(n)))
    keys, scaled = [], []
    constant, higher = 0.0, {}
    for scale, form in terms:
        at = np.array([position[name] for name in form.order], dtype=np.int64)
        keys.append(np.concatenate([at * (n + 1), at[form.rows] * n + at[form.cols]]))
        scaled.append(np.concatenate([form.linear, form.values]) * scale)
        constant += form.offset * scale
        for mono, coeff in form.higher.items():
            higher[mono] = higher.get(mono, 0.0) + coeff * scale
    union, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(inverse, np.concatenate(scaled), len(union))
    rows, cols = np.divmod(union, n)
    diagonal = rows == cols
    linear = np.zeros(n)
    linear[rows[diagonal]] = sums[diagonal]
    return _finish(QuadraticForm(tuple(order), linear, rows[~diagonal], cols[~diagonal], sums[~diagonal], constant, higher))


@dataclass(frozen=True)
class PenaltyBlock:
    """One constraint's quadratic penalty: zero iff satisfied (best slack/aux choice)."""

    constraint: ConstraintDecl
    form: QuadraticForm
    lam: float
    slack_plan: EncodingPlan | None = None

    @property
    def label(self) -> str:
        return self.constraint.describe()

    @property
    def hardness(self) -> str:
        return self.constraint.hardness


@dataclass(init=False, eq=False)
class QuboModel:
    """A QUBO as arrays plus the metadata to decode and audit it (read-only).

    ``arrays`` is a ``QuadraticForm`` without ``higher`` terms; ``offset``,
    when given, replaces its constant.  A model whose ``Σ|c| + |offset|``,
    the bound on every energy, overflows is refused.
    """

    arrays: QuadraticForm
    encodings: list[EncodingPlan]
    penalties: list[PenaltyBlock]
    aux_registry: dict[tuple[str, str], str]
    cost: QuadraticForm | None  # the λ-free objective that with_lambdas re-weights; None unless compiled

    def __init__(
        self,
        arrays: QuadraticForm,
        encodings: Sequence[EncodingPlan] = (),
        penalties: Sequence[PenaltyBlock] = (),
        aux_registry: dict[tuple[str, str], str] | None = None,
        cost: QuadraticForm | None = None,
        offset: float | None = None,
    ):
        if arrays.higher:
            raise ValueError(f"a QUBO has no terms of degree {max(map(len, arrays.higher))}")
        self.encodings, self.penalties = list(encodings), list(penalties)
        self.aux_registry, self.cost = dict(aux_registry or {}), cost
        self.arrays = arrays if offset is None else replace(arrays, offset=float(offset))
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            bound = float(np.abs(self.arrays.linear).sum() + np.abs(self.arrays.values).sum()) + abs(self.arrays.offset)
        if not math.isfinite(bound):
            raise ValueError(f"the model overflows: its coefficients and offset sum to {bound} in magnitude")

    @property
    def offset(self) -> float:
        return self.arrays.offset

    @property
    def quadratic(self) -> _TermsView:
        """The linear and coupler terms, iterated as ``(monomial, coefficient)`` pairs and counted by ``len``."""
        return _TermsView(self.arrays)

    @cached_property
    def stats(self) -> dict[str, Any]:
        """Plain-data figures of the compiled model, read from its arrays and blocks.

        ``binaries`` by origin, ``terms`` (linear and couplers), ``degree``
        before quadratization, the coefficients' ``dynamic_range``
        (max|c| / min|c|, None without terms) and each block's λ.
        """
        arrays = self.arrays
        extra = {"slack": 0, "boolean_aux": 0}
        for block in self.penalties:
            if block.slack_plan is not None:
                extra["slack" if block.constraint.boolean is None else "boolean_aux"] += len(block.slack_plan.binaries)
        magnitudes = np.abs(arrays.coefficients())
        forms = [] if self.cost is None else [self.cost, *(block.form for block in self.penalties)]
        quadratic_degree = 2 if len(arrays.values) else int(bool(np.any(arrays.linear)))
        return {
            "binaries": {
                "total": len(arrays.order),
                "encoding": sum(len(plan.binaries) for plan in self.encodings),
                **extra,
                "quadratization_aux": len(self.aux_registry),
            },
            "terms": {"linear": int(np.count_nonzero(arrays.linear)), "couplers": len(arrays.values)},
            "degree": max([quadratic_degree, *(len(mono) for form in forms for mono in form.higher)]),
            "dynamic_range": float(magnitudes.max() / magnitudes.min()) if magnitudes.size else None,
            "lambdas": [{"label": block.label, "lambda": block.lam, "hardness": block.hardness} for block in self.penalties],
        }

    def binary_variables(self) -> list[str]:
        return list(self.arrays.order)

    def energy(self, assignment: dict[str, int]) -> float:
        try:
            x = np.array([assignment[name] for name in self.arrays.order], dtype=float)
        except KeyError as error:
            raise ValueError(f"no value assigned for variable '{error.args[0]}'") from None
        return self.arrays.energies(x[None, :])[0]

    def decode(self, assignment: dict[str, int]) -> dict[str, float]:
        """Recover the declared variables' values from a binary assignment."""
        return {plan.source: plan.decode(assignment) for plan in self.encodings}

    def lambdas(self) -> list[float]:
        return [block.lam for block in self.penalties]

    @np.errstate(over="ignore", invalid="ignore")  # as in compile_problem
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
        for name, run in groupby(mono):
            term = _interval_mul(term, _interval_pow(intervals[name], len(list(run))))
        term = (term[0] * coeff, term[1] * coeff) if coeff >= 0 else (term[1] * coeff, term[0] * coeff)
        low += term[0]
        high += term[1]
    return (low, high)


# -- cost and penalties -------------------------------------------------------


def _squared(
    lhs: Polynomial | Mapping[Monomial, float],
    rhs: float,
    plans: Mapping[str, EncodingPlan],
    slack: EncodingPlan | None = None,
    source: Comparison | None = None,
) -> QuadraticForm:
    """``(lhs + slack - rhs)²`` over binaries: the upper triangle of one outer product when ``lhs`` is linear.

    ``lhs`` (a ``Polynomial`` or a term map) and the slack's binaries are one term map.  A linear one is
    lowered to the line ``u·b + k``; ``k`` is the lowered constant, plus ``slack.offset``, minus ``rhs``, in
    that order.  A non-linear one takes its constant plus ``slack.offset`` minus ``rhs`` as its constant
    and is squared as a term map, ``m²`` products for ``m`` terms (bounded against ``COMPILE_BUDGET``
    first, each product sorted into its monomial), and the square goes through ``_expand``; either
    refusal names the ``source`` comparison.
    """
    terms, shift = dict(lhs), 0.0
    if slack is not None:
        terms.update(((binary,), weight) for binary, weight in slack.binaries)
        shift = slack.offset
    if any(len(mono) > 1 for mono in terms):
        what = f"constraint '{source.to_text()}'"
        constant = terms.pop((), 0.0) + shift - rhs
        if constant:
            terms[()] = constant
        _charge(len(terms) ** 2, what, "products to square")
        product: dict[Monomial, float] = {}
        for left, a in terms.items():
            for right, b in terms.items():
                key = tuple(sorted(left + right))
                product[key] = product.get(key, 0.0) + a * b
        return QuadraticForm.from_polynomial(product.items(), plans, what)
    line = _lower(terms, plans)
    u, constant = line.linear, line.offset + shift - rhs
    rows, cols = np.triu_indices(len(u), 1)
    square = QuadraticForm(line.order, u * u + 2.0 * (u * constant), rows, cols, 2.0 * (u[rows] * u[cols]), constant * constant)
    return _finish(square)


def compose_cost(objectives: Sequence, plans: Mapping[str, EncodingPlan]) -> QuadraticForm:
    """Weighted signed sum of objectives, one term map, with variables replaced by their plans' affine maps.

    Each ``±weight·coeff`` is added in objective order.
    """
    terms: dict[Monomial, float] = {}
    for term in objectives:
        sign = term.weight if term.direction == "minimize" else -term.weight
        for mono, coeff in term.expr:
            terms[mono] = terms.get(mono, 0.0) + coeff * sign
    return QuadraticForm.from_polynomial(terms.items(), plans, "the objective")


def equality_penalty(comparison: Comparison, plans: Mapping[str, EncodingPlan] | None = None) -> QuadraticForm:
    """(lhs - rhs)² over binaries; zero iff the equality holds."""
    return _squared(comparison.lhs, comparison.rhs, plans or {}, source=comparison)


def inequality_to_penalty(
    comparison: Comparison,
    bounds: tuple[float, float],
    precision: float,
    slack_source: str,
    plans: Mapping[str, EncodingPlan] | None = None,
) -> tuple[QuadraticForm, EncodingPlan | None]:
    """Slack-augmented squared penalty for an inequality, over binaries.

    ``bounds`` are (min, max) of the lhs over encodable assignments.  The
    slack is sized so every feasible lhs value admits a zeroing slack:
    ``[-(max - rhs), 0]`` for >=, ``[0, rhs - min]`` for <=.  Strict
    inequalities are tightened by one precision step first.
    """
    plans = plans or {}
    op, rhs = comparison.op, comparison.rhs
    if op == ">":
        op, rhs = ">=", rhs + precision
    elif op == "<":
        op, rhs = "<=", rhs - precision

    cheap = _binary_pair_penalty(comparison.lhs, op, rhs, plans)
    if cheap is not None:
        return cheap, None

    low, high = bounds
    if op == ">=":
        slack_low, slack_high = -(high - rhs), 0.0
        unsatisfiable = high < rhs - GRID_TOL
    else:
        slack_low, slack_high = 0.0, rhs - low
        unsatisfiable = low > rhs + GRID_TOL

    if unsatisfiable:
        warnings.warn(f"constraint unsatisfiable: '{comparison.to_text()}' over lhs range [{low}, {high}]")
    if unsatisfiable or slack_high - slack_low < precision - GRID_TOL:
        # No slack, or an equality-tight window with no representable slack value besides zero.
        return _squared(comparison.lhs, rhs, plans, source=comparison), None

    plan = encode_range(slack_source, slack_low, slack_high, precision, method="logarithmic")
    return _squared(comparison.lhs, rhs, plans, plan, comparison), plan


def _binary_pair_penalty(lhs: Polynomial, op: str, rhs: float, plans: Mapping[str, EncodingPlan]) -> QuadraticForm | None:
    """Product penalty for a link ``b - b' >= 0`` (a domain-wall chain's) or ``b' - b <= 0``; avoids a slack bit."""
    sign = {">=": 1.0, "<=": -1.0}.get(op)
    if sign is None or abs(rhs) > GRID_TOL or lhs.degree() != 1:
        return None
    line = _finish(_lower(dict(lhs), plans))
    held = np.flatnonzero(line.linear)
    if len(held) != 2 or line.offset:
        return None
    (neg_c, lower), (pos_c, upper) = sorted(zip((sign * line.linear[held]).tolist(), [line.order[k] for k in held]))
    if abs(neg_c + 1.0) > GRID_TOL or abs(pos_c - 1.0) > GRID_TOL:
        return None
    # lower * (1 - upper): 1 exactly on the single violating row.
    return _finish(_lower({(lower,): 1.0, tuple(sorted((lower, upper))): -1.0}, {}))


def boolean_penalty(
    relation: BooleanRelation, aux_source: str, plans: Mapping[str, EncodingPlan] | None = None
) -> tuple[QuadraticForm, EncodingPlan | None]:
    """Quadratic gate penalty: zero exactly on truth-table rows (min over aux for xor); each gate is a term map."""
    plans, z = plans or {}, relation.output
    if relation.kind == "not":
        return _squared(_gate(((relation.inputs[0],), 1.0), ((z,), 1.0)), 1.0, plans), None
    x, y = relation.inputs
    if relation.kind == "and":  # xy - 2xz - 2yz + 3z
        return _finish(_lower(_gate(((x, y), 1.0), ((x, z), -2.0), ((y, z), -2.0), ((z,), 3.0)), plans)), None
    if relation.kind == "or":  # xy + x + y - 2xz - 2yz + z
        gate = _gate(((x, y), 1.0), ((x,), 1.0), ((y,), 1.0), ((x, z), -2.0), ((y, z), -2.0), ((z,), 1.0))
        return _finish(_lower(gate, plans)), None
    # xor as a parity check: x + y + z - 2w is zero exactly on consistent rows.
    plan = plan_for(aux_source, [-2.0], 0.0)
    return _squared(_gate(((x,), 1.0), ((y,), 1.0), ((z,), 1.0)), 0.0, plans, plan), plan


def _gate(*terms: tuple[Monomial, float]) -> dict[Monomial, float]:
    """A gate's terms as one term map, each monomial sorted; a relation that names a binary twice adds into one."""
    out: dict[Monomial, float] = {}
    for mono, coeff in terms:
        key = tuple(sorted(mono))
        out[key] = out.get(key, 0.0) + coeff
    return out


# -- penalty weight estimation -------------------------------------------------


def one_flip_bounds(form: QuadraticForm) -> tuple[np.ndarray, np.ndarray]:
    """Per-binary (max-gain, max-loss) bounds for a single 0/1 flip, over ``form.order``.

    For each binary the linear coefficient always fires, while each coupler
    and higher-order monomial that holds it contributes at most its positive
    (or negative) part: ``linear ± Σ max(±c, 0)``, one ``bincount`` over both
    ends of each coupler and the members of each monomial.  Exact for degree
    <= 2, an upper bound above that.
    """
    position = dict(zip(form.order, range(len(form.order))))
    members = np.array([position[name] for mono in form.higher for name in mono], dtype=np.int64)
    higher = np.repeat(np.fromiter(form.higher.values(), float, len(form.higher)), [len(mono) for mono in form.higher])
    index = np.concatenate([form.rows, form.cols, members])
    held = np.concatenate([form.values, form.values, higher])
    gain = form.linear + np.bincount(index, np.maximum(held, 0.0), len(form.order))
    loss = -form.linear + np.bincount(index, np.maximum(-held, 0.0), len(form.order))
    return gain, loss


def estimate_lambda(method: str, objective: QuadraticForm, penalty: QuadraticForm | None = None) -> float:
    """Penalty-weight estimate for one constraint; momc/moc also inspect the penalty."""
    coeffs = objective.coefficients()
    gamma = objective.offset

    if method == "ub-positive":
        if np.any(coeffs < 0):
            raise ValueError("ub-positive needs an objective with only positive coefficients")
        return float(coeffs.sum())
    if method == "mqc":
        return (float(coeffs.max()) if coeffs.size else 0.0) + gamma
    if method == "vlm":
        return _vlm(objective)
    if method == "ub-naive":
        return float(coeffs[coeffs > 0].sum() - coeffs[coeffs < 0].sum())
    if method == "ub-posiform":
        return _posiform_bound(objective)
    if method in ("momc", "moc") and penalty is None:
        raise ValueError(f"{method} needs the constraint penalty")
    if method == "momc":
        steps = np.stack(one_flip_bounds(penalty))
        steps = steps[steps > GRID_TOL]
        return _vlm(objective) / (float(steps.min()) if steps.size else 1.0)
    if method == "moc":
        position = {name: k for k, name in enumerate(objective.order)}
        index = [position.get(name, -1) for name in penalty.order]  # -1: the zero column appended below
        objective_bounds = np.hstack([np.stack(one_flip_bounds(objective)), np.zeros((2, 1))])[:, index]
        penalty_bounds = np.stack(one_flip_bounds(penalty))
        steps = penalty_bounds > GRID_TOL  # zero-denominator ratios are skipped
        ratios = objective_bounds[steps] / penalty_bounds[steps]
        return float(ratios.max()) if ratios.size else _vlm(objective)
    raise ValueError(f"unknown lambda method {method!r}")


def _vlm(objective: QuadraticForm) -> float:
    gain, loss = one_flip_bounds(objective)
    return float(np.maximum(gain, loss).max(initial=0.0))


def _posiform_bound(objective: QuadraticForm) -> float:
    """Upper-minus-lower bound from balanced posiform/negaform rewrites.

    Each quadratic coefficient is split half-and-half onto its two
    variables' linear terms; the absorbed constants of the resulting
    all-negative (upper) and all-positive (lower) forms bound the range.
    """
    if objective.higher:
        raise ValueError("ub-posiform needs a degree <= 2 objective")
    # a binary's linear term plus half its positive couplers is (gain + linear) / 2; with half
    # its negative couplers, (linear - loss) / 2
    gain, loss = one_flip_bounds(objective)
    linear = objective.linear
    return float(np.maximum(gain + linear, 0.0).sum() / 2.0 - np.minimum(linear - loss, 0.0).sum() / 2.0)


# -- quadratization ---------------------------------------------------------------


def quadratize(form: QuadraticForm, penalty_scale: float) -> tuple[QuadraticForm, dict[tuple[str, str], str]]:
    """Reduce the monomials of degree >= 3 to degree <= 2 with auxiliary binaries (Rosenberg 1975).

    Repeatedly substitutes the most frequent pair of binaries among the
    degree->=3 monomials (ties break on the lexicographically smallest pair) by
    a fresh auxiliary ``y``, adding the consistency penalty
    ``M * (b_i b_j - 2 b_i y - 2 b_j y + 3 y)``.  Minimizing over the
    auxiliaries reproduces the original on every assignment provided
    ``M = penalty_scale`` exceeds the polynomial's range bound.  Pair counts are
    kept in a heap, so a choice does not rescan every pair, and only the
    monomials that hold the chosen pair are rewritten.

    The form comes back over its binaries plus the auxiliaries, without
    ``higher``: the rewritten monomials and the gadget terms are added into
    its degree-<=2 part through ``_weighted_sum``.  The second result is the
    registry ``{pair: auxiliary}``.  The pair index, one entry per pair of
    binaries in each degree->=3 monomial, and the auxiliaries count against
    ``COMPILE_BUDGET``.
    """
    terms = form.higher
    current = {mono: mono for mono in terms}  # input monomial -> its rewritten form
    indexed = sum(len(mono) * (len(mono) - 1) // 2 for mono in current)
    _check_budget(indexed, "quadratization", "pair entries")
    # pair -> the input monomials whose degree->=3 form holds it; a pair leaves with its last holder
    holders: dict[tuple[str, str], set[Monomial]] = {}
    for mono in current:
        for pair in combinations(mono, 2):
            holders.setdefault(pair, set()).add(mono)
    # (-count, pair) for each pair, filed again after each round in which its count fell; an entry whose
    # count is no longer the pair's is stale and dropped when it comes to the top
    heap = [(-len(held), pair) for pair, held in holders.items()]
    heapq.heapify(heap)
    registry: dict[tuple[str, str], str] = {}
    while holders:
        count, pair = heapq.heappop(heap)
        if len(holders.get(pair, ())) != -count:
            continue
        left, right = pair
        aux = registry[pair] = f"__aux{len(registry)}"
        _check_budget(indexed + len(registry), "quadratization", "pair entries and auxiliaries")
        touched = set()
        for mono in list(holders[pair]):
            for old in combinations(current[mono], 2):
                holders[old].discard(mono)
                touched.add(old)
            current[mono] = rewritten = tuple(sorted([name for name in current[mono] if name not in pair] + [aux]))
            for new in combinations(rewritten, 2) if len(rewritten) >= 3 else ():
                holders.setdefault(new, set()).add(mono)
                touched.add(new)
        for moved in touched:  # refile each pair whose count moved; a pair without holders leaves
            if holders[moved]:
                heapq.heappush(heap, (-len(holders[moved]), moved))
            else:
                del holders[moved]
    out = {current[mono]: coeff for mono, coeff in terms.items()}
    for (left, right), aux in registry.items():
        gadget = [((left, right), 1.0), (tuple(sorted((left, aux))), -2.0), (tuple(sorted((right, aux))), -2.0), ((aux,), 3.0)]
        for mono, factor in gadget:
            out[mono] = out.get(mono, 0.0) + penalty_scale * factor
    return _weighted_sum([(1.0, replace(form, higher={})), (1.0, _lower(out, {}))], registry.values()), registry


# -- compilation -----------------------------------------------------------------


def infer_slack_precision(decl: ConstraintDecl, problem: Problem) -> float:
    """Slack step for an inequality: the declared value, else the finest continuous grid step in it, else 1."""
    if decl.slack_precision is not None:
        return decl.slack_precision
    declared = problem.variable_names()
    precisions = [
        problem.variable(name).precision
        for name in sorted(decl.variables() & declared)
        if problem.variable(name).kind is VariableKind.CONTINUOUS
    ]
    return min(precisions) if precisions else 1.0


@np.errstate(over="ignore", invalid="ignore")  # a result past the float range is refused by QuboModel, by name
def compile_problem(problem: Problem, config: CompileConfig | None = None) -> QuboModel:
    """Compile a frozen problem into a QuboModel (see module docstring for the pipeline)."""
    if not problem.frozen:
        raise ValueError("problem must be frozen before compilation (call problem.freeze())")
    config = config or CompileConfig()

    encodings = [encode(decl) for decl in problem.variables]
    plans = {plan.source: plan for plan in encodings}
    intervals = {decl.name: decl.domain_interval() for decl in problem.variables}
    # induced constraints (domain-wall chains) are over the encoding binaries themselves
    intervals.update((name, (0.0, 1.0)) for plan in encodings for name in plan.binary_names())

    all_constraints: list[ConstraintDecl] = list(problem.constraints)
    for plan in encodings:
        all_constraints.extend(plan.induced)

    token = _SPENT.set([0])  # the objective's and every constraint's expansions share one compile budget
    try:
        cost = compose_cost(problem.objectives, plans)
        parts: list[tuple[ConstraintDecl, QuadraticForm, EncodingPlan | None]] = []
        for index, decl in enumerate(all_constraints):
            if decl.boolean is not None:
                penalty, slack_plan = boolean_penalty(decl.boolean, f"__bool{index}", plans)
            elif decl.comparison.op == "=":
                penalty, slack_plan = equality_penalty(decl.comparison, plans), None
            else:
                bounds = polynomial_interval(decl.comparison.lhs, intervals)
                precision = infer_slack_precision(decl, problem)
                penalty, slack_plan = inequality_to_penalty(decl.comparison, bounds, precision, f"__slack{index}", plans)
            parts.append((decl, penalty, slack_plan))
    finally:
        _SPENT.reset(token)

    lambdas = _estimate_lambdas(parts, cost, config)
    blocks = [PenaltyBlock(decl, penalty, lam, slack_plan) for (decl, penalty, slack_plan), lam in zip(parts, lambdas)]
    return _weigh(cost, encodings, blocks)


def _estimate_lambdas(parts: list[tuple], cost: QuadraticForm, config: CompileConfig) -> list[float]:
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
        # a degenerate objective (e.g. constant) estimates no weight, or only a rounding residue below COEFF_EPS
        # that would drop every weighted penalty term; keep the penalty active
        lambdas.append(value if value >= COEFF_EPS else 1.0)
    return lambdas


def _weigh(cost: QuadraticForm, encodings: list[EncodingPlan], blocks: list[PenaltyBlock]) -> QuboModel:
    """The model ``cost + Σ λ_k·P_k`` in block order, quadratized above degree 2: compile and re-weight both end here.

    The degree-<=2 arrays are summed directly; only the weighed degree->=3 terms
    go through ``quadratize``, which adds its output into the same arrays.
    """
    binaries = [name for plan in encodings for name in plan.binary_names()]
    total = _weighted_sum([(1.0, cost), *((block.lam, block.form) for block in blocks)], binaries)
    aux_registry: dict[tuple[str, str], str] = {}
    if total.higher:
        total, aux_registry = quadratize(total, estimate_lambda("ub-naive", total) + 1.0)
    return QuboModel(total, encodings, blocks, aux_registry, cost)
