"""Helpers that the test modules share; this module holds no tests.

``time_limit`` fails a block that runs too long,
``energies_over_assignments`` evaluates terms on every 0/1 assignment, and
``dense_form`` builds a form that holds every coupler, and
``sparse_max_cut`` a problem with a few terms per binary.

The rest is an exact reference for the compiler's float rule (see the
``qubo_forge.compiler`` docstring).  ``reference_compile`` takes a problem
through the compile's stages in ``fractions.Fraction`` arithmetic, from the
same float inputs as the compiler: parsed coefficients, objective weights,
plan weights and offsets, right-hand sides and slack plans.  Each coefficient
is an ``Exact``, which carries ``Σ|products|`` next to the exact sum, so that
``assert_follows_the_float_rule`` can hold a compiled model to the rule.  Each
λ is checked by running its estimator exactly on the compiled float forms
(``lambda_interval``).
"""

from __future__ import annotations

import contextlib
import math
import signal
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from qubo_forge.compiler import WEAK_MULTIPLIER, QuadraticForm, infer_slack_precision, polynomial_interval
from qubo_forge.encoding import EncodingPlan, encode, encode_range
from qubo_forge.expression import COEFF_EPS, Comparison, Polynomial
from qubo_forge.problem import GRID_TOL, Problem


@contextlib.contextmanager
def time_limit(seconds: float = 1.0):
    """Fail the enclosed block with ``TimeoutError`` after ``seconds`` of wall time (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def energies_over_assignments(poly, order: list[str]) -> np.ndarray:
    """Terms (a mapping or a ``Polynomial``) evaluated on every 0/1 assignment of ``order``; bit ``k`` of
    assignment ``i`` is ``(i >> k) & 1``."""
    n = len(order)
    position = {name: k for k, name in enumerate(order)}
    bits = ((np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    total = np.zeros(2**n)
    for mono, coeff in dict(poly).items():
        term = np.full(2**n, coeff)
        for name in set(mono):
            term *= bits[:, position[name]]  # multilinear: repeats are idempotent
        total += term
    return total


def dense_form(n: int, coefficients, offset: float = 0.0) -> QuadraticForm:
    """Every linear term and coupler over ``n`` binaries, built as arrays: the first ``n`` coefficients are the
    linear terms, the next ``n(n-1)/2`` the couplers in row-major order.  Every coupler is held, a zero one
    too."""
    coefficients = np.asarray(coefficients, dtype=float)
    rows, cols = np.triu_indices(n, 1)
    order = tuple(f"v{k:04d}" for k in range(n))
    return QuadraticForm(order, coefficients[:n], rows, cols, coefficients[n : n + len(rows)], offset)


def sparse_max_cut(n, seed=0):
    """Max-cut on a random graph with ``3n`` edges, plus one cardinality ``<=`` over 40 of the ``n`` binaries, built
    as polynomials (no parsing)."""
    rng = np.random.default_rng(seed)
    problem = Problem()
    names = problem.add_binary_variables_array("x", [n])
    left, right = rng.integers(0, n, size=(2, 4 * n))
    keys = np.unique(np.minimum(left, right) * n + np.maximum(left, right))
    terms = {}
    for key in rng.permutation(keys[keys // n != keys % n])[: 3 * n].tolist():
        u, v = names[key // n], names[key % n]
        terms[(u,)] = terms.get((u,), 0.0) + 1.0
        terms[(v,)] = terms.get((v,), 0.0) + 1.0
        terms[(u, v)] = -2.0
    problem.add_objective(Polynomial(terms), "maximize")
    problem.add_constraint(Comparison(Polynomial({(name,): 1.0 for name in names[:40]}), "<=", 20.0))
    return problem.freeze()


# -- exact sums of products ---------------------------------------------------------------

_SIZE_MARGIN = 1 + 1e-6  # ``size`` and ``γ_k`` are floats here; this covers their own rounding


def gamma(k: int) -> Fraction:
    """``γ_k = k·u / (1 - k·u)`` with ``u = 2⁻⁵³``, exactly."""
    return Fraction(k, 2**53 - k)


class Exact:
    """A sum of products of float inputs.

    ``value`` is the exact sum, ``size`` is ``Σ|products|`` (a float), ``count`` is the number of products and
    ``factors`` the most factors in one.  ``grid`` is the exponent of the lowest set bit of any product, so
    every product is a multiple of ``2**grid``.  ``extra`` is added to the bound: it covers a finished
    coefficient that the compiler may have dropped before a later stage read it (``finished``).
    """

    __slots__ = ("value", "size", "count", "factors", "grid", "extra")

    def __init__(self, value: Fraction, size: float, count: int, factors: int, grid: float, extra: float = 0.0):
        self.value, self.size, self.count, self.factors, self.grid, self.extra = value, size, count, factors, grid, extra

    @classmethod
    def of(cls, x: float) -> "Exact":
        value = Fraction(x)
        numerator = abs(value.numerator)
        grid = (numerator & -numerator).bit_length() - value.denominator.bit_length() if numerator else math.inf
        return cls(value, abs(x), 1, 1, grid)

    def __add__(self, other: "Exact") -> "Exact":
        return Exact(
            self.value + other.value,
            self.size + other.size,
            self.count + other.count,
            max(self.factors, other.factors),
            min(self.grid, other.grid),
            self.extra + other.extra,
        )

    def __mul__(self, other: "Exact") -> "Exact":
        extra = self.size * other.extra + other.size * self.extra + self.extra * other.extra
        return Exact(
            self.value * other.value,
            self.size * other.size,
            self.count * other.count,
            self.factors + other.factors,
            self.grid + other.grid,
            extra,
        )

    def __neg__(self) -> "Exact":
        return Exact(-self.value, self.size, self.count, self.factors, self.grid, self.extra)

    def with_extra(self, extra: float) -> "Exact":
        return Exact(self.value, self.size, self.count, self.factors, self.grid, extra)

    @property
    def bound(self) -> float:
        """How far the compiled float may lie from ``value``: ``γ_k·size`` with ``k = count + factors``, which
        bounds the roundings on any product's path in any evaluation order (Higham), plus ``extra``.

        It is ``extra`` alone when ``size`` is below ``2**(53 + grid)``: then every partial product and partial
        sum of any evaluation order is a multiple of its grid below ``2**53`` of it, so no operation rounds.
        """
        if self.size * _SIZE_MARGIN < 2.0 ** min(53 + self.grid, 1023):
            return self.extra
        k = self.count + self.factors
        return k / (2.0**53 - k) * self.size * _SIZE_MARGIN + self.extra

    def may_be_dropped(self) -> bool:
        """Whether the float of this coefficient may lie below ``COEFF_EPS``."""
        return abs(self.value) < COEFF_EPS + self.bound


ZERO = Exact(Fraction(0), 0.0, 0, 0, math.inf)

Terms = dict[tuple[str, ...], Exact]


def _add_into(out: Terms, mono: tuple[str, ...], coeff: Exact) -> None:
    out[mono] = out[mono] + coeff if mono in out else coeff


def times(left: Terms, right: Terms) -> Terms:
    """The product of two sums of multilinear monomials over binaries, with ``b·b = b``."""
    out: Terms = {}
    for t, a in left.items():
        for u, b in right.items():
            _add_into(out, tuple(sorted(set(t).union(u))), a * b)
    return out


def affine(name: str, plans: Mapping[str, EncodingPlan]) -> Terms:
    """``name``'s plan ``o + Σ w·b`` over its binaries, weights and offset below ``COEFF_EPS`` left out; a name
    without a plan is a binary."""
    plan = plans.get(name)
    if plan is None:
        return {(name,): Exact.of(1.0)}
    out = {(binary,): Exact.of(weight) for binary, weight in plan.binaries if abs(weight) >= COEFF_EPS}
    if abs(plan.offset) >= COEFF_EPS:
        out[()] = Exact.of(plan.offset)
    return out


def expand(poly: Iterable[tuple[tuple[str, ...], Exact]], plans: Mapping[str, EncodingPlan]) -> Terms:
    """``Σ coeff·Π v`` over binaries: each variable replaced by its affine map, multiplied out."""
    out: Terms = {}
    for mono, coeff in poly:
        product: Terms = {(): coeff}
        for name in mono:
            product = times(product, affine(name, plans))
        for key, value in product.items():
            _add_into(out, key, value)
    return out


def finished(poly: Terms) -> Terms:
    """A stage's result as a later stage reads it: a coefficient that may have been dropped may be zero there,
    ``|value|`` away, so that distance joins its ``extra``."""
    out: Terms = {}
    for mono, coeff in poly.items():
        if coeff.may_be_dropped():
            coeff = coeff.with_extra(max(coeff.extra, float(abs(coeff.value))))
        out[mono] = coeff
    return out


# -- the reference compile ---------------------------------------------------------------


@dataclass
class Reference:
    """A problem's stages in exact arithmetic: the model's binaries (before quadratization), the λ-free cost and
    one penalty per block, in block order."""

    order: tuple[str, ...]
    cost: Terms
    penalties: list[Terms]

    def weighed(self, lambdas: Iterable[float]) -> Terms:
        """``cost + Σ λ_k·P_k`` over the finished stages, for the given float λ."""
        total = dict(finished(self.cost))
        for lam, penalty in zip(lambdas, self.penalties):
            scale = Exact.of(lam)
            for mono, coeff in finished(penalty).items():
                _add_into(total, mono, scale * coeff)
        return total


def _declared(poly) -> list[tuple[tuple[str, ...], Exact]]:
    return [(mono, Exact.of(coeff)) for mono, coeff in poly]


def _gate_penalty(relation, aux: str) -> tuple[list[tuple[tuple[str, ...], Exact]], bool]:
    """A boolean relation's penalty terms over its declared binaries, and whether they are squared."""
    z, one = relation.output, Exact.of(1.0)
    if relation.kind == "not":
        return [((relation.inputs[0],), one), ((z,), one), ((), Exact.of(-1.0))], True
    x, y = relation.inputs
    if relation.kind == "xor":  # (x + y + z - 2w)², w the auxiliary binary
        return [((x,), one), ((y,), one), ((z,), one), ((aux,), Exact.of(-2.0))], True
    gate = [((x, y), 1.0), ((x, z), -2.0), ((y, z), -2.0)]
    gate += [((z,), 3.0)] if relation.kind == "and" else [((x,), 1.0), ((y,), 1.0), ((z,), 1.0)]
    return [(mono, Exact.of(coeff)) for mono, coeff in gate], False


def _is_wall_link(line: Terms) -> tuple[str, str] | None:
    """``(lower, upper)`` when the finished ``line`` is ``upper - lower`` over two binaries, else None."""
    held = {mono: float(coeff.value) for mono, coeff in line.items() if not coeff.may_be_dropped()}
    if () in held or len(held) != 2 or any(len(mono) != 1 for mono in held):
        return None
    (neg, (lower,)), (pos, (upper,)) = sorted((coeff, mono) for mono, coeff in held.items())
    return (lower, upper) if abs(neg + 1.0) <= GRID_TOL and abs(pos - 1.0) <= GRID_TOL else None


def reference_compile(problem) -> Reference:
    """The compiler's stages on ``problem`` in exact arithmetic (see the module docstring)."""
    plans = {decl.name: encode(decl) for decl in problem.variables}
    names = {binary for plan in plans.values() for binary in plan.binary_names()}
    cost_terms: list[tuple[tuple[str, ...], Exact]] = []
    for objective in problem.objectives:
        sign = Exact.of(objective.weight if objective.direction == "minimize" else -objective.weight)
        cost_terms += [(mono, coeff * sign) for mono, coeff in _declared(objective.expr)]
    intervals = {decl.name: decl.domain_interval() for decl in problem.variables}
    intervals.update((binary, (0.0, 1.0)) for binary in names)
    declarations = list(problem.constraints) + [decl for plan in plans.values() for decl in plan.induced]
    penalties = []
    for index, decl in enumerate(declarations):
        if decl.boolean is not None:
            aux = f"__bool{index}#0"
            gate, squared = _gate_penalty(decl.boolean, aux)
            if decl.boolean.kind == "xor":
                names.add(aux)
            line = expand(gate, plans)
            penalties.append(times(line, line) if squared else line)
            continue
        comparison, precision = decl.comparison, infer_slack_precision(decl, problem)
        lhs = _declared(comparison.lhs)
        op, rhs, tightened = comparison.op, Exact.of(comparison.rhs), comparison.rhs
        if op in ("<", ">"):  # tightened by one step: the compiler's float rhs, and the exact sum behind it
            step = precision if op == ">" else -precision
            op, rhs, tightened = op + "=", rhs + Exact.of(step), comparison.rhs + step
        if op in (">=", "<=") and abs(tightened) <= GRID_TOL and comparison.lhs.degree() == 1:
            link = _is_wall_link(expand(lhs if op == ">=" else [(mono, -coeff) for mono, coeff in lhs], plans))
            if link is not None:
                lower, upper = link
                penalties.append({(lower,): Exact.of(1.0), tuple(sorted((lower, upper))): Exact.of(-1.0)})
                continue
        if op != "=":
            low, high = polynomial_interval(comparison.lhs, intervals)
            slack_low, slack_high = (-(high - tightened), 0.0) if op == ">=" else (0.0, tightened - low)
            unsatisfiable = high < tightened - GRID_TOL if op == ">=" else low > tightened + GRID_TOL
            if not unsatisfiable and slack_high - slack_low >= precision - GRID_TOL:
                slack = encode_range(f"__slack{index}", slack_low, slack_high, precision, method="logarithmic")
                names.update(slack.binary_names())
                lhs += [((binary,), Exact.of(weight)) for binary, weight in slack.binaries] + [((), Exact.of(slack.offset))]
        lhs.append(((), -rhs))
        line = expand(lhs, plans)
        penalties.append(times(line, line))
    return Reference(tuple(sorted(names)), expand(cost_terms, plans), penalties)


# -- the checks ----------------------------------------------------------------------------


def assert_form(form, want: Terms, what: str, exact: bool = False) -> None:
    """``form``'s terms against the exact ones: each held coefficient is at least ``COEFF_EPS`` and within its
    bound of the exact value, and one that is missing may have been dropped.  With ``exact`` (integer and
    dyadic inputs) every bound must be zero, so each coefficient equals its exact value, float hex and all."""
    got = form.terms()
    for mono in set(got) | set(want):
        coeff = want.get(mono, ZERO)
        assert not exact or coeff.bound == 0, f"{what}: {mono} is not exact in floats, bound {coeff.bound!r}"
        if mono not in got:
            assert coeff.may_be_dropped(), f"{what}: {mono} is missing, its exact value is {float(coeff.value)!r}"
            continue
        value = got[mono]
        error = abs(Fraction(value) - coeff.value)
        assert abs(value) >= COEFF_EPS, f"{what}: {mono} holds {value!r}, below COEFF_EPS"
        assert error <= coeff.bound, (
            f"{what}: {mono} is {value!r}, its exact value {float(coeff.value)!r} (off by {float(error)!r}, bound {coeff.bound!r})"
        )


def assert_follows_the_float_rule(model, reference: Reference, config, lambdas=None, exact: bool = False) -> None:
    """The cost and each penalty block against ``reference``; each λ within its estimator's interval, or the
    given ``lambdas``; and, when nothing was quadratized, the binaries and the weighed sum.  With ``exact``
    (integer and dyadic inputs) the stages equal their exact values; the weighed sum does wherever its
    products and sums cannot round (``Exact.bound``)."""
    assert len(model.penalties) == len(reference.penalties)
    assert_form(model.cost, reference.cost, "the cost", exact)
    for k, (block, penalty) in enumerate(zip(model.penalties, reference.penalties)):
        assert_form(block.form, penalty, f"block {k} ({block.label})", exact)
    if lambdas is None:
        assert_lambdas(model, config)
    else:
        assert model.lambdas() == list(lambdas)
    if not model.aux_registry:
        assert model.binary_variables() == list(reference.order)
        assert_form(model.arrays, reference.weighed(model.lambdas()), "the weighed sum")


# -- λ, estimated exactly on the compiled forms ---------------------------------------------

Interval = tuple[Fraction, Fraction]


def _point(x: float) -> Interval:
    return Fraction(x), Fraction(x)


def _rounded(lo: Fraction, hi: Fraction) -> Interval:
    """``[lo, hi]`` widened by ``γ_1·max(|lo|, |hi|)``: where a float result one rounding from it may lie."""
    slack = gamma(1) * max(abs(lo), abs(hi))
    return lo - slack, hi + slack


def _sum(intervals: Iterable[Interval]) -> Interval:
    """Where a float sum of values in these intervals lies, in any order: ``γ_(n-1)·Σ|values|`` of the exact sum."""
    intervals = list(intervals)
    lo, hi = sum(a for a, _ in intervals), sum(b for _, b in intervals)
    slack = gamma(max(len(intervals) - 1, 0)) * sum(max(abs(a), abs(b)) for a, b in intervals)
    return lo - slack, hi + slack


def _flip_bounds(form) -> tuple[list[Interval], list[Interval]]:
    """Each binary's one-flip (gain, loss): its linear term plus the positive (negative) parts of the couplers
    and higher terms that hold it, each a float sum."""
    held: list[list[float]] = [[] for _ in form.order]
    position = {name: k for k, name in enumerate(form.order)}
    for i, j, coeff in zip(form.rows.tolist(), form.cols.tolist(), form.values.tolist()):
        held[i].append(coeff)
        held[j].append(coeff)
    for mono, coeff in form.higher.items():
        for name in mono:
            held[position[name]].append(coeff)
    linear = form.linear.tolist()
    gains = [_sum(map(_point, [linear[k], *(max(c, 0.0) for c in held[k])])) for k in range(len(linear))]
    losses = [_sum(map(_point, [-linear[k], *(max(-c, 0.0) for c in held[k])])) for k in range(len(linear))]
    return gains, losses


def _vlm(form) -> Interval:
    gains, losses = _flip_bounds(form)
    both = gains + losses
    return max([Fraction(0), *(lo for lo, _ in both)]), max([Fraction(0), *(hi for _, hi in both)])


def lambda_interval(method: str, objective, penalty=None) -> Interval:
    """Where the compiled estimate of ``method`` lies, the estimator run exactly on the compiled float forms.

    A float sum lies within ``γ_(n-1)·Σ|terms|`` of its exact sum, and each other operation rounds once.  A
    division carries its denominator's interval, so a quotient of a cancellation residue keeps the residue's
    conditioning.  A step within its bound of ``GRID_TOL`` may be kept or skipped.  ub-positive raises as the
    compiler does.
    """
    coefficients = objective.coefficients().tolist()
    if method == "ub-positive":
        if any(c < 0 for c in coefficients):
            raise ValueError("ub-positive needs an objective with only positive coefficients")
        return _sum(map(_point, coefficients))
    if method == "mqc":
        return _sum([_point(max(coefficients, default=0.0)), _point(objective.offset)])
    if method == "vlm":
        return _vlm(objective)
    if method == "ub-naive":  # the positive sum minus the negative one: n values, n - 1 roundings
        return _sum(_point(abs(c)) for c in coefficients)
    if method == "ub-posiform":
        gains, losses = _flip_bounds(objective)
        linear = [Fraction(c) for c in objective.linear.tolist()]
        upper = _sum((max(lo, 0), max(hi, 0)) for lo, hi in (_rounded(g[0] + l, g[1] + l) for g, l in zip(gains, linear)))
        lower = _sum((min(lo, 0), min(hi, 0)) for lo, hi in (_rounded(l - s[1], l - s[0]) for s, l in zip(losses, linear)))
        return _rounded((upper[0] - lower[1]) / 2, (upper[1] - lower[0]) / 2)
    vlm = _vlm(objective)
    penalty_gains, penalty_losses = _flip_bounds(penalty)
    if method == "momc":  # steps above GRID_TOL are kept: those that may be (clipped at GRID_TOL), and those that must
        steps = penalty_gains + penalty_losses
        possible = [(max(lo, Fraction(GRID_TOL)), hi) for lo, hi in steps if hi > GRID_TOL]
        certain = [(lo, hi) for lo, hi in steps if lo > GRID_TOL]
        low = min([lo for lo, _ in possible] + ([] if certain else [Fraction(1)]))
        high = min(hi for _, hi in certain) if certain else max([Fraction(1), *(hi for _, hi in possible)])
        return _rounded(vlm[0] / high, vlm[1] / low)
    # moc: the largest ratio of the objective's flip bound to the penalty's, over the penalty's kept steps
    gains, losses = _flip_bounds(objective)
    position = {name: k for k, name in enumerate(objective.order)}
    zero = (Fraction(0), Fraction(0))
    ratios, certain_ratios = [], []
    for own, penalty_bounds in ((gains, penalty_gains), (losses, penalty_losses)):
        for name, step in zip(penalty.order, penalty_bounds):
            numerator = own[position[name]] if name in position else zero
            if step[1] <= GRID_TOL:
                continue
            low, high = max(step[0], Fraction(GRID_TOL)), step[1]
            quotients = [numerator[0] / low, numerator[0] / high, numerator[1] / low, numerator[1] / high]
            ratio = _rounded(min(quotients), max(quotients))
            ratios.append(ratio)
            if step[0] > GRID_TOL:
                certain_ratios.append(ratio)
    if not ratios:
        return vlm
    high = max(hi for _, hi in ratios)
    if certain_ratios:
        return max(lo for lo, _ in certain_ratios), high
    return min(vlm[0], *(lo for lo, _ in ratios)), max(vlm[1], high)


def assert_lambdas(model, config) -> None:
    """Each block's λ: the manual value, or within its estimator's interval (times the weak factor), or the
    fallback 1.0 where the estimate may lie below ``COEFF_EPS``."""
    method = config.lambda_method
    if method == "manual":
        assert model.lambdas() == [config.manual_lambdas] * len(model.penalties)
        return
    per_constraint = method in ("momc", "moc")
    shared = None if per_constraint else lambda_interval(method, model.cost)
    for block in model.penalties:
        lo, hi = lambda_interval(method, model.cost, block.form) if per_constraint else shared
        if block.hardness == "weak":
            weak = Fraction(WEAK_MULTIPLIER)
            lo, hi = _rounded(lo * weak, hi * weak)
        lam = block.lam
        estimated = lo <= lam <= hi and lam >= COEFF_EPS
        fallback = lam == 1.0 and lo < COEFF_EPS
        assert estimated or fallback, f"{block.label}: λ {lam!r} outside [{float(lo)!r}, {float(hi)!r}]"
