"""Cost composition, penalties, penalty-weight estimation, quadratization.

The mixed a/b/c problem (see conftest) is the worked reference: its composed
cost has offset 4 and max coefficient 6.  Its published penalty-weight table,
the one-hot expansion and the gate truth tables are acceptance criteria
(``test_acceptance.py``) and are not restated here.  Everything else is
verified against brute-force enumeration.
"""

import itertools
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qubo_forge.cli import bundled_data, load_knapsack
from qubo_forge import compiler
from qubo_forge import expression as expression_module
from qubo_forge.compiler import (
    LAMBDA_METHODS,
    CompileConfig,
    QuadraticForm,
    boolean_penalty,
    compile_problem,
    compose_cost,
    equality_penalty,
    estimate_lambda,
    inequality_to_penalty,
    infer_slack_precision,
    one_flip_bounds,
    polynomial_interval,
    quadratize,
)
from qubo_forge.encoding import encode
from qubo_forge.expression import COEFF_EPS, Comparison, Polynomial, parse_expression
from qubo_forge.problem import BooleanRelation, Problem
from qubo_forge.solvers import SolverParams, solve_sa
from reference import (
    Exact,
    assert_follows_the_float_rule,
    assert_form,
    dense_form,
    energies_over_assignments,
    lambda_interval,
    reference_compile,
    sparse_max_cut,
    time_limit,
)

V = Polynomial.variable


@pytest.fixture
def mixed_parts(mixed_problem):
    plans = [encode(decl) for decl in mixed_problem.variables]
    by_source = {plan.source: plan for plan in plans}
    cost = compose_cost(mixed_problem.objectives, by_source)
    return mixed_problem, plans, by_source, cost


def min_over_aux(poly, base_assignment, aux_names):
    best = None
    for bits in itertools.product([0, 1], repeat=len(aux_names)):
        value = poly.evaluate({**base_assignment, **dict(zip(aux_names, bits))})
        best = value if best is None else min(best, value)
    return best


class TestComposeCost:
    def test_reference_cost_shape(self, mixed_parts):
        _, _, _, form = mixed_parts
        cost = form.terms()
        assert cost[()] == 4.0
        non_constant = {m: c for m, c in cost.items() if m}
        top_monomial = max(non_constant, key=non_constant.get)
        assert non_constant[top_monomial] == 6.0
        assert top_monomial == ("b#2", "c#3")  # level-3 bit times weight-2 bit
        assert len(cost) == 35  # frozen from the brute-force expansion
        assert max(map(len, cost)) == 2

    def test_reference_cost_matches_decoded_evaluation(self, mixed_parts):
        problem, plans, _, form = mixed_parts
        cost = Polynomial(form.terms())
        names = sorted(cost.variables())
        objective = problem.objectives[0].expr
        rng = np.random.default_rng(11)
        for _ in range(200):
            bits = {name: int(rng.integers(0, 2)) for name in names}
            decoded = {plan.source: plan.decode(bits) for plan in plans}
            assert cost.evaluate(bits) == pytest.approx(objective.evaluate(decoded), abs=1e-9)

    def test_constant_objective(self):
        problem = Problem()
        problem.add_binary_variable("a")
        problem.add_objective("7")
        cost = compose_cost(problem.objectives, {"a": encode(problem.variables[0])})
        assert cost.terms() == {(): 7.0}

    def test_maximize_flips_sign(self, tiny_knapsack):
        plans = [encode(decl) for decl in tiny_knapsack.variables]
        cost = compose_cost(tiny_knapsack.objectives, {p.source: p for p in plans})
        assert cost.terms() == {("obj_0#0",): -5.0, ("obj_1#0",): -10.0}

    def test_aggregation_weights_scale_terms(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_binary_variable("y")
        problem.add_objective("x", weight=2.0)
        problem.add_objective("y", direction="maximize", weight=3.0)
        cost = compose_cost(problem.objectives, {decl.name: encode(decl) for decl in problem.variables})
        assert cost.terms() == {("x#0",): 2.0, ("y#0",): -3.0}


class TestEqualityPenalty:
    def test_zero_equals_zero(self):
        assert equality_penalty(Comparison(lhs=Polynomial.zero(), op="=", rhs=0.0)).terms() == {}

    def test_pair_sum_truth_table(self):
        penalty = Polynomial(equality_penalty(Comparison(lhs=V("b4") + V("b5"), op="=", rhs=2.0)).terms())
        expected = {(0, 0): 4.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 0.0}
        for bits, value in expected.items():
            assert penalty.evaluate(dict(zip(("b4", "b5"), bits))) == value


class TestInequalityPenalty:
    def test_reference_slack_range_and_weights(self, mixed_problem):
        model = compile_problem(mixed_problem)
        block = model.penalties[0]
        plan = block.slack_plan
        assert plan is not None
        assert plan.offset == -3.0  # slack range [-(max(b + c) - 2), 0] = [-3, 0]
        assert [w for _, w in plan.binaries] == [0.25, 0.5, 1.0, 1.25]

    def test_always_feasible_inequality_zeroable_everywhere(self):
        # lhs >= its own minimum: every assignment admits a zeroing slack.
        problem = Problem()
        problem.add_binary_variables_array("x", [2])
        problem.add_objective("x_0")
        problem.add_constraint("x_0 + x_1 >= 0")
        problem.freeze()
        model = compile_problem(problem)
        block = model.penalties[0]
        slack_names = block.slack_plan.binary_names() if block.slack_plan else []
        for bits in itertools.product([0, 1], repeat=2):
            base = {"x_0#0": bits[0], "x_1#0": bits[1]}
            assert min_over_aux(Polynomial(block.form.terms()), base, slack_names) == pytest.approx(0.0, abs=1e-9)

    def test_knapsack_pair_enumeration(self, tiny_knapsack):
        model = compile_problem(tiny_knapsack)
        block = model.penalties[0]
        plan = block.slack_plan
        assert plan.offset == 0.0 and sum(w for _, w in plan.binaries) == 4.0  # slack covers [0, 4]
        assert all(float(w).is_integer() for _, w in plan.binaries)
        slack_names = plan.binary_names()
        for bits in itertools.product([0, 1], repeat=2):
            load = 2 * bits[0] + 3 * bits[1]
            base = {"obj_0#0": bits[0], "obj_1#0": bits[1]}
            best = min_over_aux(Polynomial(block.form.terms()), base, slack_names)
            if load <= 4:
                assert best == pytest.approx(0.0, abs=1e-9)
            else:
                assert best >= 1.0 - 1e-9

    def test_strict_inequality_tightens_by_one_step(self):
        problem = Problem()
        problem.add_binary_variables_array("x", [2])
        problem.add_objective("x_0")
        problem.add_constraint("x_0 + x_1 > 1")
        problem.freeze()
        model = compile_problem(problem)
        block = model.penalties[0]
        slack_names = block.slack_plan.binary_names() if block.slack_plan else []
        for bits in itertools.product([0, 1], repeat=2):
            base = {"x_0#0": bits[0], "x_1#0": bits[1]}
            best = min_over_aux(Polynomial(block.form.terms()), base, slack_names)
            if sum(bits) > 1:  # only (1, 1) exceeds 1 strictly on an integer grid
                assert best == pytest.approx(0.0, abs=1e-9)
            else:
                assert best >= 1.0 - 1e-9

    def test_unsatisfiable_constraint_warns_but_compiles(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("x")
        problem.add_constraint("x >= 2")
        problem.freeze()
        with pytest.warns(UserWarning, match="unsatisfiable"):
            model = compile_problem(problem)
        block = model.penalties[0]
        assert block.slack_plan is None
        assert all(Polynomial(block.form.terms()).evaluate({"x#0": b}) >= 1.0 for b in (0, 1))

    def test_binary_chain_inequality_uses_product_penalty(self):
        penalty, plan = inequality_to_penalty(
            Comparison(lhs=V("hi") - V("lo"), op=">=", rhs=0.0), (-1.0, 1.0), 1.0, "__slack0"
        )
        assert plan is None
        table = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0}
        for (hi, lo), expected in table.items():
            assert Polynomial(penalty.terms()).evaluate({"hi": hi, "lo": lo}) == expected


class TestBooleanPenalty:
    def test_not_rows(self):
        penalty, _ = boolean_penalty(BooleanRelation("not", "z", ("x",)), "__bool0")
        assert Polynomial(penalty.terms()).evaluate({"x": 1, "z": 0}) == 0.0
        assert Polynomial(penalty.terms()).evaluate({"x": 1, "z": 1}) == 1.0


class TestLambdaEstimation:
    def test_ub_positive(self):
        poly = Polynomial({("b",): 1.0, ("b", "c"): 2.0})
        assert estimate_lambda("ub-positive", QuadraticForm.from_polynomial(poly)) == 3.0
        with pytest.raises(ValueError, match="positive coefficients"):
            estimate_lambda("ub-positive", QuadraticForm.from_polynomial(poly - 2 * V("d")))

    @pytest.mark.parametrize(
        "method, terms, message",
        [
            ("momc", {("a",): 1.0}, "momc needs the constraint penalty"),
            ("bogus", {("a",): 1.0}, "unknown lambda method 'bogus'"),
            ("ub-posiform", {("a", "b", "c"): 1.0}, "ub-posiform needs a degree <= 2 objective"),
        ],
    )
    def test_refused_estimates(self, method, terms, message):
        with pytest.raises(ValueError, match=message):
            estimate_lambda(method, QuadraticForm.from_polynomial(Polynomial(terms)))

    def test_moc_without_a_penalty_step_falls_back_to_vlm(self):
        cost = QuadraticForm.from_polynomial(Polynomial({("a",): 1.0, ("a", "b"): -2.0}))
        flat = QuadraticForm.from_polynomial(Polynomial({(): 3.0}))  # no binary, so no one-flip step
        assert estimate_lambda("moc", cost, flat) == estimate_lambda("vlm", cost) == 2.0

    def test_one_flip_bounds_pair(self):
        poly = Polynomial({("x",): -4.0, ("x", "y"): 16.0})
        gain, loss = one_flip_bounds(QuadraticForm.from_polynomial(poly))  # over the sorted binaries x, y
        assert (gain[0], loss[0]) == (12.0, 4.0)

    def test_weak_multiplier_applies(self, mixed_problem):
        problem = Problem()
        problem.add_binary_variables_array("x", [2])
        problem.add_objective("x_0 + x_1")
        problem.add_constraint("x_0 + x_1 >= 1", hardness="weak")
        problem.freeze()
        model = compile_problem(problem, CompileConfig(lambda_method="vlm"))
        assert model.penalties[0].lam == pytest.approx(0.3 * 1.0)

    @pytest.mark.parametrize("coeff", [-3.0, -5.0])
    def test_an_estimate_that_cancels_to_a_rounding_residue_falls_back_to_one(self, coeff):
        """mqc is ``max coeff + offset``: -0.9 + 0.9 (or -1.5 + 1.5) here, a residue of an ulp or none at all.  A λ
        that small would drop every weighted term of the domain-wall block, so both fall back to 1."""
        problem = Problem()
        problem.add_bipolar_variable("s")
        problem.add_continuous_variable("d", 0.7, 1.3, 0.3, encoding="domain_wall")
        problem.add_objective(Polynomial({("s",): coeff, ("d",): coeff}))
        model = compile_problem(problem.freeze(), CompileConfig(lambda_method="mqc"))
        assert abs(estimate_lambda("mqc", model.cost)) < COEFF_EPS
        assert model.lambdas() == [1.0]
        assert model.arrays.terms()[("d#0", "d#1")] == -1.0

    def test_manual_values(self, mixed_problem):
        model = compile_problem(mixed_problem, CompileConfig(lambda_method="manual", manual_lambdas=7.5))
        assert [b.lam for b in model.penalties] == [7.5, 7.5]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"lambda_method": "bogus"}, "unknown lambda method 'bogus'"),
            ({"lambda_method": "manual"}, "manual lambda method needs manual_lambdas"),
            ({"lambda_method": "vlm", "manual_lambdas": 5.0}, "manual_lambdas is read only by the manual lambda method, not 'vlm'"),
        ],
    )
    def test_a_config_names_what_is_missing_or_unread(self, config, message):
        with pytest.raises(ValueError, match=message):
            CompileConfig(**config)

    @pytest.mark.parametrize("values", [float("inf"), float("nan")])
    def test_manual_values_must_be_finite(self, values):
        with pytest.raises(ValueError, match="manual_lambdas must be finite"):
            CompileConfig(lambda_method="manual", manual_lambdas=values)

    @pytest.mark.parametrize("values", [0, -1])
    def test_manual_values_must_be_positive(self, values):
        with pytest.raises(ValueError, match="manual lambda values must be positive"):
            CompileConfig(lambda_method="manual", manual_lambdas=values)


def mixed_kinds_problem() -> Problem:
    """Every variable kind, dictionary and domain-wall encodings (so induced blocks), an equality and a weak inequality."""
    problem = Problem()
    problem.add_binary_variable("a")
    problem.add_discrete_variable("b", [-1, 1, 3])
    problem.add_continuous_variable("c", -1, 1, 0.5, encoding="dictionary")
    problem.add_continuous_variable("d", 0, 2, 0.5, encoding="domain_wall")
    problem.add_objective("a*b + b*c - 2*c*d + d")
    problem.add_constraint("a + 2*d = 2")
    problem.add_constraint("b + c <= 2", hardness="weak")
    return problem.freeze()


def capacity_cubic_problem() -> Problem:
    """A degree-3 objective under a capacity: every model of it goes through ``quadratize``."""
    problem = Problem()
    problem.add_binary_variables_array("x", [4])
    problem.add_objective("x_0*x_1*x_2 - 2*x_1*x_2*x_3 + x_0 - x_3")
    problem.add_constraint("x_0 + x_1 + x_2 + x_3 <= 2")
    return problem.freeze()


class TestReweighting:
    """``compile_problem`` and ``QuboModel.with_lambdas`` weigh the penalty blocks in one place."""

    PROBLEMS = {
        "readme": lambda request: request.getfixturevalue("mixed_problem"),
        "f3": lambda request: load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))[1],
        "mixed": lambda request: mixed_kinds_problem(),
        "cubic": lambda request: capacity_cubic_problem(),
    }

    @staticmethod
    def terms(model):
        return list(model.arrays.terms().items()), model.aux_registry, model.lambdas()

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_compile_and_reweight_agree_term_for_term(self, name, request):
        problem = self.PROBLEMS[name](request)
        model = compile_problem(problem)
        n = len(model.penalties)
        assert n >= 1 and (name != "cubic" or model.aux_registry)
        manual = compile_problem(problem, CompileConfig(lambda_method="manual", manual_lambdas=2.5))
        assert self.terms(model.with_lambdas([2.5] * n)) == self.terms(manual)
        vector = [1.5 + k for k in range(n)]
        from_vlm = compile_problem(problem, CompileConfig(lambda_method="vlm")).with_lambdas(vector)
        from_mqc = compile_problem(problem, CompileConfig(lambda_method="mqc")).with_lambdas(vector)
        assert self.terms(from_vlm) == self.terms(from_mqc)
        assert from_vlm.lambdas() == vector and model.lambdas() != vector  # the source model is left as it was

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.0], r"with_lambdas needs 2 values \(user \+ encoding-induced constraints\), got 1"),
            ([2.0, float("inf")], "lambdas must be finite"),
            ([1.0, -2.0], "lambda values must be positive"),
        ],
        ids=["length", "infinite", "negative"],
    )
    def test_with_lambdas_refuses_a_bad_vector(self, mixed_problem, values, message):
        with pytest.raises(ValueError, match=message):
            compile_problem(mixed_problem).with_lambdas(values)

    def test_blocks_are_frozen_and_a_built_model_has_no_cost(self, mixed_problem):
        with pytest.raises(FrozenInstanceError):
            compile_problem(mixed_problem).penalties[0].lam = 1.0
        built = compiler.QuboModel(QuadraticForm.from_polynomial(V("x")), offset=0.0)
        with pytest.raises(ValueError, match="needs a compiled model"):
            built.with_lambdas([])

    def test_a_model_refuses_a_form_with_higher_terms(self):
        cubic = QuadraticForm.from_polynomial(V("x") * V("y") * V("z") + V("x"))
        assert dict(cubic.higher) == {("x", "y", "z"): 1.0}
        with pytest.raises(ValueError, match="a QUBO has no terms of degree 3"):
            compiler.QuboModel(cubic)


class TestOverflow:
    """A model whose ``Σ|c| + |offset|`` is not finite is refused where it is built, not solved to a NaN energy."""

    MESSAGE = r"^the model overflows: its coefficients and offset sum to inf in magnitude$"

    @staticmethod
    def huge_objective_problem():
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("1e308*x")
        problem.add_constraint("x <= 0")
        return problem.freeze()

    def test_a_penalty_weight_past_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match=self.MESSAGE):  # λ 1e308 on top of the objective's 1e308
            compile_problem(self.huge_objective_problem())

    def test_couplers_past_the_float_range_are_refused(self):
        problem = Problem()
        problem.add_continuous_variable("c", 0, 1e200, 1e199)
        problem.add_objective("c*c")
        with pytest.raises(ValueError, match=self.MESSAGE):
            compile_problem(problem.freeze())

    def test_a_reweighted_or_built_model_past_the_float_range_is_refused(self):
        model = compile_problem(self.huge_objective_problem(), CompileConfig(lambda_method="manual", manual_lambdas=1.0))
        assert model.arrays.linear.tolist() == [1e308]
        with pytest.raises(ValueError, match=self.MESSAGE):
            model.with_lambdas([1e308])
        with pytest.raises(ValueError, match=self.MESSAGE):  # each coefficient is finite, their magnitudes' sum is not
            compiler.QuboModel(QuadraticForm.from_polynomial(1e308 * V("x") - 1e308 * V("y")))
        with pytest.raises(ValueError, match=self.MESSAGE):
            compiler.QuboModel(QuadraticForm.from_polynomial(V("x")), offset=math.inf)

    def test_reweighting_a_cubic_model_past_the_float_range_is_refused_without_warnings(self):
        problem = Problem()
        for name in "xyz":
            problem.add_binary_variable(name)
        problem.add_objective("x*y*z + x")
        problem.add_constraint("x + y <= 1")
        model = compile_problem(problem.freeze(), CompileConfig(lambda_method="manual", manual_lambdas=1.0))
        with pytest.raises(ValueError, match=r"^the model overflows: its coefficients and offset sum to nan in magnitude$"):
            model.with_lambdas([1e308])  # numpy's warnings would fail the test: pytest turns RuntimeWarning into an error


class TestLambdaSufficiency:
    """Estimated weights that do dominate must yield feasible exhaustive optima.

    Not every method is sufficient on every problem (the estimators are
    bounds, not guarantees): moc's reference value of 1 for the inequality
    admits an infeasible point at energy -2.125, and mqc/momc undershoot on
    the all-negative knapsack objective.  Those cases are covered by the
    retry-loop test below instead.
    """

    SUFFICIENT = {
        "mixed": ("mqc", "vlm", "momc", "ub-naive", "ub-posiform"),
        "knapsack": ("vlm", "ub-naive", "ub-posiform"),
    }

    @pytest.mark.parametrize("method", SUFFICIENT["mixed"])
    def test_mixed_problem(self, mixed_problem, method):
        from qubo_forge.analysis import solution_is_valid
        from qubo_forge.solvers import solve_exhaustive

        model = compile_problem(mixed_problem, CompileConfig(lambda_method=method))
        solution = solve_exhaustive(model)
        assert solution_is_valid(model, solution.best_binary, solution.best_decoded)
        # non-dyadic weights (momc's 12/1.9375) leave ~1e-13 of float drift
        assert solution.best_energy == pytest.approx(-2.0, abs=1e-9)

    @pytest.mark.parametrize("method", SUFFICIENT["knapsack"])
    def test_bundled_knapsack(self, method):
        from qubo_forge.analysis import solution_is_valid
        from qubo_forge.cli import bundled_data, load_knapsack
        from qubo_forge.solvers import solve_exhaustive

        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        model = compile_problem(problem, CompileConfig(lambda_method=method))
        solution = solve_exhaustive(model)
        assert solution_is_valid(model, solution.best_binary, solution.best_decoded)
        assert solution.best_energy == -35.0

    def test_moc_reference_weight_is_insufficient_but_loop_recovers(self, mixed_problem):
        # The published moc value (1.0 for the inequality) admits b=3,
        # c=-1.25: objective -2.1875, slack-minimized penalty 0.0625, total
        # -2.125 < -2.  The retry loop is the documented remedy.
        from qubo_forge.analysis import solution_is_valid
        from qubo_forge.solvers import SolverParams, UpdateStrategy, solve_exhaustive, solve_with_lambda_update

        model = compile_problem(mixed_problem, CompileConfig(lambda_method="moc"))
        solution = solve_exhaustive(model)
        assert solution.best_energy == pytest.approx(-2.125)
        assert not solution_is_valid(model, solution.best_binary, solution.best_decoded)

        outcome = solve_with_lambda_update(
            mixed_problem,
            CompileConfig(lambda_method="moc"),
            "exhaustive",
            SolverParams(),
            UpdateStrategy("sequential", lambda_max=1e6, max_trials=4),
        )
        assert outcome.valid
        assert outcome.solution.best_energy == -2.0


def rebuild_quadratize(poly, penalty_scale):
    """Reference: the pair-substitution reduction rebuilding the whole polynomial once per auxiliary."""
    registry = {}
    work = poly
    gadgets = []
    while work.degree() > 2:
        counts = {}
        for mono, _ in work:
            if len(mono) < 3:
                continue
            for i in range(len(mono)):
                for j in range(i + 1, len(mono)):
                    pair = (mono[i], mono[j])
                    counts[pair] = counts.get(pair, 0) + 1
        top = max(counts.values())
        pair = min(p for p, c in counts.items() if c == top)
        left, right = pair
        aux = f"__aux{len(registry)}"
        registry[pair] = aux
        rebuilt = {}
        for mono, coeff in work:
            if len(mono) >= 3 and left in mono and right in mono:
                stripped = list(mono)
                stripped.remove(left)
                stripped.remove(right)
                mono = tuple(sorted(stripped + [aux]))
            rebuilt[mono] = rebuilt.get(mono, 0.0) + coeff
        work = Polynomial(rebuilt)
        bl, br, by = V(left), V(right), V(aux)
        gadgets.append(penalty_scale * (bl * br - 2 * bl * by - 2 * br * by + 3 * by))
    return sum(gadgets, work), registry


def exact_terms(poly):
    return [(mono, coeff.hex()) for mono, coeff in dict(poly).items()]


_COEFFS = st.one_of(st.integers(-9, 9).filter(bool).map(float), st.fractions(-5, 5, max_denominator=30).map(float))
_MULTILINEAR = st.dictionaries(
    st.lists(st.sampled_from([f"v{k}" for k in range(9)]), max_size=5, unique=True).map(lambda m: tuple(sorted(m))),
    _COEFFS,
    max_size=25,
).map(Polynomial)


class TestQuadratize:
    @settings(max_examples=150, deadline=None)
    @given(poly=_MULTILINEAR, scale=_COEFFS.map(abs).filter(bool))
    def test_matches_whole_polynomial_rebuild(self, poly, scale):
        reduced, registry = quadratize(QuadraticForm.from_polynomial(poly), scale)
        expected, expected_registry = rebuild_quadratize(poly, scale)
        assert sorted(exact_terms(reduced.terms())) == sorted(exact_terms(expected))
        assert list(registry.items()) == list(expected_registry.items())

    def test_ties_break_on_the_smallest_pair(self):
        # rounds 1-3 tie at the top count: (a,d)/(b,c)/(c,e), then (b,c)/(c,e), then (c,e)/(c,f)/(e,f)
        poly = Polynomial(
            {("a", "b", "c", "d"): 1.0, ("b", "c", "e"): 2.0, ("a", "b"): 0.5, ("a", "d", "e"): -1.5, ("c", "e", "f"): 0.25}
        )
        form, registry = quadratize(QuadraticForm.from_polynomial(poly), penalty_scale=6.0)
        reduced = Polynomial(form.terms())
        assert list(registry.items()) == [(("a", "d"), "__aux0"), (("b", "c"), "__aux1"), (("c", "e"), "__aux2")]
        names = ("a", "b", "c", "d", "e", "f")
        for bits in itertools.product([0, 1], repeat=6):
            base = dict(zip(names, bits))
            assert min_over_aux(reduced, base, list(registry.values())) == poly.evaluate(base)

    def test_triple_product(self):
        poly = Polynomial({("b1", "b2", "b3"): 1.0})
        form, registry = quadratize(QuadraticForm.from_polynomial(poly), penalty_scale=2.0)
        reduced = Polynomial(form.terms())
        assert reduced.degree() <= 2
        assert registry == {("b1", "b2"): "__aux0"}
        for bits in itertools.product([0, 1], repeat=3):
            base = dict(zip(("b1", "b2", "b3"), bits))
            assert min_over_aux(reduced, base, ["__aux0"]) == bits[0] * bits[1] * bits[2]

    def test_quadratic_input_untouched(self):
        poly = Polynomial({("a", "b"): 1.5, ("a",): -1.0})
        form, registry = quadratize(QuadraticForm.from_polynomial(poly), penalty_scale=10.0)
        assert form.terms() == poly.terms and registry == {}

    def test_shared_pair_gets_single_aux(self):
        poly = Polynomial({("b1", "b2", "b3"): 1.0, ("b1", "b2", "b4"): 1.0})
        form, registry = quadratize(QuadraticForm.from_polynomial(poly), penalty_scale=3.0)
        reduced = Polynomial(form.terms())
        assert list(registry) == [("b1", "b2")]
        names = ("b1", "b2", "b3", "b4")
        for bits in itertools.product([0, 1], repeat=4):
            base = dict(zip(names, bits))
            want = bits[0] * bits[1] * bits[2] + bits[0] * bits[1] * bits[3]
            assert min_over_aux(reduced, base, list(registry.values())) == want


class TestCompile:
    def test_reference_model_invariants(self, mixed_problem):
        model = compile_problem(mixed_problem)
        quadratic = Polynomial(model.arrays.terms())
        assert quadratic.degree() <= 2 and quadratic.constant_term == model.offset
        # every binary belongs to exactly one owner: encoding, slack, or aux
        owners = {}
        for plan in model.encodings:
            for name in plan.binary_names():
                owners.setdefault(name, []).append("encoding")
        for block in model.penalties:
            if block.slack_plan:
                for name in block.slack_plan.binary_names():
                    owners.setdefault(name, []).append("slack")
        for aux in model.aux_registry.values():
            owners.setdefault(aux, []).append("aux")
        assert all(len(tags) == 1 for tags in owners.values())
        assert set(model.binary_variables()) == set(owners)

    def test_unconstrained_single_binary(self):
        problem = Problem()
        problem.add_binary_variable("b")
        problem.add_objective("b")
        problem.freeze()
        model = compile_problem(problem)
        assert model.arrays.terms() == {("b#0",): 1.0}
        assert model.offset == 0.0 and model.penalties == []

    def test_penalties_nonnegative_and_zero_on_feasible(self, tiny_knapsack):
        model = compile_problem(tiny_knapsack)
        names = model.binary_variables()
        assert len(names) <= 14
        for block in model.penalties:
            zeroed = False
            for bits in itertools.product([0, 1], repeat=len(names)):
                assignment = dict(zip(names, bits))
                value = Polynomial(block.form.terms()).evaluate(assignment)
                assert value >= -1e-9
                zeroed = zeroed or abs(value) < 1e-9
            assert zeroed

    def test_requires_frozen_problem(self):
        problem = Problem()
        problem.add_binary_variable("b")
        problem.add_objective("b")
        with pytest.raises(ValueError, match="frozen"):
            compile_problem(problem)

    def test_cubic_objective_is_quadratized(self):
        problem = Problem()
        for name in ("x", "y", "z"):
            problem.add_binary_variable(name)
        problem.add_objective("x*y*z - x")
        problem.freeze()
        model = compile_problem(problem)
        quadratic = Polynomial(model.arrays.terms())
        assert quadratic.degree() <= 2
        assert model.aux_registry
        ex_names = model.binary_variables()
        aux_names = sorted(model.aux_registry.values())
        for bits in itertools.product([0, 1], repeat=3):
            base = {"x#0": bits[0], "y#0": bits[1], "z#0": bits[2]}
            want = bits[0] * bits[1] * bits[2] - bits[0]
            got = min_over_aux(quadratic, base, aux_names)
            assert got == pytest.approx(want, abs=1e-9)

    def test_model_json_and_matrix_export(self, mixed_problem, tmp_path):
        model = compile_problem(mixed_problem)
        data = model.to_json_dict()
        assert data["schema"] == "qubo-forge-model/1"
        assert data["variables"] == model.binary_variables()
        rebuilt = Polynomial(
            {tuple([name]): coeff for name, coeff in data["linear"]}
            | {(a, b): coeff for a, b, coeff in data["quadratic"]}
            | {(): data["offset"]}
        )
        assert rebuilt == Polynomial(model.arrays.terms())
        path = tmp_path / "model.txt"
        model.save_matrix(path)
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        order = model.binary_variables()
        total = Polynomial.constant(model.offset)
        for line in lines:
            i, j, value = line.split()
            i, j = int(i), int(j)
            mono = (order[i],) if i == j else tuple(sorted((order[i], order[j])))
            total = total + Polynomial({mono: float(value)})
        assert total == Polynomial(model.arrays.terms())


def cubic_problem() -> Problem:
    problem = Problem()
    for name in ("x", "y", "z"):
        problem.add_binary_variable(name)
    problem.add_continuous_variable("c", 0, 1.5, 0.5)
    problem.add_objective("x*y*z - 0.7*x + 0.3*y*c")
    problem.add_constraint("x + c <= 2")
    return problem.freeze()


class TestArrayForm:
    @pytest.mark.parametrize("fixture", ["mixed_problem", "tiny_knapsack", "f3", "cubic"])
    def test_energy_matches_the_polynomial(self, fixture, request):
        if fixture == "f3":
            problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))[1]
        elif fixture == "cubic":
            problem = cubic_problem()
        else:
            problem = request.getfixturevalue(fixture)
        model = compile_problem(problem)
        assert fixture != "cubic" or model.aux_registry
        order, poly = model.binary_variables(), Polynomial(model.arrays.terms())
        rng = np.random.default_rng(4)
        for _ in range(25):
            assignment = dict(zip(order, rng.integers(0, 2, len(order)).tolist()))
            assert model.energy(assignment) == pytest.approx(poly.evaluate(assignment), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 9),
        coefficients=st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=60, max_size=60),
        offset=st.floats(-1e6, 1e6),
        chunk=st.sampled_from([1, 7, 2**18]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, coefficients=[0.0] * 60, offset=-0.0, chunk=7, seed=0)  # all-zero terms and a -0.0 offset
    @example(n=4, coefficients=[-1.5, 0.1, 0.2, 0.3] * 15, offset=-0.0, chunk=1, seed=1)
    def test_energies_are_the_per_row_correctly_rounded_sums(self, n, coefficients, offset, chunk, seed):
        """``energies`` equals, in ``repr``, the per-row ``fsum`` over every term, zero terms included."""
        arrays = dense_form(n, coefficients, offset)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(12, n)).astype(float)
        bits[0] = 0.0  # an all-zero row: only the offset term is left
        expected = [
            math.fsum(np.concatenate([arrays.linear * x, arrays.values * x[arrays.rows] * x[arrays.cols], [offset]]).tolist())
            for x in bits
        ]
        with mock.patch.object(compiler, "_TERM_CHUNK", chunk):  # several row chunks, or one
            energies = arrays.energies(bits)
        assert list(map(repr, energies)) == list(map(repr, expected))
        assert [repr(arrays.energies(x[None, :])[0]) for x in bits] == list(map(repr, expected))  # one row at a time

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 8),
        p=st.integers(0, 30),
        numerators=st.lists(st.integers(-(2**55), 2**55), min_size=37, max_size=37),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=4, p=0, numerators=[2**53, 1, 1, -(2**53)] + [0] * 33, seed=0)  # Σ|c| at 2**54: plain sums lose the 1s
    @example(n=4, p=30, numerators=[2**53, 1, 1, -(2**53)] + [0] * 33, seed=0)
    @example(n=4, p=30, numerators=[2**52 - 1, 2**51, 2**50, -(2**49)] + [0] * 32 + [-3], seed=0)  # just below
    @example(n=0, p=0, numerators=[0] * 37, seed=0)  # the zero model
    @example(n=3, p=5, numerators=[-1, -2, -3, -4, -5, -6] + [0] * 31, seed=0)  # each term of an all-zero row is -0.0
    def test_exact_sums_agree_with_the_fsum_path(self, n, p, numerators, seed):
        """Dyadic coefficients ``num·2**-p``, with ``Σ|num|`` on both sides of ``2**53``: ``energies`` equals, in
        float hex, the per-row ``fsum`` over every term.  A zero offset is ``-0.0``."""
        coefficients = [math.ldexp(float(num), -p) for num in numerators]
        arrays = dense_form(n, coefficients, coefficients[-1] or -0.0)
        bits = np.random.default_rng(seed).integers(0, 2, size=(12, n)).astype(float)
        bits[0], bits[1] = 0.0, 1.0
        expected = [
            math.fsum(np.concatenate([arrays.linear * x, arrays.values * x[arrays.rows] * x[arrays.cols], [arrays.offset]]).tolist())
            for x in bits
        ]
        assert [energy.hex() for energy in arrays.energies(bits)] == [energy.hex() for energy in expected]

    def test_a_row_that_is_not_0_1_takes_the_fsum_path(self):
        model = compiler.QuboModel(QuadraticForm.from_polynomial(Polynomial({("a",): 1.0, ("b",): 1.0, ("c",): 1.0, ("d",): -1.0})))
        assert model.arrays._exact_in_any_order  # coefficients sum exactly, but 2**53·a does not
        assert model.energy({"a": 2**53, "b": 1, "c": 1, "d": 2**53}) == 2.0  # a plain sum gives 0.0

    def test_a_binary_that_encodes_two_variables_is_refused(self):
        problem = Problem()
        problem.add_binary_variable("x")
        plan = encode(problem.variable("x"))  # the binary x#0
        with pytest.raises(ValueError, match="a binary encodes two variables of one polynomial"):
            QuadraticForm.from_polynomial(Polynomial({("x",): 1.0, ("x#0",): 1.0}), {"x": plan})

    def test_energy_names_a_missing_binary(self, mixed_problem):
        model = compile_problem(mixed_problem)
        assignment = dict.fromkeys(model.binary_variables(), 0)
        del assignment[model.binary_variables()[0]]
        with pytest.raises(ValueError, match="no value assigned"):
            model.energy(assignment)


# -- the float rule, against an exact reference ---------------------------------------------------


def test_penalty_blocks_follow_the_float_rule():
    """One induced one-hot block per dictionary-encoded variable, plus a user constraint (a float model)."""
    problem = Problem()
    names = problem.add_continuous_variables_array("c", [6], -1.0, 1.0, 0.25, encoding="dictionary")
    problem.add_objective(" + ".join(f"{0.3 * (i + 1)}*{a}*{b}" for i, (a, b) in enumerate(zip(names, names[1:]))))
    problem.add_constraint(" + ".join(names) + " <= 1.5")
    problem.freeze()
    config = CompileConfig(lambda_method="momc")
    model = compile_problem(problem, config)
    assert len(model.penalties) == 7 and all(plan.induced for plan in model.encodings)
    assert_follows_the_float_rule(model, reference_compile(problem), config)


def coordinate_form(order, linear, couplers=(), offset=0.0, higher=None):
    """A ``QuadraticForm`` over ``order`` (sorted) from ``{(i, j): value}`` couplers; values below ``COEFF_EPS`` are
    left out, as every compile stage leaves them out."""
    kept = sorted((pair, value) for pair, value in dict(couplers).items() if abs(value) >= COEFF_EPS)
    return QuadraticForm(
        order=tuple(order),
        linear=np.array([value if abs(value) >= COEFF_EPS else 0.0 for value in linear], dtype=float),
        rows=np.array([i for (i, _), _ in kept], dtype=np.int64),
        cols=np.array([j for (_, j), _ in kept], dtype=np.int64),
        values=np.array([value for _, value in kept], dtype=float),
        offset=offset if abs(offset) >= COEFF_EPS else 0.0,
        higher={mono: value for mono, value in (higher or {}).items() if abs(value) >= COEFF_EPS},
    )


_MERGE_NAMES = [f"n{k}" for k in range(8)]
# 1 and -1 + 1e-13 cancel to a residue below COEFF_EPS at equal scales
_MERGE_COEFFS = st.one_of(st.sampled_from([1.0, -1.0 + 1e-13, -1.0, 0.5, 3.0]), st.floats(-4, 4))
_MERGE_SCALES = st.one_of(st.sampled_from([1.0, -1.0, 0.5]), st.floats(0.01, 100))
_DYADIC_COEFFS = st.integers(-24, 24).map(lambda k: k / 8)
_DYADIC_SCALES = st.sampled_from([1.0, -1.0, 0.5, 2.0, 3.0, -0.25])


@st.composite
def coordinate_forms(draw, coeffs=_MERGE_COEFFS):
    order = sorted(draw(st.sets(st.sampled_from(_MERGE_NAMES), max_size=8)))
    pairs = list(itertools.combinations(range(len(order)), 2))
    couplers = draw(st.dictionaries(st.sampled_from(pairs), coeffs, max_size=8)) if pairs else {}
    monomials = st.lists(st.sampled_from(order), min_size=3, max_size=4, unique=True).map(lambda m: tuple(sorted(m)))
    higher = draw(st.dictionaries(monomials, coeffs, max_size=3)) if len(order) >= 3 else {}
    return coordinate_form(order, [draw(coeffs) for _ in order], couplers, draw(coeffs), higher)


@st.composite
def weighted_sums(draw):
    """One to five scaled forms, and whether every coefficient and scale is an integer or dyadic draw."""
    exact = draw(st.booleans())
    coeffs, scales = (_DYADIC_COEFFS, _DYADIC_SCALES) if exact else (_MERGE_COEFFS, _MERGE_SCALES)
    return draw(st.lists(st.tuples(scales, coordinate_forms(coeffs)), min_size=1, max_size=5)), exact


_CANCEL = [(1.0, coordinate_form(["n0", "n1"], [1.0, 2.0], {(0, 1): 1.0}, 1.0))]
_CANCEL.append((1.0, coordinate_form(["n0", "n1"], [-1.0 + 1e-13, 0.0], {(0, 1): -1.0 + 1e-13}, -1.0 + 1e-13)))
_CANCEL.append((1.0, coordinate_form(["n0", "n1", "n2"], [0.5, 0.0, 3.0], {(0, 1): 0.5, (1, 2): 1.0}, 0.5)))


@settings(max_examples=300, deadline=None)
@given(case=weighted_sums(), names=st.sets(st.sampled_from(_MERGE_NAMES)))
@example(case=(_CANCEL, False), names=set())  # x, then -x + 1e-13 (a residue of 1e-13, kept), then y
def test_weighted_sum_is_the_rounded_exact_sum(case, names):
    """Against exact ``Fraction`` sums of ``scale·coefficient``: each entry lies within ``γ_k·Σ|products|`` of
    its exact sum and is dropped only where that sum may lie below ``COEFF_EPS``, and on integer and dyadic
    draws it equals the exact sum (so the float hex is the same); couplers are row-major over the sorted union
    of names."""
    forms, exact = case
    expected: dict = {}
    for scale, form in forms:
        for mono, coeff in form.terms().items():
            product = Exact.of(scale) * Exact.of(coeff)
            expected[mono] = expected[mono] + product if mono in expected else product
    got = compiler._weighted_sum(forms, names)
    assert got.order == tuple(sorted(set(names).union(*(form.order for _, form in forms))))
    assert_form(got, expected, "the weighted sum", exact)
    assert np.all(got.rows < got.cols) and np.all(np.diff(got.rows * len(got.order) + got.cols) > 0)


def test_a_sparse_model_compiles_in_memory_linear_in_its_terms():
    """5,000 and 20,000 binaries, about 21,000 and 81,000 terms: dense n × n stages would hold 200 MB per
    matrix at 5,000.  Four times the terms peak about four times higher when each stage is linear in its
    terms, and about sixteen times with a dense stage.  The 20,000-binary model also anneals: SA's dense
    couplings would take 3.2 GB."""
    import tracemalloc

    peaks = {}
    with time_limit(60.0):
        for n in (5_000, 20_000):
            problem = sparse_max_cut(n)
            tracemalloc.start()
            try:
                model = compile_problem(problem)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(model.binary_variables()) == n + 5 and len(model.arrays.terms()) > 4 * n
        solution = solve_sa(model, SolverParams(runs=4, sweeps=50, seed=1))
    assert peaks[5_000] < 20e6 and peaks[20_000] < min(6 * peaks[5_000], 100e6), peaks
    assert solution.bits.shape == (4, n + 5) and solution.best_energy < 0


def test_a_dense_mixed_model_compiles_within_a_minute():
    """80 five-binary variables under a dense quadratic objective of 3,240 parsed terms: 80,200 binary terms."""
    n = 80
    rng = np.random.default_rng(0)
    with time_limit(60.0):
        problem = Problem()
        names = problem.add_continuous_variables_array("c", [n], -2.0, 2.0, 0.25)
        q = np.round(rng.normal(size=(n, n)), 6).tolist()
        problem.add_objective(" + ".join(f"{q[i][j]!r}*{names[i]}*{names[j]}" for i in range(n) for j in range(i, n)))
        problem.add_constraint(" + ".join(names) + " = 1")
        model = compile_problem(problem.freeze())
    assert len(model.binary_variables()) == 400 and sum(model.stats["terms"].values()) == 80_200


_EXACT_COEFFS = st.one_of(st.integers(-6, 6).map(float), st.integers(-24, 24).map(lambda k: k / 8))
_FLOAT_COEFFS = st.floats(-5, 5, allow_nan=False).map(lambda c: round(c, 7))


@st.composite
def degree_two_problems(draw):
    """Up to five variables of every kind and encoding, a quadratic objective, linear constraints of every
    operator and boolean relations; ``exact`` draws integer and dyadic numbers only."""
    exact = draw(st.booleans())
    coeffs = _EXACT_COEFFS if exact else _FLOAT_COEFFS
    problem = Problem()
    names, binaries = [], []
    for k in range(draw(st.integers(1, 5))):
        name = f"v{k}"
        kind = draw(st.sampled_from(["binary", "bipolar", "discrete", "continuous"]))
        if kind == "binary":
            binaries.append(problem.add_binary_variable(name))
        elif kind == "bipolar":
            problem.add_bipolar_variable(name)
        elif kind == "discrete":
            problem.add_discrete_variable(name, draw(st.lists(coeffs, min_size=1, max_size=4, unique=True)))
        else:
            step = draw(st.sampled_from([0.25, 0.5, 1.0] if exact else [0.1, 0.3, 0.25]))
            low = draw(st.integers(-3, 1)) * (0.5 if exact else 0.7)
            encoding = draw(st.sampled_from(["dictionary", "logarithmic", "unitary", "arithmetic", "domain_wall", "bounded"]))
            options = {"bound": 2 * step} if encoding == "bounded" else {}
            high = round(low + step * draw(st.integers(1, 6)), 9)
            assume(high - low >= step)
            problem.add_continuous_variable(name, low, high, step, encoding=encoding, **options)
        names.append(name)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    objective = Polynomial({(name,): draw(coeffs) for name in names})
    objective += Polynomial({pair: draw(coeffs) for pair in draw(st.lists(st.sampled_from(pairs), max_size=6))})
    problem.add_objective(objective if not objective.is_zero() else Polynomial.variable(names[0]))
    for _ in range(draw(st.integers(0, 2))):
        lhs = Polynomial({(name,): draw(coeffs) for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))})
        if not lhs.is_zero():
            problem.add_constraint(
                Comparison(lhs=lhs, op=draw(st.sampled_from(["=", "<=", ">=", "<", ">"])), rhs=draw(coeffs)),
                hardness=draw(st.sampled_from(["hard", "weak"])),
            )
    if len(binaries) >= 2 and draw(st.booleans()):
        kind = draw(st.sampled_from(["not", "and", "or", "xor"]))
        inputs = binaries[1:2] if kind == "not" else binaries[1:3] if len(binaries) >= 3 else binaries[:1] * 2
        problem.add_boolean_constraint(kind, binaries[0], inputs)
    method = draw(st.sampled_from(LAMBDA_METHODS))
    config = CompileConfig(method, manual_lambdas=draw(coeffs.map(abs).filter(bool)) if method == "manual" else None)
    return problem.freeze(), config, exact


def compiled_with_reference(problem, config):
    """The model and ``reference_compile``'s stages, or ``(None, None)`` where ub-positive refuses a negative
    coefficient, once the exact estimator on the compiled forms has refused it too."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unsatisfiable draws warn
        try:
            model = compile_problem(problem, config)
        except ValueError as error:
            forms = compile_problem(problem, CompileConfig("manual", manual_lambdas=1.0))
            with pytest.raises(ValueError, match=str(error)):
                lambda_interval(config.lambda_method, forms.cost)
            return None, None
        return model, reference_compile(problem)


def _tiny_weighted_penalty_case():
    """``1e-7·v`` subject to ``v = 1e-7`` over a bipolar ``v``: the penalty's linear term is a residue of -4e-7
    and ub-positive's λ is 2e-7, so ``λ·P`` puts about -8e-14 on that binary, beside a cost term of 2e-7.  The
    weighed coefficient is their exact sum, rounded, and a product that small is not dropped on its own."""
    problem = Problem()
    problem.add_bipolar_variable("v0")
    problem.add_objective("1e-07*v0")
    problem.add_constraint("v0 = 1e-07")
    return problem.freeze(), CompileConfig("ub-positive"), False


def _tiny_square_case():
    """``1e-7·v² + 1e-5·v`` over levels 1e-6 and 0.002: the square's diagonal product ``1e-7·(1e-6)²`` is far below
    ``COEFF_EPS``, and it is part of a linear coefficient of about 1e-11, within the bound of the exact sum."""
    problem = Problem()
    problem.add_discrete_variable("v0", [1e-6, 0.002])
    problem.add_binary_variable("v1")
    problem.add_objective("1e-7*v0*v0 + 1e-5*v0")
    return problem.freeze(), CompileConfig("manual", manual_lambdas=1e-6), False


def _tiny_offset_products_case():
    """Variables starting at 1e-6, 1e-3 and 1e-5: ``1e-7·a·b`` gives ``b`` the product ``1e-7·o_a`` = 1e-13,
    ``1e-7·c·d`` the constant ``1e-7·o_c·o_d`` = 1e-15 and ``1e-7·a`` the constant ``1e-7·o_a``.  Each is
    part of its coefficient's exact sum; a finished coefficient that is this small alone is dropped."""
    problem = Problem()
    problem.add_continuous_variable("a", 1e-6, 0.300001, 0.1)
    problem.add_binary_variable("b")
    problem.add_continuous_variable("c", 1e-3, 0.301, 0.1)
    problem.add_continuous_variable("d", 1e-5, 0.30001, 0.1)
    problem.add_objective("1e-7*a*b + 1e-7*b + 1e-7*c*d + 1e-7*a + 1e-7")
    return problem.freeze(), CompileConfig("manual", manual_lambdas=1.0), False


def _momc_residue_case():
    """``2·v >= -1e-7`` over a bipolar ``v``: one flip step of the penalty is the residue of ``-16 + 8 + 8.0000008``,
    about 8e-7 against terms of 32, and momc divides the cost's vlm by it, so λ is about 2.5e6 and carries the
    residue's conditioning.  A term-by-term reference summed the residue in another order, and its weighed
    coefficients differed from the compile's by up to 0.089."""
    problem = Problem()
    problem.add_bipolar_variable("v0")
    problem.add_binary_variable("v1")
    problem.add_objective(Polynomial({("v0",): 1.0}))
    problem.add_constraint(Comparison(lhs=Polynomial({("v0",): 2.0}), op=">=", rhs=-1e-07))
    return problem.freeze(), CompileConfig("momc"), False


def _all_tiny_bipolar_case():
    """Coefficients of 1e-5 over a level of 1e-7: ``6e-6·v0·v1`` with a bipolar ``v1`` gives products of 6e-13
    and 1.2e-12, so the linear coefficient is a sum of two products below ``COEFF_EPS`` that together clear it."""
    problem = Problem()
    problem.add_discrete_variable("v0", [1e-07])
    problem.add_bipolar_variable("v1")
    problem.add_binary_variable("v2")
    problem.add_bipolar_variable("v3")
    problem.add_objective(Polynomial({("v0",): -7.1e-06, ("v0", "v1"): 6e-06}))
    return problem.freeze(), CompileConfig("mqc"), False


def _all_tiny_grid_case():
    """Coefficients of 1e-5 over a level of 1e-7 and two logarithmic grids at step 0.1: each coupler, 1.15e-13 or
    -2.7e-13, is dropped, and the one linear term, 2.7e-12, sums the products 8.05e-13 and 1.89e-12 that the
    grids' offsets give."""
    problem = Problem()
    problem.add_discrete_variable("v0", [1e-07])
    problem.add_continuous_variable("v1", 0.7, 0.8, 0.1, encoding="logarithmic")
    problem.add_binary_variable("v2")
    problem.add_binary_variable("v3")
    problem.add_continuous_variable("v4", -0.7, -0.5, 0.1, encoding="logarithmic")
    problem.add_objective(Polynomial({("v0", "v1"): 1.15e-05, ("v0", "v4"): -2.7e-05}))
    return problem.freeze(), CompileConfig("ub-positive"), False


@settings(max_examples=300, deadline=None)
@given(case=degree_two_problems(), factors=st.lists(st.sampled_from([0.5, 1.0, 3.0, 0.1]), min_size=40, max_size=40))
@example(case=_tiny_weighted_penalty_case(), factors=[0.5] * 40)
@example(case=_tiny_square_case(), factors=[0.5] * 40)
@example(case=_tiny_offset_products_case(), factors=[0.5] * 40)
@example(case=_momc_residue_case(), factors=[0.5] * 40)
@example(case=_all_tiny_bipolar_case(), factors=[0.5] * 40)
@example(case=_all_tiny_grid_case(), factors=[0.5] * 40)
def test_the_array_compile_follows_the_float_rule(case, factors):
    """Order, each stage's coefficients, λ and the weighed sum against ``reference_compile``; then one retry.

    A coefficient lies within ``γ_k·Σ|products|`` of its exact sum, and one whose exact sum lies within that
    bound of ``COEFF_EPS`` may be present or absent.  Integer and dyadic draws are exact.
    """
    problem, config, exact = case
    model, reference = compiled_with_reference(problem, config)
    if model is None:
        return
    assert_follows_the_float_rule(model, reference, config, exact=exact)
    vector = [lam * factor for lam, factor in zip(model.lambdas(), factors)]
    assert_follows_the_float_rule(model.with_lambdas(vector), reference, config, lambdas=vector, exact=exact)


class TestStats:
    def test_readme_model(self, mixed_problem):
        model = compile_problem(mixed_problem)
        assert "stats" not in model.__dict__  # a cached property: compile never builds it
        stats = model.stats
        assert stats["binaries"] == {"total": 13, "encoding": 9, "slack": 4, "boolean_aux": 0, "quadratization_aux": 0}
        assert stats["terms"] == {"linear": 13, "couplers": 65} and stats["degree"] == 2
        assert stats["dynamic_range"] == 414.0  # |-414·b#2| over |a#0|
        assert stats["lambdas"] == [
            {"label": "b + c >= 2", "lambda": 12.0, "hardness": "hard"},
            {"label": "encoding[b] one-hot", "lambda": 12.0, "hardness": "hard"},
        ]
        assert json.loads(json.dumps(stats)) == stats

    def test_cubic_model(self):
        model = compile_problem(cubic_problem())
        stats = model.stats
        assert stats["degree"] == 3 and model.aux_registry == {("x#0", "y#0"): "__aux0"}
        assert stats["binaries"] == {"total": 9, "encoding": 5, "slack": 3, "boolean_aux": 0, "quadratization_aux": 1}
        terms = {mono: coeff for mono, coeff in model.arrays.terms().items() if mono}
        assert stats["terms"]["linear"] + stats["terms"]["couplers"] == len(terms)
        magnitudes = [abs(c) for c in terms.values()]
        assert stats["dynamic_range"] == max(magnitudes) / min(magnitudes)

    def test_boolean_auxiliary_and_a_built_model(self):
        problem = Problem()
        for name in ("x", "y", "z"):
            problem.add_binary_variable(name)
        problem.add_objective("x + y + z")
        problem.add_boolean_constraint("xor", "z", ["x", "y"])
        stats = compile_problem(problem.freeze()).stats
        assert stats["binaries"] == {"total": 4, "encoding": 3, "slack": 0, "boolean_aux": 1, "quadratization_aux": 0}
        built = compiler.QuboModel(QuadraticForm.from_polynomial(Polynomial({("u",): 2.0, ("u", "v"): -0.5})), offset=1.0)
        assert built.stats["binaries"]["total"] == 2 and built.stats["dynamic_range"] == 4.0 and built.stats["lambdas"] == []


def test_boolean_constraints_bind_the_encoded_binaries():
    """A relation penalizes the binaries that encode its variables, so the ground state obeys it."""
    problem = Problem()
    for name in ("x", "y", "z"):
        problem.add_binary_variable(name)
    problem.add_objective("x + y - 3*z")  # alone, z = 1 with x = y = 0
    problem.add_boolean_constraint("and", "z", ["x", "y"])
    model = compile_problem(problem.freeze())
    from qubo_forge.solvers import solve_exhaustive

    assert model.binary_variables() == ["x#0", "y#0", "z#0"]
    assert solve_exhaustive(model).best_decoded == {"x": 1.0, "y": 1.0, "z": 1.0}


class TestIntervalsAndPrecision:
    def test_polynomial_interval_mixed(self):
        intervals = {"b": (-1.0, 3.0), "c": (-2.0, 2.0)}
        poly = parse_expression("b + c", {"b", "c"})
        assert polynomial_interval(poly, intervals) == (-3.0, 5.0)
        square = parse_expression("c**2", {"c"})
        assert polynomial_interval(square, intervals) == (0.0, 4.0)
        cross = parse_expression("b*c - 1", {"b", "c"})
        assert polynomial_interval(cross, intervals) == (-7.0, 5.0)

    def test_slack_precision_policies(self, mixed_problem):
        decl = mixed_problem.constraints[0]
        assert infer_slack_precision(decl, mixed_problem) == 0.25
        assert not hasattr(CompileConfig(), "slack_precision")  # the step is set per constraint only

    def test_integer_default_without_continuous_vars(self, tiny_knapsack):
        assert infer_slack_precision(tiny_knapsack.constraints[0], tiny_knapsack) == 1.0

    def test_declared_slack_precision_wins(self):
        problem = Problem()
        problem.add_continuous_variable("c", 0, 2, 0.25)
        problem.add_objective("c")
        problem.add_constraint("c >= 1", slack_precision=0.5)
        problem.freeze()
        assert infer_slack_precision(problem.constraints[0], problem) == 0.5


class TestDomainWall:
    """Continuous variables in a domain-wall chain: the induced ``x#k - x#(k-1) >= 0`` links compile too."""

    @staticmethod
    def wall_problem(direction: str, constraint: str | None = None) -> Problem:
        problem = Problem()
        problem.add_continuous_variable("x", 0, 2, 0.5, encoding="domain_wall")
        problem.add_objective("x", direction=direction)
        if constraint is not None:
            problem.add_constraint(constraint)
        return problem.freeze()

    @pytest.mark.parametrize("direction, optimum", [("minimize", 0.0), ("maximize", 2.0)])
    def test_objective_optimum_decodes(self, direction, optimum):
        from qubo_forge.analysis import solution_is_valid
        from qubo_forge.solvers import solve_exhaustive

        model = compile_problem(self.wall_problem(direction))
        assert [block.slack_plan for block in model.penalties] == [None, None, None]  # product penalties, no slack
        solution = solve_exhaustive(model)
        assert solution.best_decoded == {"x": optimum}
        assert solution_is_valid(model, solution.best_binary, solution.best_decoded)

    def test_inequality_optimum_decodes(self):
        from qubo_forge.analysis import solution_is_valid
        from qubo_forge.solvers import solve_exhaustive

        problem = self.wall_problem("maximize", "x <= 1.5")
        model = compile_problem(problem, CompileConfig(lambda_method="manual", manual_lambdas=10.0))
        solution = solve_exhaustive(model)
        assert solution.best_decoded == {"x": 1.5}
        assert solution_is_valid(model, solution.best_binary, solution.best_decoded)


@pytest.mark.parametrize("less, greater", [("x <= y", "y >= x"), ("x - y <= 0", "y - x >= 0")])
def test_a_two_binary_less_equal_needs_no_slack_as_its_greater_equal(less, greater):
    """``x <= y`` over binaries is the product penalty of ``y >= x``: the same arrays, λ and ground state."""
    models = []
    for comparison in (less, greater):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_binary_variable("y")
        problem.add_objective("y - 2*x")  # alone, x = 1 with y = 0
        problem.add_constraint(comparison)
        models.append(compile_problem(problem.freeze()))
    assert [model.binary_variables() for model in models] == [["x#0", "y#0"]] * 2
    assert [block.slack_plan for model in models for block in model.penalties] == [None, None]
    first, second = (model.arrays for model in models)
    for name in ("linear", "rows", "cols", "values"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
    assert (first.offset.hex(), models[0].lambdas()) == (second.offset.hex(), models[1].lambdas())
    from qubo_forge.solvers import solve_exhaustive

    ground = [solve_exhaustive(model) for model in models]
    assert ground[0].best_decoded == ground[1].best_decoded == {"x": 1.0, "y": 1.0}
    assert ground[0].energies == ground[1].energies


# -- degree >= 3: the expander, quadratization and the compile budget ----------------------


@st.composite
def higher_degree_problems(draw):
    """Up to three variables of every kind and encoding, an objective with a monomial of degree 3 to 5 (powers
    and repeated variables, ``c**k``, ``x*y*y*z``), and non-linear constraints of every operator."""
    exact = draw(st.booleans())
    coeffs = _EXACT_COEFFS if exact else _FLOAT_COEFFS
    problem = Problem()
    names = []
    for k in range(draw(st.integers(1, 3))):
        name = f"v{k}"
        kind = draw(st.sampled_from(["binary", "bipolar", "discrete", "continuous"]))
        if kind == "binary":
            problem.add_binary_variable(name)
        elif kind == "bipolar":
            problem.add_bipolar_variable(name)
        elif kind == "discrete":
            problem.add_discrete_variable(name, draw(st.lists(coeffs, min_size=1, max_size=3, unique=True)))
        else:
            step = draw(st.sampled_from([0.25, 0.5, 1.0] if exact else [0.1, 0.3, 0.25]))
            low = draw(st.integers(-3, 1)) * (0.5 if exact else 0.7)
            encoding = draw(st.sampled_from(["dictionary", "logarithmic", "unitary", "arithmetic", "domain_wall", "bounded"]))
            options = {"bound": 2 * step} if encoding == "bounded" else {}
            high = round(low + step * draw(st.integers(1, 4)), 9)
            assume(high - low >= step)
            problem.add_continuous_variable(name, low, high, step, encoding=encoding, **options)
        names.append(name)

    def monomial(low, high):
        return tuple(sorted(draw(st.lists(st.sampled_from(names), min_size=low, max_size=high))))

    terms = {monomial(3, 5): draw(coeffs.filter(bool))}
    terms.update((monomial(0, 4), draw(coeffs)) for _ in range(draw(st.integers(0, 3))))
    problem.add_objective(Polynomial(terms))
    for _ in range(draw(st.integers(0, 2))):
        lhs = Polynomial({monomial(2, 2): draw(coeffs.filter(bool)), monomial(1, 2): draw(coeffs)})
        if lhs.degree() == 2:
            op = draw(st.sampled_from(["=", "<=", ">=", "<", ">"]))
            problem.add_constraint(Comparison(lhs=lhs, op=op, rhs=draw(coeffs)), hardness=draw(st.sampled_from(["hard", "weak"])))
    method = draw(st.sampled_from([m for m in LAMBDA_METHODS if m != "ub-posiform"]))  # ub-posiform refuses degree 3
    config = CompileConfig(method, manual_lambdas=draw(coeffs.map(abs).filter(bool)) if method == "manual" else None)
    return problem.freeze(), config, exact


@settings(max_examples=120, deadline=None)
@given(case=higher_degree_problems())
def test_expansion_follows_the_float_rule(case):
    """Every stage form of a degree->=3 problem, and each λ, against ``reference_compile``: exact on integer
    and dyadic draws, within the float rule's bound on float ones."""
    problem, config, exact = case
    model, reference = compiled_with_reference(problem, config)
    if model is None:
        return
    assert_follows_the_float_rule(model, reference, config, exact=exact)


_BINARY_MULTILINEAR = st.dictionaries(
    st.lists(st.sampled_from([f"b{k}" for k in range(8)]), min_size=0, max_size=5, unique=True).map(lambda m: tuple(sorted(m))),
    _EXACT_COEFFS,
    min_size=1,
    max_size=12,
).map(Polynomial)


@settings(max_examples=150, deadline=None)
@given(poly=_BINARY_MULTILINEAR)
def test_quadratize_minimum_over_auxiliaries_is_the_input(poly):
    """Degree <= 5 over <= 8 binaries, dyadic: on every assignment the output minimized over the auxiliaries is
    the input, exactly, and the registry is the whole-polynomial rebuild's."""
    scale = estimate_lambda("ub-naive", QuadraticForm.from_polynomial(poly)) + 1.0
    form, registry = quadratize(QuadraticForm.from_polynomial(poly), scale)
    reduced = form.terms()
    assert max(map(len, reduced), default=0) <= 2 and not form.higher and registry == rebuild_quadratize(poly, scale)[1]
    names, aux = sorted(poly.variables()), list(registry.values())
    assume(len(names) + len(aux) <= 16)
    minimized = energies_over_assignments(reduced, names + aux).reshape(2 ** len(aux), 2 ** len(names)).min(axis=0)
    assert np.array_equal(minimized, energies_over_assignments(poly, names))


def power_problem(expression, count=3, constraint=None):
    """``count`` continuous variables on [-2, 2] at step 0.25 (5 bits each) under one objective."""
    problem = Problem()
    for k in range(count):
        problem.add_continuous_variable(f"c_{k}", -2, 2, 0.25)
    problem.add_objective(expression)
    if constraint is not None:
        problem.add_constraint(constraint)
    return problem.freeze()


class TestCompileBudget:
    @pytest.mark.parametrize(
        "expression, unit", [("(c_0+c_1+c_2)**8", "pairs to index for quadratization"), ("(c_0+c_1+c_2)**10", "binary terms")]
    )
    def test_high_powers_are_refused_within_two_seconds(self, expression, unit):
        problem = power_problem(expression)
        message = rf"^the objective needs \d+ {unit}, above the compile budget of {compiler.COMPILE_BUDGET}$"
        with time_limit(2.0), pytest.raises(ValueError, match=message):
            compile_problem(problem)

    def test_the_sixteenth_power_compiles_within_two_seconds(self):
        with time_limit(2.0):
            model = compile_problem(power_problem("c_0**16", count=1))
        order, aux = model.binary_variables(), set(model.aux_registry.values())
        bits = (np.arange(2 ** len(order))[:, None] >> np.arange(len(order))) & 1
        energies = np.array(model.arrays.energies(bits))
        encoded = [k for k, name in enumerate(order) if name not in aux]
        for pattern in np.unique(bits[:, encoded], axis=0):  # each of the 32 encodings: min over the auxiliaries
            value = model.decode(dict(zip([order[k] for k in encoded], pattern.tolist())))["c_0"]
            assert energies[np.all(bits[:, encoded] == pattern, axis=1)].min() == pytest.approx(value**16, rel=1e-12)

    def test_a_non_linear_constraint_past_the_budget_is_named(self):
        problem = power_problem("c_0", constraint="(c_0+c_1+c_2)**8 <= 1")
        with time_limit(2.0), pytest.raises(ValueError, match=r"^constraint '.+ <= 1' needs \d+ binary terms, above"):
            compile_problem(problem)

    def test_the_expansions_of_one_compile_share_the_budget(self):
        """Each equality alone is within the budget; the compile refuses the one that takes its total past it."""
        message = rf"^constraint '.+ = 6' brings the compile to 177978 terms and products, above its budget of {compiler.COMPILE_BUDGET}$"
        with time_limit(2.0), pytest.raises(ValueError, match=message):
            compile_problem(cube_equalities_problem(16))

    def test_the_shared_budget_ends_with_its_compile(self):
        problem = cube_equalities_problem(4)
        compile_problem(problem)
        compile_problem(problem)  # a second compile starts from nothing spent
        plans = {decl.name: encode(decl) for decl in problem.variables}
        for decl in cube_equalities_problem(16).constraints:  # a stage called on its own checks each call alone
            equality_penalty(decl.comparison, plans)

    def test_concurrent_compiles_keep_their_own_budget(self):
        """Four compiles in threads, each within the budget alone but past it together, all succeed."""
        problem = cube_equalities_problem(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so the compiles interleave
        try:
            with ThreadPoolExecutor(4) as pool:
                models = [future.result(timeout=60) for future in [pool.submit(compile_problem, problem) for _ in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert [len(model.penalties) for model in models] == [4] * 4


def cube_equalities_problem(count):
    """``count`` equalities ``(c_0+c_1+c_2)**3 = k`` over three 5-bit grids; each one expands to about 30,000 terms."""
    problem = Problem()
    for k in range(3):
        problem.add_continuous_variable(f"c_{k}", 0, 31, 1)
    problem.add_objective("c_0")
    for k in range(1, count + 1):
        problem.add_constraint(f"(c_0+c_1+c_2)**3 = {k}")
    return problem.freeze()


def cubic_chain_problem() -> Problem:
    """A cubic chain over six grid variables, as on the benchmark's mixed workload."""
    rng = np.random.default_rng(6)
    problem = Problem()
    names = problem.add_continuous_variables_array("c", [6], -2.0, 2.0, 0.5)
    terms = [f"{rng.normal():.6f}*{names[i]}*{names[j]}" for i in range(6) for j in range(i, 6)]
    terms += [f"{rng.normal():.6f}*{names[i]}*{names[i + 1]}*{names[i + 2]}" for i in range(4)]
    problem.add_objective(" + ".join(terms))
    problem.add_constraint(" + ".join(names) + " = 1")
    return problem.freeze()


def test_the_compile_never_takes_the_symbolic_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the symbolic route was taken")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    monkeypatch.setattr(compiler, "reduce_binary_idempotence", refuse)
    monkeypatch.setattr(expression_module, "reduce_binary_idempotence", refuse)
    nonlinear = power_problem("c_0*c_1 - c_2", constraint="c_0*c_1*c_2 + c_0**2 <= 1.5")
    for problem in (cubic_chain_problem(), nonlinear, power_problem("(c_0+c_1+c_2)**4")):
        assert compile_problem(problem).aux_registry


def gate_problem() -> Problem:
    """Every boolean relation over six binaries, a domain-wall and a dictionary variable, one inequality."""
    problem = Problem()
    for name in ("x", "y", "a", "o", "e", "n"):
        problem.add_binary_variable(name)
    problem.add_continuous_variable("d", 0, 2, 0.5, encoding="domain_wall")
    problem.add_discrete_variable("k", [1, 2, 4])
    problem.add_objective("x + d + k - 2*a + o + 3*e + n", direction="maximize")
    for kind, output, inputs in (("and", "a", "xy"), ("or", "o", "xy"), ("xor", "e", "xy"), ("not", "n", "x")):
        problem.add_boolean_constraint(kind, output, list(inputs))
    problem.add_constraint("d + k <= 4")
    return problem.freeze()


def nonlinear_problem() -> Problem:
    """``x + y + b`` maximized subject to ``x*y + b <= 5``: 15 binaries with the slack and the auxiliaries."""
    problem = Problem()
    problem.add_continuous_variable("x", 0, 3, 1)
    problem.add_discrete_variable("y", [1, 2, 4])
    problem.add_binary_variable("b")
    problem.add_objective("x + y + b", direction="maximize")
    problem.add_constraint("x*y + b <= 5")
    return problem.freeze()


def count_polynomials(monkeypatch) -> list:
    """Patch ``Polynomial.__init__`` and ``Polynomial._wrap`` to append to the returned list on each call."""
    built, init, wrap = [], Polynomial.__init__, Polynomial._wrap.__func__

    def counted_init(self, terms=None):
        built.append("__init__")
        init(self, terms)

    def counted_wrap(cls, canonical):
        built.append("_wrap")
        return wrap(cls, canonical)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "_wrap", classmethod(counted_wrap))
    return built


def test_the_model_view_counts_its_terms_without_building_them(mixed_problem, monkeypatch):
    """``model.quadratic`` is no ``Polynomial``: ``len`` counts the linear terms and couplers from the arrays, and
    iterating it yields ``model.arrays.terms()`` without the offset."""
    model = compile_problem(mixed_problem)
    expected = [(mono, coeff) for mono, coeff in model.arrays.terms().items() if mono]
    assert model.offset and not isinstance(model.quadratic, Polynomial)
    with monkeypatch.context() as patch:
        patch.setattr(QuadraticForm, "terms", mock.Mock(side_effect=AssertionError("the terms were built")))
        assert len(model.quadratic) == len(expected) == 78
    assert list(model.quadratic) == expected


@pytest.mark.parametrize("name", ["mixed_problem", "tiny_knapsack", "cubic chain", "gates", "non-linear constraint"])
def test_the_compile_builds_no_polynomial_after_encoding(name, request, monkeypatch):
    """Only ``encode`` builds polynomials (the induced one-hot and monotone declarations); the stages after it
    lower term maps, the square of a non-linear constraint included."""
    problems = {"cubic chain": cubic_chain_problem, "gates": gate_problem, "non-linear constraint": nonlinear_problem}
    problem = problems[name]() if name in problems else request.getfixturevalue(name)
    built = count_polynomials(monkeypatch)
    [encode(decl) for decl in problem.variables]
    by_encoding = len(built)
    compile_problem(problem)
    assert len(built) == 2 * by_encoding, built[by_encoding:]


# -- each penalty block is zero exactly where its declaration holds ------------------------------------------

_CONTINUOUS_ENCODINGS = ("logarithmic", "unitary", "arithmetic", "domain_wall", "dictionary", "bounded")


@st.composite
def integer_problems(draw) -> Problem:
    """1-3 variables on integer grids, one linear comparison with integer coefficients and right-hand side,
    and sometimes a boolean relation over the binaries (a name may repeat)."""
    problem, names, binaries = Problem(), [], []
    for k in range(draw(st.integers(1, 3))):
        name, kind = f"v{k}", draw(st.sampled_from(["binary", "discrete", "continuous"]))
        if kind == "binary":
            problem.add_binary_variable(name)
            binaries.append(name)
        elif kind == "discrete":
            problem.add_discrete_variable(name, sorted(draw(st.sets(st.integers(-2, 4), min_size=1, max_size=4))))
        else:
            low, span, encoding = draw(st.integers(-2, 2)), draw(st.integers(1, 3)), draw(st.sampled_from(_CONTINUOUS_ENCODINGS))
            bound = draw(st.integers(1, 2)) if encoding == "bounded" else None
            problem.add_continuous_variable(name, low, low + span, 1, encoding=encoding, bound=bound)
        names.append(name)
    coefficients = [draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for _ in names]
    lhs = " + ".join(f"{c}*{name}" for c, name in zip(coefficients, names))
    problem.add_constraint(f"{lhs} {draw(st.sampled_from(['=', '<=', '>=', '<', '>']))} {draw(st.integers(-6, 6))}")
    if binaries and draw(st.booleans()):
        kind = draw(st.sampled_from(["not", "and", "or", "xor"]))
        inputs = [draw(st.sampled_from(binaries)) for _ in range(1 if kind == "not" else 2)]
        problem.add_boolean_constraint(kind, draw(st.sampled_from(binaries)), inputs)
    problem.add_objective(names[0])
    return problem.freeze()


def assert_blocks_zero_exactly_where_they_hold(model):
    """On each assignment of the encoding binaries, ``min`` of each block over its slack and auxiliary
    binaries is at most 1e-9 iff the block's declaration holds.  User blocks are checked where every
    plan's encoding is valid (off the one-hot manifold a dictionary variable decodes outside its domain,
    where no slack sized from the domain zeroes the block); induced blocks on every assignment."""
    order = model.binary_variables()
    bits = ((np.arange(2 ** len(order))[:, None] >> np.arange(len(order))) & 1).astype(float)
    column = {name: bits[:, k] for k, name in enumerate(order)}
    encoding = [name for plan in model.encodings for name in plan.binary_names()]
    pattern = bits[:, [order.index(name) for name in encoding]].astype(np.int64) @ (2 ** np.arange(len(encoding)))
    values = {**column, **{plan.source: plan.offset + sum(w * column[b] for b, w in plan.binaries) for plan in model.encodings}}
    induced = [decl for plan in model.encodings for decl in plan.induced]
    on_manifold = np.logical_and.reduce([np.ones(len(bits), bool), *(decl.evaluate(values)[0] for decl in induced)])
    for block in model.penalties:
        form = block.form
        x = bits[:, [order.index(name) for name in form.order]]
        energy = x @ form.linear + (x[:, form.rows] * x[:, form.cols]) @ form.values + form.offset
        least = np.full(2 ** len(encoding), np.inf)
        np.minimum.at(least, pattern, energy)
        zero, holds = least[pattern] <= 1e-9, block.constraint.evaluate(values)[0]
        checked = np.ones(len(bits), bool) if any(block.constraint is decl for decl in induced) else on_manifold
        wrong = np.flatnonzero(checked & (zero != holds))
        assert not wrong.size, (block.label, {name: column[name][wrong[0]] for name in order}, least[pattern[wrong[0]]])


@given(integer_problems())
@settings(max_examples=400, deadline=None)
def test_each_penalty_block_is_zero_exactly_where_its_declaration_holds(problem):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an unsatisfiable comparison warns, and its block must still be positive
        model = compile_problem(problem)
    assume(len(model.binary_variables()) <= 12)
    assert_blocks_zero_exactly_where_they_hold(model)


@pytest.mark.xfail(strict=True, reason="bug A: the slack step of a fractional-coefficient inequality is 1.0, not 0.1")
def test_a_fractional_inequality_block_is_zero_where_it_holds():
    problem = Problem()
    problem.add_binary_variables_array("x", [3])
    problem.add_objective("x_0 + x_1 + x_2", direction="maximize")
    problem.add_constraint("0.4*x_0 + 0.4*x_1 + 0.3*x_2 <= 1")  # at load 0.7 the slack (0 or 1) cannot zero it
    assert_blocks_zero_exactly_where_they_hold(compile_problem(problem.freeze()))
