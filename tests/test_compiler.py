"""Cost composition, penalties, penalty-weight estimation, quadratization.

The mixed a/b/c problem (see conftest) is the worked reference: its composed
cost has offset 4 and max coefficient 6, and the weight-estimation methods
reproduce the published table (mqc 10, vlm 12, ub-naive 52.25,
momc 6.19.../12, moc 1/6, ub-posiform 31.625).  Everything else is verified
against brute-force enumeration.
"""

import itertools

import numpy as np
import pytest

from qubo_forge.cli import bundled_data, load_knapsack
from qubo_forge.compiler import (
    CompileConfig,
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
from qubo_forge.expression import Comparison, Polynomial, parse_expression, reduce_binary_idempotence
from qubo_forge.problem import BooleanRelation, Problem

V = Polynomial.variable


@pytest.fixture
def mixed_parts(mixed_problem):
    plans = [encode(decl) for decl in mixed_problem.variables]
    substitutions = {plan.source: plan.affine() for plan in plans}
    cost = compose_cost(mixed_problem.objectives, substitutions)
    return mixed_problem, plans, substitutions, cost


def min_over_aux(poly, base_assignment, aux_names):
    best = None
    for bits in itertools.product([0, 1], repeat=len(aux_names)):
        value = poly.evaluate({**base_assignment, **dict(zip(aux_names, bits))})
        best = value if best is None else min(best, value)
    return best


class TestComposeCost:
    def test_reference_cost_shape(self, mixed_parts):
        _, _, _, cost = mixed_parts
        assert cost.constant_term == 4.0
        non_constant = {m: c for m, c in cost.terms.items() if m}
        top_monomial = max(non_constant, key=non_constant.get)
        assert non_constant[top_monomial] == 6.0
        assert top_monomial == ("b#2", "c#3")  # level-3 bit times weight-2 bit
        assert len(cost) == 35  # frozen from the brute-force expansion
        assert cost.degree() == 2

    def test_reference_cost_matches_decoded_evaluation(self, mixed_parts):
        problem, plans, _, cost = mixed_parts
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
        cost = compose_cost(problem.objectives, {"a": V("a#0")})
        assert cost == Polynomial.constant(7.0)

    def test_maximize_flips_sign(self, tiny_knapsack):
        plans = [encode(decl) for decl in tiny_knapsack.variables]
        cost = compose_cost(tiny_knapsack.objectives, {p.source: p.affine() for p in plans})
        assert cost.terms == {("obj_0#0",): -5.0, ("obj_1#0",): -10.0}

    def test_aggregation_weights_scale_terms(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_binary_variable("y")
        problem.add_objective("x", weight=2.0)
        problem.add_objective("y", direction="maximize", weight=3.0)
        subs = {"x": V("x#0"), "y": V("y#0")}
        cost = compose_cost(problem.objectives, subs)
        assert cost.terms == {("x#0",): 2.0, ("y#0",): -3.0}


class TestEqualityPenalty:
    def test_one_hot_expansion(self):
        penalty = equality_penalty(Comparison(lhs=V("b1") + V("b2") + V("b3"), op="=", rhs=1.0))
        assert penalty.terms == {
            ("b1",): -1.0, ("b2",): -1.0, ("b3",): -1.0,
            ("b1", "b2"): 2.0, ("b1", "b3"): 2.0, ("b2", "b3"): 2.0,
            (): 1.0,
        }

    def test_zero_equals_zero(self):
        assert equality_penalty(Comparison(lhs=Polynomial.zero(), op="=", rhs=0.0)).is_zero()

    def test_pair_sum_truth_table(self):
        penalty = equality_penalty(Comparison(lhs=V("b4") + V("b5"), op="=", rhs=2.0))
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
            assert min_over_aux(block.penalty, base, slack_names) == pytest.approx(0.0, abs=1e-9)

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
            best = min_over_aux(block.penalty, base, slack_names)
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
            best = min_over_aux(block.penalty, base, slack_names)
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
        assert all(block.penalty.evaluate({"x#0": b}) >= 1.0 for b in (0, 1))

    def test_binary_chain_inequality_uses_product_penalty(self):
        penalty, plan = inequality_to_penalty(
            Comparison(lhs=V("hi") - V("lo"), op=">=", rhs=0.0), (-1.0, 1.0), 1.0, "__slack0"
        )
        assert plan is None
        table = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0}
        for (hi, lo), expected in table.items():
            assert penalty.evaluate({"hi": hi, "lo": lo}) == expected


class TestBooleanPenalty:
    @pytest.mark.parametrize("kind,inputs", [("not", ("x",)), ("and", ("x", "y")), ("or", ("x", "y")), ("xor", ("x", "y"))])
    def test_truth_tables(self, kind, inputs):
        relation = BooleanRelation(kind, "z", inputs)
        penalty, aux_plan = boolean_penalty(relation, "__bool0")
        aux_names = aux_plan.binary_names() if aux_plan else []
        names = list(inputs) + ["z"]
        for bits in itertools.product([0, 1], repeat=len(names)):
            assignment = dict(zip(names, bits))
            value = min_over_aux(penalty, assignment, aux_names)
            consistent = relation.truth({k: float(v) for k, v in assignment.items()})
            if consistent:
                assert value == pytest.approx(0.0, abs=1e-9)
            else:
                assert value >= 1.0 - 1e-9

    def test_xor_example_row(self):
        penalty, aux_plan = boolean_penalty(BooleanRelation("xor", "z", ("x", "y")), "__bool0")
        aux = aux_plan.binary_names()[0]
        assert penalty.evaluate({"x": 1, "y": 0, "z": 1, aux: 1}) == 0.0

    def test_and_all_zero_row(self):
        penalty, _ = boolean_penalty(BooleanRelation("and", "z", ("x", "y")), "__bool0")
        assert penalty.evaluate({"x": 0, "y": 0, "z": 0}) == 0.0

    def test_not_rows(self):
        penalty, _ = boolean_penalty(BooleanRelation("not", "z", ("x",)), "__bool0")
        assert penalty.evaluate({"x": 1, "z": 0}) == 0.0
        assert penalty.evaluate({"x": 1, "z": 1}) == 1.0


class TestLambdaEstimation:
    def test_reference_values(self, mixed_parts):
        _, _, _, cost = mixed_parts
        assert estimate_lambda("mqc", cost) == 10.0
        assert estimate_lambda("vlm", cost) == 12.0
        assert estimate_lambda("ub-naive", cost) == 52.25
        assert estimate_lambda("ub-posiform", cost) == 31.625

    def test_reference_per_constraint_values(self, mixed_problem):
        momc = compile_problem(mixed_problem, CompileConfig(lambda_method="momc"))
        inequality, one_hot = momc.penalties
        assert round(inequality.lam, 2) == 6.19
        assert inequality.lam == pytest.approx(12.0 / 1.9375)
        assert one_hot.lam == 12.0

        moc = compile_problem(mixed_problem, CompileConfig(lambda_method="moc"))
        assert moc.penalties[0].lam == 1.0
        assert moc.penalties[1].lam == 6.0

    def test_ub_positive(self):
        poly = Polynomial({("b",): 1.0, ("b", "c"): 2.0})
        assert estimate_lambda("ub-positive", poly) == 3.0
        with pytest.raises(ValueError, match="positive coefficients"):
            estimate_lambda("ub-positive", poly - 2 * V("d"))

    def test_one_flip_bounds_pair(self):
        poly = Polynomial({("x",): -4.0, ("x", "y"): 16.0})
        bounds = one_flip_bounds(poly)
        assert bounds["x"] == (12.0, 4.0)

    def test_weak_multiplier_applies(self, mixed_problem):
        problem = Problem()
        problem.add_binary_variables_array("x", [2])
        problem.add_objective("x_0 + x_1")
        problem.add_constraint("x_0 + x_1 >= 1", hardness="weak")
        problem.freeze()
        model = compile_problem(problem, CompileConfig(lambda_method="vlm", weak_multiplier=0.3))
        assert model.penalties[0].lam == pytest.approx(0.3 * 1.0)

    def test_manual_values(self, mixed_problem):
        model = compile_problem(mixed_problem, CompileConfig(lambda_method="manual", manual_lambdas=7.5))
        assert [b.lam for b in model.penalties] == [7.5, 7.5]
        model = compile_problem(
            mixed_problem, CompileConfig(lambda_method="manual", manual_lambdas=[2.0, 3.0])
        )
        assert [b.lam for b in model.penalties] == [2.0, 3.0]
        with pytest.raises(ValueError, match="manual_lambdas needs 2 values"):
            compile_problem(mixed_problem, CompileConfig(lambda_method="manual", manual_lambdas=[1.0]))

    @pytest.mark.parametrize("values", [float("inf"), float("nan"), [2.0, float("inf")]])
    def test_manual_values_must_be_finite(self, values):
        with pytest.raises(ValueError, match="manual_lambdas must be finite"):
            CompileConfig(lambda_method="manual", manual_lambdas=values)


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


class TestQuadratize:
    def test_triple_product(self):
        poly = Polynomial({("b1", "b2", "b3"): 1.0})
        reduced, registry = quadratize(poly, penalty_scale=2.0)
        assert reduced.degree() <= 2
        assert registry == {("b1", "b2"): "__aux0"}
        for bits in itertools.product([0, 1], repeat=3):
            base = dict(zip(("b1", "b2", "b3"), bits))
            assert min_over_aux(reduced, base, ["__aux0"]) == bits[0] * bits[1] * bits[2]

    def test_quadratic_input_untouched(self):
        poly = Polynomial({("a", "b"): 1.5, ("a",): -1.0})
        reduced, registry = quadratize(poly, penalty_scale=10.0)
        assert reduced == poly and registry == {}

    def test_shared_pair_gets_single_aux(self):
        poly = Polynomial({("b1", "b2", "b3"): 1.0, ("b1", "b2", "b4"): 1.0})
        reduced, registry = quadratize(poly, penalty_scale=3.0)
        assert list(registry) == [("b1", "b2")]
        names = ("b1", "b2", "b3", "b4")
        for bits in itertools.product([0, 1], repeat=4):
            base = dict(zip(names, bits))
            want = bits[0] * bits[1] * bits[2] + bits[0] * bits[1] * bits[3]
            assert min_over_aux(reduced, base, list(registry.values())) == want


class TestCompile:
    def test_reference_model_invariants(self, mixed_problem):
        model = compile_problem(mixed_problem)
        assert model.quadratic.degree() <= 2
        assert model.quadratic.constant_term == 0.0
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
        assert model.quadratic.terms == {("b#0",): 1.0}
        assert model.offset == 0.0 and model.penalties == []

    def test_penalties_nonnegative_and_zero_on_feasible(self, tiny_knapsack):
        model = compile_problem(tiny_knapsack)
        names = model.binary_variables()
        assert len(names) <= 14
        for block in model.penalties:
            zeroed = False
            for bits in itertools.product([0, 1], repeat=len(names)):
                assignment = dict(zip(names, bits))
                value = block.penalty.evaluate(assignment)
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
        assert model.quadratic.degree() <= 2
        assert model.aux_registry
        ex_names = model.binary_variables()
        aux_names = sorted(model.aux_registry.values())
        for bits in itertools.product([0, 1], repeat=3):
            base = {"x#0": bits[0], "y#0": bits[1], "z#0": bits[2]}
            want = bits[0] * bits[1] * bits[2] - bits[0]
            got = min_over_aux(model.quadratic + Polynomial.constant(model.offset), base, aux_names)
            assert got == pytest.approx(want, abs=1e-9)

    def test_model_json_and_matrix_export(self, mixed_problem, tmp_path):
        model = compile_problem(mixed_problem)
        data = model.to_json_dict()
        assert data["schema"] == "qubo-forge-model/1"
        assert data["variables"] == model.binary_variables()
        rebuilt = Polynomial(
            {tuple([name]): coeff for name, coeff in data["linear"]}
            | {(a, b): coeff for a, b, coeff in data["quadratic"]}
        )
        assert rebuilt == model.quadratic
        path = tmp_path / "model.txt"
        model.save_matrix(path)
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        order = model.binary_variables()
        total = Polynomial.zero()
        for line in lines:
            i, j, value = line.split()
            i, j = int(i), int(j)
            mono = (order[i],) if i == j else tuple(sorted((order[i], order[j])))
            total = total + Polynomial({mono: float(value)})
        assert total == model.quadratic


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
        order = model.binary_variables()
        rng = np.random.default_rng(4)
        for _ in range(25):
            assignment = dict(zip(order, rng.integers(0, 2, len(order)).tolist()))
            expected = model.quadratic.evaluate(assignment) + model.offset
            assert model.energy(assignment) == pytest.approx(expected, rel=1e-12)

    def test_energy_names_a_missing_binary(self, mixed_problem):
        model = compile_problem(mixed_problem)
        assignment = dict.fromkeys(model.binary_variables(), 0)
        del assignment[sorted(model.quadratic.variables())[0]]
        with pytest.raises(ValueError, match="no value assigned"):
            model.energy(assignment)


def test_penalty_blocks_sum_like_chained_addition():
    """One induced one-hot block per dictionary-encoded variable, plus a user constraint."""
    problem = Problem()
    names = problem.add_continuous_variables_array("c", [6], -1.0, 1.0, 0.25, encoding="dictionary")
    problem.add_objective(" + ".join(f"{0.3 * (i + 1)}*{a}*{b}" for i, (a, b) in enumerate(zip(names, names[1:]))))
    problem.add_constraint(" + ".join(names) + " <= 1.5")
    problem.freeze()
    model = compile_problem(problem, CompileConfig(lambda_method="momc"))
    assert len(model.penalties) == 7 and all(plan.induced for plan in model.encodings)

    cost = compose_cost(problem.objectives, {plan.source: plan.affine() for plan in model.encodings})
    total = cost
    for block in model.penalties:
        total = total + block.penalty.scale(block.lam)
    total = reduce_binary_idempotence(total, total.variables())
    assert model.offset == total.constant_term
    assert list(model.quadratic) == list(total - total.constant_term)


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
        from qubo_forge.solvers import solve_exhaustive

        model = compile_problem(self.wall_problem(direction))
        assert [block.slack_plan for block in model.penalties] == [None, None, None]  # product penalties, no slack
        solution = solve_exhaustive(model)
        assert solution.best_decoded == {"x": optimum}
        assert model.encoding_valid(solution.best_binary)

    def test_inequality_optimum_decodes(self):
        from qubo_forge.analysis import solution_is_valid
        from qubo_forge.solvers import solve_exhaustive

        problem = self.wall_problem("maximize", "x <= 1.5")
        model = compile_problem(problem, CompileConfig(lambda_method="manual", manual_lambdas=10.0))
        solution = solve_exhaustive(model)
        assert solution.best_decoded == {"x": 1.5}
        assert solution_is_valid(model, solution.best_binary, solution.best_decoded)
