"""Problem declaration, validation, and the problem-file JSON schema."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubo_forge.expression import Comparison, Polynomial
from qubo_forge.problem import Problem, VariableKind


class TestVariableDeclaration:
    def test_continuous_registration(self):
        problem = Problem()
        name = problem.add_continuous_variable("c", -2, 2, 0.25)
        decl = problem.variable(name)
        assert decl.kind is VariableKind.CONTINUOUS
        assert (decl.low, decl.high, decl.precision) == (-2, 2, 0.25)
        assert decl.encoding == "logarithmic" and decl.base == 2

    def test_binary_array_names(self):
        problem = Problem()
        names = problem.add_binary_variables_array("obj", [4])
        assert names == ["obj_0", "obj_1", "obj_2", "obj_3"]
        assert problem.variable_names() == set(names)

    def test_array_matches_scalar_declarations(self):
        via_array = Problem()
        via_array.add_binary_variables_array("x", [3])
        one_by_one = Problem()
        for i in range(3):
            one_by_one.add_binary_variable(f"x_{i}")
        assert via_array.variable_names() == one_by_one.variable_names()

    def test_2d_array_names(self):
        problem = Problem()
        names = problem.add_continuous_variables_array("m", [2, 2], 0, 1, 0.5)
        assert names == [["m_0_0", "m_0_1"], ["m_1_0", "m_1_1"]]
        assert len(problem.variables) == 4

    def test_single_level_discrete_is_allowed(self):
        problem = Problem()
        problem.add_discrete_variable("b", [-1])
        assert problem.variable("b").levels == (-1.0,)

    def test_duplicate_name_rejected(self):
        problem = Problem()
        problem.add_binary_variable("a")
        with pytest.raises(ValueError, match="already declared"):
            problem.add_bipolar_variable("a")

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: p.add_discrete_variable("b", []),
            lambda p: p.add_discrete_variable("b", [1, 1]),
            lambda p: p.add_continuous_variable("c", 2, -2, 0.25),
            lambda p: p.add_continuous_variable("c", 0, 1, 2.0),
            lambda p: p.add_continuous_variable("c", 0, 1, 0.0),
            lambda p: p.add_binary_variable("__slack0"),
            lambda p: p.add_binary_variables_array("x", [2, 2, 2]),
        ],
    )
    def test_invalid_declarations(self, call):
        with pytest.raises(ValueError):
            call(Problem())

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda p: p.add_continuous_variable("c", float("-inf"), 1, 0.25), "needs finite low, high"),
            (lambda p: p.add_continuous_variable("c", 0, float("inf"), 0.25), "needs finite low, high"),
            (lambda p: p.add_continuous_variable("c", 0, 1, float("nan")), "needs finite low, high"),
            (lambda p: p.add_continuous_variable("c", 0, 1, 0.25, encoding="bounded", bound=float("inf")), "and bound"),
            (lambda p: p.add_discrete_variable("b", [0, float("inf")]), "needs finite levels"),
            (lambda p: p.add_discrete_variable("b", [float("nan"), 1]), "needs finite levels"),
        ],
    )
    def test_non_finite_declarations_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(Problem())

    @pytest.mark.parametrize("name", ["a-b", "x#0", "x y", "é", "", "1x"])
    def test_names_must_be_parser_identifiers(self, name):
        # "a-b" would read back as a - b and "x#0" would shadow the encoding binary of x
        with pytest.raises(ValueError, match="invalid variable name"):
            Problem().add_binary_variable(name)


class TestObjectivesAndConstraints:
    def test_objective_from_string(self):
        problem = Problem()
        problem.add_binary_variable("a")
        problem.add_discrete_variable("b", [-1, 1, 3])
        problem.add_continuous_variable("c", -2, 2, 0.25)
        problem.add_objective("a + b*c + c**2")
        assert len(problem.objectives) == 1
        assert problem.objectives[0].direction == "minimize"
        assert problem.objectives[0].weight == 1.0

    def test_maximize_objective_stored_unflipped(self):
        problem = Problem()
        names = problem.add_binary_variables_array("obj", [2])
        score = Polynomial({(n,): p for n, p in zip(names, (5.0, 10.0))})
        problem.add_objective(score, direction="maximize")
        assert problem.objectives[0].expr == score

    def test_constant_objective_allowed(self):
        problem = Problem()
        problem.add_binary_variable("a")
        problem.add_objective("0")
        problem.freeze()

    def test_objective_weight_must_be_positive(self):
        problem = Problem()
        problem.add_binary_variable("a")
        for weight in (0.0, -1.0, float("inf")):
            with pytest.raises(ValueError):
                problem.add_objective("a", weight=weight)

    def test_constraint_defaults_to_hard(self):
        problem = Problem()
        problem.add_discrete_variable("b", [-1, 1, 3])
        problem.add_continuous_variable("c", -2, 2, 0.25)
        problem.add_constraint("b + c >= 2")
        assert problem.constraints[0].hardness == "hard"

    def test_trivial_constraint_stored(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_constraint("x = x")
        assert problem.constraints[0].comparison.lhs.is_zero()

    def test_weak_boolean_constraint(self):
        problem = Problem()
        for name in ("x", "y", "z"):
            problem.add_binary_variable(name)
        problem.add_boolean_constraint("or", "z", ["x", "y"], hardness="weak")
        decl = problem.constraints[0]
        assert decl.hardness == "weak" and decl.boolean.kind == "or"

    def test_evaluate_gives_satisfaction_and_residual(self):
        problem = Problem()
        for name in ("x", "y", "z"):
            problem.add_binary_variable(name)
        problem.add_boolean_constraint("and", "z", ["x", "y"])
        problem.add_constraint("x + y <= 1")
        relation, comparison = problem.constraints
        assert relation.evaluate({"x": 1, "y": 1, "z": 1}) == (True, 0.0)
        assert relation.evaluate({"x": 1, "y": 0, "z": 1}) == (False, 1.0)
        assert comparison.evaluate({"x": 1, "y": 0.25}) == (False, 0.25)  # exact: no tolerance beyond 1e-9
        assert comparison.evaluate({"x": 1, "y": 2.0**-40}) == (True, 2.0**-40)  # float noise still holds
        assert comparison.evaluate({"x": 1, "y": 1}) == (False, 1.0)

    def test_boolean_constraint_rejects_non_binary(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_bipolar_variable("s")
        problem.add_binary_variable("z")
        with pytest.raises(ValueError, match="unipolar binary"):
            problem.add_boolean_constraint("and", "z", ["x", "s"])

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_polynomial_rejected(self, value):
        problem = Problem()
        problem.add_binary_variable("a")
        bad = Polynomial({("a",): value})
        with pytest.raises(ValueError, match="objective has a non-finite coefficient"):
            problem.add_objective(bad)
        with pytest.raises(ValueError, match="constraint has a non-finite coefficient"):
            problem.add_constraint(Comparison(lhs=bad, op="<=", rhs=1.0))
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            problem.add_constraint(Comparison(lhs=Polynomial.variable("a"), op="<=", rhs=value))
        with pytest.raises(ValueError, match="objective has a non-finite coefficient"):
            problem.add_objective("1e200*1e200*a")  # each literal is finite, their product is not
        assert not problem.objectives and not problem.constraints

    def test_undeclared_variable_rejected(self):
        problem = Problem()
        problem.add_binary_variable("a")
        with pytest.raises(Exception):
            problem.add_objective("a + ghost")
        with pytest.raises(Exception):
            problem.add_constraint("ghost >= 1")


class TestFreezeAndValidate:
    def test_freeze_requires_an_objective(self):
        problem = Problem()
        problem.add_binary_variable("a")
        with pytest.raises(ValueError, match="at least one objective"):
            problem.freeze()

    def test_frozen_problem_rejects_mutation(self):
        problem = Problem()
        problem.add_binary_variable("a")
        problem.add_objective("a")
        problem.freeze()
        with pytest.raises(ValueError, match="frozen"):
            problem.add_binary_variable("b")
        with pytest.raises(ValueError, match="frozen"):
            problem.add_objective("a")
        with pytest.raises(ValueError, match="frozen"):
            problem.add_constraint("a >= 0")

    @given(st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4), st.randoms())
    @settings(max_examples=50)
    def test_validation_iff_all_variables_declared(self, declared, rng):
        # The objective always references a..d; validation must succeed exactly
        # when every referenced name was declared.
        from qubo_forge.problem import ObjectiveTerm

        problem = Problem()
        for name in sorted(declared):
            problem.add_binary_variable(name)
        expr = Polynomial({("a",): 1.0, ("b",): 1.0, ("c",): 1.0, ("d",): 1.0})
        # Bypass add_objective's own check to exercise validate() directly.
        problem.objectives.append(ObjectiveTerm(expr=expr))
        if declared == {"a", "b", "c", "d"}:
            problem.validate()
        else:
            with pytest.raises(ValueError, match="undeclared"):
                problem.validate()


class TestProblemFile:
    def build(self) -> Problem:
        problem = Problem()
        problem.add_binary_variable("a")
        problem.add_bipolar_variable("s")
        problem.add_discrete_variable("b", [-1, 1, 3])
        problem.add_continuous_variable("c", -2, 2, 0.25)
        problem.add_continuous_variable("u", 0, 3, 0.5, encoding="unitary")
        problem.add_binary_variable("z")
        problem.add_objective("a + b*c + c**2")
        problem.add_objective("u", direction="maximize", weight=0.5)
        problem.add_constraint("b + c >= 2")
        problem.add_constraint("u <= 2", hardness="weak", slack_precision=0.5)
        problem.add_boolean_constraint("not", "z", ["a"])
        return problem

    def test_round_trip(self, tmp_path):
        problem = self.build()
        path = tmp_path / "problem.json"
        problem.save(path)
        loaded = Problem.load(path)
        assert loaded.to_json_dict() == problem.to_json_dict()
        assert loaded.frozen

    def test_schema_field_present(self, tmp_path):
        problem = self.build()
        path = tmp_path / "problem.json"
        problem.save(path)
        data = json.loads(path.read_text())
        assert data["schema"] == "qubo-forge-problem/1"

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"schema": "qubo-forge-problem/999", "variables": []}))
        with pytest.raises(ValueError, match="schema"):
            Problem.load(path)
