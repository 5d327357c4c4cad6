"""Problem declaration, validation, and the problem-file JSON schema."""

import copy
import functools
import itertools
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubo_forge.expression import Comparison, ParseError, Polynomial
from qubo_forge.problem import BOOLEAN_KINDS, FEASIBILITY_TOL, BooleanRelation, ConstraintDecl, Problem, ProblemFileError, VariableKind
from test_expression import time_limit


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
            # each end is finite, the width is not
            (lambda p: p.add_continuous_variable("c", -1e308, 1e308, 1.0), r"'c' needs a finite width high - low"),
            (lambda p: p.add_discrete_variable("b", [0, float("inf")]), "needs finite levels"),
            (lambda p: p.add_discrete_variable("b", [float("nan"), 1]), "needs finite levels"),
        ],
    )
    def test_non_finite_declarations_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(Problem())

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"encoding": "bogus"}, "unknown continuous encoding 'bogus'"),
            ({"base": 1}, "logarithmic base must be >= 2, got 1"),
            ({"encoding": "bounded"}, "bounded-coefficient encoding of 'c' needs a coefficient bound"),
            # weights 1, 1, 2.5, 1.5 over [0, 6]: no subset sums to 3
            ({"base": 2.5}, "logarithmic base must be an integer, got 2.5"),
        ],
    )
    def test_encoding_options_are_checked_at_the_declaration(self, options, message):
        problem = Problem()
        with time_limit(1.0), pytest.raises(ValueError, match=message):
            problem.add_continuous_variable("c", 0, 1, 0.25, **options)
        assert problem.variable_names() == set()

    def test_a_numpy_integer_base_is_an_integer(self):
        problem = Problem()
        problem.add_continuous_variable("c", 0, 6, 1.0, base=np.int64(3))
        assert problem.variable("c").base == 3

    def test_bounded_encoding_below_its_precision_is_refused_at_the_declaration(self):
        problem = Problem()
        with time_limit(1.0), pytest.raises(ValueError, match="coefficient bound 0.1 is below the precision 0.25"):
            problem.add_continuous_variable("c", 0, 1, 0.25, encoding="bounded", bound=0.1)
        assert problem.variable_names() == set()
        problem.add_continuous_variable("c", 0, 1, 0.25, encoding="bounded", bound=0.25)  # a bound at the precision is fine

    def test_arrays_of_every_kind_match_scalar_declarations(self):
        via_array = Problem()
        via_array.add_bipolar_variables_array("s", [2])
        via_array.add_discrete_variables_array("d", [1, 2], [0, 2])
        via_array.add_continuous_variables_array("c", [2], 0, 1, 0.25, encoding="bounded", bound=0.5)
        one_by_one = Problem()
        for name in ("s_0", "s_1"):
            one_by_one.add_bipolar_variable(name)
        for name in ("d_0_0", "d_0_1"):
            one_by_one.add_discrete_variable(name, [0, 2])
        for name in ("c_0", "c_1"):
            one_by_one.add_continuous_variable(name, 0, 1, 0.25, encoding="bounded", bound=0.5)
        assert via_array.variables == one_by_one.variables

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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p: p.add_objective("a", direction="up"), "direction must be 'minimize' or 'maximize', got 'up'"),
            (lambda p: p.add_boolean_constraint("nand", "z", ["a", "a"]), "boolean relation must be one of"),
            (lambda p: p.add_boolean_constraint("not", "z", ["a", "a"]), "boolean 'not' takes 1 input"),
            (lambda p: p.add_constraint("a >= 0", hardness="soft"), "hardness must be 'hard' or 'weak', got 'soft'"),
            (lambda p: p.add_constraint("a >= 0", slack_precision=0), "slack_precision must be finite and positive"),
            (lambda p: ConstraintDecl(hardness="hard"), "exactly one of a comparison or a boolean relation"),
        ],
    )
    def test_malformed_terms_are_refused(self, call, message):
        problem = Problem()
        problem.add_binary_variable("a")
        problem.add_binary_variable("z")
        with pytest.raises(ValueError, match=message):
            call(problem)
        assert not problem.objectives and not problem.constraints

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

    @settings(max_examples=80, deadline=None)
    @given(
        op=st.sampled_from(["=", "<=", ">=", "<", ">"]),
        rhs=st.sampled_from([-0.0, 0.0, 1.0, -2.5, 0.1]),
        offsets=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, FEASIBILITY_TOL, -FEASIBILITY_TOL, 2 * FEASIBILITY_TOL, -2 * FEASIBILITY_TOL]),
                st.floats(-3, 3),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_array_evaluation_agrees_with_scalar_calls_row_by_row(self, op, rhs, offsets):
        decl = ConstraintDecl(
            comparison=Comparison(lhs=Polynomial.variable("x") - 0.5 * Polynomial.variable("y"), op=op, rhs=rhs),
            hardness="hard",
        )
        xs = [rhs + offset + 0.5 for offset in offsets]
        ys = [1.0] * len(offsets)
        satisfied, residual = decl.evaluate({"x": np.array(xs), "y": np.array(ys)})
        for row, (x, y) in enumerate(zip(xs, ys)):
            scalar = decl.evaluate({"x": x, "y": y})
            assert type(scalar[0]) is bool and type(scalar[1]) is float
            assert (bool(satisfied[row]), repr(float(residual[row]))) == (scalar[0], repr(scalar[1]))

    @settings(max_examples=200, deadline=None)
    @given(
        op=st.sampled_from(["=", "<=", ">=", "<", ">"]),
        rhs=st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, FEASIBILITY_TOL, -FEASIBILITY_TOL, 3 * FEASIBILITY_TOL]),
        offsets=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, *(k * FEASIBILITY_TOL for k in (-3, -2, -1, -0.5, 0.5, 1, 2, 3))]), st.floats(-3, 3)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_evaluate_is_the_former_holds_and_violation_rule(self, op, rhs, offsets):
        """``ConstraintDecl.evaluate`` against the rule it took over from ``Comparison.holds`` and
        ``Comparison.violation`` (copied below): equal verdicts, residuals equal in float hex."""
        decl = ConstraintDecl(comparison=Comparison(lhs=Polynomial.variable("x"), op=op, rhs=rhs), hardness="hard")
        xs = [rhs + offset for offset in offsets] + offsets
        column = decl.comparison.lhs.evaluate({"x": np.array(xs)})
        satisfied, residual = decl.evaluate({"x": np.array(xs)})
        assert satisfied.tolist() == _reference_holds(op, rhs, column).tolist()
        assert [r.hex() for r in residual.tolist()] == [r.hex() for r in _reference_violation(op, rhs, column).tolist()]
        for x in xs:
            value = decl.comparison.lhs.evaluate({"x": x})
            scalar = decl.evaluate({"x": x})
            assert type(scalar[0]) is bool and type(scalar[1]) is float
            assert (scalar[0], scalar[1].hex()) == (_reference_holds(op, rhs, value), _reference_violation(op, rhs, value).hex())

    @pytest.mark.parametrize("kind", BOOLEAN_KINDS)
    def test_array_boolean_evaluation_agrees_with_scalar_calls(self, kind):
        inputs = ("x",) if kind == "not" else ("x", "y")
        decl = ConstraintDecl(boolean=BooleanRelation(kind=kind, output="z", inputs=inputs), hardness="hard")
        rows = list(itertools.product([0, 1], repeat=len(inputs) + 1))
        names = (*inputs, "z")
        columns = {name: np.array([row[k] for row in rows], dtype=float) for k, name in enumerate(names)}
        satisfied, residual = decl.evaluate(columns)
        for index, row in enumerate(rows):
            scalar = decl.evaluate(dict(zip(names, row)))
            assert type(scalar[0]) is bool and type(scalar[1]) is float
            assert (bool(satisfied[index]), float(residual[index])) == scalar
        assert satisfied.sum() == 2 ** len(inputs)  # one consistent output per input row

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
        with pytest.raises(ParseError, match=r"the result of '\*' is not finite \(at position 5\)"):
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
        with pytest.raises(ValueError, match="frozen"):
            problem.add_boolean_constraint("not", "a", ["a"])

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
        problem.objectives.append(ObjectiveTerm(expr=expr, direction="minimize", weight=1.0))
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
        problem.add_continuous_variable("t", 0, 8, 1, base=3)
        problem.add_continuous_variable("k", 0, 2, 0.5, encoding="bounded", bound=1)
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
        assert (loaded.variables, loaded.objectives, loaded.constraints) == (problem.variables, problem.objectives, problem.constraints)
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


class TestProblemFileShape:
    """A problem file with the wrong keys or JSON types is refused with the JSON path named."""

    @staticmethod
    def document(**changes):
        data = {
            "schema": "qubo-forge-problem/1",
            "variables": [{"name": "x", "kind": "binary"}, {"name": "c", "kind": "continuous", "low": 0, "high": 1, "precision": 0.5}],
            "objectives": [{"expression": "x + c"}],
            "constraints": [{"comparison": "x + c <= 1"}, {"boolean": {"kind": "not", "output": "x", "inputs": ["x"]}}],
        }
        data.update(changes)
        return data

    @pytest.mark.parametrize(
        "data, path, message",
        [
            ({"schema": "qubo-forge-problem/1", "variables": 3}, "variables", "expected array, got number"),
            (
                {"schema": "qubo-forge-problem/1", "variables": [{"name": "x"}]},
                "variables[0].kind",
                "missing",
            ),
            (
                {"schema": "qubo-forge-problem/1", "variables": [{"name": "x", "kind": "binary"}], "objectives": [{"expression": 5}]},
                "objectives[0].expression",
                "expected string, got number",
            ),
            ([{"schema": "qubo-forge-problem/1"}], "top level", "expected object, got array"),
            (
                {"schema": "qubo-forge-problem/1", "variables": [{"name": "c", "kind": "continuous", "low": 0, "high": 1}]},
                "variables[0].precision",
                "missing",
            ),
            (
                {"schema": "qubo-forge-problem/1", "variables": [{"name": "b", "kind": "discrete", "levels": [1, "2"]}]},
                "variables[0].levels[1]",
                "expected number, got string",
            ),
            ({"schema": "qubo-forge-problem/1", "variables": [{"name": "x", "kind": "ternary"}]}, "variables[0].kind", "unknown"),
            ({"schema": "qubo-forge-problem/1", "objectives": [{"expression": "1", "weight": True}]}, "objectives[0].weight", "got boolean"),
            ({"schema": "qubo-forge-problem/1", "constraints": [{"hardness": "hard"}]}, "constraints[0]", "exactly one"),
            (
                {"schema": "qubo-forge-problem/1", "constraints": [{"boolean": {"kind": "not", "output": "z", "inputs": [1]}}]},
                "constraints[0].boolean.inputs[0]",
                "expected string, got number",
            ),
            ({"schema": "qubo-forge-problem/1", "solver": []}, "solver", "expected object, got array"),
        ],
    )
    def test_wrong_shape_names_the_path(self, data, path, message):
        with pytest.raises(ProblemFileError, match=message) as info:
            Problem.from_json_dict(data)
        assert info.value.path == path
        assert str(info.value).startswith(f"problem file: {path}: ")

    @pytest.mark.parametrize(
        "path, misspell",
        [
            ("solvr", lambda data: data.update(solvr={"runs": 3})),
            ("variables[1].bonud", lambda data: data["variables"][1].update(bonud=0.5)),
            ("objectives[0].directon", lambda data: data["objectives"][0].update(directon="maximize")),
            ("constraints[0].hardnes", lambda data: data["constraints"][0].update(hardnes="weak")),
            ("constraints[1].boolean.input", lambda data: data["constraints"][1]["boolean"].update(input=["x"])),
        ],
    )
    def test_unknown_keys_are_refused(self, path, misspell):
        data = self.document()
        misspell(data)
        with time_limit(1.0), pytest.raises(ProblemFileError, match="unknown key") as info:
            Problem.from_json_dict(data)
        assert info.value.path == path

    @pytest.mark.parametrize(
        "variable, path, kind",
        [
            ({"name": "x", "kind": "binary", "encoding": "unitary", "levels": [1, 2]}, "variables[0].encoding", "binary"),
            ({"name": "x", "kind": "bipolar", "low": 0}, "variables[0].low", "bipolar"),
            ({"name": "x", "kind": "discrete", "levels": [1, 2], "precision": 0.5}, "variables[0].precision", "discrete"),
            ({"name": "x", "kind": "continuous", "low": 0, "high": 1, "precision": 0.5, "levels": [0]}, "variables[0].levels", "continuous"),
        ],
    )
    def test_keys_of_another_kind_are_refused(self, variable, path, kind):
        data = {"schema": "qubo-forge-problem/1", "variables": [variable], "objectives": [{"expression": "x"}]}
        with time_limit(1.0), pytest.raises(ProblemFileError, match=f"not a key of a {kind} variable") as info:
            Problem.from_json_dict(data)
        assert info.value.path == path

    @pytest.mark.parametrize("value", [0.5, None])
    def test_slack_precision_is_refused_on_a_boolean_constraint(self, value):
        data = self.document()
        data["constraints"][1]["slack_precision"] = value
        with time_limit(1.0), pytest.raises(ProblemFileError, match="not a key of a boolean constraint") as info:
            Problem.from_json_dict(data)
        assert info.value.path == "constraints[1].slack_precision"

    def test_bounded_encoding_below_its_precision_is_refused_on_load(self):
        data = self.document()
        data["variables"][1].update(encoding="bounded", bound=0.25)
        with time_limit(1.0), pytest.raises(ValueError, match="coefficient bound 0.25 is below the precision 0.5"):
            Problem.from_json_dict(data)

    def test_absent_keys_take_the_builders_defaults(self):
        built = Problem()
        built.add_binary_variable("x")
        built.add_continuous_variable("c", 0, 1, 0.5)
        built.add_objective("x + c")
        built.add_constraint("x + c <= 1")
        built.add_boolean_constraint("not", "x", ["x"])
        loaded = Problem.from_json_dict(self.document())
        assert (loaded.variables, loaded.objectives, loaded.constraints) == (built.variables, built.objectives, built.constraints)
        assert loaded.solver_defaults == {}

    def test_nulls_stay_optional_where_the_writer_omits_them(self):
        data = self.document()
        data["variables"][1]["bound"] = None
        data["constraints"][0]["slack_precision"] = None
        problem = Problem.from_json_dict(data)
        assert problem.variable("c").bound is None and problem.constraints[0].slack_precision is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_dropped_key_or_swapped_type_is_a_value_error(self, data):
        document = self.document()
        containers = [document, *document["variables"], *document["objectives"], *document["constraints"]]
        container = data.draw(st.sampled_from(containers))
        key = data.draw(st.sampled_from(sorted(container)))
        if data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(st.sampled_from([3, 2.5, "text", None, True, [], {}]))
        try:
            Problem.from_json_dict(document)
        except ValueError:
            pass  # a named error, never a TypeError, KeyError or AttributeError


@functools.cache
def _fuzz_bases() -> dict[str, dict]:
    """The README example, f3 (with a solver section), iris, and a file holding every kind of entry."""
    from qubo_forge.cli import build_regression, bundled_data, load_knapsack

    readme = Problem()
    readme.add_binary_variable("a")
    readme.add_discrete_variable("b", [-1, 1, 3])
    readme.add_continuous_variable("c", -2, 2, 0.25)
    readme.add_objective("a + b*c + c**2")
    readme.add_constraint("b + c >= 2")
    f3 = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))[1].to_json_dict()
    f3["solver"] = {"solver": "exhaustive", "runs": 3, "time": True}
    iris = build_regression(bundled_data("iris30.csv"), -0.25, 0.25, 0.25)[1]
    return {
        "readme": readme.to_json_dict(),
        "f3": f3,
        "iris": iris.to_json_dict(),
        "every-kind": TestProblemFile().build().to_json_dict(),
    }


_FUZZ_VALUES = [3, 2.5, "text", None, True, [], {}, ["x"], {"kind": "binary"}]


def _json_kind(value) -> str:
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) else type(value).__name__


def _paths(value, path=()):
    """The path of every value inside a JSON document, at any depth."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


class TestWholeProblemFileFuzz:
    """One key dropped at any depth, or one value swapped for another JSON type: a load or a ``ValueError``."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_change_at_any_depth_loads_or_is_a_value_error(self, data):
        bases = _fuzz_bases()
        document = copy.deepcopy(bases[data.draw(st.sampled_from(sorted(bases)))])
        *head, key = data.draw(st.sampled_from(list(_paths(document))))
        parent = functools.reduce(operator.getitem, head, document)
        if data.draw(st.booleans()):
            del parent[key]
        else:
            kind = _json_kind(parent[key])
            parent[key] = data.draw(st.sampled_from([value for value in _FUZZ_VALUES if _json_kind(value) != kind]))
        with time_limit(1.0):
            try:
                Problem.from_json_dict(document)
            except ValueError:
                pass  # a named error, never a TypeError, KeyError or AttributeError


# The comparison rule as ``Comparison.holds`` and ``Comparison.violation`` stated it before
# ``ConstraintDecl.evaluate`` took it over; the reference of the differential test above.
def _unwrap(result):
    return np.asarray(result).item() if np.ndim(result) == 0 else result


def _reference_holds(op, rhs, value):
    if op == ">":
        return _unwrap(value > rhs + FEASIBILITY_TOL)
    if op == "<":
        return _unwrap(value < rhs - FEASIBILITY_TOL)
    return _unwrap(_reference_violation(op, rhs, value) <= FEASIBILITY_TOL)


def _reference_violation(op, rhs, value):
    if op == "=":
        return _unwrap(abs(value - rhs))
    miss = rhs - value if op in (">=", ">") else value - rhs
    if op in (">", "<"):
        floored = np.where(FEASIBILITY_TOL > miss, FEASIBILITY_TOL, miss)
        return _unwrap(np.where(_reference_holds(op, rhs, value), 0.0, floored))
    return _unwrap(np.where(miss > 0.0, miss, 0.0))
