"""Quality metrics: constraint checks, p_range, TTS, distributions, persistence."""

import dataclasses
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubo_forge.analysis import (
    analyze,
    check_constraints,
    check_model_constraints,
    cumulative_distribution,
    load_report,
    objective_values,
    p_range,
    report_from_dict,
    report_to_dict,
    save_report,
    solution_is_valid,
    time_to_solution,
    valid_rate,
    write_cumulative_csv,
)
from qubo_forge.cli import bundled_data, build_regression, load_knapsack
from qubo_forge.compiler import CompileConfig, compile_problem
from qubo_forge.expression import Comparison, Polynomial
from qubo_forge.problem import FEASIBILITY_TOL, ConstraintDecl, Problem
from qubo_forge.solvers import SolutionSet, SolverParams, UpdateStrategy, solve_exhaustive, solve_sa, solve_with_lambda_update


@pytest.fixture(scope="module")
def f3_sa():
    """The bundled knapsack f3, compiled and solved by SA: 100 runs, seed 4."""
    _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
    model = compile_problem(problem)
    return problem, model, solve_sa(model, SolverParams(runs=100, seed=4))


class TestCheckConstraints:
    def test_reference_best_solution(self, mixed_problem):
        results = check_constraints({"a": 0.0, "b": 3.0, "c": -1.0}, mixed_problem)
        assert len(results) == 1
        assert results[0].satisfied and results[0].residual == 0.0  # 2.0 >= 2.0

    def test_no_constraints_all_satisfied(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("x")
        problem.freeze()
        assert check_constraints({"x": 1.0}, problem) == []

    def test_overweight_knapsack_residual(self):
        instance, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        decoded = {f"obj_{i}": 1.0 for i in range(4)}
        results = check_constraints(decoded, problem)
        assert not results[0].satisfied
        assert results[0].residual == pytest.approx(sum(instance.w_arr) - instance.w_max)  # excess 7

    def test_weak_constraints_are_reported_with_their_hardness(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("x")
        problem.add_constraint("x >= 1", hardness="weak")
        problem.add_constraint("x <= 1")
        problem.freeze()
        weak, hard = check_constraints({"x": 0.0}, problem)
        assert (weak.hardness, weak.satisfied, weak.block_index) == ("weak", False, 0)
        assert (hard.hardness, hard.satisfied, hard.block_index) == ("hard", True, 1)
        assert solution_is_valid(compile_problem(problem), {"x#0": 0})  # validity reads the hard ones only

    def test_boundary_grid_point_tolerated(self):
        # a boundary grid value with float noise is within FEASIBILITY_TOL
        problem = Problem()
        problem.add_continuous_variable("c", 0, 1, 0.25)
        problem.add_objective("c")
        problem.add_constraint("c >= 0.5")
        problem.freeze()
        results = check_constraints({"c": 0.5 - 1e-12}, problem)
        assert results[0].satisfied

    @staticmethod
    def strict_problem(op):
        problem = Problem()
        problem.add_continuous_variable("x", 0, 2, 0.5)
        problem.add_objective("x")
        problem.add_constraint(f"x {op} 1")
        return problem.freeze()

    @pytest.mark.parametrize(
        "op, value, residual", [(">", 1.0, FEASIBILITY_TOL), (">", 0.5, 0.5), ("<", 1.0, FEASIBILITY_TOL), ("<", 1.5, 0.5)]
    )
    def test_violated_strict_bound_has_a_positive_residual(self, op, value, residual):
        problem = self.strict_problem(op)
        (decl,) = problem.constraints
        assert decl.evaluate({"x": value}) == (False, pytest.approx(residual))
        (check,) = check_constraints({"x": value}, problem)
        assert (check.satisfied, check.residual) == (False, pytest.approx(residual))

    @pytest.mark.parametrize("op", [">", "<"])
    def test_strict_bound_holds_iff_its_residual_is_zero(self, op):
        (decl,) = self.strict_problem(op).constraints
        tol = FEASIBILITY_TOL
        for value in (0.0, 1 - 2 * tol, 1 - tol / 2, 1.0, 1 + tol / 2, 1 + 2 * tol, 2.0):
            satisfied, residual = decl.evaluate({"x": value})
            assert satisfied == (residual == 0.0), value

    def test_induced_constraints_checked_on_binaries(self, mixed_problem):
        model = compile_problem(mixed_problem)
        solution = solve_exhaustive(model)
        results = check_model_constraints(model=model, binary=solution.best_binary)
        assert [r.label for r in results] == ["b + c >= 2", "encoding[b] one-hot"]
        assert all(r.satisfied for r in results)
        # break the one-hot: set all of b's bits
        broken = dict(solution.best_binary)
        for name in ("b#0", "b#1", "b#2"):
            broken[name] = 1
        broken_results = check_model_constraints(model, broken)
        assert not broken_results[1].satisfied

    def test_missing_decoded_variable(self, mixed_problem):
        with pytest.raises(ValueError, match="no value assigned"):
            check_constraints({"b": 3.0}, mixed_problem)


class TestObjectiveValues:
    def test_reference_problem(self, mixed_problem):
        assert objective_values({"a": 0.0, "b": 3.0, "c": -1.0}, mixed_problem) == [-2.0]

    def test_constant_objective(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("7")
        problem.freeze()
        assert objective_values({"x": 0.0}, problem) == [7.0]

    def test_knapsack_optimum_reports_original_sense(self):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        model = compile_problem(problem)
        best = solve_exhaustive(model).best_decoded
        assert objective_values(best, problem) == [35.0]  # maximize reported unflipped


class TestPRange:
    def test_strictly_below(self):
        assert p_range([-30.0, -31.0], -30.0) == 50.0

    def test_no_energies(self):
        assert p_range([], -30.0) == 0.0


class TestTimeToSolution:
    def test_ratio_one(self):
        assert time_to_solution(3.0, 0.7, 0.7) == pytest.approx(3.0, rel=1e-12)

    def test_edge_conventions(self):
        assert time_to_solution(1.0, 0.99, 0.0) == math.inf
        assert time_to_solution(1.5, 0.99, 1.0) == 1.5

    def test_monotone_decreasing_in_p_range(self):
        fractions = [0.05 * k for k in range(1, 20)]
        values = [time_to_solution(1.0, 0.99, fraction) for fraction in fractions]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            time_to_solution(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            time_to_solution(1.0, 0.9, 1.5)


class TestCumulativeDistribution:
    def test_three_values(self):
        assert cumulative_distribution([3.0, 1.0, 2.0]) == [
            (1.0, pytest.approx(1 / 3)),
            (2.0, pytest.approx(2 / 3)),
            (3.0, 1.0),
        ]

    def test_tie_merge(self):
        assert cumulative_distribution([5.0, 5.0]) == [(5.0, 1.0)]

    @staticmethod
    def loop_reference(energies):
        """The pairs one at a time: a tie replaces the last pair, so a run keeps its last energy and fraction."""
        ordered = sorted(energies)
        pairs = []
        for k, energy in enumerate(ordered):
            fraction = (k + 1) / len(ordered)
            if pairs and pairs[-1][0] == energy:
                pairs[-1] = (energy, fraction)
            else:
                pairs.append((energy, fraction))
        return pairs

    @pytest.mark.parametrize(
        "energies",
        [
            [],
            [0.0, -0.0],  # equal under ==: the run keeps the later zero's sign
            [-0.0, 0.0],
            [-0.0, 1.0, 0.0, -0.0],
            [float(e) for e in np.random.default_rng(5).integers(-20, 20, 1000)],  # 1,000 energies in 40 ties
            [0.1 * k for k in range(7)] * 3,
        ],
    )
    def test_matches_the_loop(self, energies):
        pairs, expected = cumulative_distribution(energies), self.loop_reference(energies)
        assert [(e.hex(), f.hex()) for e, f in pairs] == [(e.hex(), f.hex()) for e, f in expected]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, float("inf")]) | st.floats(allow_nan=False), max_size=40))
    def test_matches_the_loop_on_any_non_nan_energies(self, energies):
        self.test_matches_the_loop(energies)

    def test_step_function_properties(self, f3_sa):
        _, _, solution = f3_sa
        pairs = cumulative_distribution(solution.energies)
        energies = [e for e, _ in pairs]
        fractions = [f for _, f in pairs]
        assert energies == sorted(energies)
        assert all(a < b for a, b in zip(fractions, fractions[1:])) or len(fractions) == 1
        assert fractions[-1] == 1.0


def wall_and_one_hot_problem() -> Problem:
    """A domain-wall continuous variable and a one-hot discrete one, with a hard and a weak inequality."""
    problem = Problem()
    problem.add_continuous_variable("x", 0, 2, 0.5, encoding="domain_wall")
    problem.add_discrete_variable("d", [0, 1, 2])
    problem.add_objective("d - x")
    problem.add_constraint("x + d <= 2")
    problem.add_constraint("x >= 1", hardness="weak")
    return problem.freeze()


class TestValidRate:
    def test_reference_sa_runs_mostly_valid(self, mixed_problem):
        model = compile_problem(mixed_problem)
        solution = solve_sa(model, SolverParams(runs=50, seed=9))
        rate = valid_rate(model, solution)
        assert 0.0 <= rate <= 100.0
        assert rate >= 90.0

    def test_no_samples(self, f3_sa):
        _, model, solution = f3_sa
        empty = dataclasses.replace(solution, bits=solution.bits[:0], energies=[], values=solution.values[:0])
        assert valid_rate(model, empty) == 0.0

    def test_single_invalid_sample(self, mixed_problem):
        model = compile_problem(mixed_problem)
        names = model.binary_variables()
        infeasible = dict.fromkeys(names, 0)  # b one-hot violated, b + c = -2 < 2
        solution = SolutionSet.from_bits(model, np.zeros((1, len(names))))
        assert solution.samples == [(infeasible, model.energy(infeasible))]
        assert solution.decoded == [model.decode(infeasible)]
        assert valid_rate(model, solution) == 0.0
        assert not solution_is_valid(model, infeasible)

    @pytest.mark.parametrize("name", ["readme", "f3", "iris", "wall-and-one-hot"])
    def test_rate_is_the_per_sample_count(self, name, request):
        problem = {
            "readme": lambda: request.getfixturevalue("mixed_problem"),
            "f3": lambda: load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))[1],
            "iris": lambda: build_regression(bundled_data("iris30.csv"), -0.25, 0.25, 0.25)[1],
            "wall-and-one-hot": wall_and_one_hot_problem,
        }[name]()
        model = compile_problem(problem)
        solution = solve_exhaustive(model, SolverParams(k_best=600))  # valid and invalid samples alike
        count = sum(
            solution_is_valid(model, binary, decoded)
            for (binary, _), decoded in zip(solution.samples, solution.decoded)
        )
        assert valid_rate(model, solution) == 100.0 * count / len(solution.samples)


def test_the_yes_no_verdicts_form_no_label(f3_sa, monkeypatch):
    """``valid_rate``, ``solution_is_valid`` and the λ-retry loop read each declaration's verdict
    directly; only the report path formats a constraint's text."""
    problem, model, solution = f3_sa
    rate, best_valid = valid_rate(model, solution), solution_is_valid(model, solution.best_binary, solution.best_decoded)
    monkeypatch.setattr(ConstraintDecl, "describe", lambda self: pytest.fail("a yes/no verdict formed a label"))
    assert valid_rate(model, solution) == rate
    assert solution_is_valid(model, solution.best_binary, solution.best_decoded) is best_valid
    config = CompileConfig(lambda_method="manual", manual_lambdas=0.01)
    outcome = solve_with_lambda_update(problem, config, "sa", SolverParams(runs=10, seed=0), UpdateStrategy(kind="sequential"))
    assert outcome.trials > 1 and outcome.valid


class TestAnalyzeAndPersist:
    def test_report_fields(self, mixed_problem):
        model = compile_problem(mixed_problem)
        solution = solve_sa(model, SolverParams(runs=20, seed=1, record_time=True))
        report = analyze(mixed_problem, model, solution, val_ref=0.0)
        assert report.p_range is not None and report.val_ref == 0.0
        assert report.tts is not None and report.t_f > 0.0
        assert report.objective_values == [-2.0]
        assert report.cumulative[-1][1] == 1.0

    def test_round_trip(self, mixed_problem, tmp_path):
        model = compile_problem(mixed_problem)
        solution = solve_exhaustive(model, SolverParams(k_best=20))
        report = analyze(mixed_problem, model, solution, val_ref=0.0)
        path = tmp_path / "solution.json"
        save_report(path, solution, report, meta={"solver": "exhaustive"})
        loaded_solution, loaded_report, meta = load_report(path)
        assert meta == {"solver": "exhaustive"}
        assert loaded_solution.best_energy == solution.best_energy
        assert loaded_solution.best_decoded == solution.best_decoded
        # serialization is idempotent: saving the loaded copy is byte-identical
        second = tmp_path / "again.json"
        save_report(second, loaded_solution, loaded_report, meta)
        assert second.read_bytes() == path.read_bytes()

    def test_an_infinite_tts_round_trips(self, mixed_problem, tmp_path):
        model = compile_problem(mixed_problem)
        solution = solve_sa(model, SolverParams(runs=5, seed=1, record_time=True))
        report = analyze(mixed_problem, model, solution, val_ref=-1e9)  # no energy below: p_range 0, TTS inf
        assert report.tts == math.inf
        path = tmp_path / "solution.json"
        save_report(path, solution, report)
        assert json.loads(path.read_text())["report"]["tts"] == "inf"
        assert load_report(path)[1].tts == math.inf

    @pytest.mark.parametrize("val_ref", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_val_ref_is_refused(self, mixed_problem, val_ref):
        """No JSON file can hold it: strict parsers refuse ``NaN`` and ``Infinity``."""
        model = compile_problem(mixed_problem)
        with pytest.raises(ValueError, match=f"val_ref must be finite, got {val_ref}"):
            analyze(mixed_problem, model, solve_exhaustive(model, SolverParams(k_best=2)), val_ref=val_ref)

    def test_a_report_key_that_names_no_field_is_refused(self, mixed_problem):
        model = compile_problem(mixed_problem)
        data = report_to_dict(analyze(mixed_problem, model, solve_exhaustive(model, SolverParams(k_best=2))))
        assert report_from_dict(report_to_dict(report_from_dict(data))) == report_from_dict(data)
        with pytest.raises(TypeError, match="valid_rates"):
            report_from_dict(data | {"valid_rates": 1.0})

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "solution.json"
        path.write_text(json.dumps({"schema": "qubo-forge-solution/9", "solution": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_report(path)

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_non_binary_assignment_rejected(self, tiny_knapsack, tmp_path, value):
        path = tmp_path / "solution.json"
        save_report(path, solve_exhaustive(compile_problem(tiny_knapsack), SolverParams(k_best=2)))
        data = json.loads(path.read_text())
        assignment = data["solution"]["samples"][1]["assignment"]
        assignment[next(iter(assignment))] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="must be 0 or 1"):
            load_report(path)

    def test_reanalysis_of_saved_report_is_identical(self, f3_sa, tmp_path):
        problem, model, solution = f3_sa
        report = analyze(problem, model, solution, val_ref=-30.0)
        path = tmp_path / "knap.json"
        save_report(path, solution, report)
        loaded_solution, loaded_report, _ = load_report(path)
        assert p_range(loaded_solution.energies, -30.0) == loaded_report.p_range

    def test_feasible_best_has_zero_residuals(self, mixed_problem):
        model = compile_problem(mixed_problem)
        solution = solve_exhaustive(model)
        report = analyze(mixed_problem, model, solution)
        assert report.valid_rate >= 0.0
        for check in report.constraint_results:
            assert check.satisfied and check.residual <= 1e-9

    def test_cumulative_csv_format(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_cumulative_csv(path, [(-35.0, 0.5), (-30.0, 1.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "energy,cumulative_fraction"
        assert lines[1] == "-35,0.5"
        assert lines[2] == "-30,1"


def fractional_knapsack():
    """Fractional weights whose slack step defaults to 1: at [1, 1, 1] the load is 1.1 > 1."""
    problem = Problem()
    for name in ("x0", "x1", "x2"):
        problem.add_binary_variable(name)
    problem.add_objective("x0 + x1 + x2", direction="maximize")
    problem.add_constraint("0.4*x0 + 0.4*x1 + 0.3*x2 <= 1")
    return problem.freeze()


class TestExactFeasibility:
    def test_fractional_overload_is_infeasible(self):
        problem = fractional_knapsack()
        (check,) = check_constraints({"x0": 1.0, "x1": 1.0, "x2": 1.0}, problem)
        assert not check.satisfied and check.residual == pytest.approx(0.1)
        model = compile_problem(problem)
        full = dict.fromkeys(model.binary_variables(), 1)
        (block,) = check_model_constraints(model, full)
        assert not block.satisfied and block.residual == pytest.approx(0.1)

    def test_valid_rate_counts_only_feasible_loads(self):
        problem = fractional_knapsack()
        model = compile_problem(problem)
        solution = solve_exhaustive(model, SolverParams(k_best=100))
        assert len(solution.samples) == 16  # three items and one slack bit
        count = sum(
            solution_is_valid(model, binary, decoded)
            for (binary, _), decoded in zip(solution.samples, solution.decoded)
        )
        assert count == 14  # both slack values of [1, 1, 1] are infeasible
        assert valid_rate(model, solution) == 100.0 * 14 / 16


_KINDS = st.sampled_from(["binary", "continuous", "discrete"])


def _declare(problem, name, kind):
    if kind == "binary":
        problem.add_binary_variable(name)
    elif kind == "continuous":
        problem.add_continuous_variable(name, 0, 1, 0.25)
    else:
        problem.add_discrete_variable(name, [-0.5, 0, 0.75])


@pytest.mark.filterwarnings("ignore:constraint unsatisfiable")  # every assignment is then infeasible
@settings(max_examples=100, deadline=None)
@given(
    terms=st.lists(st.tuples(_KINDS, st.integers(-9, 9).filter(bool)), min_size=1, max_size=3),
    op=st.sampled_from(["=", "<=", ">="]),
    rhs_tenths=st.integers(-10, 10),
)
def test_verdict_is_the_exact_residual_rule(terms, op, rhs_tenths):
    """Every assignment of a small model with fractional coefficients: each (non-strict)
    block holds iff its residual is within FEASIBILITY_TOL, and the user constraint's
    verdict is the exact rational one."""
    problem = Problem()
    coefficients = {}
    for k, (kind, tenths) in enumerate(terms):
        _declare(problem, f"v{k}", kind)
        coefficients[f"v{k}"] = Fraction(tenths, 10)
    problem.add_objective(" + ".join(coefficients))
    lhs = Polynomial({(name,): float(c) for name, c in coefficients.items()})
    problem.add_constraint(Comparison(lhs, op, rhs_tenths / 10))
    model = compile_problem(problem.freeze())
    solution = solve_exhaustive(model, SolverParams(k_best=2 ** len(model.binary_variables())))
    holds = {"=": operator.eq, "<=": operator.le, ">=": operator.ge}[op]
    for (binary, _), decoded in zip(solution.samples, solution.decoded):
        results = check_model_constraints(model, binary, decoded)
        assert all(r.satisfied == (r.residual <= FEASIBILITY_TOL) for r in results)
        load = sum(c * Fraction(decoded[name]) for name, c in coefficients.items())
        assert results[0].satisfied == holds(load, Fraction(rhs_tenths, 10))
