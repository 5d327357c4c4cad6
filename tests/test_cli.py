"""Command-line pipeline: generators, solve/compare runs, files, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import qubo_forge
from qubo_forge.analysis import load_report, save_report
from qubo_forge.cli import (
    _FLAG_TYPES,
    _OPTION_DEFAULTS,
    _SOLVE_ONLY,
    _compile_config,
    _resolve_options,
    _solver_params,
    build_parser,
    build_regression,
    bundled_data,
    load_knapsack,
    load_regression_csv,
    main,
)
from qubo_forge.compiler import LAMBDA_METHODS, CompileConfig, compile_problem
from qubo_forge.problem import Problem
from qubo_forge.solvers import SOLVERS, UPDATE_KINDS, SolverParams, UpdateStrategy, solve_exhaustive
from reference import time_limit


@pytest.fixture
def mixed_problem_file(mixed_problem, tmp_path):
    path = tmp_path / "mixed.problem.json"
    mixed_problem.save(path)
    return path


@pytest.fixture
def f3_problem_file(tmp_path):
    _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
    path = tmp_path / "f3.problem.json"
    problem.save(path)
    return path


def run_cli(*argv) -> int:
    return main([str(arg) for arg in argv])


class TestLoadKnapsack:
    def test_bundled_f3(self):
        instance, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        assert instance.n_obj == 4 and instance.w_max == 20.0
        assert len(problem.variables) == 4
        assert len(problem.constraints) == 1
        assert problem.constraints[0].comparison.op == "<="
        assert problem.objectives[0].direction == "maximize"

    def test_single_item_heavier_than_capacity(self, tmp_path):
        path = tmp_path / "heavy.txt"
        path.write_text("1 5\n10 9\n")
        _, problem = load_knapsack(path)
        model = compile_problem(problem)
        best = solve_exhaustive(model).best_decoded
        assert best == {"obj_0": 0.0}  # the empty bag, objective 0

    def test_two_item_instance(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("2 4\n5 2\n10 3\n")
        instance, problem = load_knapsack(path)
        model = compile_problem(problem)
        best = solve_exhaustive(model).best_decoded
        assert (best["obj_0"], best["obj_1"]) == (0.0, 1.0)  # item 2 alone scores 10
        assert instance.p_arr == (5.0, 10.0)

    @pytest.mark.parametrize(
        "content", ["", "2\n", "2 4\n5 2\n", "2 4\n5 two\n1 1\n", "2 0\n5 2\n1 1\n", "2 4\n5 2\n10 3\n7 1\n"]
    )
    def test_malformed_instances(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ValueError):
            load_knapsack(path)


class TestBuildRegression:
    def test_perfect_fit_on_grid(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("x,y\n0,0\n1,1\n2,2\n")
        _, problem = build_regression(path, 1, -1.0, 1.0, 0.5)
        model = compile_problem(problem)
        solution = solve_exhaustive(model)
        assert solution.best_energy == pytest.approx(0.0, abs=1e-9)
        assert solution.best_decoded == {"w_0": 1.0, "w_1": 0.0}  # slope 1, intercept 0

    def test_too_few_points_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="at least"):
            build_regression(path, 2, -1, 1, 0.5)

    def test_rank_deficiency_warns(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n1,1\n1,1\n1,1\n")
        with pytest.warns(UserWarning, match="rank-deficient"):
            build_regression(path, 1, -1, 1, 0.5)

    @pytest.mark.parametrize(
        "content, features, message",
        [
            ("x,y\n0,0\na,b\n", None, "non-numeric row"),
            ("x,y\n", None, "no data rows"),
            ("0,0\n1,1,1\n", None, "ragged rows"),
            ("0,0\n1,1\n", 2, "expected 2 feature columns plus one label column, found 2 columns"),
        ],
    )
    def test_malformed_csv(self, tmp_path, content, features, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            load_regression_csv(path, features)

    def test_header_optional(self, tmp_path):
        with_header = tmp_path / "a.csv"
        with_header.write_text("x,y\n0,0\n1,1\n")
        without = tmp_path / "b.csv"
        without.write_text("0,0\n\n1,1\n")  # a blank line is skipped
        xa, ya = load_regression_csv(with_header)
        xb, yb = load_regression_csv(without)
        assert (xa == xb).all() and (ya == yb).all()


class TestSolveCommand:
    def test_reference_problem_exhaustive(self, mixed_problem_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("solve", mixed_problem_file, "--solver", "exhaustive", "--out-dir", out)
        captured = capsys.readouterr().out
        assert code == 0
        assert "a: 0" in captured and "b: 3" in captured and "c: -1" in captured
        assert "best energy:   -2" in captured
        stem = mixed_problem_file.stem
        for suffix in ("solution.json", "report.json", "model.json", "matrix.txt", "exhaustive.cdf.csv"):
            assert (out / f"{stem}.{suffix}").exists()

    def test_unconstrained_problem_exits_zero(self, tmp_path):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("x")
        problem.freeze()
        path = tmp_path / "free.problem.json"
        problem.save(path)
        assert run_cli("solve", path, "--solver", "sa", "--runs", 5, "--out-dir", tmp_path / "o") == 0

    def test_a_broken_encoding_block_exits_two_without_declared_constraints(self, tmp_path, capsys):
        """A one-hot block is a constraint too: a weak λ that breaks it is an infeasible answer."""
        problem = Problem()
        problem.add_discrete_variable("b", range(1, 9))
        problem.add_objective("b", direction="maximize")
        problem.freeze()
        path = tmp_path / "levels.problem.json"
        problem.save(path)
        argv = ["--solver", "sa", "--sweeps", 1, "--runs", 1, "--seed", 0, "--lambda-method", "manual", "--lambda-value", 0.01]
        assert run_cli("solve", path, *argv, "--out-dir", tmp_path / "o") == 2
        assert "feasible:      no" in capsys.readouterr().out

    def test_knapsack_sa_report_best(self, f3_problem_file, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "solve", f3_problem_file, "--solver", "sa", "--runs", 100, "--seed", 11, "--out-dir", out
        )
        assert code == 0
        solution, report, meta = load_report(out / "f3.problem.solution.json")
        assert solution.best_energy == -35.0
        assert report.objective_values == [35.0]
        assert meta["solver"] == "sa" and meta["runs"] == 100

    def test_report_file_equals_the_report_in_the_solution_file(self, f3_problem_file, tmp_path):
        # 2 of 3 samples valid, and a measured t_f: floats that 12 significant digits round
        argv = ["--runs", 3, "--sweeps", 5, "--seed", 3, "--lambda-method", "manual", "--lambda-value", 3]
        out = tmp_path / "o"
        assert run_cli("solve", f3_problem_file, *argv, "--val-ref", -30, "--time", "--out-dir", out) in (0, 2)
        report = json.loads((out / "f3.problem.report.json").read_text())
        assert report == json.loads((out / "f3.problem.solution.json").read_text())["report"]
        assert report["t_f"] is not None
        save_report(tmp_path / "resaved.json", *load_report(out / "f3.problem.solution.json"))
        assert (tmp_path / "resaved.json").read_bytes() == (out / "f3.problem.solution.json").read_bytes()

    def test_infeasible_after_retries_exits_two(self, tmp_path):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("x")
        problem.add_constraint("x >= 2")
        problem.freeze()
        path = tmp_path / "impossible.problem.json"
        problem.save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli("solve", path, "--solver", "exhaustive", "--out-dir", tmp_path / "o")
        assert code == 2

    def test_lambda_update_flow(self, f3_problem_file, tmp_path):
        code = run_cli(
            "solve", f3_problem_file,
            "--solver", "sa", "--runs", 30, "--seed", 2,
            "--lambda-method", "manual", "--lambda-value", "0.01",
            "--lambda-update", "sequential", "--trials", 5,
            "--out-dir", tmp_path / "o",
        )
        assert code == 0
        _, _, meta = load_report(tmp_path / "o" / "f3.problem.solution.json")
        assert meta["trials"] > 1
        assert all(lam > 0.01 for lam in meta["lambdas"])

    def test_lambda_update_none_is_one_trial(self, f3_problem_file, tmp_path):
        code = run_cli(
            "solve", f3_problem_file,
            "--solver", "sa", "--runs", 30, "--seed", 2,
            "--lambda-method", "manual", "--lambda-value", "0.01",  # too weak: the first trial is infeasible
            "--lambda-update", "none", "--out-dir", tmp_path,
        )
        assert code == 2
        _, _, meta = load_report(tmp_path / "f3.problem.solution.json")
        assert meta["trials"] == 1 and meta["lambdas"] == [0.01]

    def test_manual_without_value_is_an_error(self, f3_problem_file, tmp_path, capsys):
        code = run_cli("solve", f3_problem_file, "--lambda-method", "manual", "--out-dir", tmp_path)
        assert code == 1
        assert "lambda-value" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "section"])
    def test_a_lambda_value_without_the_manual_method_is_an_error(self, where, f3_problem_file, tmp_path, capsys):
        argv = ["solve", f3_problem_file, "--out-dir", tmp_path / "o"]
        if where == "flag":
            argv += ["--lambda-value", 5]
        else:
            data = json.loads(f3_problem_file.read_text())
            f3_problem_file.write_text(json.dumps(data | {"solver": {"lambda_value": 5}}))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == "error: --lambda-value is read only under --lambda-method manual, not vlm\n"
        assert not (tmp_path / "o").exists()

    def test_infinite_lambda_max_is_a_usage_error(self, f3_problem_file, tmp_path, capsys):
        code = run_cli("solve", f3_problem_file, "--lambda-update", "scaled", "--lambda-max", "inf", "--out-dir", tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: lambda_max must be finite and positive")

    @pytest.mark.parametrize(
        "flag, message",
        [("--lambda-max=inf", "error: lambda_max must be finite"), ("--trials=0", "error: --trials must be >= 1")],
    )
    def test_update_flags_are_checked_without_an_update(self, f3_problem_file, tmp_path, capsys, flag, message):
        assert run_cli("solve", f3_problem_file, flag, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize("update", ["none", "scaled"])
    def test_zero_trials_names_the_flag(self, f3_problem_file, tmp_path, capsys, update):
        assert run_cli("solve", f3_problem_file, "--trials", "0", "--lambda-update", update, "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"schema": "qubo-forge-problem/1", "variables": 3}, "error: problem file: variables: expected array"),
            ({"schema": "qubo-forge-problem/1", "variables": [{"name": "x"}]}, "error: problem file: variables[0].kind: missing"),
            (
                {"schema": "qubo-forge-problem/1", "variables": [{"name": "x", "kind": "binary"}], "objectives": [{"expression": 5}]},
                "error: problem file: objectives[0].expression: expected string",
            ),
            ([{"schema": "qubo-forge-problem/1"}], "error: problem file: top level: expected object"),
            (
                {"schema": "qubo-forge-problem/1", "variables": [{"name": "x", "kind": "binary"}], "objectives": [{"expression": "x*2**2000"}]},
                "error: exponent 2000 is above the largest accepted",
            ),
        ],
    )
    def test_malformed_problem_file_is_an_error_line(self, document, message, tmp_path, capsys):
        path = tmp_path / "bad.problem.json"
        path.write_text(json.dumps(document))
        assert run_cli("solve", path, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"solver": {"runs": "ten"}}, "error: problem file: solver.runs: expected integer, got string"),
            ({"solver": {"sweeps": 2.5}}, "error: problem file: solver.sweeps: expected integer, got number"),
            ({"solver": {"time": "yes"}}, "error: problem file: solver.time: expected boolean, got string"),
            ({"solvr": {"runs": 3}}, "error: problem file: solvr: unknown key"),
            (
                {
                    "variables": [{"name": name, "kind": "binary"} for name in "abcdefgh"],
                    "objectives": [{"expression": "(a+b+c+d+e+f+g+h)^16"}],
                    "constraints": [],
                },
                "error: a power of 8 terms to the 16 can expand to 245157 terms",
            ),
            (
                {
                    "variables": [{"name": name, "kind": "binary"} for name in "abcdefgh"],
                    "objectives": [{"expression": "*".join(["(a+b+c+d+e+f+g+h)"] * 12)}],
                    "constraints": [],
                },
                "error: a product of 6435 and 8 terms can expand to 11440 terms",
            ),
            (
                {"variables": [{"name": "obj_0", "kind": "binary", "encoding": "unitary", "levels": [1, 2]}]},
                "error: problem file: variables[0].encoding: not a key of a binary variable",
            ),
            (
                {
                    "variables": [{"name": "c", "kind": "continuous", "low": 0, "high": 1, "precision": 0.5, "encoding": "bogus"}],
                    "objectives": [{"expression": "c"}],
                    "constraints": [],
                },
                "error: unknown continuous encoding 'bogus'",
            ),
            (
                {
                    "variables": [{"name": "x", "kind": "binary"}],
                    "objectives": [{"expression": "x"}],
                    "constraints": [{"boolean": {"kind": "not", "output": "x", "inputs": ["x"]}, "slack_precision": 0.5}],
                },
                "error: problem file: constraints[0].slack_precision: not a key of a boolean constraint",
            ),
            (
                {
                    "variables": [
                        {"name": "c", "kind": "continuous", "low": 0, "high": 1, "precision": 0.25, "encoding": "bounded", "bound": 0.1}
                    ],
                    "objectives": [{"expression": "c"}],
                    "constraints": [],
                },
                "error: coefficient bound 0.1 is below the precision 0.25",
            ),
            (
                {
                    "variables": [{"name": "c", "kind": "continuous", "low": 0, "high": 1, "precision": 1e-9, "encoding": "unitary"}],
                    "objectives": [{"expression": "c"}],
                    "constraints": [],
                },
                "error: the unitary encoding of 'c' at precision 1e-09 needs more binaries than the compile budget of 150000\n",
            ),
        ],
    )
    def test_pinned_robustness_cases_are_error_lines(self, change, message, tmp_path, capsys):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        path = tmp_path / "bad.problem.json"
        path.write_text(json.dumps(problem.to_json_dict() | change))
        with time_limit(1.0):
            assert run_cli("solve", path, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("where", ["flag", "section"])
    def test_p_conf_outside_zero_one_is_refused_on_every_run(self, command, where, f3_problem_file, tmp_path, capsys):
        argv = [command, f3_problem_file, "--out-dir", tmp_path / "o"] + (["--solvers", "sa"] if command == "compare" else [])
        if where == "flag":
            argv += ["--p-conf", 5]
        else:
            data = json.loads(f3_problem_file.read_text())
            f3_problem_file.write_text(json.dumps(data | {"solver": {"p_conf": 7}}))
        with time_limit(1.0):
            assert run_cli(*argv) == 1  # no --val-ref or --time, so no TTS is computed
        err = capsys.readouterr().err
        assert err.startswith("error: p_conf must be in (0, 1), got ") and "Traceback" not in err
        assert not (tmp_path / "o" / "f3.problem.solution.json").exists()

    def test_misspelt_constraint_key_is_an_error_line(self, f3_problem_file, tmp_path, capsys):
        data = json.loads(f3_problem_file.read_text())
        data["constraints"][0]["hardnes"] = "weak"
        f3_problem_file.write_text(json.dumps(data))
        with time_limit(1.0):
            assert run_cli("solve", f3_problem_file, "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err == "error: problem file: constraints[0].hardnes: unknown key\n"

    def test_a_power_past_the_compile_budget_is_an_error_line(self, tmp_path, capsys):
        variables = [{"name": f"c_{k}", "kind": "continuous", "low": -2, "high": 2, "precision": 0.25} for k in range(3)]
        document = {"schema": "qubo-forge-problem/1", "variables": variables, "objectives": [{"expression": "(c_0+c_1+c_2)**10"}]}
        path = tmp_path / "power.problem.json"
        path.write_text(json.dumps(document))
        with time_limit(2.0):
            assert run_cli("solve", path, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the objective needs 319332 binary terms, above the compile budget") and "Traceback" not in err

    def test_missing_file_is_an_error(self, tmp_path):
        assert run_cli("solve", tmp_path / "nope.json") == 1

    def test_a_bad_file_ends_the_process_with_an_error_line(self, tmp_path):
        """The interpreter's own exit: status 1 and an ``error:`` line, with no traceback on stderr."""
        path = tmp_path / "bad.problem.json"
        path.write_text(json.dumps({"schema": "qubo-forge-problem/1", "variables": 3}))
        src = str(Path(qubo_forge.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = [sys.executable, "-m", "qubo_forge.cli", "solve", str(path), "--out-dir", str(tmp_path)]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert run.stderr.startswith("error: problem file: variables: expected array") and "Traceback" not in run.stderr

    def test_an_overflowing_compile_writes_only_its_error_line(self, tmp_path):
        """numpy's overflow warnings are not printed before the named error, in a process of its own."""
        variables = [{"name": "c", "kind": "continuous", "low": 0, "high": 1e200, "precision": 1e199}]
        path = tmp_path / "huge.problem.json"
        path.write_text(json.dumps({"schema": "qubo-forge-problem/1", "variables": variables, "objectives": [{"expression": "c*c"}]}))
        src = str(Path(qubo_forge.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = [sys.executable, "-m", "qubo_forge.cli", "solve", str(path), "--out-dir", str(tmp_path)]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert run.stderr == "error: the model overflows: its coefficients and offset sum to inf in magnitude\n"

    @pytest.mark.parametrize(
        "document, expected",
        [
            (  # boolean relations, a domain-wall and a dictionary variable: 17 binaries
                {
                    "variables": [
                        *({"name": name, "kind": "binary"} for name in "xyaoen"),
                        {"name": "d", "kind": "continuous", "low": 0, "high": 2, "precision": 0.5, "encoding": "domain_wall"},
                        {"name": "k", "kind": "discrete", "levels": [1, 2, 4]},
                    ],
                    "objectives": [{"expression": "x + d + k - 2*a + o + 3*e + n", "direction": "maximize"}],
                    "constraints": [
                        {"boolean": {"kind": "and", "output": "a", "inputs": ["x", "y"]}},
                        {"boolean": {"kind": "or", "output": "o", "inputs": ["x", "y"]}},
                        {"boolean": {"kind": "xor", "output": "e", "inputs": ["x", "y"]}},
                        {"boolean": {"kind": "not", "output": "n", "inputs": ["x"]}},
                        {"comparison": "d + k <= 4"},
                    ],
                },
                {"best_energy": -9},
            ),
            (  # a non-linear constraint: 15 binaries, quadratization auxiliaries among them
                {
                    "variables": [
                        {"name": "x", "kind": "continuous", "low": 0, "high": 3, "precision": 1},
                        {"name": "y", "kind": "discrete", "levels": [1, 2, 4]},
                        {"name": "b", "kind": "binary"},
                    ],
                    "objectives": [{"expression": "x + y + b", "direction": "maximize"}],
                    "constraints": [{"comparison": "x*y + b <= 5"}],
                },
                {"best_energy": -6, "best_decoded": {"b": 1, "x": 1, "y": 4}},
            ),
        ],
        ids=["gates", "non-linear"],
    )
    def test_problem_files_solve_to_their_optimum(self, document, expected, tmp_path):
        path = tmp_path / "p.problem.json"
        path.write_text(json.dumps({"schema": "qubo-forge-problem/1"} | document))
        assert run_cli("solve", path, "--solver", "exhaustive", "--out-dir", tmp_path) == 0
        solution = json.loads((tmp_path / "p.problem.solution.json").read_text())["solution"]
        assert {key: solution[key] for key in expected} == expected

    @pytest.mark.parametrize("instance", ["f3", "iris"])  # iris compiles a float model
    def test_sample_energies_are_the_model_file_energies(self, instance, f3_problem_file, tmp_path):
        path = f3_problem_file
        if instance == "iris":
            path = tmp_path / "iris.problem.json"
            assert run_cli("regression", bundled_data("iris30.csv"), "--min", -0.25, "--max", 0.25, "--precision", 0.25, "-o", path) == 0
        assert run_cli("solve", path, "--solver", "sa", "--seed", 5, "--out-dir", tmp_path / "o") == 0
        model = json.loads((tmp_path / "o" / f"{path.stem}.model.json").read_text())
        samples = json.loads((tmp_path / "o" / f"{path.stem}.solution.json").read_text())["solution"]["samples"]
        size = 1.0 + math.fsum(abs(c) for c in [model["offset"], *(t[-1] for t in model["linear"] + model["quadratic"])])
        for sample in samples:
            x = sample["assignment"]
            energy = math.fsum(
                [model["offset"]]
                + [c * x[name] for name, c in model["linear"]]
                + [c * x[left] * x[right] for left, right, c in model["quadratic"]]
            )
            assert abs(energy - sample["energy"]) <= 1e-9 * size, (energy, sample["energy"])

    def test_qaoa_at_three_layers(self, f3_problem_file, tmp_path):
        with time_limit(60.0):
            assert run_cli("solve", f3_problem_file, "--solver", "qaoa", "--layers", 3, "--out-dir", tmp_path) == 0
        _, _, meta = load_report(tmp_path / "f3.problem.solution.json")
        assert meta["solver"] == "qaoa"

    def test_env_var_overrides_out_dir(self, mixed_problem_file, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("QUBO_FORGE_OUT", str(env_dir))
        code = run_cli("solve", mixed_problem_file, "--solver", "exhaustive", "--out-dir", tmp_path / "flag_out")
        assert code == 0
        assert env_dir.exists() and not (tmp_path / "flag_out").exists()


class TestSolverSection:
    def test_file_defaults_used_when_flags_absent(self, tmp_path):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        problem.solver_defaults = {"solver": "exhaustive", "seed": 5}
        path = tmp_path / "f3.problem.json"
        problem.save(path)
        assert Problem.load(path).solver_defaults == {"solver": "exhaustive", "seed": 5}
        out = tmp_path / "o"
        assert run_cli("solve", path, "--out-dir", out) == 0
        _, _, meta = load_report(out / "f3.problem.solution.json")
        assert meta["solver"] == "exhaustive" and meta["seed"] == 5

    def test_flags_override_file_defaults(self, tmp_path):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        problem.solver_defaults = {"solver": "exhaustive", "runs": 3}
        path = tmp_path / "f3.problem.json"
        problem.save(path)
        out = tmp_path / "o"
        assert run_cli("solve", path, "--solver", "sa", "--runs", 7, "--out-dir", out) == 0
        _, _, meta = load_report(out / "f3.problem.solution.json")
        assert meta["solver"] == "sa" and meta["runs"] == 7

    def test_unknown_section_key_is_an_error(self, tmp_path, capsys):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        problem.solver_defaults = {"annealing_time": 3}
        path = tmp_path / "f3.problem.json"
        problem.save(path)
        assert run_cli("solve", path, "--out-dir", tmp_path) == 1
        assert "solver section" in capsys.readouterr().err


    @pytest.mark.parametrize("key", ["solver", "lambda_method", "lambda_update"])
    def test_section_value_outside_the_choices_is_an_error_line(self, key, tmp_path, capsys):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        problem.solver_defaults = {key: "bogus"}
        path = tmp_path / "f3.problem.json"
        problem.save(path)
        assert run_cli("solve", path, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: problem file: solver.{key}: expected one of ") and err.endswith(", got 'bogus'\n")


class TestOptionTable:
    def test_choices_and_defaults_follow_the_library(self, mixed_problem_file):
        parser = build_parser()
        solve_parser = next(action for action in parser._actions if action.dest == "command").choices["solve"]
        flags = {action.dest: action for action in solve_parser._actions}
        assert list(flags["solver"].choices) == sorted(SOLVERS)
        assert tuple(flags["lambda_method"].choices) == LAMBDA_METHODS
        assert tuple(flags["lambda_update"].choices) == ("none",) + UPDATE_KINDS

        args = parser.parse_args(["solve", str(mixed_problem_file)])
        options = _resolve_options(args, Problem.load(mixed_problem_file))
        assert _solver_params(options) == SolverParams()
        assert _compile_config(options) == CompileConfig()
        strategy = UpdateStrategy()
        assert (options["lambda_update"], options["lambda_max"], options["trials"]) == (
            "none",
            strategy.lambda_max,
            strategy.max_trials,
        )

    def test_every_flag_comes_from_the_table(self):
        for name in ("solve", "compare"):
            subparser = next(action for action in build_parser()._actions if action.dest == "command").choices[name]
            flags = {action.dest: action for action in subparser._actions}
            for key, (_, kind, text, choices) in _OPTION_DEFAULTS.items():
                if name == "compare" and key in _SOLVE_ONLY:  # registered, so compare can refuse it, but not listed
                    assert flags[key].help == argparse.SUPPRESS and flags[key].default is None
                else:
                    assert flags[key].help.startswith(text) and flags[key].default is None
                assert flags[key].choices == choices
                assert flags[key].type is (None if kind == "boolean" else _FLAG_TYPES[kind])

    def test_every_library_setting_is_a_flag(self, mixed_problem_file):
        # A setting no caller sets is an untested configuration; compare sets k_best itself.
        argv = ["--runs", "3", "--seed", "4", "--time", "--sweeps", "5", "--layers", "6", "--shots", "7"]
        argv += ["--lambda-method", "manual", "--lambda-value", "2.5"]
        args = build_parser().parse_args(["solve", str(mixed_problem_file), *argv])
        options = _resolve_options(args, Problem.load(mixed_problem_file))
        params = _solver_params(options)
        settings = {field.name: getattr(params, field.name) for field in fields(SolverParams) if field.name != "k_best"}
        assert settings == {"runs": 3, "seed": 4, "record_time": True, "sweeps": 5, "layers": 6, "shots": 7}
        assert {field.name for field in fields(CompileConfig)} == {"lambda_method", "manual_lambdas"}
        assert _compile_config(options) == CompileConfig(lambda_method="manual", manual_lambdas=2.5)


class TestCompareCommand:
    def test_knapsack_summary(self, f3_problem_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", f3_problem_file,
            "--solvers", "sa,exhaustive", "--runs", 50, "--seed", 11, "--val-ref", -30,
            "--out-dir", out,
        )
        assert code == 0
        summary = json.loads((out / "f3.problem.compare.json").read_text())
        by_name = {entry["solver"]: entry for entry in summary}
        assert by_name["exhaustive"]["p_range"] == 100.0  # the oracle is always optimal
        assert by_name["exhaustive"]["best_energy"] == -35.0
        assert by_name["sa"]["best_energy"] == -35.0
        assert (out / "f3.problem.sa.cdf.csv").exists()
        assert (out / "f3.problem.exhaustive.cdf.csv").exists()
        assert "exhaustive" in capsys.readouterr().out

    def test_reference_problem_sa_vs_qaoa(self, mixed_problem_file, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli(
            "compare", mixed_problem_file,
            "--solvers", "sa,qaoa", "--runs", 3, "--shots", 60, "--seed", 1,
            "--out-dir", out,
        )
        assert code == 0
        summary = json.loads((out / "mixed.problem.compare.json").read_text())
        by_name = {entry["solver"]: entry for entry in summary}
        assert by_name["sa"]["best_energy"] == -2.0
        assert by_name["qaoa"]["best_energy"] >= -2.0 - 1e-9

    def test_floats_are_written_at_twelve_significant_digits(self, f3_problem_file, tmp_path):
        argv = ["--solvers", "exhaustive,sa", "--runs", 3, "--sweeps", 5, "--seed", 3, "--val-ref", -30, "--time"]
        assert run_cli("compare", f3_problem_file, *argv, "--out-dir", tmp_path) == 0
        rows = json.loads((tmp_path / "f3.problem.compare.json").read_text())
        floats = [value for row in rows for value in row.values() if isinstance(value, float)]
        assert floats and all(value == float(f"{value:.12g}") for value in floats)
        assert any(isinstance(row["tts"], float) for row in rows)

    def test_per_run_rows(self, f3_problem_file, tmp_path):
        out = tmp_path / "cmp"
        argv = ["compare", f3_problem_file, "--solvers", "exhaustive,sa,qaoa", "--runs", 5, "--seed", 3]
        assert run_cli(*argv, "--val-ref", -30, "--out-dir", out) == 0
        rows = {entry["solver"]: entry for entry in json.loads((out / "f3.problem.compare.json").read_text())}
        assert (rows["exhaustive"]["valid_rate"], rows["exhaustive"]["p_range"]) == (100.0, 100.0)  # one run: the optimum
        cdf = (out / "f3.problem.exhaustive.cdf.csv").read_text().splitlines()
        assert cdf == ["energy,cumulative_fraction", "-35,1"]

        timed = tmp_path / "timed"
        assert run_cli(*argv, "--val-ref", -1e9, "--time", "--out-dir", timed) == 0
        summary = json.loads((timed / "f3.problem.compare.json").read_text())
        assert [(entry["p_range"], entry["tts"]) for entry in summary] == [(0.0, "inf")] * 3

    def test_negative_values_with_an_exponent(self, f3_problem_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run_cli("compare", f3_problem_file, "--solvers", "exhaustive", "--val-ref", "-3e1", "--out-dir", out) == 0
        (row,) = json.loads((out / "f3.problem.compare.json").read_text())
        assert row["p_range"] == 100.0  # -35 < -30
        argv = ["solve", f3_problem_file, "--lambda-method", "manual", "--lambda-value", "-1e-2", "--out-dir", tmp_path]
        assert run_cli(*argv) == 1
        assert "manual lambda values must be positive" in capsys.readouterr().err
        argv = ["solve", f3_problem_file, "--lambda-update", "scaled", "--lambda-max", "-5E+0", "--out-dir", tmp_path]
        assert run_cli(*argv) == 1
        assert "lambda_max must be finite and positive, got -5.0" in capsys.readouterr().err

    def test_empty_solver_list_is_usage_error(self, f3_problem_file, tmp_path, capsys):
        assert run_cli("compare", f3_problem_file, "--solvers", ",", "--out-dir", tmp_path) == 1
        assert "at least one solver" in capsys.readouterr().err

    def test_unknown_solver_is_usage_error(self, f3_problem_file, tmp_path, capsys):
        assert run_cli("compare", f3_problem_file, "--solvers", "sa,annealer9000", "--out-dir", tmp_path) == 1
        assert "unknown solver" in capsys.readouterr().err

    def test_solve_only_flags_are_refused(self, f3_problem_file, tmp_path, capsys):
        assert run_cli("compare", f3_problem_file, "--solvers", "sa", "--trials", 0, "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err == "error: compare does not take --trials; they apply to solve only\n"
        argv = ["--solver", "qaoa", "--lambda-max", "inf", "--lambda-update", "scaled", "--trials", 0]
        assert run_cli("compare", f3_problem_file, "--solvers", "exhaustive,sa", *argv, "--out-dir", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == "error: compare does not take --solver, --lambda-update, --lambda-max, --trials; they apply to solve only\n"
        assert not (tmp_path / "o").exists()

    def test_p_conf_is_refused_before_any_solver_runs(self, f3_problem_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(SOLVERS, "qaoa", lambda *args: pytest.fail("QAOA ran before p_conf was checked"))
        assert run_cli("compare", f3_problem_file, "--solvers", "qaoa", "--p-conf", 5, "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err == "error: p_conf must be in (0, 1), got 5.0\n"


class TestGenerators:
    def test_knapsack_command_round_trip(self, tmp_path, capsys):
        target = tmp_path / "f3.problem.json"
        assert run_cli("knapsack", bundled_data("f3_l-d_kp_4_20.txt"), "-o", target) == 0
        assert "4 items" in capsys.readouterr().out
        reloaded = Problem.load(target)
        _, direct = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        assert reloaded.to_json_dict() == direct.to_json_dict()

    def test_regression_command_round_trip(self, tmp_path):
        target = tmp_path / "iris.problem.json"
        code = run_cli(
            "regression", bundled_data("iris30.csv"),
            "--min", -0.25, "--max", 0.25, "--precision", 0.25, "-o", target,
        )
        assert code == 0
        reloaded = Problem.load(target)
        _, direct = build_regression(bundled_data("iris30.csv"), None, -0.25, 0.25, 0.25)
        assert reloaded.to_json_dict() == direct.to_json_dict()

    def test_a_path_after_a_double_dash_is_positional_even_when_it_reads_as_a_number(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("-1").write_bytes(bundled_data("f3_l-d_kp_4_20.txt").read_bytes())
        assert run_cli("knapsack", "-o", "f3.problem.json", "--", "-1") == 0
        _, direct = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        assert Problem.load("f3.problem.json").to_json_dict() == direct.to_json_dict()

    def test_usage_error_exit_code(self):
        assert run_cli("regression", "data.csv") == 1  # missing required range flags

