"""Command-line front end: generate, solve, and compare problems.

Subcommands:

* ``solve``      run compile -> solve (-> penalty-weight retries) -> analyze on a
                 problem file; writes solution/report/model JSON, a QUBO matrix
                 dump, and cumulative-distribution CSV plot data.
* ``compare``    run several solvers on one problem and tabulate their metrics.
* ``knapsack``   turn a knapsack instance file into a problem file.
* ``regression`` turn a feature/label CSV into a least-squares problem file.

Exit codes: 0 when the best solution satisfies the hard constraints, 2 when
it stays infeasible after retries, 1 for usage or input errors.  Output files go
to ``--out-dir`` (default: the current directory).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from qubo_forge.analysis import _check_analysis_inputs, analyze, report_to_dict, save_report, write_cumulative_csv, write_rounded_json
from qubo_forge.compiler import LAMBDA_METHODS, CompileConfig, compile_problem
from qubo_forge.expression import NUMBER, Comparison, Polynomial, format_float
from qubo_forge.problem import Problem, ProblemFileError, _expect
from qubo_forge.solvers import SOLVERS, UPDATE_KINDS, SolverParams, UpdateStrategy, solve, solve_with_lambda_update


def bundled_data(name: str) -> Path:
    """Path of a data file shipped with the package (e.g. the f3 knapsack instance)."""
    return Path(str(resources.files("qubo_forge").joinpath("data", name)))


@dataclass(frozen=True)
class KnapsackInstance:
    """Items with preference scores and weights, and a capacity to respect."""

    n_obj: int
    w_max: float
    p_arr: tuple[float, ...]
    w_arr: tuple[float, ...]


@dataclass(frozen=True)
class RegressionDataset:
    """Augmented design matrix (ones column last), labels, and the weight grid."""

    x: np.ndarray
    y: np.ndarray
    w_range: tuple[float, float, float]


def load_knapsack(path: str | Path) -> tuple[KnapsackInstance, Problem]:
    """Parse ``N_obj W_max`` then ``p_i w_i`` lines into a maximize-score problem."""
    text = Path(path).read_text().splitlines()
    lines = [(number, line.split()) for number, line in enumerate(text, 1) if line.strip()]
    if not lines or len(lines[0][1]) != 2:
        raise ValueError(f"{path}: first line must be 'N_obj W_max'")
    for number, fields in lines[1:]:
        if len(fields) != 2:
            raise ValueError(f"{path}: line {number}: an item line must be 'p_i w_i', got {' '.join(fields)!r}")
    try:
        n_obj, w_max = int(lines[0][1][0]), float(lines[0][1][1])
        pairs = [(float(p), float(w)) for _, (p, w) in lines[1:]]
    except ValueError as error:
        raise ValueError(f"{path}: malformed knapsack line ({error})") from None
    for number, fields in lines:
        if not all(math.isfinite(float(field)) for field in fields):
            raise ValueError(f"{path}: line {number}: every number must be finite, got {' '.join(fields)!r}")
    if n_obj < 1:
        raise ValueError(f"{path}: line {lines[0][0]}: N_obj must be at least 1, got {n_obj}")
    if len(pairs) != n_obj:
        raise ValueError(f"{path}: expected {n_obj} item lines, found {len(pairs)}")
    if w_max <= 0 or any(w <= 0 for _, w in pairs):
        raise ValueError(f"{path}: weights and capacity must be positive")
    instance = KnapsackInstance(
        n_obj=n_obj,
        w_max=w_max,
        p_arr=tuple(p for p, _ in pairs),
        w_arr=tuple(w for _, w in pairs),
    )

    problem = Problem()
    names = problem.add_binary_variables_array("obj", [n_obj])
    score = Polynomial({(name,): p for name, p in zip(names, instance.p_arr)})
    problem.add_objective(score, direction="maximize")
    load = Polynomial({(name,): w for name, w in zip(names, instance.w_arr)})
    problem.add_constraint(Comparison(load, "<=", w_max))
    return instance, problem.freeze()


def load_regression_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read feature columns plus a final label column; a header row is skipped."""
    rows: list[list[float]] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for record in reader:
            if not record:
                continue
            try:
                row = [float(cell) for cell in record]
            except ValueError:
                if rows:
                    raise ValueError(f"{path}: line {reader.line_num}: non-numeric row {record!r}") from None
                continue  # header
            if not all(math.isfinite(value) for value in row):  # LAPACK would print to stdout, then fail
                raise ValueError(f"{path}: line {reader.line_num}: every number must be finite, got {record!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError(f"{path}: ragged rows")
    d = width - 1
    if d < 1:
        raise ValueError(f"{path}: needs at least one feature column and a label column, found one column")
    data = np.asarray(rows)
    return data[:, :d], data[:, d]


def build_regression(
    dataset_csv: str | Path,
    minv: float,
    maxv: float,
    precision: float,
) -> tuple[RegressionDataset, Problem]:
    """Least-squares fit as a QUBO problem: minimize w'(X'X)w - 2w'X'Y + Y'Y.

    X is augmented with a trailing ones column, so the last weight is the
    intercept; the weights live on the [minv, maxv] grid at ``precision``.
    """
    raw_x, y = load_regression_csv(dataset_csv)
    n, d = raw_x.shape
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} data points for {d} features, got {n}")
    x = np.hstack([raw_x, np.ones((n, 1))])
    gram = x.T @ x
    if np.linalg.matrix_rank(gram) < d + 1:
        warnings.warn("regression design matrix is rank-deficient; the optimum is not unique")

    problem = Problem()
    names = problem.add_continuous_variables_array("w", [d + 1], minv, maxv, precision)
    moment = x.T @ y
    terms: dict[tuple[str, ...], float] = {(): float(y @ y)}
    for i, name_i in enumerate(names):
        terms[(name_i,)] = -2.0 * float(moment[i])
        for j, name_j in enumerate(names):
            key = tuple(sorted((name_i, name_j)))
            terms[key] = terms.get(key, 0.0) + float(gram[i, j])
    problem.add_objective(Polynomial(terms))
    dataset = RegressionDataset(x=x, y=y, w_range=(minv, maxv, precision))
    return dataset, problem.freeze()


# -- argument plumbing -----------------------------------------------------------


_SOLVER_PARAMS = SolverParams()
_UPDATE_STRATEGY = UpdateStrategy()
LAMBDA_UPDATES = ("none",) + UPDATE_KINDS
_NEGATIVE_NUMBER = re.compile(f"-(?:{NUMBER})")

# Each option's built-in value (the library's own default), the JSON type it takes in a problem
# file's solver section (which also sets the flag's type), its help text, and its choices.
_OPTION_DEFAULTS = {
    "solver": ("sa", "string", "solver to run", sorted(SOLVERS)),
    "runs": (_SOLVER_PARAMS.runs, "integer", "independent runs", None),
    "seed": (_SOLVER_PARAMS.seed, "integer", "base RNG seed", None),
    "sweeps": (_SOLVER_PARAMS.sweeps, "integer", "SA sweeps per run", None),
    "layers": (_SOLVER_PARAMS.layers, "integer", "QAOA layers p", None),
    "shots": (_SOLVER_PARAMS.shots, "integer", "QAOA shots per run", None),
    "lambda_method": (CompileConfig().lambda_method, "string", "penalty-weight estimation method", LAMBDA_METHODS),
    "lambda_value": (None, "number or null", "penalty weight for --lambda-method manual", None),
    "lambda_update": ("none", "string", "retry strategy when the best solution violates a hard constraint", LAMBDA_UPDATES),
    "lambda_max": (_UPDATE_STRATEGY.lambda_max, "number", "cap for updated penalty weights", None),
    "trials": (_UPDATE_STRATEGY.max_trials, "integer", "max solve attempts with --lambda-update", None),
    "val_ref": (None, "number or null", "reference energy for p_range", None),
    "p_conf": (inspect.signature(analyze).parameters["p_conf"].default, "number", "TTS confidence level", None),
    "time": (False, "boolean", "record per-run wall time (enables TTS)", None),
}
_FLAG_TYPES = {"integer": int, "number": float, "number or null": float, "string": str}
_SOLVE_ONLY = ("solver", "lambda_update", "lambda_max", "trials")  # compare takes --solvers and never retries


def _add_solver_flags(parser: argparse.ArgumentParser, hidden: tuple[str, ...] = ()) -> None:
    # Flag defaults are None so the problem file's optional "solver" section
    # can fill values in; explicit flags always win (see _resolve_options).
    # The hidden rows stay registered, so that a command can refuse them by name.
    for key, (default, kind, text, choices) in _OPTION_DEFAULTS.items():
        if kind == "boolean":
            kwargs = {"action": "store_true"}
        else:
            kwargs = {"type": _FLAG_TYPES[kind], "choices": choices}
            text += "" if default is None else f" (default: {default})"
        text = argparse.SUPPRESS if key in hidden else text
        parser.add_argument(f"--{key.replace('_', '-')}", help=text, default=None, **kwargs)
    parser.add_argument("--out-dir", default=".", help="output directory (default: the current directory)")


def _resolve_options(args: argparse.Namespace, problem: Problem) -> dict:
    """Merge flag > problem-file solver section > built-in default."""
    section = problem.solver_defaults
    unknown = sorted(set(section) - set(_OPTION_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown option(s) in the problem's solver section: {', '.join(unknown)}")
    options = {}
    for key, (fallback, kind, _, choices) in _OPTION_DEFAULTS.items():
        if key in section:
            _expect(section[key], kind, f"solver.{key}")
            if choices is not None and section[key] not in choices:
                raise ProblemFileError(f"solver.{key}", f"expected one of {', '.join(choices)}, got {section[key]!r}")
        flag = getattr(args, key)
        options[key] = flag if flag is not None else section.get(key, fallback)
    _check_analysis_inputs(options["p_conf"], options["val_ref"])  # refused before any work; analyze checks again
    return options


def _solver_params(options: dict) -> SolverParams:
    return SolverParams(
        runs=options["runs"],
        seed=options["seed"],
        record_time=options["time"],
        sweeps=options["sweeps"],
        layers=options["layers"],
        shots=options["shots"],
    )


def _compile_config(options: dict) -> CompileConfig:
    method, value = options["lambda_method"], options["lambda_value"]
    if method == "manual" and value is None:
        raise ValueError("--lambda-method manual needs --lambda-value")
    if method != "manual" and value is not None:
        raise ValueError(f"--lambda-value is read only under --lambda-method manual, not {method}")
    return CompileConfig(lambda_method=method, manual_lambdas=value)


def _update_strategy(options: dict) -> UpdateStrategy:
    """``--lambda-max`` and ``--trials`` are checked under every strategy; ``none`` is a single trial."""
    kind = options["lambda_update"]
    if options["trials"] < 1:  # named after the flag: UpdateStrategy's message names its field, max_trials
        raise ValueError(f"--trials must be >= 1, got {options['trials']}")
    strategy = UpdateStrategy(lambda_max=options["lambda_max"], max_trials=options["trials"])
    return replace(strategy, max_trials=1) if kind == "none" else replace(strategy, kind=kind)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_best(solution, valid: bool) -> None:
    decoded = ", ".join(f"{name}: {format_float(value)}" for name, value in sorted(solution.best_decoded.items()))
    print(f"best solution: {{{decoded}}}")
    print(f"best energy:   {format_float(solution.best_energy)}")
    print(f"feasible:      {'yes' if valid else 'no'}")


# -- subcommands ------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    problem = Problem.load(args.problem)
    options = _resolve_options(args, problem)
    config = _compile_config(options)
    params = _solver_params(options)
    out = _out_dir(args)
    stem = Path(args.problem).stem

    outcome = solve_with_lambda_update(problem, config, options["solver"], params, _update_strategy(options))
    model, solution, valid = outcome.model, outcome.solution, outcome.valid
    report = analyze(problem, model, solution, val_ref=options["val_ref"], p_conf=options["p_conf"])
    meta = {
        "problem": Path(args.problem).name,
        "solver": options["solver"],
        "runs": params.runs,
        "seed": params.seed,
        "lambda_method": options["lambda_method"],
        "lambdas": model.lambdas(),
        "trials": outcome.trials,
    }
    save_report(out / f"{stem}.solution.json", solution, report, meta)
    write_rounded_json(out / f"{stem}.report.json", report_to_dict(report))
    (out / f"{stem}.model.json").write_text(json.dumps(model.to_json_dict(), indent=2, sort_keys=True) + "\n")
    model.save_matrix(out / f"{stem}.matrix.txt")
    write_cumulative_csv(out / f"{stem}.{options['solver']}.cdf.csv", report.cumulative)

    _print_best(solution, valid)
    return 0 if valid else 2


def cmd_compare(args: argparse.Namespace) -> int:
    solvers = [name.strip() for name in args.solvers.split(",") if name.strip()]
    if not solvers:
        raise ValueError("--solvers needs at least one solver name")
    unknown = [name for name in solvers if name not in SOLVERS]
    if unknown:
        raise ValueError(f"unknown solver(s): {', '.join(unknown)}")
    ignored = [f"--{key.replace('_', '-')}" for key in _SOLVE_ONLY if getattr(args, key) is not None]
    if ignored:
        raise ValueError(f"compare does not take {', '.join(ignored)}; they apply to solve only")

    problem = Problem.load(args.problem)
    options = _resolve_options(args, problem)
    config = _compile_config(options)
    params = _solver_params(options)
    model = compile_problem(problem, config)
    out = _out_dir(args)
    stem = Path(args.problem).stem

    val_ref, p_conf = options["val_ref"], options["p_conf"]
    summary = []
    for name in solvers:
        # The deterministic oracle counts as one run returning its optimum.
        solution = solve(model, name, replace(params, k_best=1) if name == "exhaustive" else params)
        report = analyze(problem, model, solution, val_ref=val_ref, p_conf=p_conf)
        write_cumulative_csv(out / f"{stem}.{name}.cdf.csv", report.cumulative)
        row = report_to_dict(report)  # writes an infinite TTS as "inf"
        entry = {"solver": name, "best_energy": solution.best_energy}
        summary.append(entry | {key: row[key] for key in ("valid_rate", "p_range", "tts")})

    write_rounded_json(out / f"{stem}.compare.json", summary)
    header = f"{'solver':<12} {'best':>12} {'valid%':>8} {'p_range%':>9} {'tts[s]':>10}"
    print(header)
    print("-" * len(header))
    for entry in summary:
        p_text = "-" if entry["p_range"] is None else f"{entry['p_range']:.1f}"
        tts_value = entry["tts"]
        t_text = "-" if tts_value is None else ("inf" if tts_value == "inf" else f"{tts_value:.4g}")
        print(
            f"{entry['solver']:<12} {format_float(entry['best_energy']):>12} "
            f"{entry['valid_rate']:>8.1f} {p_text:>9} {t_text:>10}"
        )
    return 0


def cmd_knapsack(args: argparse.Namespace) -> int:
    instance, problem = load_knapsack(args.instance)
    target = Path(args.output) if args.output else Path(args.instance).with_suffix(".problem.json")
    problem.save(target)
    print(f"knapsack: {instance.n_obj} items, capacity {format_float(instance.w_max)}")
    print(f"problem written to {target}")
    return 0


def cmd_regression(args: argparse.Namespace) -> int:
    dataset, problem = build_regression(args.dataset, args.min, args.max, args.precision)
    target = Path(args.output) if args.output else Path(args.dataset).with_suffix(".problem.json")
    problem.save(target)
    n, cols = dataset.x.shape
    print(f"regression: {n} points, {cols - 1} features + intercept, w grid {dataset.w_range}")
    print(f"problem written to {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qubo-forge", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    solve_parser = commands.add_parser("solve", help="compile, solve, and analyze a problem file")
    solve_parser.add_argument("problem", help="problem JSON file (qubo-forge-problem/1)")
    _add_solver_flags(solve_parser)
    solve_parser.set_defaults(handler=cmd_solve)

    compare_parser = commands.add_parser("compare", help="run several solvers and tabulate metrics")
    compare_parser.add_argument("problem", help="problem JSON file (qubo-forge-problem/1)")
    compare_parser.add_argument("--solvers", required=True, help="comma-separated solver names")
    _add_solver_flags(compare_parser, hidden=_SOLVE_ONLY)
    compare_parser.set_defaults(handler=cmd_compare)

    knapsack_parser = commands.add_parser("knapsack", help="generate a problem file from a knapsack instance")
    knapsack_parser.add_argument("instance", help="instance file: 'N_obj W_max' then 'p_i w_i' lines")
    knapsack_parser.add_argument("-o", "--output", help="problem file to write")
    knapsack_parser.set_defaults(handler=cmd_knapsack)

    regression_parser = commands.add_parser("regression", help="generate a least-squares problem from a CSV")
    regression_parser.add_argument("dataset", help="CSV with feature columns and a final label column")
    regression_parser.add_argument("--min", type=float, required=True, help="weight range lower bound")
    regression_parser.add_argument("--max", type=float, required=True, help="weight range upper bound")
    regression_parser.add_argument("--precision", type=float, required=True, help="weight grid step")
    regression_parser.add_argument("-o", "--output", help="problem file to write")
    regression_parser.set_defaults(handler=cmd_regression)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1e9`` -> ``--flag=-1e9``: argparse reads ``-1e9`` (unlike ``-1``) as an option."""
    joined: list[str] = []
    for k, token in enumerate(argv):
        if token == "--":  # everything after it is positional
            return joined + argv[k:]
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] and _NEGATIVE_NUMBER.fullmatch(token):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exit_error:
        return 1 if exit_error.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
