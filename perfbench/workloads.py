"""The four workloads: their jobs, one pass over them, and the output checks.

A *job* is one problem taken through compile -> solve -> analyze (library
workloads) or one ``qubo-forge`` CLI process (``cli-solve``).  A *pass* runs
a workload's fixed job list once, and every pass is checked against the
independent references.  Pass k of a library workload gives its solvers the
seed ``seed + PASS_SEED_STRIDE * k``: the work per pass stays the same, while
the quality figures average over more annealing runs than one pass has.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import generators
import references
from spans import Tracer

DATA = Path(__file__).resolve().parent.parent / "src" / "qubo_forge" / "data"
CLI_DRIVER = Path(__file__).resolve().parent / "cli_driver.py"

IDENTITY_SAMPLES = 8  # random assignments per mixed job for the energy identity
# Only the cubic jobs have a brute-force optimum on mixed-compile, and their SA
# gap varies a lot from instance to instance; four of them keep the workload's
# energy_ratio and valid_rate_pct steady across seeds.
CUBIC_INSTANCES = 4
PASS_SEED_STRIDE = 10_000  # more than any job's runs, so passes never share an RNG stream

IRIS_GRID = (-0.25, 0.25, 0.25)


@dataclass
class Job:
    name: str
    problem: object
    solver: str
    params: object
    reference: object
    identity: bool = False  # mixed jobs also check the energy identity

    @functools.cached_property
    def optimum(self) -> float | None:
        return self.reference.optimum


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    compile_s: float = 0.0  # library workloads only
    solve_s: float = 0.0
    compile_by_job: dict[str, tuple[float, int]] = field(default_factory=dict)  # seconds, output terms
    peak_rss_mb: float = 0.0
    # quality, filled by the checks
    gaps: list[float] = field(default_factory=list)
    samples: int = 0
    feasible: int = 0
    binaries: int = 0
    terms: int = 0
    lambda_trials: int = 0


def _rng(seed: int, job: str) -> random.Random:
    return random.Random(f"{seed}/{job}")


# -- library workloads -------------------------------------------------------------


def build_jobs(workload: str, seed: int) -> list[Job]:
    """Declare and freeze the workload's problems (this is what ``setup_s`` times)."""
    from qubo_forge import SolverParams

    jobs: list[Job] = []
    if workload == "mixed-compile":
        params = SolverParams(runs=10, sweeps=100, seed=seed)
        for n in (8, 10, 12):
            spec = generators.mixed(_rng(seed, f"mixed-{n}"), n)
            jobs.append(Job(f"mixed-{n}", generators.mixed_problem(spec), "sa", params, references.MixedRef(spec), True))
        for k in range(CUBIC_INSTANCES):
            spec = generators.mixed(_rng(seed, f"cubic-6/{k}"), 6, step=0.5, cubic=True)
            jobs.append(Job(f"cubic-6/{k}", generators.mixed_problem(spec), "sa", params, references.MixedRef(spec), True))
    elif workload == "knapsack-oracle":
        params = SolverParams(seed=seed)
        spec = generators.knapsack(_rng(seed, "knapsack-14"), 14, slack_bits=7)
        jobs.append(Job("knapsack-14", generators.knapsack_problem(spec), "exhaustive", params, references.KnapsackRef(spec)))
        jobs.append(Job("readme", generators.readme_problem(), "exhaustive", params, references.ReadmeRef()))
    elif workload == "knapsack-anneal":
        params = SolverParams(runs=10, sweeps=300, seed=seed)
        spec = generators.knapsack(_rng(seed, "knapsack-100"), 100, slack_bits=10)
        jobs.append(Job("knapsack-100", generators.knapsack_problem(spec), "sa", params, references.KnapsackRef(spec)))
    else:
        raise ValueError(f"not a library workload: {workload}")
    return jobs


def problem_texts(jobs: list[Job]) -> list[str]:
    return [generators.problem_json(job.problem) for job in jobs]


def run_library_pass(jobs: list[Job], tracer: Tracer, index: int) -> tuple[PassResult, list]:
    """compile -> solve -> analyze every job; spans around each stage give the stage sums."""
    from qubo_forge import analyze, compile_problem, solve

    outputs: list = []
    compile_by_job: dict[str, tuple[float, int]] = {}
    failed = 0
    params = [dataclasses.replace(job.params, seed=job.params.seed + PASS_SEED_STRIDE * index) for job in jobs]
    started = time.perf_counter()
    for job, job_params in zip(jobs, params):
        try:
            with tracer.span("compiler.compile_problem") as span:
                model = compile_problem(job.problem)
            span.counts["terms"] = len(model.quadratic)
            compile_by_job[job.name] = (span.duration, len(model.quadratic))
            with tracer.span("solvers.solve"):
                solution = solve(model, job.solver, job_params)
            with tracer.span("analysis.analyze"):
                report = analyze(job.problem, model, solution)
            outputs.append((model, solution, report))
        except Exception:  # a failing job is counted, and the pass goes on
            traceback.print_exc()
            outputs.append(None)
            failed += 1
    seconds = time.perf_counter() - started
    result = PassResult(
        seconds=seconds,
        compile_s=_total(tracer, "compiler.compile_problem"),
        solve_s=_total(tracer, "solvers.solve"),
        attempted=len(jobs),
        failed=failed,
        compile_by_job=compile_by_job,
    )
    return result, outputs


def _total(tracer: Tracer, name: str) -> float:
    return sum(s.duration for s in tracer.spans if s.name == name and s.parent is None)


def check_library_pass(jobs: list[Job], outputs: list, seed: int, exact_gap: bool, result: PassResult) -> None:
    """Check one pass against the references; failing jobs are added to ``result.failed``."""
    for job, out in zip(jobs, outputs):
        if out is None:
            continue
        model, solution, _ = out
        optimum = job.optimum
        errors = references.sample_energy_errors(model, solution.samples)
        quality = references.judge(job.reference, solution.decoded, optimum)
        errors += quality.errors
        gap = quality.gap(optimum)
        if exact_gap and gap != 0.0:
            errors.append(f"oracle gap {gap} is not exactly 0")
        if job.identity:
            errors += _identity_errors(job, model, seed)
        for error in errors:
            print(f"{job.name}: {error}", file=sys.stderr)
        result.failed += bool(errors)
        if gap is not None:
            result.gaps.append(gap)
        result.samples += quality.samples
        result.feasible += quality.feasible
        result.binaries += len(model.binary_variables())
        result.terms += len(model.quadratic)


def _identity_errors(job: Job, model, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    order = model.binary_variables()
    assignments = [dict(zip(order, map(int, rng.integers(0, 2, len(order))))) for _ in range(IDENTITY_SAMPLES)]
    tolerance = 1e-9 * (1.0 + abs(model.offset) + sum(abs(c) for _, c in model.quadratic))
    for assignment in assignments:
        error = job.reference.energy_identity_error(model, assignment)
        if error > tolerance:
            return [f"energy identity off by {error}"]
    return []


# -- cli-solve ---------------------------------------------------------------------


def write_cli_problems(directory: Path) -> dict[str, Path]:
    """Problem files through the ``knapsack``/``regression`` subcommands, plus the README example."""
    from qubo_forge import cli

    files = {name: directory / f"{name}.json" for name in ("f3", "iris", "readme")}
    low, high, step = IRIS_GRID
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        codes = [
            cli.main(["knapsack", str(DATA / "f3_l-d_kp_4_20.txt"), "-o", str(files["f3"])]),
            cli.main(
                ["regression", str(DATA / "iris30.csv"), "--min", str(low), "--max", str(high),
                 "--precision", str(step), "-o", str(files["iris"])]
            ),
        ]
    if codes != [0, 0]:
        raise RuntimeError(f"problem-file subcommands exited {codes}")
    files["readme"].write_text(generators.problem_json(generators.readme_problem()))
    return files


def cli_commands(files: dict[str, Path], out: Path, seed: int) -> list[tuple[str, list[str]]]:
    common = ["--seed", str(seed), "--out-dir", str(out)]
    return [
        ("f3", ["solve", str(files["f3"]), "--solver", "sa", "--lambda-method", "mqc", "--lambda-update", "sequential", *common]),
        ("iris", ["solve", str(files["iris"]), "--solver", "sa", *common]),
        ("readme", ["compare", str(files["readme"]), "--solvers", "exhaustive,sa,qaoa", *common]),
    ]


def run_cli_pass(commands, work: Path, out: Path, traced: bool) -> tuple[PassResult, Tracer, list[int]]:
    """Run the CLI processes one after another: plain ``python -m qubo_forge.cli``, or the span driver."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    codes, rss = [], []
    tracer = Tracer()
    started = time.perf_counter()
    for name, argv in commands:
        spans_file = work / f"{name}.spans.json"
        spans_file.unlink(missing_ok=True)
        if traced:
            command = [sys.executable, str(CLI_DRIVER), "--spans", str(spans_file), "--", *argv]
        else:
            command = [sys.executable, "-m", "qubo_forge.cli", *argv]
        with open(work / f"{name}.log", "w") as log:
            child = subprocess.Popen(command, stdout=log, stderr=log, cwd=work)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        codes.append(child.returncode)
        rss.append(usage.ru_maxrss / 1024.0)
        if spans_file.exists():
            tracer.merge(Tracer.from_json(json.loads(spans_file.read_text())))
    seconds = time.perf_counter() - started
    failed = sum(code != 0 for code in codes)
    for (name, _), code in zip(commands, codes):
        if code != 0:
            print(f"{name}: exit code {code}\n{(work / f'{name}.log').read_text()}", file=sys.stderr)
    result = PassResult(seconds=seconds, attempted=len(commands), failed=failed, peak_rss_mb=max(rss))
    return result, tracer, codes


def check_cli_outputs(out: Path, result: PassResult, codes: list[int]) -> None:
    """Check the files the three CLI processes wrote against the references."""
    checks = [
        ("f3", references.KnapsackRef(references.knapsack_from_file(DATA / "f3_l-d_kp_4_20.txt"))),
        ("iris", references.IrisRef.from_csv(DATA / "iris30.csv", *IRIS_GRID)),
    ]
    for (stem, ref), code in zip(checks, codes):
        if code != 0:
            continue
        errors: list[str] = []
        try:
            saved = json.loads((out / f"{stem}.solution.json").read_text())
            model = json.loads((out / f"{stem}.model.json").read_text())
            samples = saved["solution"]["samples"]
            for sample in samples:
                expected = references.json_model_energy(model, sample["assignment"])
                if not references.close(sample["energy"], expected):
                    errors.append(f"sample energy {sample['energy']} != model-file energy {expected}")
                    break
            quality = references.judge(ref, saved["solution"]["decoded"], ref.optimum)
            errors += quality.errors
            result.gaps.append(quality.gap(ref.optimum))
            result.samples += quality.samples
            result.feasible += quality.feasible
            result.binaries += len(model["variables"])
            result.terms += len(model["linear"]) + len(model["quadratic"])
            result.lambda_trials += int(saved["meta"]["trials"])
        except (OSError, KeyError, ValueError) as error:
            errors.append(f"unreadable output: {error!r}")
        for error in errors:
            print(f"{stem}: {error}", file=sys.stderr)
        result.failed += bool(errors)
    if codes[2] == 0:
        errors = []
        try:
            table = {row["solver"]: row["best_energy"] for row in json.loads((out / "readme.compare.json").read_text())}
            oracle = table["exhaustive"]
            if not references.close(oracle, references.ReadmeRef.OPTIMUM):
                errors.append(f"oracle best {oracle} is not the README optimum {references.ReadmeRef.OPTIMUM}")
            errors += [f"{name} best {e} beats the oracle {oracle}" for name, e in table.items() if e < oracle - references.TOL]
        except (OSError, KeyError, ValueError) as error:
            errors.append(f"unreadable output: {error!r}")
        for error in errors:
            print(f"readme: {error}", file=sys.stderr)
        result.failed += bool(errors)
