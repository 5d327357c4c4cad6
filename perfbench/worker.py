"""The workload process: one fresh interpreter per set-up sample and per run.

    python worker.py setup --workload W --seed N --work DIR
    python worker.py run --workload W --seed N --seconds S --trace {0,1} --work DIR

``run.py`` starts it with the checkout's ``src`` on ``PYTHONPATH``.

``setup`` prints the seconds this interpreter took to import ``qubo_forge``
and build the workload's problems (for ``cli-solve``: to write its problem
files).  Only the standard library is imported before that clock starts.

``run`` repeats passes until the next one would end after ``--seconds`` and
prints one JSON line with the raw figures.  With ``--trace 0`` it takes
``SETUPS_PER_PASS`` set-up samples, each in a fresh ``setup`` process, before
every pass and after the last one, so the set-up samples spread over the
same stretch of time as the passes.  With ``--trace 1`` it alternates
untraced and traced passes, so the per-layer figures and the tracing
overhead come from the same run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

SETUPS_PER_PASS = 2


def setup(workload: str, seed: int, work: Path) -> float:
    started = time.perf_counter()
    import workloads

    if workload == "cli-solve":
        workloads.write_cli_problems(work)
    else:
        workloads.build_jobs(workload, seed)
    return time.perf_counter() - started


def setup_sample(workload: str, seed: int, directory: Path) -> float:
    """One ``setup`` in a fresh interpreter, in its own empty directory."""
    directory.mkdir()
    output = subprocess.run(
        [sys.executable, __file__, "setup", "--workload", workload, "--seed", str(seed), "--work", str(directory)],
        check=True, capture_output=True, text=True, cwd=directory,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])["setup_s"]


def import_probe() -> dict[str, float]:
    """``cli.import_s``: fresh ``import qubo_forge.cli`` minus a bare start; scipy's share from -X importtime."""

    def wall(code: str) -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - started

    bare = statistics.median(wall("pass") for _ in range(3))
    cli = statistics.median(wall("import qubo_forge.cli") for _ in range(3))
    timing = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qubo_forge.cli"],
        check=True, capture_output=True, text=True,
    ).stderr
    return {"cli.import_s": cli - bare, "cli.import_scipy_s": scipy_import_seconds(timing)}


def scipy_import_seconds(importtime: str) -> float:
    """Cumulative time of the outermost ``scipy`` imports in ``-X importtime`` output."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, int(cumulative), name.strip()))
    total, stack = 0, []  # parents follow their children, so walk backwards
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in stack):
            total += cumulative
        stack.append((depth, name))
    return total / 1e6


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import workloads
    from spans import Tracer, installed, layer_metrics

    attempted = failed = 0
    build_tracer = Tracer()
    if workload == "cli-solve":
        files = workloads.write_cli_problems(work)
        again = work / "again"
        again.mkdir()
        deterministic = all(
            files[name].read_bytes() == path.read_bytes() for name, path in workloads.write_cli_problems(again).items()
        )
        out = work / "out"
        commands = workloads.cli_commands(files, out, seed)
    else:
        with installed(build_tracer) if trace else nullcontext(), build_tracer.span("problem.build"):
            jobs = workloads.build_jobs(workload, seed)
        deterministic = workloads.problem_texts(jobs) == workloads.problem_texts(workloads.build_jobs(workload, seed))
        exact_gap = workload == "knapsack-oracle"
        from qubo_forge import SolverParams, compile_problem, solve

        solve(compile_problem(jobs[-1].problem), "sa", SolverParams(runs=1, sweeps=5))  # warm-up, untimed
    if not deterministic:
        print("the same seed gave different problem files", file=sys.stderr)

    plain, traced, layers, setups = [], [], [], []

    def sample_setups() -> None:
        if not trace:
            for _ in range(SETUPS_PER_PASS):
                setups.append(setup_sample(workload, seed, work / f"setup{len(setups)}"))

    started = time.perf_counter()
    while True:
        sample_setups()
        tracing = trace and len(plain) > len(traced)
        tracer = Tracer()
        with installed(tracer) if tracing and workload != "cli-solve" else nullcontext():
            if workload == "cli-solve":
                result, tracer, codes = workloads.run_cli_pass(commands, work, out, traced=tracing)
                workloads.check_cli_outputs(out, result, codes)
            else:
                result, outputs = workloads.run_library_pass(jobs, tracer, len(plain) + len(traced))
        if workload != "cli-solve":
            with tracer.paused():
                workloads.check_library_pass(jobs, outputs, seed, exact_gap, result)
            del outputs  # keep the heap the next pass runs in the same size
        attempted += result.attempted
        failed += result.failed
        (traced if tracing else plain).append(result)
        if tracing:
            layers.append(layer_metrics(tracer))
        elapsed = time.perf_counter() - started
        enough = len(plain) >= 1 and (not trace or len(traced) >= 1)
        if enough and elapsed + result.seconds > seconds:
            break
    sample_setups()

    first, every = plain[0], plain + traced
    gaps = [gap for r in every for gap in r.gaps]
    samples = sum(r.samples for r in every)
    figures = {
        "setup_s": setups,
        "pass_s": [r.seconds for r in plain],
        "gap_rel": statistics.fmean(gaps) if gaps else 1.0,
        "valid_rate_pct": 100.0 * sum(r.feasible for r in every) / samples if samples else 0.0,
        "model_binaries": first.binaries,
        "model_terms": first.terms,
    }
    if workload == "cli-solve":
        figures["peak_rss_mb"] = max(r.peak_rss_mb for r in every)
    else:
        figures["compile_s"] = statistics.median(r.compile_s for r in plain)
        figures["solve_s"] = statistics.median(r.solve_s for r in plain)
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        per_layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        if workload != "cli-solve":
            build = layer_metrics(build_tracer)
            for key in ("problem.build_s", "expression.parse_s"):
                if key in build:
                    per_layer[key] = per_layer.get(key, 0.0) + build[key]
        per_layer["compiler.scaling_exp"] = _scaling_exponent(plain) if workload == "mixed-compile" else 0.0
        per_layer["solvers.lambda_trials"] = float(first.lambda_trials)
        per_layer["trace.pass_s"] = statistics.median(r.seconds for r in traced)
        per_layer["trace.overhead_pct"] = 100.0 * (per_layer["trace.pass_s"] / statistics.median(figures["pass_s"]) - 1.0)
        per_layer.update(import_probe())
        figures["per_layer"] = per_layer
    return {"attempted": attempted, "failed": failed, "deterministic": deterministic, "figures": figures}


def _scaling_exponent(plain) -> float:
    """log(compile-time ratio) / log(output-term ratio) between mixed n = 12 and n = 8 (0 if either failed)."""
    pairs = [(r.compile_by_job["mixed-8"], r.compile_by_job["mixed-12"]) for r in plain
             if "mixed-8" in r.compile_by_job and "mixed-12" in r.compile_by_job]
    if not pairs:
        return 0.0
    small = statistics.median(s for (s, _), _ in pairs)
    large = statistics.median(s for _, (s, _) in pairs)
    (_, terms_small), (_, terms_large) = pairs[0]
    return math.log(large / small) / math.log(terms_large / terms_small)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup(args.workload, args.seed, args.work)}))
    else:
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace), args.work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
