"""qubo-forge benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ``qubo_forge`` is imported from its
``src`` directory, not from an installed package.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (see ``DESIGN.md``).

This process imports only the standard library.  It makes a scratch
directory inside the checkout, compiles the byte code with one untimed
set-up, then hands the measured run, set-up samples included, to one
``worker.py`` process, and removes the scratch directory on the way out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("mixed-compile", "knapsack-oracle", "knapsack-anneal", "cli-solve")


def child_env() -> dict[str, str]:
    """Checkout sources first; one BLAS thread, so BLAS does not fight for the cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("QUBO_FORGE_OUT", None)  # it would override --out-dir
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # byte code is compiled once, as an installed package's is
    return env


def worker(mode: str, args: argparse.Namespace, work: Path, timeout: float) -> dict:
    """Run worker.py in its own session, so a timeout also ends the CLI processes it started."""
    command = [sys.executable, str(WORKER), mode, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    child = subprocess.Popen(command, env=child_env(), cwd=work, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(args: argparse.Namespace, work: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    warm_up = work / "warm-up"  # compiles the byte code; not counted
    warm_up.mkdir()
    worker("setup", args, warm_up, timeout=60)
    run_dir = work / "run"
    run_dir.mkdir()
    outcome = worker("run", args, run_dir, timeout=args.seconds + 100)
    figures = outcome["figures"]
    passes = figures["pass_s"]
    summary = [f"pass_s median {statistics.median(passes):.4f} s of {len(passes)} passes"
               f" [{', '.join(f'{p:.4f}' for p in passes)}]"]
    if figures["setup_s"]:
        summary.append(f"setup_s median {statistics.median(figures['setup_s']):.4f} s of {len(figures['setup_s'])}")
    if "compile_s" in figures:
        summary.append(f"compile_s {figures['compile_s']:.4f} s; solve_s {figures['solve_s']:.4f} s")
    summary += [f"gap_rel {figures['gap_rel']:.6g}", f"error_rate {outcome['failed']}/{outcome['attempted']}"]
    print(f"{args.workload} seed {args.seed}: {'; '.join(summary)}")
    if args.trace:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in figures["per_layer"].items()}
    else:
        values = {
            "setup_s": statistics.median(figures["setup_s"]),
            "pass_s": statistics.median(passes),
            "peak_rss_mb": figures["peak_rss_mb"],
            "energy_ratio": 1.0 + figures["gap_rel"],
            "valid_rate_pct": figures["valid_rate_pct"],
            "model_binaries": figures["model_binaries"],
            "model_terms": figures["model_terms"],
        }
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return {
        "correct": outcome["failed"] == 0 and outcome["deterministic"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qubo_forge" / "__init__.py").is_file():
        print(f"no qubo_forge sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = measure(args, work)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
