"""Decode, validate, and score solution sets; persist them as JSON.

Feasibility has one rule, ``ConstraintDecl.evaluate``: a non-strict
comparison holds iff its exact left-hand side misses the bound by at most
``FEASIBILITY_TOL`` (1e-9).  Each penalty block of a model carries its
declaration and is checked on the binaries plus the decoded values.
Probabilities are kept as fractions internally and only presented as
percentages; every float that reaches a file has 12 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from qubo_forge.compiler import QuboModel
from qubo_forge.problem import ConstraintDecl, Problem
from qubo_forge.solvers import SolutionSet

SOLUTION_SCHEMA = "qubo-forge-solution/1"


@dataclass
class ConstraintCheck:
    label: str
    satisfied: bool
    residual: float
    hardness: str
    block_index: int


@dataclass
class AnalysisReport:
    """Quality metrics for one solver's solution set."""

    valid_rate: float  # percent of all the solution's samples that satisfy every hard constraint
    objective_values: list[float]
    constraint_results: list[ConstraintCheck]
    cumulative: list[tuple[float, float]]
    p_range: float | None = None
    val_ref: float | None = None
    tts: float | None = None
    t_f: float | None = None
    p_conf: float | None = None


def _check(decl: ConstraintDecl, index: int, values: dict[str, float]) -> ConstraintCheck:
    """One declaration on ``values``, labelled for a report."""
    satisfied, residual = decl.evaluate(values)
    return ConstraintCheck(decl.describe(), satisfied, residual, decl.hardness, index)


def check_constraints(decoded: dict[str, float], problem: Problem) -> list[ConstraintCheck]:
    """Each user-declared constraint, hard and weak, on a decoded assignment."""
    return [_check(decl, index, decoded) for index, decl in enumerate(problem.constraints)]


def check_model_constraints(
    model: QuboModel,
    binary: dict[str, int],
    decoded: dict[str, float] | None = None,
) -> list[ConstraintCheck]:
    """Per-penalty-block results on the binaries plus the decoded values."""
    values = {**binary, **(decoded if decoded is not None else model.decode(binary))}
    return [_check(block.constraint, index, values) for index, block in enumerate(model.penalties)]


def solution_is_valid(
    model: QuboModel,
    binary: dict[str, int],
    decoded: dict[str, float] | None = None,
) -> bool | np.ndarray:
    """Whether every hard result of ``check_model_constraints`` holds.

    The values may be columns, one entry per sample; the result is then a boolean array.
    """
    valid = True
    for check in check_model_constraints(model, binary, decoded):
        if check.hardness == "hard":
            valid = valid & check.satisfied
    return valid


def valid_rate(model: QuboModel, solution: SolutionSet) -> float:
    """Percentage of samples satisfying every hard constraint: ``solution_is_valid`` on the columns."""
    rows = len(solution.bits)
    if not rows:
        return 0.0
    binary = dict(zip(solution.order, solution.bits.T.astype(float)))
    valid = solution_is_valid(model, binary, dict(zip(solution.names, solution.values.T)))
    return 100.0 * int(np.count_nonzero(np.broadcast_to(valid, rows))) / rows


def objective_values(decoded: dict[str, float], problem: Problem) -> list[float]:
    """Each declared objective evaluated in its original sense (no weight, no sign flip)."""
    return [term.expr.evaluate(decoded) for term in problem.objectives]


def p_range(energies: Sequence[float], val_ref: float) -> float:
    """Percentage of energies strictly below the reference value."""
    if not energies:
        return 0.0
    return 100.0 * sum(1 for e in energies if e < val_ref) / len(energies)


def time_to_solution(t_f: float, p_conf: float, p_range_fraction: float) -> float:
    """Expected time to reach the target with confidence ``p_conf``.

    ``t_f * ln(1 - p_conf) / ln(1 - p_range_fraction)`` with the documented
    edge conventions: +inf when the target was never reached, ``t_f`` when it
    is reached every run.
    """
    _check_p_conf(p_conf)
    if not 0 <= p_range_fraction <= 1:
        raise ValueError("p_range fraction must be in [0, 1]")
    if p_range_fraction == 0:
        return math.inf
    if p_range_fraction == 1:
        return t_f
    return t_f * math.log(1 - p_conf) / math.log(1 - p_range_fraction)


def _check_p_conf(p_conf: float) -> None:
    if not 0 < p_conf < 1:
        raise ValueError(f"p_conf must be in (0, 1), got {p_conf}")


def cumulative_distribution(energies: Sequence[float]) -> list[tuple[float, float]]:
    """Sorted (energy, cumulative fraction) pairs; tied energies share the final fraction."""
    ordered = sorted(energies)
    n = len(ordered)
    pairs: list[tuple[float, float]] = []
    for k, energy in enumerate(ordered):
        fraction = (k + 1) / n
        if pairs and pairs[-1][0] == energy:
            pairs[-1] = (energy, fraction)
        else:
            pairs.append((energy, fraction))
    return pairs


def analyze(
    problem: Problem,
    model: QuboModel,
    solution: SolutionSet,
    val_ref: float | None = None,
    p_conf: float = 0.99,
) -> AnalysisReport:
    """Score a solution set: validity, best-solution checks, distribution, optional TTS."""
    _check_p_conf(p_conf)  # on every call, not only when a TTS is computed
    report = AnalysisReport(
        valid_rate=valid_rate(model, solution),
        objective_values=objective_values(solution.best_decoded, problem),
        constraint_results=check_model_constraints(model, solution.best_binary, solution.best_decoded),
        cumulative=cumulative_distribution(solution.energies),
    )
    if val_ref is not None:
        report.p_range = p_range(solution.energies, val_ref)
        report.val_ref = val_ref
        t_f = solution.mean_run_time()
        if t_f is not None:
            report.t_f = t_f
            report.p_conf = p_conf
            report.tts = time_to_solution(t_f, p_conf, report.p_range / 100.0)
    return report


# -- persistence ---------------------------------------------------------------


def _round_floats(value: Any) -> Any:
    """Normalize every float to 12 significant digits (idempotent)."""
    if isinstance(value, float):
        return value if math.isinf(value) or math.isnan(value) else float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def solution_to_dict(solution: SolutionSet) -> dict[str, Any]:
    return {
        "samples": [{"assignment": assignment, "energy": energy} for assignment, energy in solution.samples],
        "decoded": solution.decoded,
        "best_binary": solution.best_binary,
        "best_decoded": solution.best_decoded,
        "best_energy": solution.best_energy,
        "run_times": solution.run_times,
    }


def solution_from_dict(data: dict[str, Any]) -> SolutionSet:
    """The saved rows as arrays; the saved best is kept, not picked again from rounded energies."""
    order, names = tuple(data["best_binary"]), tuple(data["best_decoded"])
    bits = np.array([[entry["assignment"][name] for name in order] for entry in data["samples"]])
    if not np.isin(bits, (0, 1)).all():  # uint8 would wrap or truncate any other value
        raise ValueError("solution file: every sample assignment value must be 0 or 1")
    values = np.array([[row[name] for name in names] for row in data["decoded"]], dtype=float)
    energies = [entry["energy"] for entry in data["samples"]]
    best = (data["best_binary"], data["best_decoded"], data["best_energy"])
    return SolutionSet(order, bits.astype(np.uint8), energies, names, values, *best, run_times=data.get("run_times"))


def report_to_dict(report: AnalysisReport) -> dict[str, Any]:
    return {
        "valid_rate": report.valid_rate,
        "objective_values": report.objective_values,
        "constraints": [asdict(check) for check in report.constraint_results],
        "cumulative": [[energy, fraction] for energy, fraction in report.cumulative],
        "p_range": report.p_range,
        "val_ref": report.val_ref,
        "tts": None if report.tts is None else (report.tts if math.isfinite(report.tts) else "inf"),
        "t_f": report.t_f,
        "p_conf": report.p_conf,
    }


def report_from_dict(data: dict[str, Any]) -> AnalysisReport:
    tts = data.get("tts")
    if tts == "inf":
        tts = math.inf
    return AnalysisReport(
        valid_rate=data["valid_rate"],
        objective_values=data["objective_values"],
        constraint_results=[ConstraintCheck(**entry) for entry in data["constraints"]],
        cumulative=[(energy, fraction) for energy, fraction in data["cumulative"]],
        p_range=data.get("p_range"),
        val_ref=data.get("val_ref"),
        tts=tts,
        t_f=data.get("t_f"),
        p_conf=data.get("p_conf"),
    )


def save_report(
    path: str | Path,
    solution: SolutionSet,
    report: AnalysisReport | None = None,
    meta: dict[str, Any] | None = None,
) -> None:
    """Persist a solution set (and optional report) as versioned JSON."""
    payload = {
        "schema": SOLUTION_SCHEMA,
        "solution": solution_to_dict(solution),
        "report": None if report is None else report_to_dict(report),
        "meta": meta or {},
    }
    write_rounded_json(path, payload)


def write_rounded_json(path: str | Path, payload: Any) -> None:
    """Write ``payload`` as sorted, indented JSON with every float at 12 significant digits."""
    Path(path).write_text(json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n")


def load_report(path: str | Path) -> tuple[SolutionSet, AnalysisReport | None, dict[str, Any]]:
    data = json.loads(Path(path).read_text())
    schema = data.get("schema")
    if schema != SOLUTION_SCHEMA:
        raise ValueError(f"unsupported solution schema {schema!r}; expected {SOLUTION_SCHEMA!r}")
    solution = solution_from_dict(data["solution"])
    report = None if data.get("report") is None else report_from_dict(data["report"])
    return solution, report, data.get("meta", {})


def write_cumulative_csv(path: str | Path, cumulative: Sequence[tuple[float, float]]) -> None:
    """Plot data for one solver: ``energy,cumulative_fraction`` rows."""
    lines = ["energy,cumulative_fraction"]
    for energy, fraction in cumulative:
        lines.append(f"{energy:.12g},{fraction:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")
