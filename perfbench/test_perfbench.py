"""Self-tests of the benchmark: its references, checks and span wrappers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import random
import threading
from pathlib import Path

import numpy as np
import pytest

import generators
import references
import spans
from worker import scipy_import_seconds

from qubo_forge import Problem, compile_problem
from qubo_forge import compiler, expression, problem as problem_module, solvers


def _decoded_knapsack(picks):
    return {f"obj_{i}": float(p) for i, p in enumerate(picks)}


def test_knapsack_reference_matches_brute_force_and_rejects_infeasible_picks():
    spec = generators.Knapsack(profits=(9, 11, 13, 15), weights=(6, 5, 9, 7), capacity=20)
    ref = references.KnapsackRef(spec)
    brute = max(
        sum(p for p, bit in zip(spec.profits, bits) if bit)
        for bits in np.ndindex(*(2,) * 4)
        if sum(w for w, bit in zip(spec.weights, bits) if bit) <= spec.capacity
    )
    assert ref.optimum == -brute == -35.0
    assert ref.evaluate(_decoded_knapsack([1, 1, 1, 1])) == (False, -48.0)
    quality = references.judge(ref, [_decoded_knapsack([1, 1, 0, 1]), _decoded_knapsack([1, 1, 1, 1])], ref.optimum)
    assert (quality.feasible, quality.best, quality.errors) == (1, -35.0, [])
    assert quality.gap(ref.optimum) == 0.0


def test_judge_flags_a_feasible_answer_better_than_the_reference():
    spec = generators.Knapsack(profits=(9, 11, 13, 15), weights=(6, 5, 9, 7), capacity=20)
    ref = references.KnapsackRef(spec)
    planted_optimum = -30.0  # wrong: the pick below is feasible and worth 35
    quality = references.judge(ref, [_decoded_knapsack([1, 1, 0, 1])], planted_optimum)
    assert quality.errors


def test_gap_counts_a_job_without_feasible_samples_as_one():
    quality = references.Quality(samples=3, feasible=0, best=None, errors=[])
    assert quality.gap(-10.0) == 1.0
    assert quality.gap(None) is None


def test_readme_and_iris_references():
    readme = references.ReadmeRef()
    assert readme.optimum == -2.0
    assert readme.evaluate({"a": 0.0, "b": 3.0, "c": -1.0}) == (True, -2.0)
    assert readme.evaluate({"a": 0.0, "b": 1.0, "c": 0.0})[0] is False  # b + c = 1 < 2
    assert readme.evaluate({"a": 0.0, "b": 3.0, "c": -1.1})[0] is False  # off the c grid
    iris = references.IrisRef.from_csv(
        Path(__file__).resolve().parent.parent / "src" / "qubo_forge" / "data" / "iris30.csv", -0.25, 0.25, 0.25
    )
    assert iris.optimum == pytest.approx(136.13375, abs=1e-9)
    assert iris.evaluate({"w_0": 0.3, "w_1": 0.0, "w_2": 0.0})[0] is False


def test_mixed_energy_identity_holds_and_catches_a_planted_offset():
    spec = generators.mixed(random.Random(3), 3, step=1.0, cubic=True)
    ref = references.MixedRef(spec)
    model = compile_problem(generators.mixed_problem(spec))
    assert model.aux_registry, "the cubic chain must be quadratized"
    rng = np.random.default_rng(0)
    order = model.binary_variables()
    for _ in range(5):
        assignment = dict(zip(order, map(int, rng.integers(0, 2, len(order)))))
        assert ref.energy_identity_error(model, assignment) < 1e-9
    shifted = dataclasses.replace(model, offset=model.offset - 1.0)
    assert ref.energy_identity_error(shifted, assignment) == pytest.approx(1.0)


def test_sample_energy_check_catches_a_planted_offset():
    model = compile_problem(generators.readme_problem())
    assignment = {name: 0 for name in model.binary_variables()}
    energy = model.energy(assignment)
    assert references.sample_energy_errors(model, [(assignment, energy)]) == []
    assert references.sample_energy_errors(model, [(assignment, energy - 1.0)])


def test_mixed_brute_force_optimum_is_feasible_and_minimal():
    spec = generators.mixed(random.Random(5), 3, step=1.0, cubic=True)
    ref = references.MixedRef(spec)
    levels = np.arange(-2.0, 2.5, 1.0)
    best = min(
        float(ref.objective(np.array(v))[0]) for v in np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1).T if sum(v) == 1
    )
    assert ref.optimum == pytest.approx(best)


def test_generators_are_deterministic_per_seed():
    def text(seed):
        return generators.problem_json(generators.mixed_problem(generators.mixed(random.Random(seed), 4)))

    assert text(7) == text(7)
    assert text(7) != text(8)
    spec = generators.knapsack(random.Random(1), 14, slack_bits=7)
    assert spec.capacity.bit_length() == 7
    assert len(compile_problem(generators.knapsack_problem(spec)).binary_variables()) == 21


def _current_targets():
    found = {}
    for module, path, _, _ in spans.WRAPPED:
        owner = __import__(module, fromlist=["_"])
        if path.startswith("SOLVERS["):
            found[(module, path)] = owner.SOLVERS[path[len("SOLVERS[") : -1]]
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        found[(module, path)] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return found


def test_wrappers_restore_the_original_attributes():
    before = _current_targets()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        during = _current_targets()
        assert all(during[key] is not before[key] for key in before)
        compile_problem(generators.readme_problem())
    after = _current_targets()
    assert all(after[key] is before[key] for key in before)
    assert not tracer.missing
    assert solvers.SOLVERS["sa"] is solvers.solve_sa
    assert expression.Polynomial.substitute.__name__ == "substitute"


def test_compile_self_time_plus_children_is_the_compile_span():
    tracer = spans.Tracer()
    with spans.installed(tracer):
        with tracer.span("compiler.compile_problem") as outer:
            compile_problem(generators.readme_problem())
    children = [s for s in tracer.spans if s.parent == outer.id]
    assert {s.name for s in children} >= {"encoding.encode", "compiler.compose_cost", "compiler.penalty", "compiler.lambda"}
    metrics = spans.layer_metrics(tracer)
    assert metrics["compiler.self_s"] >= 0.0
    assert metrics["compiler.self_s"] + sum(s.duration for s in children) == pytest.approx(outer.duration, abs=1e-9)
    assert metrics["compiler.compile_s"] == pytest.approx(outer.duration)
    assert (metrics["encoding.binaries"], metrics["compiler.slack_binaries"]) == (9.0, 4.0)  # 13 binaries in all


def test_span_stacks_are_kept_per_thread():
    tracer = spans.Tracer()
    roots = []

    def worker():
        with tracer.span("inner") as record:
            roots.append(record.parent)

    with tracer.span("outer"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert roots == [None]


def test_a_missing_name_leaves_its_metric_out(monkeypatch):
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + [("qubo_forge.solvers", "no_such_name", "solvers.qaoa_optimizer", None)])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        pass
    assert tracer.missing == {"solvers.qaoa_optimizer"}
    metrics = spans.layer_metrics(tracer)
    assert "solvers.qaoa_optimizer_s" not in metrics and "solvers.qaoa_nfev" not in metrics
    assert "solvers.sa_s" in metrics
    assert solvers.minimize.__module__.startswith("scipy")


def test_parse_spans_come_from_the_problem_module():
    tracer = spans.Tracer()
    with spans.installed(tracer):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("x")
    assert [s.name for s in tracer.spans] == ["expression.parse"]
    assert problem_module.parse_expression.__module__ == "qubo_forge.expression"
    assert compiler.encode.__module__ == "qubo_forge.encoding"


def test_scipy_import_time_takes_outermost_scipy_entries():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:        50 |        300 |   scipy",
            "import time:        10 |         10 |     numpy.linalg",
            "import time:        20 |        700 |   scipy.optimize",
            "import time:         5 |       1200 | qubo_forge.solvers",
        ]
    )
    assert scipy_import_seconds(text) == pytest.approx(1000e-6)
