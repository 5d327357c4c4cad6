"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.  Expected values are either the published reference
numbers for the worked mixed-variable example and the f3 knapsack instance,
or values recomputed here by independent brute-force oracles.  The last test
is such an oracle over random small problems: a brute force over the
declared domains checks the compiled ground state and the analyzer.
"""

import itertools
import json
import math
import operator
import time
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qubo_forge.analysis import (
    check_model_constraints,
    p_range,
    solution_is_valid,
    time_to_solution,
    valid_rate,
)
from qubo_forge.cli import build_regression, bundled_data, load_knapsack, main
from qubo_forge.compiler import (
    CompileConfig,
    QuadraticForm,
    boolean_penalty,
    compile_problem,
    compose_cost,
    equality_penalty,
    estimate_lambda,
    quadratize,
)
from qubo_forge.encoding import encode
from qubo_forge.expression import Comparison, Polynomial
from qubo_forge.problem import BooleanRelation, Problem
from qubo_forge.solvers import (
    SolutionSet,
    SolverParams,
    UpdateStrategy,
    next_lambda,
    solve_exhaustive,
    solve_qaoa_sim,
    solve_sa,
    solve_with_lambda_update,
)
from reference import energies_over_assignments

V = Polynomial.variable


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL - {description}")
        raise
    print(f"[criterion {number:2d}] PASS - {description}")


def test_criterion_01_mixed_example_end_to_end(mixed_problem):
    with criterion(1, "mixed-variable example: exhaustive optimum, energy, constraints, < 5 s"):
        started = time.monotonic()
        model = compile_problem(mixed_problem)
        solution = solve_exhaustive(model)
        elapsed = time.monotonic() - started
        assert solution.best_decoded == {"a": 0.0, "b": 3.0, "c": -1.0}
        assert solution.best_energy == -2.0
        checks = check_model_constraints(model, solution.best_binary, solution.best_decoded)
        assert len(checks) == 2 and all(check.satisfied for check in checks)
        assert elapsed < 5.0


def test_criterion_02_encoding_fidelity():
    with criterion(2, "continuous encodings reproduce the reference weights verbatim"):
        cases = {
            "dictionary": (0.5, {}, [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0], 0.0),
            "logarithmic": (0.25, {}, [0.25, 0.5, 1.0, 2.0, 0.25], -2.0),
            "unitary": (0.5, {}, [0.5] * 8, -2.0),
            "arithmetic": (0.2, {}, [0.2, 0.4, 0.6, 0.8, 1.0, 1.0], -2.0),
        }
        for method, (precision, kwargs, weights, offset) in cases.items():
            problem = Problem()
            problem.add_continuous_variable("c", -2, 2, precision, encoding=method, **kwargs)
            plan = encode(problem.variable("c"))
            assert [w for _, w in plan.binaries] == weights, method
            assert plan.offset == offset, method
            assert len(plan.induced) == (1 if method == "dictionary" else 0), method  # one-hot over the value bits


def test_criterion_03_equality_penalty_expansion():
    with criterion(3, "one-hot equality penalty expands coefficient-exact"):
        penalty = equality_penalty(Comparison(lhs=V("b1") + V("b2") + V("b3"), op="=", rhs=1.0))
        assert penalty.terms() == {
            ("b1",): -1.0,
            ("b2",): -1.0,
            ("b3",): -1.0,
            ("b1", "b2"): 2.0,
            ("b1", "b3"): 2.0,
            ("b2", "b3"): 2.0,
            (): 1.0,
        }


def test_criterion_04_lambda_regression(mixed_problem):
    with criterion(4, "penalty-weight table: mqc 10, vlm 12, ub-naive 52.25 exact; documented targets"):
        plans = [encode(decl) for decl in mixed_problem.variables]
        cost = compose_cost(mixed_problem.objectives, {p.source: p for p in plans})
        assert estimate_lambda("mqc", cost) == 10.0
        assert estimate_lambda("vlm", cost) == 12.0
        assert estimate_lambda("ub-naive", cost) == 52.25
        # Documentation targets (interpretation recorded in the README):
        # balanced posiform/negaform bound, and one-flip d-bounds for momc/moc.
        assert estimate_lambda("ub-posiform", cost) == 31.625
        momc = compile_problem(mixed_problem, CompileConfig(lambda_method="momc"))
        assert round(momc.penalties[0].lam, 2) == 6.19
        assert momc.penalties[0].lam == pytest.approx(12.0 / 1.9375)  # vlm over the smallest one-flip step
        assert momc.penalties[1].lam == 12.0
        moc = compile_problem(mixed_problem, CompileConfig(lambda_method="moc"))
        assert moc.penalties[0].lam == 1.0
        assert moc.penalties[1].lam == 6.0


def test_criterion_05_knapsack_optimum_and_sa_statistics():
    with criterion(5, "f3 knapsack: feasible optimum 35; SA 100 runs >= 50 hits, valid rate >= 90%, < 30 s"):
        started = time.monotonic()
        instance, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        model = compile_problem(problem)
        oracle = solve_exhaustive(model)
        chosen = [i for i in range(instance.n_obj) if oracle.best_decoded[f"obj_{i}"] > 0.5]
        assert sum(instance.p_arr[i] for i in chosen) == 35.0
        assert sum(instance.w_arr[i] for i in chosen) <= instance.w_max
        assert oracle.best_energy == -35.0
        sa = solve_sa(model, SolverParams(runs=100, seed=11))
        hits = sum(1 for energy in sa.energies if energy == pytest.approx(-35.0, abs=1e-9))
        assert hits >= 50
        assert valid_rate(model, sa) >= 90.0
        assert time.monotonic() - started < 30.0


def test_criterion_06_quadratization_soundness():
    with criterion(6, "200 random multilinear polynomials: min-over-aux equals the original, exact"):
        rng = np.random.default_rng(60_001)
        tested = 0
        while tested < 200:
            n = int(rng.integers(4, 11))
            names = [f"x{i}" for i in range(n)]
            coefficients: dict[tuple, float] = {}
            for _ in range(int(rng.integers(3, 8))):
                degree = int(rng.integers(1, 5))
                mono = tuple(sorted(rng.choice(names, size=degree, replace=False)))
                coeff = float(rng.integers(-16, 17)) / 4.0
                if coeff:
                    coefficients[mono] = coefficients.get(mono, 0.0) + coeff
            poly = Polynomial(coefficients)
            form = QuadraticForm.from_polynomial(poly)
            quadratized, registry = quadratize(form, estimate_lambda("ub-naive", form) + 1.0)
            reduced = quadratized.terms()
            assert max(map(len, reduced), default=0) <= 2
            aux = sorted(registry.values())
            if n + len(aux) > 18:
                continue  # keep the exhaustive check tractable
            order = names + aux
            full = energies_over_assignments(reduced, order)
            minimized = full.reshape(2 ** len(aux), 2**n).min(axis=0)
            original = energies_over_assignments(poly, names)
            assert np.array_equal(minimized, original)  # dyadic coefficients: exact
            tested += 1


def test_criterion_07_boolean_penalties():
    with criterion(7, "not/and/or/xor penalties: 0 on truth-table rows, >= 1 otherwise"):
        for kind, inputs in [("not", ("x",)), ("and", ("x", "y")), ("or", ("x", "y")), ("xor", ("x", "y"))]:
            relation = BooleanRelation(kind, "z", inputs)
            penalty, aux_plan = boolean_penalty(relation, "__bool0")
            aux_names = aux_plan.binary_names() if aux_plan else []
            names = list(inputs) + ["z"]
            for bits in itertools.product([0, 1], repeat=len(names)):
                assignment = dict(zip(names, bits))
                value = min(
                    Polynomial(penalty.terms()).evaluate({**assignment, **dict(zip(aux_names, aux_bits))})
                    for aux_bits in itertools.product([0, 1], repeat=len(aux_names))
                )
                if relation.truth({k: float(v) for k, v in assignment.items()}):
                    assert value == 0.0, (kind, assignment)
                else:
                    assert value >= 1.0, (kind, assignment)


def test_criterion_08_metric_formulas():
    with criterion(8, "p_range and TTS match hand evaluations"):
        assert p_range([-31.0] * 40 + [10.0] * 60, -30.0) == 40.0
        assert p_range([-1.0, -2.0], 0.0) == 100.0
        # ln(0.01) / ln(0.5) and 2 ln(0.1) / ln(0.9), evaluated independently
        assert time_to_solution(1.0, 0.99, 0.5) == pytest.approx(
            math.log(1 - 0.99) / math.log(1 - 0.5), rel=1e-12
        )
        assert time_to_solution(1.0, 0.99, 0.5) == pytest.approx(6.6439, rel=1e-4)
        assert time_to_solution(1.0, 0.99, 0.5) == pytest.approx(6.643856189774724, rel=1e-6)
        assert time_to_solution(2.0, 0.9, 0.1) == pytest.approx(43.708690653565675, rel=1e-6)


def test_criterion_09_qaoa_sanity():
    with criterion(9, "10 random 8-binary QUBOs: QAOA beats uniform, never undercuts, samples optimum >= 8/10"):
        rng = np.random.default_rng(20240901)
        sampled_optimum = 0
        for _ in range(10):
            names = [f"v{i}" for i in range(8)]
            terms: dict[tuple, float] = {}
            for i in range(8):
                terms[(names[i],)] = rng.uniform(-1, 1)
                for j in range(i + 1, 8):
                    if rng.random() < 0.6:
                        terms[tuple(sorted((names[i], names[j])))] = rng.uniform(-1, 1)
            from qubo_forge.compiler import QuboModel

            model = QuboModel(QuadraticForm.from_polynomial(Polynomial(terms)), offset=0.0)
            landscape = energies_over_assignments(model.arrays.terms(), model.binary_variables())
            optimum = float(landscape.min())
            uniform_mean = float(landscape.mean())
            solution = solve_qaoa_sim(model, SolverParams(runs=1, shots=200, layers=2, seed=3))
            assert solution.diagnostics["qaoa"]["expected_energy"] < uniform_mean
            assert solution.best_energy >= optimum - 1e-9
            if solution.best_energy == pytest.approx(optimum, abs=1e-9):
                sampled_optimum += 1
        assert sampled_optimum >= 8


def test_criterion_10_lambda_update_loop():
    with criterion(10, "update formulas give 10 -> 100; under-weighted knapsack recovers within 5 SA trials"):
        assert next_lambda(10.0, UpdateStrategy("sequential", lambda_max=1e9, max_trials=5)) == 100.0
        assert next_lambda(10.0, UpdateStrategy("scaled", lambda_max=1000.0, max_trials=4)) == 100.0
        assert next_lambda(10.0, UpdateStrategy("binary-search", lambda_max=1000.0, max_trials=5)) == 100.0
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        outcome = solve_with_lambda_update(
            problem,
            CompileConfig(lambda_method="manual", manual_lambdas=0.01),
            "sa",
            SolverParams(runs=30, seed=2),
            UpdateStrategy("sequential", lambda_max=1e6, max_trials=5),
        )
        assert outcome.valid and outcome.trials <= 5
        assert outcome.solution.best_energy == -35.0


def test_criterion_11_linear_regression():
    with criterion(11, "iris subset: 6 binaries; exhaustive optimum equals the 64-point grid least squares, < 5 s"):
        started = time.monotonic()
        dataset, problem = build_regression(bundled_data("iris30.csv"), 2, -0.25, 0.25, 0.25)
        assert dataset.x.shape == (30, 3)
        assert (dataset.x[:, -1] == 1.0).all()  # the ones column, last
        model = compile_problem(problem)
        binaries = model.binary_variables()
        assert len(binaries) == 6
        solution = solve_exhaustive(model)

        # Independent oracle: brute-force ||Xw - Y||^2 over all 64 bit patterns.
        plans = {plan.source: plan for plan in model.encodings}
        best_direct = math.inf
        for bits in itertools.product([0, 1], repeat=6):
            assignment = dict(zip(binaries, bits))
            w = np.array([plans[f"w_{k}"].decode(assignment) for k in range(3)])
            residual = dataset.x @ w - dataset.y
            best_direct = min(best_direct, float(residual @ residual))
        assert solution.best_energy == pytest.approx(best_direct, abs=1e-9)

        w_best = np.array([solution.best_decoded[f"w_{k}"] for k in range(3)])
        residual = dataset.x @ w_best - dataset.y
        assert float(residual @ residual) == pytest.approx(best_direct, abs=1e-9)
        assert time.monotonic() - started < 5.0


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "identical seeds reproduce byte-identical solution JSON"):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        path = tmp_path / "f3.problem.json"
        problem.save(path)
        payloads = []
        # Three sweeps leave the runs short of the optimum, so the samples, and the file, depend on the seed.
        for name, seed in (("first", "99"), ("second", "99"), ("other", "100")):
            out = tmp_path / name
            args = ["solve", str(path), "--solver", "sa", "--runs", "25", "--sweeps", "3", "--seed", seed]
            assert main([*args, "--out-dir", str(out)]) == 0
            payloads.append((out / "f3.problem.solution.json").read_bytes())
        assert payloads[0] == payloads[1]
        assert payloads[0] != payloads[2]
        json.loads(payloads[0])  # well-formed JSON


# -- declared-domain oracle --------------------------------------------------------------------------------

_ENCODINGS = ("logarithmic", "unitary", "arithmetic", "domain_wall", "dictionary", "bounded")
_OPS = {"=": operator.eq, "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}
_GATES = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}


@st.composite
def declared_problems(draw) -> SimpleNamespace:
    """1-3 variables on integer domains (binary, discrete with integer levels, or continuous at step 1 under
    every encoding), an integer linear objective with sometimes one product, one integer comparison and
    sometimes an and/or/xor relation over the binaries (a name may repeat); every constraint is hard."""
    variables = []  # (name, kind or continuous encoding, domain, bound)
    for k in range(draw(st.integers(1, 3))):
        name, kind = f"v{k}", draw(st.sampled_from(["binary", "discrete", "continuous"]))
        if kind == "binary":
            variables.append((name, "binary", [0, 1], None))
        elif kind == "discrete":
            variables.append((name, "discrete", sorted(draw(st.sets(st.integers(-2, 4), min_size=1, max_size=4))), None))
        else:
            low, span, encoding = draw(st.integers(-2, 2)), draw(st.integers(1, 3)), draw(st.sampled_from(_ENCODINGS))
            bound = draw(st.integers(1, 2)) if encoding == "bounded" else None
            variables.append((name, encoding, list(range(low, low + span + 1)), bound))
    names, nonzero = [name for name, *_ in variables], st.sampled_from([-3, -2, -1, 1, 2, 3])
    binaries = [name for name, kind, *_ in variables if kind == "binary"]
    relation = None
    if binaries and draw(st.booleans()):
        output, inputs = draw(st.sampled_from(binaries)), [draw(st.sampled_from(binaries)) for _ in range(2)]
        relation = (draw(st.sampled_from(sorted(_GATES))), output, inputs)
    return SimpleNamespace(
        variables=variables,
        objective=[draw(st.integers(-3, 3)) for _ in names],
        product=draw(st.none() | st.tuples(nonzero, st.sampled_from(names), st.sampled_from(names))),
        comparison=([draw(nonzero) for _ in names], draw(st.sampled_from(sorted(_OPS))), draw(st.integers(-6, 6))),
        relation=relation,
    )


def declared_problem(spec: SimpleNamespace, direction: str) -> Problem:
    problem = Problem()
    for name, kind, domain, bound in spec.variables:
        if kind == "binary":
            problem.add_binary_variable(name)
        elif kind == "discrete":
            problem.add_discrete_variable(name, domain)
        else:
            problem.add_continuous_variable(name, domain[0], domain[-1], 1, encoding=kind, bound=bound)
    names = [name for name, *_ in spec.variables]
    terms = [f"{c}*{name}" for c, name in zip(spec.objective, names)]
    if spec.product is not None:
        terms.append("{}*{}*{}".format(*spec.product))
    problem.add_objective(" + ".join(terms), direction)
    coefficients, op, rhs = spec.comparison
    problem.add_constraint(" + ".join(f"{c}*{name}" for c, name in zip(coefficients, names)) + f" {op} {rhs}")
    if spec.relation is not None:
        problem.add_boolean_constraint(*spec.relation)
    return problem.freeze()


def declared_objective(spec: SimpleNamespace, values: dict):
    """The objective at ``values`` (numbers or columns), in plain Python."""
    total = sum(c * values[name] for c, (name, *_) in zip(spec.objective, spec.variables))
    if spec.product is not None:
        c, left, right = spec.product
        total = total + c * values[left] * values[right]
    return total


def declared_holds(spec: SimpleNamespace, values: dict):
    """Whether the comparison and the relation hold at ``values`` (numbers or columns), in plain Python."""
    coefficients, op, rhs = spec.comparison
    holds = _OPS[op](sum(c * values[name] for c, (name, *_) in zip(coefficients, spec.variables)), rhs)
    if spec.relation is not None:
        kind, output, (x, y) = spec.relation
        holds = holds & ((values[output] == 1) == _GATES[kind](values[x] == 1, values[y] == 1))
    return holds


@given(declared_problems())
@settings(max_examples=300, deadline=None)
def test_the_ground_state_and_the_analyzer_agree_with_a_brute_force_over_the_declared_domains(spec):
    """Under λ = 1 + the ub-naive bound of the cost, which dominates the cost over every binary pattern, the
    exhaustive optimum has the feasible optimum of a brute force over the declared domains, minimized and
    maximized.  On every binary pattern the analyzer's verdict is the one computed here from the bits: a
    one-hot pattern has one bit set, a domain-wall pattern does not decrease, and the decoded values lie in
    their domains and satisfy the declaration."""
    names = [name for name, *_ in spec.variables]
    points = [dict(zip(names, point)) for point in itertools.product(*(domain for _, _, domain, _ in spec.variables))]
    objectives = [declared_objective(spec, point) for point in points if declared_holds(spec, point)]
    for direction, optimum in (("minimize", min), ("maximize", max)):
        problem = declared_problem(spec, direction)
        plans = {decl.name: encode(decl) for decl in problem.variables}
        lam = 1.0 + estimate_lambda("ub-naive", compose_cost(problem.objectives, plans))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an unsatisfiable comparison warns, and is compiled all the same
            model = compile_problem(problem, CompileConfig("manual", lam))
        order = model.binary_variables()
        assume(len(order) <= 12)
        if objectives:
            best = solve_exhaustive(model).best_decoded
            assert declared_holds(spec, best) and declared_objective(spec, best) == optimum(objectives), (best, lam)

    bits = ((np.arange(2 ** len(order))[:, None] >> np.arange(len(order))) & 1).astype(np.uint8)
    solution = SolutionSet.from_bits(model, bits)
    column = {name: bits[:, k].astype(np.int64) for k, name in enumerate(order)}
    verdict, values = np.ones(len(bits), bool), {}
    for name, kind, domain, _ in spec.variables:
        own = np.stack([column[binary] for binary, _ in plans[name].binaries], axis=1)
        if kind in ("discrete", "dictionary"):
            verdict &= own.sum(axis=1) == 1
        elif kind == "domain_wall":
            verdict &= np.all(np.diff(own, axis=1) >= 0, axis=1)
        values[name] = plans[name].offset + own @ np.array([weight for _, weight in plans[name].binaries])
        verdict &= np.isin(values[name], domain)
    verdict &= declared_holds(spec, values)
    binary, decoded = dict(zip(solution.order, solution.bits.T.astype(float))), dict(zip(solution.names, solution.values.T))
    analyzed = solution_is_valid(model, binary, decoded)
    wrong = np.flatnonzero(np.broadcast_to(analyzed, len(bits)) != verdict)
    assert not wrong.size, {name: int(column[name][wrong[0]]) for name in order}
