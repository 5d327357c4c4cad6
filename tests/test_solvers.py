"""Solver behavior: oracle correctness, SA/QAOA statistics, the retry loop.

The exhaustive enumerator is the oracle; stochastic solvers are only ever
required to stay at or above its optimum and to hit documented statistical
targets under fixed seeds.
"""

import dataclasses
import functools
import heapq
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qubo_forge
from qubo_forge import lbfgs, solvers
from qubo_forge.analysis import load_report, save_report
from qubo_forge.cli import build_regression, bundled_data, load_knapsack
from qubo_forge.compiler import CompileConfig, QuadraticForm, QuboModel, compile_problem
from qubo_forge.expression import Polynomial
from qubo_forge.problem import Problem
from qubo_forge.solvers import (
    EXHAUSTIVE_DEFAULT_CAP,
    SolverParams,
    UpdateStrategy,
    next_lambda,
    solve,
    solve_exhaustive,
    solve_qaoa_sim,
    solve_sa,
    solve_with_lambda_update,
)
from reference import dense_form, sparse_max_cut, time_limit

V = Polynomial.variable


def bare_model(terms: dict, offset: float = 0.0) -> QuboModel:
    return QuboModel(QuadraticForm.from_polynomial(Polynomial(terms)), offset=offset)


def random_model(rng: np.random.Generator, n: int) -> QuboModel:
    terms = {}
    for i in range(n):
        terms[(f"v{i}",)] = rng.uniform(-1, 1)
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                terms[tuple(sorted((f"v{i}", f"v{j}")))] = rng.uniform(-1, 1)
    return bare_model(terms)


def integer_model(rng: np.random.Generator, n: int) -> QuboModel:
    """Integer coefficients: every partial sum of energies and local fields is exact in floats."""
    terms = {(f"v{i}",): float(rng.integers(-5, 6)) for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            terms[(f"v{i}", f"v{j}")] = float(rng.integers(-5, 6))
    return bare_model(terms)


def brute_force_top(model: QuboModel, k_best: int) -> tuple[list[int], list[float]]:
    """The ``k_best`` smallest ``(energy, index)`` pairs of an integer-coefficient model.

    Assignments come from ``itertools.product`` and energies from the
    polynomial's terms in exact integer arithmetic; bit k of an index is the
    binary at position k of ``binary_variables()``.
    """
    order = model.binary_variables()
    n = len(order)
    flat = itertools.chain.from_iterable(itertools.product((0, 1), repeat=n))
    bits = np.fromiter(flat, dtype=np.int64, count=n * 2**n).reshape(2**n, n)[:, ::-1]  # row r is index r
    position = {name: k for k, name in enumerate(order)}
    energies = np.zeros(2**n, dtype=np.int64)
    for mono, coeff in model.arrays.terms().items():
        assert coeff == int(coeff)
        product = np.ones(2**n, dtype=np.int64)
        for name in mono:
            product = product * bits[:, position[name]]
        energies += int(coeff) * product
    best = heapq.nsmallest(k_best, zip(energies.tolist(), itertools.count()))
    return [index for _, index in best], [float(energy) for energy, _ in best]


def qaoa_cell_problem(name: str, request) -> Problem:
    """One row of the QAOA table: the README example, the bundled knapsack f3, or iris regression."""
    if name == "readme":
        return request.getfixturevalue("mixed_problem")
    if name == "f3":
        return load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))[1]
    return build_regression(bundled_data("iris30.csv"), None, -0.25, 0.25, 0.25)[1]


def sample_indices(model: QuboModel, solution) -> list[int]:
    order = model.binary_variables()
    return [sum(assignment[name] << k for k, name in enumerate(order)) for assignment, _ in solution.samples]


def reference_sa(model: QuboModel, params: SolverParams) -> tuple[list, list[int]]:
    """One replica at a time in plain Python, on the stream that defines ``solve_sa``.

    Run ``r`` draws from ``default_rng(seed + r)``: ``integers(0, 2, n)`` for
    its start, then ``random(n)`` before each sweep; spin ``i`` flips iff
    ``delta <= -log1p(-u_i) / beta``.  Returns the samples and the number of
    accepted flips per sweep over all runs.
    """
    arrays = model.arrays
    order, n = arrays.order, len(arrays.order)
    linear = arrays.linear.tolist()
    neighbors = [[] for _ in range(n)]
    for i, j, coeff in zip(arrays.rows.tolist(), arrays.cols.tolist(), arrays.values.tolist()):
        neighbors[i].append((j, coeff))
        neighbors[j].append((i, coeff))
    scale = max(map(abs, linear + arrays.values.tolist()), default=0.0) or 1.0
    if params.sweeps > 1:
        ratio = (solvers._BETA_END / solvers._BETA_START) ** (1.0 / (params.sweeps - 1))
        betas = [solvers._BETA_START * ratio**t / scale for t in range(params.sweeps)]
    else:
        betas = [solvers._BETA_END / scale]

    samples, accepted = [], [0] * len(betas)
    for run in range(params.runs):
        rng = np.random.default_rng(params.seed + run)
        state = rng.integers(0, 2, size=n).tolist()
        energy = model.energy(dict(zip(order, state)))
        best_state, best_energy = list(state), energy
        for t, beta in enumerate(betas):
            thresholds = (-np.log1p(-rng.random(n)) / beta).tolist()
            for i in range(n):
                delta = linear[i] + sum(coeff * state[j] for j, coeff in neighbors[i])
                delta *= 1 - 2 * state[i]
                if delta <= thresholds[i]:
                    state[i] = 1 - state[i]
                    energy += delta
                    accepted[t] += 1
                    if energy < best_energy:
                        best_energy, best_state = energy, list(state)
        assignment = dict(zip(order, best_state))
        samples.append((assignment, model.energy(assignment)))
    return samples, accepted


def assert_matches_reference_sa(model: QuboModel, params: SolverParams) -> list[int]:
    """``solve_sa`` gives the reference's samples and acceptance; returns the accepted flips per sweep."""
    solution = solve_sa(model, params)
    samples, accepted = reference_sa(model, params)
    assert solution.samples == samples
    visits = params.runs * len(model.binary_variables())
    deciles = np.array_split(np.array(accepted, dtype=float), min(10, params.sweeps))
    assert solution.diagnostics["sa"]["acceptance_by_decile"] == [part.sum() / (len(part) * visits) for part in deciles]
    return accepted


class TestExhaustive:
    def test_single_variable(self):
        solution = solve_exhaustive(bare_model({("b",): 1.0}))
        assert solution.best_binary == {"b": 0}
        assert solution.best_energy == 0.0

    def test_matches_python_enumeration(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 6)
        solution = solve_exhaustive(model, SolverParams(k_best=4))
        names, poly = model.binary_variables(), Polynomial(model.arrays.terms())
        brute = min(poly.evaluate(dict(zip(names, bits))) for bits in itertools.product([0, 1], repeat=len(names)))
        assert solution.best_energy == pytest.approx(brute, abs=1e-12)
        assert len(solution.samples) == 4
        assert solution.energies == sorted(solution.energies)

    def test_cap_is_enforced_and_named(self):
        terms = {(f"v{i}",): 1.0 for i in range(EXHAUSTIVE_DEFAULT_CAP + 1)}
        with pytest.raises(ValueError, match=f"at most {EXHAUSTIVE_DEFAULT_CAP} binaries, model has 27"):
            solve_exhaustive(bare_model(terms))

    def test_ties_across_the_block_boundary_keep_index_order(self):
        terms = {(f"v{k:02d}",): 1.0 for k in range(18)}
        terms[("v18",)] = -1.0  # the top bit: index 2**18 starts the second block
        model = bare_model(terms)
        solution = solve_exhaustive(model, SolverParams(k_best=5))
        order = model.binary_variables()
        indices = [sum(assignment[name] << k for k, name in enumerate(order)) for assignment, _ in solution.samples]
        assert indices == [2**18, 0, 2**18 + 1, 2**18 + 2, 2**18 + 4]  # sorted by (energy, index)

    def test_ties_across_the_high_low_boundary_keep_index_order(self):
        terms = {(f"v{k:02d}",): 1.0 for k in range(16)}
        terms[("v16",)] = -1.0  # the lowest high bit: index 2**16 starts the second block
        model = bare_model(terms)
        solution = solve_exhaustive(model, SolverParams(k_best=5))
        assert sample_indices(model, solution) == [2**16, 0, 2**16 + 1, 2**16 + 2, 2**16 + 4]
        assert solution.energies == [-1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "n, k_values",
        [
            (0, (1, 7)),
            (1, (1, 7, 2, 3)),
            (5, (1, 7, 32, 40)),
            (16, (1, 7, 2**16, 2**16 + 3)),
            (17, (1, 7, 1000, 2**16 + 5)),
            (19, (1, 7, 1000, 2**16 + 5)),
        ],
    )
    def test_matches_brute_force_order_on_integer_models(self, n, k_values):
        model = integer_model(np.random.default_rng(40 + n), n)  # small integer coefficients: many exact ties
        indices, energies = brute_force_top(model, max(k_values))  # the k best are a prefix of the k + 1 best
        for k_best in k_values:
            solution = solve_exhaustive(model, SolverParams(k_best=k_best))
            assert len(solution.samples) == min(k_best, 2**n)
            assert sample_indices(model, solution) == indices[:k_best]
            assert solution.energies == energies[:k_best]

    def test_cap_sized_model_finds_its_planted_optimum(self):
        n = EXHAUSTIVE_DEFAULT_CAP
        terms = {(f"v{k:02d}",): float((-1) ** k * (k + 1)) for k in range(n)}  # odd positions want 1
        terms[("v03", "v24")] = -100.0  # pays for switching on v24 (+25)
        model = bare_model(terms)
        solution = solve_exhaustive(model)
        expected = {f"v{k:02d}": int(k % 2 == 1 or k == 24) for k in range(n)}
        assert solution.best_binary == expected
        assert solution.best_energy == -sum(range(2, n + 1, 2)) + 25 - 100  # -257
        assert solution.energies == sorted(solution.energies)

    def test_dense_float_model_at_the_cap(self):
        """26 binaries, every coupler, normal coefficients: 1,024 blocks, and energies finished by ``fsum``."""
        n = EXHAUSTIVE_DEFAULT_CAP
        with time_limit(120.0):
            model = QuboModel(dense_form(n, np.random.default_rng(0).normal(size=n * (n + 1) // 2)))
            assert not model.arrays._exact_in_any_order
            solution = solve_exhaustive(model)
        assert len(solution.energies) == 1000 and solution.energies == sorted(solution.energies)
        assert len(np.unique(solution.bits, axis=0)) == 1000
        assert solution.best_energy == solution.energies[0]


    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 19), k_kind=st.sampled_from(["one", "middle", "all"]), seed=st.integers(0, 2**32 - 1))
    @example(n=16, k_kind="middle", seed=1)
    @example(n=17, k_kind="one", seed=2)
    @example(n=19, k_kind="middle", seed=3)
    @example(n=12, k_kind="all", seed=4)
    def test_matches_exact_brute_force_on_dyadic_models(self, n, k_kind, seed):
        """Every kept ``(energy, index)`` pair is the brute force's, and every energy is ``model.energy``'s.

        Coefficients are small integers or eighths, so every float sum is exact and the order
        is fixed; narrow ranges force ties, which the index breaks.  The brute force evaluates
        the polynomial on every assignment in integer arithmetic (in eighths).
        """
        model, k_best = dyadic_case(np.random.default_rng(seed), n, k_kind)
        order = model.binary_variables()
        assert len(order) == n
        position = {name: k for k, name in enumerate(order)}
        indices = np.arange(2**n, dtype=np.int64)
        eighths = np.zeros(2**n, dtype=np.int64)
        for mono, coeff in model.arrays.terms().items():
            product = np.ones(2**n, dtype=np.int64)
            for name in mono:
                product &= (indices >> position[name]) & 1
            eighths += int(coeff * 8) * product
        ranked = np.lexsort((indices, eighths))[:k_best]

        solution = solve_exhaustive(model, SolverParams(k_best=k_best))
        assert sample_indices(model, solution) == ranked.tolist()
        assert solution.energies == (eighths[ranked] / 8).tolist()
        assert solution.energies == [model.energy(assignment) for assignment, _ in solution.samples]
        assert solution.best_energy == solution.energies[0]


    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(0, 12),
        low_bits=st.integers(3, 5),
        integer=st.booleans(),
        data=st.data(),
    )
    def test_insertion_matches_a_full_lexsort_over_small_blocks(self, n, low_bits, integer, data):
        """With blocks of ``2**low_bits`` entries, many blocks are skipped and many insert: the top k is the
        first k of one ``lexsort((index, energy))`` over all ``2**n`` energies, and ``candidates`` counts what
        passes the rule (below the k-th energy seen so far once there are k, and at most the block's k best
        with ties).  The spectrum equals a bit-matrix brute force, so no block is kept by reference."""
        coefficients = st.integers(-3, 3).map(float) if integer else st.floats(-4, 4).map(lambda c: round(c, 3))
        names = [f"v{k:02d}" for k in range(n)]
        terms = {(name,): data.draw(coefficients.filter(bool)) for name in names}  # every binary stays in
        pairs = list(itertools.combinations(names, 2))
        for pair in data.draw(st.lists(st.sampled_from(pairs), max_size=20) if pairs else st.just([])):
            terms[pair] = data.draw(coefficients)
        model = bare_model(terms, offset=data.draw(coefficients))
        k_best = data.draw(st.integers(1, 2**n + 3))
        arrays = model.arrays
        bits = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)  # row r is index r
        brute = bits @ arrays.linear + (arrays.values * bits[:, arrays.rows] * bits[:, arrays.cols]).sum(axis=1) + arrays.offset

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_LOW_BITS", low_bits)
            spectrum = solvers._spectrum(arrays)
            solution = solve_exhaustive(model, SolverParams(k_best=k_best))
        if integer:
            assert spectrum.tolist() == brute.tolist()
        else:
            assert np.allclose(spectrum, brute, rtol=0, atol=1e-9)
        ranked = np.lexsort((np.arange(2**n), spectrum))[:k_best]
        assert sample_indices(model, solution) == ranked.tolist()

        block, candidates = 2 ** min(n, low_bits), 0
        for start in range(0, 2**n, block):
            entering, seen = spectrum[start : start + block], np.sort(spectrum[:start])
            if len(seen) >= k_best:
                entering = entering[entering < seen[k_best - 1]]
            if len(entering) > k_best:
                entering = entering[entering <= np.sort(entering)[k_best - 1]]
            candidates += len(entering)
        assert solution.diagnostics["exhaustive"]["candidates"] == candidates


def dyadic_case(rng: np.random.Generator, n: int, k_kind: str) -> tuple[QuboModel, int]:
    """A model with integer or eighth coefficients over ``n`` binaries, and a ``k_best`` of the given kind.

    Half the models draw from {-3..3} and half from eighths in [-5, 5], so ties are common in both.
    """
    if rng.random() < 0.5:
        values = np.arange(-3.0, 4.0)
    else:
        values = np.arange(-40, 41) / 8
    nonzero = values[values != 0]
    terms = {(f"v{k:02d}",): float(rng.choice(nonzero)) for k in range(n)}  # every binary stays in the model
    for _ in range(int(rng.integers(0, 2 * n + 1)) if n >= 2 else 0):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        terms[(f"v{i:02d}", f"v{j:02d}")] = float(rng.choice(values))
    model = bare_model(terms, offset=float(rng.choice(values)))
    if k_kind == "one":
        return model, 1
    if k_kind == "middle":
        return model, int(rng.integers(2, max(3, min(2**n, 1500))))
    return model, 2 ** min(n, 12) + int(rng.integers(0, 4))  # at least 2**n for n <= 12


class TestSimulatedAnnealing:
    def test_reference_problem_hit_rate(self, mixed_problem):
        model = compile_problem(mixed_problem)
        solution = solve_sa(model, SolverParams(runs=100, seed=7))
        hits = sum(1 for energy in solution.energies if energy == pytest.approx(-2.0, abs=1e-9))
        assert hits >= 90
        assert solution.best_energy == -2.0

    def test_samples_are_pinned_at_a_fixed_seed(self, mixed_problem):
        # Any change to these values is a change of the RNG stream or the flip order.
        model = compile_problem(mixed_problem)
        order = model.binary_variables()
        solution = solve_sa(model, SolverParams(runs=4, sweeps=30, seed=5))
        samples = [("".join(str(assignment[name]) for name in order), energy) for assignment, energy in solution.samples]
        assert samples == [
            ("1011000110101", -1.25),
            ("1111100111001", -1.0),
            ("1111000110100", -0.9375),
            ("0111000111001", -1.25),
        ]

    @pytest.mark.parametrize("instance", ["readme", "f3", "integer", "empty"])
    @pytest.mark.parametrize("runs, sweeps, seed", [(1, 1, 0), (1, 40, 3), (3, 7, 11), (5, 25, 2)])
    def test_matches_the_one_replica_reference(self, mixed_problem, instance, runs, sweeps, seed):
        if instance == "readme":
            model = compile_problem(mixed_problem)
        elif instance == "f3":
            model = compile_problem(load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))[1])
        elif instance == "integer":
            model = integer_model(np.random.default_rng(40 + seed), 9)
        else:
            model = bare_model({}, offset=-1.5)
        params = SolverParams(runs=runs, sweeps=sweeps, seed=seed)
        solution = solve_sa(model, params)
        samples, accepted = reference_sa(model, params)
        assert solution.samples == samples
        n = len(model.binary_variables())
        deciles = np.array_split(np.array(accepted, dtype=float), min(10, sweeps))
        expected = [part.sum() / (len(part) * runs * n) if n else 0.0 for part in deciles]
        assert solution.diagnostics["sa"]["acceptance_by_decile"] == expected

    @pytest.mark.parametrize(
        "kind, n, runs, sweeps, seed",
        [
            ("integer", solvers._SA_BLOCK, 3, 25, 2),
            ("integer", solvers._SA_BLOCK + 1, 4, 15, 5),
            ("integer", 2 * solvers._SA_BLOCK + 5, 3, 20, 11),  # two full blocks and a short one
            ("float", solvers._SA_BLOCK + 12, 3, 30, 4),
        ],
    )
    def test_block_boundaries_match_the_one_replica_reference(self, kind, n, runs, sweeps, seed):
        make = integer_model if kind == "integer" else random_model
        model = make(np.random.default_rng(60 + n), n)
        assert_matches_reference_sa(model, SolverParams(runs=runs, sweeps=sweeps, seed=seed))

    def test_sweeps_that_accept_nothing_match_the_one_replica_reference(self, monkeypatch):
        monkeypatch.setattr(solvers, "_BETA_START", 20.0)
        monkeypatch.setattr(solvers, "_BETA_END", 40.0)
        model = integer_model(np.random.default_rng(77), 37)
        accepted = assert_matches_reference_sa(model, SolverParams(runs=3, sweeps=12, seed=9))
        assert accepted[0] > 0 and accepted[-1] == 0  # the chain freezes in a local minimum

    def test_sparse_blocks_that_settle_in_one_round_match_the_one_replica_reference(self, monkeypatch):
        # A chain plus a few long edges: blocks 0 and 2 couple to under half of the spins, whose fields their
        # flips reach through the slab's index rows, and block 1 to more, which takes the slice over every spin.
        # The first sweep is hot enough to accept every flip, so every block settles in round 1.
        monkeypatch.setattr(solvers, "_BETA_START", 1e-4)
        monkeypatch.setattr(solvers, "_BETA_END", 1.0)
        n, runs = 2 * solvers._SA_BLOCK + 5, 3
        rng = np.random.default_rng(5)
        names = [f"v{i:03d}" for i in range(n)]
        terms = {(name,): float(rng.integers(-5, 6)) for name in names}
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, 100), (3, 64), (10, 40), (70, n - 3)]
        terms.update({(names[i], names[j]): float(rng.choice([-3, -1, 2, 4])) for i, j in edges})
        model = bare_model(terms)
        assert [isinstance(neighbours, slice) for _, neighbours, _, _ in solvers._sa_blocks(model.arrays)] == [False, True, False]
        accepted = assert_matches_reference_sa(model, SolverParams(runs=runs, sweeps=30, seed=4))
        assert accepted[0] == runs * n and accepted[-1] < runs * n

    @pytest.mark.parametrize("extra_sweeps", [0, 1])
    def test_cascading_decisions_match_the_one_replica_reference(self, monkeypatch, extra_sweeps):
        # Antiferromagnetic chain: each flip changes its neighbour's decision, so a block takes many rounds.
        monkeypatch.setattr(solvers, "_BETA_START", 1.0)
        monkeypatch.setattr(solvers, "_BETA_END", 3.0)
        n, runs = 130, 3
        terms = {(f"v{i:03d}",): -1.0 for i in range(n)}
        terms.update({(f"v{i:03d}", f"v{i + 1:03d}"): 2.0 for i in range(n - 1)})
        model = bare_model(terms)
        sweeps = 2 * solvers._sa_chunk_sweeps(n, runs) + extra_sweeps  # two full chunks, then one more sweep
        assert sweeps < 100
        params = SolverParams(runs=runs, sweeps=sweeps, seed=3)
        assert_matches_reference_sa(model, params)
        assert solve_sa(model, params).diagnostics["sa"]["rounds_per_block"] > 3

    @pytest.mark.parametrize("chunk_sweeps", [1, 3])
    def test_chunk_boundaries_match_the_one_replica_reference(self, mixed_problem, monkeypatch, chunk_sweeps):
        model = compile_problem(mixed_problem)
        n, runs = len(model.binary_variables()), 4
        monkeypatch.setattr(solvers, "_SA_CHUNK_BYTES", 41 * n * runs * chunk_sweeps)
        assert solvers._sa_chunk_sweeps(n, runs) == chunk_sweeps
        assert_matches_reference_sa(model, SolverParams(runs=runs, sweeps=40, seed=3))

    def test_each_run_of_a_batch_is_its_own_single_run(self, mixed_problem):
        model = compile_problem(mixed_problem)
        batch = solve_sa(model, SolverParams(runs=4, sweeps=30, seed=5))
        alone = [solve_sa(model, SolverParams(runs=1, sweeps=30, seed=5 + r)).samples[0] for r in range(4)]
        assert batch.samples == alone

    def test_diagnostics_are_plain_data(self, mixed_problem):
        model = compile_problem(mixed_problem)
        solution = solve_sa(model, SolverParams(runs=3, sweeps=50, seed=1, record_time=True))
        sa = solution.diagnostics["sa"]
        assert len(sa["acceptance_by_decile"]) == 10
        assert all(0.0 <= rate <= 1.0 for rate in sa["acceptance_by_decile"])
        assert sa["acceptance_by_decile"][-1] < sa["acceptance_by_decile"][0]  # the chain cools
        assert sa["flips_per_s"] > 0
        assert type(sa["rounds_per_block"]) is float
        assert 1.0 <= sa["rounds_per_block"] <= solvers._SA_BLOCK + 1
        assert len(set(solution.run_times)) == 1  # equal shares of the batch's wall time
        exhaustive = solve_exhaustive(model).diagnostics["exhaustive"]
        assert json.loads(json.dumps(exhaustive)) == exhaustive
        assert type(exhaustive["assignments_per_s"]) is float and exhaustive["assignments_per_s"] > 0
        assert type(exhaustive["candidates"]) is int and exhaustive["candidates"] > 0

    def test_dense_thousand_binary_model_in_bounded_memory(self):
        """Every block couples to every row, so the slabs take ``8·n²`` bytes in all, and the chunk buffers about
        512 KB.  Buffers for the whole 100-sweep schedule would add 41 MB, and a Python list of every coefficient
        about 15 MB."""
        import tracemalloc

        n = 1000
        with time_limit(120.0):
            model = QuboModel(dense_form(n, np.random.default_rng(0).integers(-5, 6, size=n * (n + 1) // 2).astype(float)))
            tracemalloc.start()
            try:
                solution = solve_sa(model, SolverParams(runs=10, sweeps=100, seed=1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 4 * 8 * n * n, peak
        assert 1.0 <= solution.diagnostics["sa"]["rounds_per_block"] <= solvers._SA_BLOCK + 1
        assert solution.bits.shape == (10, n) and solution.best_energy < 0

    def test_sparse_four_thousand_binary_model_in_memory_linear_in_its_couplers(self):
        """About 12,000 couplers: each block holds only the rows coupled to it, and the solve peaks near 18 MB.
        Dense couplings would take ``8·n²`` bytes (128 MB), and twice that while built."""
        import tracemalloc

        model = compile_problem(sparse_max_cut(4_000))
        n = len(model.binary_variables())
        tracemalloc.start()
        try:
            solution = solve_sa(model, SolverParams(runs=4, sweeps=50, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, peak
        assert solution.bits.shape == (4, n) and solution.best_energy < 0

    def test_zero_variable_model(self):
        solution = solve_sa(bare_model({}, offset=3.5), SolverParams(runs=3, seed=0))
        assert solution.best_energy == 3.5
        assert all(energy == 3.5 for energy in solution.energies)

    def test_bundled_knapsack_best(self):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        model = compile_problem(problem)
        solution = solve_sa(model, SolverParams(runs=100, seed=1))
        assert solution.best_energy == -35.0

    def test_monotone_in_effort(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 8)
        medians = []
        for sweeps in (60, 120):
            bests = [
                solve_sa(model, SolverParams(runs=1, seed=seed, sweeps=sweeps)).best_energy
                for seed in range(30)
            ]
            medians.append(float(np.median(bests)))
        assert medians[1] <= medians[0] + 1e-9


class TestQaoa:
    def test_run_times_share_the_whole_solve(self, mixed_problem):
        """Each run's time is an equal share of the solve's wall time, the angle search included."""
        solution = solve_qaoa_sim(compile_problem(mixed_problem), SolverParams(runs=3, shots=20, layers=1, record_time=True))
        qaoa, run_times = solution.diagnostics["qaoa"], solution.run_times
        assert len(run_times) == 3 and len(set(run_times)) == 1
        assert sum(run_times) >= qaoa["evaluations"] / qaoa["evaluations_per_s"]

    def test_single_variable_optimum_dominates(self):
        model = bare_model({("b",): 1.0})
        solution = solve_qaoa_sim(model, SolverParams(runs=1, shots=50, layers=1, seed=1))
        assert solution.best_binary == {"b": 0}
        assert solution.best_energy == 0.0

    def test_two_variable_coupled(self):
        model = bare_model({("b1",): 1.0, ("b2",): 1.0, ("b1", "b2"): -3.0})
        oracle = solve_exhaustive(model)
        assert oracle.best_energy == -1.0  # (1, 1) from the 4-row table
        solution = solve_qaoa_sim(model, SolverParams(runs=1, shots=100, layers=2, seed=2))
        assert solution.best_binary == {"b1": 1, "b2": 1}
        assert solution.best_energy == -1.0
        uniform = float(np.mean(solve_exhaustive(model, SolverParams(k_best=4)).energies))
        assert solution.diagnostics["qaoa"]["expected_energy"] < uniform

    def test_size_cap(self):
        terms = {(f"v{i}",): 1.0 for i in range(17)}
        with pytest.raises(ValueError, match="at most 16"):
            solve_qaoa_sim(bare_model(terms))

    def test_angle_search_at_the_size_cap(self):
        n = solvers.QAOA_MAX_BINARIES
        with time_limit(60.0):
            model = QuboModel(dense_form(n, np.random.default_rng(0).integers(-5, 6, size=n * (n + 1) // 2).astype(float)))
            _, energies, _, qaoa = solvers._qaoa_distribution(model, SolverParams(layers=2))
        assert qaoa["converged"], qaoa
        assert qaoa["expected_energy"] < energies.mean()

    def test_reference_problem_statistics(self, mixed_problem):
        # 13 binaries: the optimized state concentrates far below the uniform
        # mean, and samples can never undercut the oracle.
        model = compile_problem(mixed_problem)
        oracle = solve_exhaustive(model)
        params = SolverParams(runs=1, shots=100, layers=2, seed=5)
        solution = solve_qaoa_sim(model, params)
        assert solution.best_energy >= oracle.best_energy - 1e-9
        uniform = float(np.mean(solve_exhaustive(model, SolverParams(k_best=2**13)).energies))
        assert solution.diagnostics["qaoa"]["expected_energy"] < uniform
        assert solution.best_energy < uniform

    def test_import_leaves_scipy_unloaded(self):
        src = str(Path(qubo_forge.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = "import sys, qubo_forge, qubo_forge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_optimizer_is_looked_up_on_the_module_at_call_time(self, monkeypatch):
        calls = []
        original = solvers.lbfgs
        assert original is lbfgs.lbfgs  # qubo-forge's own optimizer, not scipy's

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solvers, "lbfgs", counting)
        solve_qaoa_sim(bare_model({("b",): 1.0}), SolverParams(runs=1, shots=10, layers=1))
        assert len(calls) == 3  # one L-BFGS search per ramp start

    @pytest.mark.parametrize("name", ["readme", "f3"])
    def test_spectrum_is_exact_on_dyadic_models(self, name, request, monkeypatch):
        model = compile_problem(qaoa_cell_problem(name, request))
        monkeypatch.setattr(solvers, "lbfgs", lambda f, x0, _: SimpleNamespace(x=x0, fun=f(x0)[0], success=True))
        _, energies, _, _ = solvers._qaoa_distribution(model, SolverParams(layers=1))
        n = len(model.binary_variables())
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1  # row r is index r
        assert energies.tolist() == [model.arrays.energy(row) for row in bits]  # dyadic terms: float sums are exact


    def test_mixer_and_its_generator_match_dense_matrices_on_stacked_states(self):
        n, beta = 3, 0.7
        rng = np.random.default_rng(4)
        states = rng.normal(size=(2, 2**n)) + 1j * rng.normal(size=(2, 2**n))
        x, eye = np.array([[0, 1], [1, 0]]), np.eye(2)
        rotation = np.cos(beta) * eye - 1j * np.sin(beta) * x
        mixer = np.kron(np.kron(rotation, rotation), rotation)
        x_sum = np.kron(np.kron(x, eye), eye) + np.kron(np.kron(eye, x), eye) + np.kron(np.kron(eye, eye), x)
        assert np.allclose(solvers._apply_mixer(states.copy(), n, beta), states @ mixer.T, rtol=0, atol=1e-12)
        assert np.allclose(solvers._apply_x_sum(states[0], n), x_sum @ states[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(8))
    def test_grouped_mixer_and_generator_match_kronecker_products(self, n):
        # n = 0 and 1 have no or one qubit; n = 6 splits into groups of 3 and 3, n = 7 into 4 and 3
        beta = 0.3 + 0.2 * n
        rng = np.random.default_rng(n)
        states = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
        given = states.copy()
        x, eye, one = np.array([[0, 1], [1, 0]]), np.eye(2), np.eye(1)
        rotation = np.cos(beta) * eye - 1j * np.sin(beta) * x
        mixer = functools.reduce(np.kron, [rotation] * n, one)
        x_sum = sum(
            (functools.reduce(np.kron, [x if j == k else eye for j in range(n)], one) for k in range(n)),
            np.zeros((2**n, 2**n)),
        )
        assert np.allclose(solvers._apply_mixer(states, n, beta), states @ mixer.T, rtol=0, atol=1e-12)
        assert np.allclose(solvers._apply_x_sum(states, n), states @ x_sum.T, rtol=0, atol=1e-12)
        assert np.array_equal(states, given)  # both return new arrays

    @pytest.mark.parametrize("n", [9, 13, 16])
    def test_grouped_mixer_and_generator_match_the_per_qubit_definition(self, n):
        beta = -0.83
        rng = np.random.default_rng(n)
        states = rng.normal(size=(2, 2**n)) + 1j * rng.normal(size=(2, 2**n))
        mixed, x_sum = states, np.zeros_like(states)
        for k in range(n):  # X_k swaps the middle axis
            flipped = states.reshape(-1, 2, 2**k)[:, ::-1, :]
            x_sum += flipped.reshape(states.shape)
            shaped = mixed.reshape(-1, 2, 2**k)
            mixed = (math.cos(beta) * shaped - 1j * math.sin(beta) * shaped[:, ::-1, :]).reshape(states.shape)
        atol = 1e-12 * np.linalg.norm(states, axis=1).max()
        assert np.allclose(solvers._apply_mixer(states, n, beta), mixed, rtol=0, atol=atol)
        assert np.allclose(solvers._apply_x_sum(states, n), x_sum, rtol=0, atol=atol)

    @pytest.mark.parametrize("name", ["readme", "f3"])
    def test_phase_factors_per_level_are_the_factors_per_amplitude(self, name, request):
        arrays = compile_problem(qaoa_cell_problem(name, request)).arrays
        energies = solvers._spectrum(arrays)
        centered = energies - energies.mean()
        phase = centered / np.max(np.abs(centered))
        circuit = solvers._QaoaCircuit(energies, phase, len(arrays.order))
        assert len(circuit.levels) < len(phase)
        for gamma in (0.37, -1.13, 2.4):
            assert np.array_equal(circuit.phase_factors(gamma), np.exp(-1j * gamma * phase))

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("name", ["readme", "f3", "iris"])
    def test_adjoint_gradient_matches_central_differences(self, name, layers, request):
        arrays = compile_problem(qaoa_cell_problem(name, request)).arrays
        n = len(arrays.order)
        energies = solvers._spectrum(arrays)
        centered = energies - energies.mean()
        phase = centered / np.max(np.abs(centered))
        angles = np.array([0.37, 0.81, 1.13, 0.29, 1.72, 0.55])[: 2 * layers]
        circuit = solvers._QaoaCircuit(energies, phase, n)
        _, gradient = solvers._qaoa_objective(circuit, angles)
        h = 1e-6
        central = [
            (solvers._qaoa_objective(circuit, angles + step)[0]
             - solvers._qaoa_objective(circuit, angles - step)[0]) / (2 * h)
            for step in np.eye(2 * layers) * h
        ]
        assert np.abs(gradient - central).max() <= 1e-6 * (1 + np.abs(energies).max())

    def test_diagnostics_are_plain_data(self, mixed_problem, monkeypatch):
        nfev = []
        original = solvers.lbfgs

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            nfev.append(result.nfev)
            return result

        monkeypatch.setattr(solvers, "lbfgs", recording)
        model = compile_problem(mixed_problem)
        params = SolverParams(runs=2, shots=40, layers=2, seed=1)
        qaoa = solve_qaoa_sim(model, params).diagnostics["qaoa"]
        assert json.loads(json.dumps(qaoa)) == qaoa
        assert type(qaoa["evaluations"]) is int and qaoa["evaluations"] == sum(nfev)
        assert type(qaoa["evaluations_per_s"]) is float and qaoa["evaluations_per_s"] > 0
        assert type(qaoa["converged"]) is bool and qaoa["converged"]
        assert type(qaoa["expected_energy"]) is float
        _, energies, probabilities, _ = solvers._qaoa_distribution(model, params)
        assert qaoa["expected_energy"] == pytest.approx(float(probabilities @ energies), rel=1e-12, abs=0)
        assert type(qaoa["ground_state_probability"]) is float
        assert 0 < qaoa["ground_state_probability"] <= 1

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("name", ["readme", "f3", "iris"])
    def test_angle_search_follows_scipy_lbfgs_b(self, name, layers, request, monkeypatch):
        # lbfgs takes L-BFGS-B's path on an unbounded problem; its two-loop direction
        # differs from L-BFGS-B's compact form only by rounding.  That rounding grows
        # along f3's first start at p = 3 (2e-16 at its third point, 1e-6 by its 35th),
        # which stops by relative decrease in a flat valley: there the stop rule fixes
        # ⟨C⟩ to about _FACTR and the angles, so the probability, only to about √_FACTR.
        optimize = pytest.importorskip("scipy.optimize")
        model = compile_problem(qaoa_cell_problem(name, request))
        params = SolverParams(layers=layers)
        ours = solvers._qaoa_distribution(model, params)[3]

        def lbfgs_b(fun, x0, max_iters):
            return optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", options={"maxiter": max_iters})

        monkeypatch.setattr(solvers, "lbfgs", lbfgs_b)
        theirs = solvers._qaoa_distribution(model, params)[3]
        assert (ours["evaluations"], ours["converged"]) == (theirs["evaluations"], theirs["converged"])
        assert ours["expected_energy"] == pytest.approx(theirs["expected_energy"], rel=1e-9, abs=0)
        probability = ours["ground_state_probability"]
        assert probability == pytest.approx(theirs["ground_state_probability"], rel=math.sqrt(lbfgs._FACTR), abs=0)

    def test_a_search_that_does_not_converge_warns(self, monkeypatch):
        search = solvers.lbfgs
        monkeypatch.setattr(solvers, "lbfgs", lambda *args: dataclasses.replace(search(*args), success=False))
        with pytest.warns(UserWarning, match="QAOA angle search did not converge; using best-seen angles"):
            solution = solve_qaoa_sim(bare_model({("b",): 1.0}), SolverParams(runs=1, shots=10, layers=1))
        assert solution.diagnostics["qaoa"]["converged"] is False

    def test_readme_search_path_at_the_default_depth(self, mixed_problem):
        # the bench's QAOA cell: a kernel that moves the L-BFGS path changes these, not only the time
        qaoa = solvers._qaoa_distribution(compile_problem(mixed_problem), SolverParams())[3]
        assert qaoa["evaluations"] == 103 and qaoa["converged"]
        assert qaoa["expected_energy"] == pytest.approx(28.0582361904, rel=1e-9, abs=0)

    def test_compare_runs_qaoa_without_scipy(self, mixed_problem, tmp_path):
        mixed_problem.save(tmp_path / "readme.json")
        src = str(Path(qubo_forge.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from qubo_forge import cli\n"
            "code = cli.main(['compare', 'readme.json', '--solvers', 'exhaustive,sa,qaoa', '--out-dir', 'out'])\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m] is not None]\n"
            "sys.exit(code)"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        rows = {row["solver"]: row for row in json.loads((tmp_path / "out" / "readme.compare.json").read_text())}
        assert rows["qaoa"]["best_energy"] >= rows["exhaustive"]["best_energy"]

    def test_readme_expectation_beats_the_nelder_mead_search(self, mixed_problem):
        # 32.19 is what Nelder-Mead from the same three ramp starts reached at p = 2
        expected = solvers._qaoa_distribution(compile_problem(mixed_problem), SolverParams(layers=2))[3]["expected_energy"]
        assert expected < 32.19


class TestCrossSolverProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_oracle_dominance(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_model(rng, 7)
        floor = solve_exhaustive(model).best_energy
        sa = solve_sa(model, SolverParams(runs=5, seed=seed, sweeps=200))
        qaoa = solve_qaoa_sim(model, SolverParams(runs=1, shots=60, layers=1, seed=seed))
        assert sa.best_energy >= floor - 1e-9
        assert qaoa.best_energy >= floor - 1e-9

    def test_energy_consistency(self, mixed_problem):
        model = compile_problem(mixed_problem)
        for solver, params in [
            ("exhaustive", SolverParams(k_best=50)),
            ("sa", SolverParams(runs=10, seed=3)),
            ("qaoa", SolverParams(runs=2, shots=30, seed=3)),
        ]:
            solution = solve(model, solver, params)
            for assignment, energy in solution.samples:
                assert energy == pytest.approx(model.energy(assignment), abs=1e-9)
            assert solution.best_energy == min(solution.energies)
            assert len(solution.decoded) == len(solution.samples)

    @pytest.mark.parametrize("solver", ["exhaustive", "sa", "qaoa"])
    @pytest.mark.parametrize("name", ["readme", "f3"])
    def test_samples_are_plain_bits_and_persist(self, solver, name, request, tmp_path):
        if name == "readme":
            problem = request.getfixturevalue("mixed_problem")
        else:
            _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        model = compile_problem(problem)
        solution = solve(model, solver, SolverParams(runs=4, seed=5, sweeps=100, shots=40, k_best=20))
        order = model.binary_variables()
        for assignment, _ in solution.samples:
            assert list(assignment) == order
            assert all(type(value) is int and value in (0, 1) for value in assignment.values())
        path = tmp_path / "solution.json"
        save_report(path, solution)  # json rejects numpy scalars
        loaded, _, _ = load_report(path)
        assert loaded.samples == [(a, pytest.approx(e, rel=1e-11)) for a, e in solution.samples]
        assert loaded.decoded == [pytest.approx(d, rel=1e-11) for d in solution.decoded]
        assert loaded.best_binary == solution.best_binary
        assert loaded.best_decoded == pytest.approx(solution.best_decoded, rel=1e-11)
        assert loaded.best_energy == pytest.approx(solution.best_energy, rel=1e-11)

    @pytest.mark.parametrize("solver", ["exhaustive", "sa", "qaoa"])
    @pytest.mark.parametrize("name", ["readme", "f3"])
    def test_arrays_are_the_rows_of_the_views_and_round_trip(self, solver, name, request, tmp_path):
        if name == "readme":
            problem = request.getfixturevalue("mixed_problem")
        else:
            _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        model = compile_problem(problem)
        solution = solve(model, solver, SolverParams(runs=4, seed=5, sweeps=100, shots=40, k_best=20))
        assert solution.order == model.arrays.order and solution.bits.dtype == np.uint8
        assert [dict(zip(solution.order, row)) for row in solution.bits.tolist()] == [a for a, _ in solution.samples]
        assert [energy for _, energy in solution.samples] == solution.energies
        assert [dict(zip(solution.names, row)) for row in solution.values.tolist()] == solution.decoded
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_report(first, solution)
        loaded, _, _ = load_report(first)
        save_report(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(loaded.bits, solution.bits) and loaded.order == solution.order
        assert loaded.energies == pytest.approx(solution.energies, rel=1e-11)  # files keep 12 digits
        columns = [solution.names.index(column) for column in loaded.names]  # a file sorts the names
        assert loaded.values == pytest.approx(solution.values[:, columns], rel=1e-11)

    def test_seed_determinism(self, mixed_problem):
        model = compile_problem(mixed_problem)
        for solver in ("sa", "qaoa"):
            params = SolverParams(runs=4, seed=11, shots=40, sweeps=150)
            first = solve(model, solver, params)
            second = solve(model, solver, params)
            assert first.samples == second.samples
            assert first.best_energy == second.best_energy

    @pytest.mark.parametrize("field", ["k_best", "runs", "sweeps", "shots"])
    def test_counts_below_one_are_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            SolverParams(**{field: 0})

    def test_zero_layers_are_rejected(self):
        with pytest.raises(ValueError, match="QAOA needs at least one layer"):
            SolverParams(layers=0)

    def test_unknown_solver_name(self, mixed_problem):
        model = compile_problem(mixed_problem)
        with pytest.raises(ValueError, match="unknown solver"):
            solve(model, "tabu")

    def test_record_time_populates_run_times(self, mixed_problem):
        model = compile_problem(mixed_problem)
        solution = solve_sa(model, SolverParams(runs=3, seed=0, sweeps=50, record_time=True))
        assert solution.run_times is not None and len(solution.run_times) == 3
        assert solution.mean_run_time() >= 0.0

    def test_a_bit_matrix_with_no_rows_is_refused_by_name(self, mixed_problem):
        model = compile_problem(mixed_problem)
        with pytest.raises(ValueError, match="the bit matrix has no rows"):
            solvers.SolutionSet.from_bits(model, np.zeros((0, len(model.binary_variables()))))


class TestLambdaUpdate:
    @pytest.mark.parametrize("lambda_max", [float("inf"), float("nan"), 0.0, -5.0])
    def test_lambda_max_must_be_finite_and_positive(self, lambda_max):
        with pytest.raises(ValueError, match="lambda_max must be finite and positive"):
            UpdateStrategy("scaled", lambda_max=lambda_max)

    @pytest.mark.parametrize(
        "strategy, message",
        [({"kind": "doubling"}, "unknown update strategy 'doubling'"), ({"max_trials": 0}, "max_trials must be >= 1")],
    )
    def test_unknown_kind_and_zero_trials_are_rejected(self, strategy, message):
        with pytest.raises(ValueError, match=message):
            UpdateStrategy(**strategy)

    @pytest.mark.parametrize("kind", ["sequential", "scaled", "binary-search"])
    def test_strictly_increasing_until_cap(self, kind):
        strategy = UpdateStrategy(kind, lambda_max=1e4, max_trials=6)
        lam = 1.0
        for _ in range(20):
            if lam >= strategy.lambda_max:
                break
            new = next_lambda(lam, strategy)
            assert new > lam
            assert new <= strategy.lambda_max
            lam = new
        assert lam == strategy.lambda_max

    def test_underweighted_knapsack_recovers(self):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        config = CompileConfig(lambda_method="manual", manual_lambdas=0.01)
        outcome = solve_with_lambda_update(
            problem,
            config,
            "sa",
            SolverParams(runs=30, seed=2),
            UpdateStrategy("sequential", lambda_max=1e6, max_trials=5),
        )
        assert outcome.valid
        assert outcome.trials <= 5
        assert outcome.solution.best_energy == -35.0
        assert all(lam > 0.01 for lam in outcome.model.lambdas())

    def test_retries_reweight_the_one_compiled_model(self, monkeypatch):
        compiles = []
        compile_once = solvers.compile_problem
        monkeypatch.setattr(solvers, "compile_problem", lambda *args: compiles.append(args) or compile_once(*args))
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        config = CompileConfig(lambda_method="manual", manual_lambdas=0.01)
        outcome = solve_with_lambda_update(problem, config, "sa", SolverParams(), UpdateStrategy("sequential"))
        assert (outcome.trials, len(compiles), outcome.valid) == (4, 1, True)
        assert outcome.model.lambdas() == [10.0]  # 0.01 grown three times, ×10 each

    def test_stops_when_no_violated_weight_can_grow(self):
        _, problem = load_knapsack(bundled_data("f3_l-d_kp_4_20.txt"))
        config = CompileConfig(lambda_method="manual", manual_lambdas=0.01)
        strategy = UpdateStrategy("sequential", lambda_max=1.0, max_trials=5)
        outcome = solve_with_lambda_update(problem, config, "sa", SolverParams(), strategy)
        # 0.01 -> 0.1 -> 1.0; a fourth trial would solve the same λ = 1 model again
        assert (outcome.trials, outcome.valid, outcome.model.lambdas()) == (3, False, [1.0])

    def test_valid_first_trial_stops_immediately(self, mixed_problem):
        outcome = solve_with_lambda_update(
            mixed_problem,
            CompileConfig(),
            "exhaustive",
            SolverParams(),
            UpdateStrategy("sequential", max_trials=3),
        )
        assert outcome.valid and outcome.trials == 1

    def test_exhausted_trials_reported_not_raised(self):
        problem = Problem()
        problem.add_binary_variable("x")
        problem.add_objective("x")
        problem.add_constraint("x >= 2")  # impossible: x is 0/1
        problem.freeze()
        with pytest.warns(UserWarning, match="unsatisfiable"):
            outcome = solve_with_lambda_update(
                problem,
                CompileConfig(),
                "exhaustive",
                SolverParams(),
                UpdateStrategy("sequential", max_trials=2),
            )
        assert not outcome.valid
        assert outcome.trials == 2
