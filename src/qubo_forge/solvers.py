"""Optimize a compiled QUBO: exhaustive oracle, simulated annealing, QAOA.

All solvers share the same contract: they take a ``QuboModel`` and
``SolverParams`` and return a ``SolutionSet`` holding one sample per run
(the exhaustive oracle instead reports the k best assignments of the full
landscape).  Every solver reads the model's array form (``model.arrays``)
and hands its answers, a ``k × n`` 0/1 matrix with columns in
``arrays.order``, to one finisher that builds the assignments, evaluates
their energies exactly, decodes them and picks the best.
Results are deterministic for a fixed seed; stochastic solvers derive
per-run generators from ``seed + run_index``.

The penalty-weight retry loop lives here too: compile, solve, check the
hard constraints on the best solution, and grow the violated constraints'
weights (sequential / scaled / binary-search) until the solution is valid
or the trial budget runs out.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from qubo_forge.compiler import CompileConfig, QuboArrays, QuboModel, compile_problem
from qubo_forge.problem import Problem

EXHAUSTIVE_DEFAULT_CAP = 26
QAOA_MAX_BINARIES = 16

UPDATE_KINDS = ("sequential", "scaled", "binary-search")

_LOW_BITS = 16  # exhaustive enumeration runs through 2**16 low-bit assignments per block


def __getattr__(name: str):
    """Import ``scipy.optimize.minimize`` on first use: only QAOA needs it, and it is slow to import."""
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class SolverParams:
    """Shared solver settings; SA and QAOA read their own subset."""

    runs: int = 10
    seed: int = 0
    record_time: bool = False
    # simulated annealing
    sweeps: int = 1000
    beta_start: float = 0.1
    beta_end: float = 10.0
    beta_autoscale: bool = True
    # qaoa statevector simulation
    layers: int = 2
    shots: int = 200
    max_optimizer_iters: int = 400
    initial_angles: Sequence[float] | None = None
    # exhaustive
    exhaustive_cap: int = EXHAUSTIVE_DEFAULT_CAP
    k_best: int = 1000

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not (math.isfinite(self.beta_start) and math.isfinite(self.beta_end)):
            raise ValueError("beta_start and beta_end must be finite")
        if self.beta_start <= 0:
            raise ValueError("beta_start must be positive")
        if not self.beta_start < self.beta_end:
            raise ValueError("beta_start must be below beta_end")
        if self.layers < 1:
            raise ValueError("QAOA needs at least one layer")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.max_optimizer_iters < 1:
            raise ValueError("max_optimizer_iters must be >= 1")
        if self.k_best < 1:
            raise ValueError("k_best must be >= 1")


@dataclass
class SolutionSet:
    """Samples with energies, their decodings, and the best of each."""

    samples: list[tuple[dict[str, int], float]]
    decoded: list[dict[str, float]]
    best_binary: dict[str, int]
    best_decoded: dict[str, float]
    best_energy: float
    run_times: list[float] | None = None
    diagnostics: dict | None = None  # solver-specific plain data; only SA fills it

    @property
    def energies(self) -> list[float]:
        return [energy for _, energy in self.samples]

    def mean_run_time(self) -> float | None:
        if not self.run_times:
            return None
        return sum(self.run_times) / len(self.run_times)


@dataclass
class UpdateStrategy:
    """How to grow penalty weights between retry trials."""

    kind: str = "sequential"
    lambda_max: float = 1e9
    max_trials: int = 5

    def __post_init__(self):
        if self.kind not in UPDATE_KINDS:
            raise ValueError(f"unknown update strategy {self.kind!r}")
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if not (math.isfinite(self.lambda_max) and self.lambda_max > 0):
            raise ValueError(f"lambda_max must be finite and positive, got {self.lambda_max!r}")


@dataclass
class LambdaUpdateResult:
    solution: SolutionSet
    model: QuboModel
    lambdas: list[float]
    trials: int
    valid: bool


# -- shared helpers ------------------------------------------------------------


def _bits(indices: np.ndarray, width: int) -> np.ndarray:
    """Row r holds bits ``0..width-1`` of ``indices[r]`` as floats."""
    return ((indices[:, None] >> np.arange(width)) & 1).astype(np.float64)


def _energy_blocks(arrays: QuboArrays) -> Iterator[tuple[int, np.ndarray]]:
    """Every energy ``xᵀQx + offset`` in index order, as ``(first index, energies)`` blocks.

    Bit k of an index is the binary at position k of ``arrays.order``.  The
    low ``L = min(n, _LOW_BITS)`` bits vary within a block and the high bits
    ``h`` are fixed, so splitting ``Q`` into low and high parts gives the block
    as ``xᵀQ_ll x + offset`` (built once) plus ``x·(Q_lh h) + hᵀQ_hh h``: one
    ``2**L × L`` matvec per block.
    """
    q = arrays.upper_triangular()
    n = len(q)
    low = min(n, _LOW_BITS)
    bits = _bits(np.arange(2**low), low)
    base = np.einsum("ij,ij->i", bits @ q[:low, :low], bits) + arrays.offset
    q_lh, q_hh = q[:low, low:], q[low:, low:]
    for prefix in range(2 ** (n - low)):
        high = _bits(np.array([prefix]), n - low)[0]
        yield prefix << low, base + (bits @ (q_lh @ high) + high @ q_hh @ high)


def _finalize(model: QuboModel, bits: np.ndarray, run_times, diagnostics: dict | None = None) -> SolutionSet:
    """Samples from a ``k × n`` 0/1 float matrix whose columns follow ``model.arrays.order``.

    Assignment values are Python ints; each energy is ``arrays.energy`` of
    the row, the sum ``model.energy`` computes.
    """
    arrays = model.arrays
    samples = [(dict(zip(arrays.order, row)), arrays.energy(x)) for row, x in zip(bits.astype(int).tolist(), bits)]
    decoded = [model.decode(assignment) for assignment, _ in samples]
    best = min(range(len(samples)), key=lambda i: samples[i][1])
    return SolutionSet(
        samples=samples,
        decoded=decoded,
        best_binary=samples[best][0],
        best_decoded=decoded[best],
        best_energy=samples[best][1],
        run_times=run_times,
        diagnostics=diagnostics,
    )


# -- exhaustive oracle -----------------------------------------------------------


def solve_exhaustive(model: QuboModel, params: SolverParams | None = None) -> SolutionSet:
    """Enumerate all assignments; the oracle every stochastic solver is checked against."""
    params = params or SolverParams()
    arrays = model.arrays
    n = len(arrays.order)
    if n > params.exhaustive_cap:
        raise ValueError(f"exhaustive solver handles at most {params.exhaustive_cap} binaries, model has {n}")
    started = time.monotonic()
    k_best = min(params.k_best, 2**n)
    top_indices = np.empty(0, dtype=np.int64)
    top_energies = np.empty(0)
    for start, energies in _energy_blocks(arrays):
        candidates = np.arange(len(energies))
        if len(top_energies) == k_best:  # later blocks lose every tie, so only a lower energy can enter
            candidates = np.flatnonzero(energies < top_energies[-1])
        if len(candidates) > k_best:  # keep the block's k best (and ties with its k-th) before sorting
            kth = np.partition(energies[candidates], k_best - 1)[k_best - 1]
            candidates = candidates[energies[candidates] <= kth]
        merged_idx = np.concatenate([top_indices, start + candidates])
        merged_en = np.concatenate([top_energies, energies[candidates]])
        keep = np.lexsort((merged_idx, merged_en))[:k_best]  # by energy, then index
        top_indices, top_energies = merged_idx[keep], merged_en[keep]
    run_times = [time.monotonic() - started] if params.record_time else None
    return _finalize(model, _bits(top_indices, n), run_times)


# -- simulated annealing ------------------------------------------------------------


def solve_sa(model: QuboModel, params: SolverParams | None = None) -> SolutionSet:
    """Single-flip Metropolis under a geometric inverse-temperature schedule.

    The ``params.runs`` replicas anneal together as the rows of a ``runs × n``
    sign matrix ``s = 1 - 2x``.  Each row keeps its local fields
    ``h = linear + x·Q``, with ``Q`` the dense symmetric couplings, so flipping
    spin ``i`` changes the energy by ``s_i·h_i`` and an accepted flip adds
    ``±Q[i]`` to the fields.  Run ``r`` draws from its own generator
    ``default_rng(seed + r)``: the initial state ``integers(0, 2, n)``, then
    ``u = random(n)`` before each sweep.  Spins are visited in order
    ``0..n-1``, and spin ``i`` flips iff ``delta <= -log1p(-u_i) / β``, which
    accepts with probability ``min(1, exp(-β·delta))``.  Each run reports its
    best-seen state; ``diagnostics["sa"]`` holds the acceptance rate per tenth
    of the schedule and the spin visits (attempted flips) per second.
    """
    params = params or SolverParams()
    arrays = model.arrays
    n, runs = len(arrays.order), params.runs
    couplings = np.zeros((n, n))
    couplings[arrays.rows, arrays.cols] = arrays.values
    couplings += couplings.T

    scale = 1.0
    if params.beta_autoscale:  # largest coefficient magnitude; 1.0 when the model has no terms
        scale = float(np.abs(np.concatenate([arrays.linear, arrays.values])).max(initial=0.0)) or 1.0
    if params.sweeps > 1:
        ratio = (params.beta_end / params.beta_start) ** (1.0 / (params.sweeps - 1))
        betas = [params.beta_start * ratio**t / scale for t in range(params.sweeps)]
    else:
        betas = [params.beta_end / scale]

    started = time.monotonic()
    rngs = [np.random.default_rng(params.seed + run) for run in range(runs)]
    x = np.array([rng.integers(0, 2, size=n) for rng in rngs], dtype=float)
    energy = np.array([arrays.energy(row) for row in x])
    fields = arrays.linear + x @ couplings
    signs = 1.0 - 2.0 * x
    best_signs, best_energy = signs.copy(), energy.copy()
    accepted = np.zeros(len(betas))
    for t, beta in enumerate(betas):
        draws = np.array([rng.random(n) for rng in rngs])
        thresholds = -np.log1p(-draws) / beta
        sweep_start = signs.copy()
        for i in range(n):
            column = signs[:, i]
            delta = column * fields[:, i]
            accept = delta <= thresholds[:, i]
            if not np.count_nonzero(accept):  # count_nonzero: a cheaper call than .any() on short arrays
                continue
            step = column * accept  # the change of x_i: +1, -1, or 0 where rejected
            column -= 2.0 * step
            fields += step[:, None] * couplings[i]
            energy += delta * accept
            improved = energy < best_energy
            if np.count_nonzero(improved):
                best_energy[improved] = energy[improved]
                best_signs[improved] = signs[improved]
        accepted[t] = np.count_nonzero(signs != sweep_start)  # each spin is visited once per sweep
    elapsed = time.monotonic() - started

    visits = runs * n  # per sweep
    diagnostics = {
        "sa": {
            "acceptance_by_decile": [
                float(part.sum() / (len(part) * visits)) if visits else 0.0
                for part in np.array_split(accepted, min(10, len(betas)))
            ],
            "flips_per_s": visits * len(betas) / elapsed if elapsed > 0 else 0.0,
        }
    }
    run_times = [elapsed / runs] * runs if params.record_time else None
    return _finalize(model, (1 - best_signs) / 2, run_times, diagnostics)


# -- qaoa statevector simulation -----------------------------------------------------


def _apply_mixer(amplitudes: np.ndarray, n: int, beta: float) -> np.ndarray:
    cos, sin = math.cos(beta), math.sin(beta)
    for k in range(n):
        shaped = amplitudes.reshape(2 ** (n - k - 1), 2, 2**k)
        low, high = shaped[:, 0, :], shaped[:, 1, :]
        shaped[:, 0, :], shaped[:, 1, :] = cos * low - 1j * sin * high, cos * high - 1j * sin * low
    return amplitudes


def _qaoa_state(phase: np.ndarray, n: int, angles: np.ndarray) -> np.ndarray:
    amplitudes = np.full(2**n, 2 ** (-n / 2), dtype=np.complex128)
    layers = len(angles) // 2
    for layer in range(layers):
        gamma, beta = angles[2 * layer], angles[2 * layer + 1]
        amplitudes = amplitudes * np.exp(-1j * gamma * phase)
        amplitudes = _apply_mixer(amplitudes, n, beta)
    return amplitudes


def _qaoa_distribution(model: QuboModel, params: SolverParams) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, float]:
    """Optimize the 2p angles and return (order, energies, probabilities, expectation)."""
    arrays = model.arrays
    n = len(arrays.order)
    if n > QAOA_MAX_BINARIES:
        raise ValueError(f"QAOA simulation handles at most {QAOA_MAX_BINARIES} binaries, model has {n}")

    energies = np.concatenate([block for _, block in _energy_blocks(arrays)])
    # Centering is a global phase; scaling only conditions the angle search.
    centered = energies - energies.mean()
    spread = np.max(np.abs(centered))
    phase = centered / spread if spread > 0 else np.zeros_like(centered)

    def expectation(angles: np.ndarray) -> float:
        amplitudes = _qaoa_state(phase, n, angles)
        return float(np.abs(amplitudes) ** 2 @ energies)

    p = params.layers
    if params.initial_angles is not None:
        starts = [np.asarray(params.initial_angles, dtype=float)]
        if starts[0].shape != (2 * p,):
            raise ValueError(f"initial_angles needs {2 * p} values (gamma, beta per layer)")
    else:
        starts = []
        for gamma_max, beta_max in ((0.6, 0.8), (1.2, 0.5), (2.4, 1.1)):
            angles = np.empty(2 * p)
            for layer in range(p):
                angles[2 * layer] = gamma_max * (layer + 1) / p  # annealing-style ramps
                angles[2 * layer + 1] = beta_max * (1 - layer / p)
            starts.append(angles)

    optimize = sys.modules[__name__].minimize  # module attribute, so it can be replaced from outside
    best_angles, best_value, converged = starts[0], math.inf, False
    for start in starts:
        result = optimize(
            expectation,
            start,
            method="Nelder-Mead",
            options={"maxiter": params.max_optimizer_iters, "xatol": 1e-4, "fatol": 1e-7},
        )
        converged = converged or bool(result.success)
        if result.fun < best_value:
            best_value, best_angles = float(result.fun), result.x
    if not converged:
        warnings.warn("QAOA angle search did not converge; using best-seen angles")

    amplitudes = _qaoa_state(phase, n, best_angles)
    probabilities = np.abs(amplitudes) ** 2
    probabilities = probabilities / probabilities.sum()
    return arrays.order, energies, probabilities, best_value


def qaoa_expected_energy(model: QuboModel, params: SolverParams | None = None) -> float:
    """Expected energy of the optimized QAOA state (before sampling)."""
    return _qaoa_distribution(model, params or SolverParams())[3]


def solve_qaoa_sim(model: QuboModel, params: SolverParams | None = None) -> SolutionSet:
    """Statevector QAOA: alternating diagonal-cost and single-qubit-mixer layers.

    The 2p angles are tuned with Nelder-Mead restarts from fixed ramp
    initializations, then each run samples ``shots`` bitstrings from the
    optimized state and keeps its best.  The model offset is folded into the
    reported energies, not the phase operator.
    """
    params = params or SolverParams()
    order, energies, probabilities, _ = _qaoa_distribution(model, params)

    kept = np.empty(params.runs, dtype=np.int64)
    run_times: list[float] | None = [] if params.record_time else None
    for run in range(params.runs):
        rng = np.random.default_rng(params.seed + run)
        started = time.monotonic()
        drawn = rng.choice(len(probabilities), size=params.shots, p=probabilities)
        kept[run] = drawn[np.argmin(energies[drawn])]
        if run_times is not None:
            run_times.append(time.monotonic() - started)
    return _finalize(model, _bits(kept, len(order)), run_times)


SOLVERS: dict[str, Callable[[QuboModel, SolverParams], SolutionSet]] = {
    "exhaustive": solve_exhaustive,
    "sa": solve_sa,
    "qaoa": solve_qaoa_sim,
}


def solve(model: QuboModel, solver: str, params: SolverParams | None = None) -> SolutionSet:
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {sorted(SOLVERS)}")
    return SOLVERS[solver](model, params)


# -- penalty-weight retry loop ----------------------------------------------------


def next_lambda(current: float, strategy: UpdateStrategy) -> float:
    """One update step; rounding follows the worked formulas, capped at lambda_max."""
    if strategy.kind == "sequential":
        raw = current * 10.0
    elif strategy.kind == "scaled":
        exponent = 1.0 / (strategy.max_trials - 1) if strategy.max_trials > 1 else 1.0
        raw = _round_half_away(current * strategy.lambda_max**exponent)
    else:
        raw = _round_half_away(math.sqrt(current * strategy.lambda_max))
    if raw <= current:
        raw = current * 10.0  # rounding collapsed the step (tiny lambdas); keep growing
    return min(raw, strategy.lambda_max)


def _round_half_away(value: float) -> float:
    return math.floor(value + 0.5) if value >= 0 else math.ceil(value - 0.5)


def solve_with_lambda_update(
    problem: Problem,
    config: CompileConfig,
    solver: str,
    params: SolverParams | None = None,
    strategy: UpdateStrategy | None = None,
    include_weak: bool = False,
    update_all: bool = False,
) -> LambdaUpdateResult:
    """Compile / solve / check loop that grows penalty weights until valid.

    Each trial solves the compiled model and checks the hard constraints on
    the best solution; if any are violated, their weights (or all weights,
    with ``update_all``) are increased and the problem is recompiled with the
    new values as manual lambdas.  Trial exhaustion is reported through the
    ``valid`` flag rather than raised.
    """
    from qubo_forge.analysis import check_model_constraints  # local import avoids a cycle

    params = params or SolverParams()
    strategy = strategy or UpdateStrategy()
    model = compile_problem(problem, config)
    trials = 0
    while True:
        trials += 1
        solution = solve(model, solver, params)
        results = check_model_constraints(model, solution.best_binary, solution.best_decoded)
        violated = [
            r.block_index
            for r in results
            if not r.satisfied and (r.hardness == "hard" or include_weak)
        ]
        if not violated or trials >= strategy.max_trials:
            return LambdaUpdateResult(
                solution=solution,
                model=model,
                lambdas=model.lambdas(),
                trials=trials,
                valid=not violated,
            )
        lambdas = model.lambdas()
        targets = range(len(lambdas)) if update_all else violated
        for index in targets:
            if lambdas[index] < strategy.lambda_max:
                lambdas[index] = next_lambda(lambdas[index], strategy)
        retry_config = replace(config, lambda_method="manual", manual_lambdas=lambdas)
        model = compile_problem(problem, retry_config)
