"""Optimize a compiled QUBO: exhaustive oracle, simulated annealing, QAOA.

All solvers share the same contract: they take a ``QuboModel`` and
``SolverParams`` and return a ``SolutionSet`` holding one sample per run
(the exhaustive oracle instead reports the k best assignments of the full
landscape).  Every solver reads the model's array form (``model.arrays``)
and hands its answers, a ``k × n`` 0/1 matrix with columns in
``arrays.order``, to one finisher, ``SolutionSet.from_bits``, that keeps the
matrix, evaluates the energies exactly, decodes the columns and picks the best.
Results are deterministic for a fixed seed; stochastic solvers derive
per-run generators from ``seed + run_index``.

The penalty-weight retry loop lives here too: compile once, solve, check the
hard constraints on the best solution, and grow the violated constraints'
weights (sequential / scaled / binary-search), re-weighting the compiled
model, until the solution is valid, the trial budget runs out, or every
violated weight is at its cap.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from qubo_forge.compiler import CompileConfig, QuboArrays, QuboModel, compile_problem
from qubo_forge.lbfgs import lbfgs
from qubo_forge.problem import Problem

EXHAUSTIVE_DEFAULT_CAP = 26
QAOA_MAX_BINARIES = 16

UPDATE_KINDS = ("sequential", "scaled", "binary-search")

_LOW_BITS = 16  # exhaustive enumeration runs through 2**16 low-bit assignments per block
_SA_BLOCK = 16  # simulated annealing defers local-field updates across blocks of this many spins
_BETA_START, _BETA_END = 0.1, 10.0  # SA inverse temperatures, divided by the largest coefficient magnitude
_QAOA_MAX_ITERS = 400  # L-BFGS iterations per QAOA angle-search start


def __getattr__(name: str):
    """Import ``scipy.optimize.minimize`` on first use of ``solvers.minimize``.

    Nothing in qubo-forge calls it: QAOA searches its angles with ``lbfgs``.
    The name stays only because the benchmark harness under ``perfbench/``
    still wraps and checks it; it goes when the harness stops naming it.
    """
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
    # qaoa statevector simulation
    layers: int = 2
    shots: int = 200
    # exhaustive
    k_best: int = 1000

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if self.layers < 1:
            raise ValueError("QAOA needs at least one layer")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.k_best < 1:
            raise ValueError("k_best must be >= 1")


@dataclass(eq=False)
class SolutionSet:
    """Samples as arrays, their energies, and the best sample.

    Row ``r`` of ``bits`` (0/1, columns in ``order``) is sample ``r``, and row
    ``r`` of ``values`` (columns in ``names``) holds its decoded values.
    ``samples`` and ``decoded`` are the same rows as dicts of Python numbers.
    """

    order: tuple[str, ...]
    bits: np.ndarray  # k × n uint8
    energies: list[float]
    names: tuple[str, ...]
    values: np.ndarray  # k × d float
    best_binary: dict[str, int]
    best_decoded: dict[str, float]
    best_energy: float
    run_times: list[float] | None = None
    diagnostics: dict | None = None  # solver-specific plain data; SA and QAOA fill it

    @classmethod
    def from_bits(cls, model: QuboModel, bits: np.ndarray, run_times=None, diagnostics=None) -> "SolutionSet":
        """The one finisher: samples from a ``k × n`` 0/1 matrix whose columns follow ``model.arrays.order``.

        The energies are ``arrays.energies`` of the rows, the sums ``model.energy``
        computes.  Decoding runs once, on the columns: ``EncodingPlan.decode``
        does the same float operations on arrays.  The best is the first minimum.
        """
        order, bits = model.arrays.order, np.asarray(bits, dtype=np.uint8)
        energies = model.arrays.energies(bits)
        columns = model.decode(dict(zip(order, bits.T.astype(float))))
        names, values = tuple(columns), np.empty((len(bits), len(columns)))
        for position, column in enumerate(columns.values()):
            values[:, position] = column
        best = min(range(len(bits)), key=energies.__getitem__)
        best_of_each = dict(zip(order, bits[best].tolist())), dict(zip(names, values[best].tolist())), energies[best]
        return cls(order, bits, energies, names, values, *best_of_each, run_times, diagnostics)

    @cached_property
    def samples(self) -> list[tuple[dict[str, int], float]]:
        return list(zip((dict(zip(self.order, row)) for row in self.bits.tolist()), self.energies))

    @cached_property
    def decoded(self) -> list[dict[str, float]]:
        return [dict(zip(self.names, row)) for row in self.values.tolist()]

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
    trials: int
    valid: bool


# -- shared helpers ------------------------------------------------------------


def _bits(indices: np.ndarray, width: int) -> np.ndarray:
    """Row r holds bits ``0..width-1`` of ``indices[r]`` as floats."""
    return ((indices[:, None] >> np.arange(width)) & 1).astype(np.float64)


def _subset_sums(weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x·weights`` for every 0/1 vector ``x``, in index order (bit k of the index is ``x_k``).

    Built by doubling: the sums with bit k set are the sums below ``2**k``
    plus ``weights[k]``, so each entry is its set weights added in bit order.
    """
    size = 2 ** len(weights)
    out = np.empty(size) if out is None else out[:size]
    out[0] = 0.0
    for k, weight in enumerate(weights.tolist()):
        half = 1 << k
        np.add(out[:half], weight, out=out[half : 2 * half])
    return out


def _energy_blocks(arrays: QuboArrays) -> Iterator[tuple[int, np.ndarray]]:
    """Every energy ``xᵀQx + offset`` in index order, as ``(first index, energies)`` blocks.

    Bit k of an index is the binary at position k of ``arrays.order``.  The
    low ``L = min(n, _LOW_BITS)`` bits vary within a block and the high bits
    ``h`` are fixed, so splitting ``Q`` into low and high parts gives the block
    as ``xᵀQ_ll x + offset`` plus ``x·(Q_lh h) + hᵀQ_hh h``.  Both parts are
    built by doubling over the low bits, with no ``2**L × L`` bit matrix:
    ``E(i + 2**k) = E(i) + Q_kk + x(i)·Q[:k, k]`` once, then one subset-sum
    pass of ``Q_lh h`` and one add per block.
    """
    q = arrays.upper_triangular()
    n = len(q)
    low = min(n, _LOW_BITS)
    base = np.empty(2**low)  # xᵀQ_ll x, then the offset is added once
    base[0] = 0.0
    column = np.empty(2**low)  # x(i)·Q[:k, k] for the i below 2**k
    for k in range(low):
        half = 1 << k
        np.add(_subset_sums(q[:k, k], out=column), q[k, k], out=base[half : 2 * half])
        base[half : 2 * half] += base[:half]
    base += arrays.offset
    q_lh, q_hh = q[:low, low:], q[low:, low:]
    cross = np.empty(2**low)
    for prefix in range(2 ** (n - low)):
        high = _bits(np.array([prefix]), n - low)[0]
        _subset_sums(q_lh @ high, out=cross)
        cross += high @ q_hh @ high
        yield prefix << low, base + cross


# -- exhaustive oracle -----------------------------------------------------------


def solve_exhaustive(model: QuboModel, params: SolverParams | None = None) -> SolutionSet:
    """Enumerate all assignments; the oracle every stochastic solver is checked against."""
    params = params or SolverParams()
    arrays = model.arrays
    n = len(arrays.order)
    if n > EXHAUSTIVE_DEFAULT_CAP:
        raise ValueError(f"exhaustive solver handles at most {EXHAUSTIVE_DEFAULT_CAP} binaries, model has {n}")
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
    return SolutionSet.from_bits(model, _bits(top_indices, n), run_times)


# -- simulated annealing ------------------------------------------------------------


def solve_sa(model: QuboModel, params: SolverParams | None = None) -> SolutionSet:
    """Single-flip Metropolis under a geometric inverse-temperature schedule.

    The ``params.runs`` replicas anneal together as the columns of an
    ``n × runs`` sign matrix ``s = 1 - 2x``.  Each run keeps its local fields
    ``h = linear + x·Q``, with ``Q`` the dense symmetric couplings, so flipping
    spin ``i`` changes the energy by ``s_i·h_i``.  Run ``r`` draws from its own
    generator ``default_rng(seed + r)``: the initial state
    ``integers(0, 2, n)``, then ``u = random(n)`` before each sweep.  Spins
    are visited in order ``0..n-1``, and spin ``i`` flips iff
    ``delta <= -log1p(-u_i) / β``, which accepts with probability
    ``min(1, exp(-β·delta))``.

    Field updates are deferred across blocks of ``_SA_BLOCK`` spins: a visit
    reads its field as the block-start field plus the couplings to the block's
    earlier flips (one dot product), and the block's flips reach every field
    together through one matmul when the block ends.  Each visit only records
    its ``delta`` and accept flag; once per sweep, one ``cumsum`` gives each
    run's energy after every visit, and a run whose minimum beats its best
    rebuilds that state from the sweep-start signs and the flips up to the
    first minimum.  Each run reports its best-seen state;
    ``diagnostics["sa"]`` holds the acceptance rate per tenth of the schedule
    and the spin visits (attempted flips) per second.
    """
    params = params or SolverParams()
    arrays = model.arrays
    n, runs, width = len(arrays.order), params.runs, _SA_BLOCK
    couplings = np.zeros((n, n))
    couplings[arrays.rows, arrays.cols] = arrays.values
    couplings += couplings.T

    # largest coefficient magnitude; 1.0 when the model has no terms
    scale = float(np.abs(np.concatenate([arrays.linear, arrays.values])).max(initial=0.0)) or 1.0
    if params.sweeps > 1:
        ratio = (_BETA_END / _BETA_START) ** (1.0 / (params.sweeps - 1))
        betas = [_BETA_START * ratio**t / scale for t in range(params.sweeps)]
    else:
        betas = [_BETA_END / scale]

    started = time.monotonic()
    rngs = [np.random.default_rng(params.seed + run) for run in range(runs)]
    x = np.array([rng.integers(0, 2, size=n) for rng in rngs], dtype=float)
    # Spin-major buffers: row i holds spin i in every run.
    fields = (arrays.linear + x @ couplings).T.copy()
    signs = (1.0 - 2.0 * x).T.copy()
    best_signs = signs.copy()
    trajectory = np.empty((n + 1, runs))  # row k: each run's energy after visit k - 1
    trajectory[-1] = arrays.energies(x)
    best_energy = trajectory[-1].copy()
    draws, thresholds, deltas = np.empty((runs, n)), np.empty((n, runs)), np.empty((n, runs))
    accepts = np.empty((n, runs), dtype=bool)
    window = np.zeros((2 * width, runs))  # the block's start fields, then its steps (the changes of x)
    spins = np.arange(n)[:, None]

    blocks = []
    for first in range(0, n, width):
        size = min(width, n - first)
        part = slice(first, first + size)
        # Visit k of the block reads window row k plus the couplings to the block's earlier steps.
        reads = np.zeros((size, 2 * width))
        reads[:, :size] = np.eye(size)
        reads[:, width : width + size] = np.tril(couplings[part, part], -1)
        rows = list(zip(reads, signs[part], deltas[part], thresholds[part], accepts[part], window[width:]))
        blocks.append((fields[part], window[:size], couplings[:, part], window[width : width + size], rows))
    draw_rows = list(zip(rngs, draws))
    multiply, less_equal, dot = np.multiply, np.less_equal, np.dot

    accepted = np.zeros(len(betas))
    for t, beta in enumerate(betas):
        for rng, row in draw_rows:
            rng.random(out=row)
        np.log1p(np.negative(draws, out=draws), out=draws)
        np.divide(draws.T, -beta, out=thresholds)  # -log1p(-u) / β
        for block_fields, start_fields, columns, steps, rows in blocks:
            start_fields[:] = block_fields
            for read, sign, delta, threshold, accept, step in rows:
                multiply(sign, dot(read, window), out=delta)
                less_equal(delta, threshold, out=accept)
                multiply(sign, accept, out=step)
            fields += columns @ steps

        trajectory[0] = trajectory[-1]
        multiply(deltas, accepts, out=trajectory[1:])
        np.cumsum(trajectory, axis=0, out=trajectory)
        lows = trajectory.min(axis=0)  # row 0 is never below the best, so only a visit can improve
        improved = np.flatnonzero(lows < best_energy)
        if len(improved):
            flipped = accepts[:, improved] & (spins < trajectory[:, improved].argmin(axis=0))
            best_signs[:, improved] = np.where(flipped, -signs[:, improved], signs[:, improved])
            best_energy[improved] = lows[improved]
        accepted[t] = np.count_nonzero(accepts)  # each spin is visited once per sweep
        np.negative(signs, out=signs, where=accepts)
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
    return SolutionSet.from_bits(model, (1 - best_signs.T) / 2, run_times, diagnostics)


# -- qaoa statevector simulation -----------------------------------------------------


def _apply_mixer(amplitudes: np.ndarray, n: int, beta: float) -> np.ndarray:
    """``Π_k exp(-iβ·X_k)`` applied to a state, or to each row of a stack of states, as a new array."""
    cos, minus_i_sin = math.cos(beta), -1j * math.sin(beta)
    shape = amplitudes.shape
    for k in range(n):
        shaped = amplitudes.reshape(-1, 2, 2**k)  # X_k swaps the middle axis
        flipped = shaped[:, ::-1, :] * minus_i_sin
        amplitudes = shaped * cos
        amplitudes += flipped
        amplitudes = amplitudes.reshape(shape)
    return amplitudes


def _apply_x_sum(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """``ΣX_k·amplitudes``, the mixer's generator, as a new array."""
    total = np.zeros_like(amplitudes)
    for k in range(n):
        total += amplitudes.reshape(-1, 2, 2**k)[:, ::-1, :].reshape(amplitudes.shape)
    return total


def _qaoa_state(phase: np.ndarray, n: int, angles: np.ndarray) -> np.ndarray:
    amplitudes = np.full(2**n, 2 ** (-n / 2), dtype=np.complex128)
    layers = len(angles) // 2
    for layer in range(layers):
        gamma, beta = angles[2 * layer], angles[2 * layer + 1]
        amplitudes = amplitudes * np.exp(-1j * gamma * phase)
        amplitudes = _apply_mixer(amplitudes, n, beta)
    return amplitudes


def _qaoa_objective(energies: np.ndarray, phase: np.ndarray, n: int, angles: np.ndarray) -> tuple[float, np.ndarray]:
    """``⟨C⟩`` and its exact gradient in the 2p angles from one backward pass (adjoint method).

    With ``λ = C·ψ`` at the end of the circuit, walking the layers backwards
    gives ``∂⟨C⟩/∂β = 2·Im⟨λ|ΣX_k|ψ⟩`` before un-applying that mixer and
    ``∂⟨C⟩/∂γ = 2·Im⟨λ|phase·ψ⟩`` before un-applying that phase, with ψ and
    λ un-applied together as the two rows of one array.
    """
    amplitudes = _qaoa_state(phase, n, angles)
    value = float(np.abs(amplitudes) ** 2 @ energies)
    pair = np.stack([amplitudes, energies * amplitudes])  # rows ψ and λ
    gradient = np.empty(len(angles))
    for layer in reversed(range(len(angles) // 2)):
        gamma, beta = angles[2 * layer], angles[2 * layer + 1]
        psi, lam = pair
        gradient[2 * layer + 1] = 2.0 * np.vdot(lam, _apply_x_sum(psi, n)).imag
        pair = _apply_mixer(pair, n, -beta)
        psi, lam = pair
        gradient[2 * layer] = 2.0 * np.vdot(lam, phase * psi).imag
        pair = pair * np.exp(1j * gamma * phase)
    return value, gradient


def _qaoa_distribution(model: QuboModel, params: SolverParams) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, dict]:
    """Optimize the 2p angles and return (order, energies, probabilities, diagnostics)."""
    arrays = model.arrays
    n = len(arrays.order)
    if n > QAOA_MAX_BINARIES:
        raise ValueError(f"QAOA simulation handles at most {QAOA_MAX_BINARIES} binaries, model has {n}")

    energies = np.concatenate([block for _, block in _energy_blocks(arrays)])
    # Centering is a global phase; scaling only conditions the angle search.
    centered = energies - energies.mean()
    spread = np.max(np.abs(centered))
    phase = centered / spread if spread > 0 else np.zeros_like(centered)

    evaluations = 0

    def objective(angles: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        return _qaoa_objective(energies, phase, n, angles)

    p = params.layers
    starts = []
    for gamma_max, beta_max in ((0.6, 0.8), (1.2, 0.5), (2.4, 1.1)):
        angles = np.empty(2 * p)
        for layer in range(p):
            angles[2 * layer] = gamma_max * (layer + 1) / p  # annealing-style ramps
            angles[2 * layer + 1] = beta_max * (1 - layer / p)
        starts.append(angles)

    best_angles, best_value, converged = starts[0], math.inf, False
    for start in starts:
        result = lbfgs(objective, start, _QAOA_MAX_ITERS)  # a module global, looked up per call so tests can replace it
        converged = converged or bool(result.success)
        if result.fun < best_value:
            best_value, best_angles = float(result.fun), result.x
    if not converged:
        warnings.warn("QAOA angle search did not converge; using best-seen angles")

    amplitudes = _qaoa_state(phase, n, best_angles)
    probabilities = np.abs(amplitudes) ** 2
    probabilities = probabilities / probabilities.sum()
    diagnostics = {
        "evaluations": evaluations,
        "converged": converged,
        "expected_energy": best_value,
        "ground_state_probability": float(probabilities[energies == energies.min()].sum()),
    }
    return arrays.order, energies, probabilities, diagnostics


def qaoa_expected_energy(model: QuboModel, params: SolverParams | None = None) -> float:
    """Expected energy of the optimized QAOA state (before sampling)."""
    return _qaoa_distribution(model, params or SolverParams())[3]["expected_energy"]


def solve_qaoa_sim(model: QuboModel, params: SolverParams | None = None) -> SolutionSet:
    """Statevector QAOA: alternating diagonal-cost and single-qubit-mixer layers.

    The 2p angles are tuned by L-BFGS (``qubo_forge.lbfgs``) on the exact
    adjoint gradient from three fixed ramp starts, then each run samples
    ``shots`` bitstrings from the optimized state and keeps its best.  The
    model offset is folded into the reported energies, not the phase operator.
    ``diagnostics["qaoa"]`` holds the objective evaluations summed over the
    starts, whether any start converged, the optimized expected energy, and
    the probability mass on the minimum-energy assignments.
    """
    params = params or SolverParams()
    order, energies, probabilities, diagnostics = _qaoa_distribution(model, params)

    kept = np.empty(params.runs, dtype=np.int64)
    run_times: list[float] | None = [] if params.record_time else None
    for run in range(params.runs):
        rng = np.random.default_rng(params.seed + run)
        started = time.monotonic()
        drawn = rng.choice(len(probabilities), size=params.shots, p=probabilities)
        kept[run] = drawn[np.argmin(energies[drawn])]
        if run_times is not None:
            run_times.append(time.monotonic() - started)
    return SolutionSet.from_bits(model, _bits(kept, len(order)), run_times, {"qaoa": diagnostics})


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
) -> LambdaUpdateResult:
    """Compile / solve / check loop that grows penalty weights until valid.

    Each trial solves the model and checks the hard constraints on the best
    solution; if any are violated, their weights are increased and the model
    compiled once is re-weighted (``QuboModel.with_lambdas``).  The loop stops
    when the trials run out or no violated weight is below ``lambda_max``
    (another trial would solve the same model again); either is reported
    through the ``valid`` flag rather than raised.
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
        violated = [r.block_index for r in results if not r.satisfied and r.hardness == "hard"]
        lambdas = model.lambdas()
        growable = [index for index in violated if lambdas[index] < strategy.lambda_max]
        if not growable or trials >= strategy.max_trials:
            return LambdaUpdateResult(solution=solution, model=model, trials=trials, valid=not violated)
        for index in growable:
            lambdas[index] = next_lambda(lambdas[index], strategy)
        model = model.with_lambdas(lambdas)
