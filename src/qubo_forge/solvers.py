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
from functools import cache, cached_property
from typing import Callable, Iterator

import numpy as np

from qubo_forge.compiler import CompileConfig, QuadraticForm, QuboModel, compile_problem
from qubo_forge.lbfgs import lbfgs
from qubo_forge.problem import Problem

EXHAUSTIVE_DEFAULT_CAP = 26
QAOA_MAX_BINARIES = 16

UPDATE_KINDS = ("sequential", "scaled", "binary-search")

_LOW_BITS = 16  # exhaustive enumeration runs through 2**16 low-bit assignments per block
_SA_BLOCK = 64  # simulated annealing decides the visits of this many consecutive spins together
_SA_CHUNK_BYTES = 2**19  # SA draws, decides and tracks bests for as many sweeps at once as fit in about this
_BETA_START, _BETA_END = 0.1, 10.0  # SA inverse temperatures, divided by the largest coefficient magnitude
_QAOA_MAX_ITERS = 400  # L-BFGS iterations per QAOA angle-search start
_QAOA_GROUP = 5  # QAOA's mixer and ΣX act on balanced groups of at most this many qubits, one matmul each


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
    diagnostics: dict | None = None  # solver-specific plain data, under the solver's name

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


def _energy_blocks(arrays: QuadraticForm) -> Iterator[tuple[int, np.ndarray]]:
    """Every energy ``xᵀQx + offset`` in index order, as ``(first index, energies)`` blocks.

    Bit k of an index is the binary at position k of ``arrays.order``.  The
    low ``L = min(n, _LOW_BITS)`` bits vary within a block and the high bits
    ``h`` are fixed, so splitting ``Q`` into low and high parts gives the block
    as ``xᵀQ_ll x + offset`` plus ``x·(Q_lh h) + hᵀQ_hh h``.  Both parts are
    built by doubling over the low bits, with no ``2**L × L`` bit matrix:
    ``E(i + 2**k) = E(i) + Q_kk + x(i)·Q[:k, k]`` once, then one subset-sum
    pass of ``Q_lh h`` and one add per block.  Every block is the same buffer,
    overwritten by the next one.
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
        np.add(base, cross, out=cross)
        yield prefix << low, cross


def _spectrum(arrays: QuadraticForm) -> np.ndarray:
    """All ``2**n`` energies of ``_energy_blocks`` in index order, in one array."""
    energies = np.empty(2 ** len(arrays.order))
    for start, block in _energy_blocks(arrays):
        energies[start : start + len(block)] = block
    return energies


# -- exhaustive oracle -----------------------------------------------------------


def _entering(energies: np.ndarray, top_energies: np.ndarray, k_best: int) -> np.ndarray:
    """Positions, in index order, of the block entries that can enter the top list.

    Once the list holds ``k_best`` entries only an energy below its last can
    enter, since later indices lose ties.  Of more than ``k_best`` entries only
    the ``k_best`` lowest, and ties with the ``k_best``-th, can stay.
    """
    full = len(top_energies) == k_best
    entering = np.flatnonzero(energies < top_energies[-1]) if full else np.arange(len(energies))
    if len(entering) <= k_best:
        return entering
    values = energies[entering]
    return entering[values <= np.partition(values, k_best - 1)[k_best - 1]]


def solve_exhaustive(model: QuboModel, params: SolverParams | None = None) -> SolutionSet:
    """Enumerate all assignments; the oracle every stochastic solver is checked against.

    The k best are kept sorted by energy, then index.  A block's entering
    entries are sorted stably (so by energy, then index) and inserted after the
    kept entries of equal energy, which have lower indices; the list is then
    cut to ``k_best``.
    """
    params = params or SolverParams()
    arrays = model.arrays
    n = len(arrays.order)
    if n > EXHAUSTIVE_DEFAULT_CAP:
        raise ValueError(f"exhaustive solver handles at most {EXHAUSTIVE_DEFAULT_CAP} binaries, model has {n}")
    started = time.monotonic()
    k_best = min(params.k_best, 2**n)
    top_indices = np.empty(0, dtype=np.int64)
    top_energies = np.empty(0)
    candidates = 0
    for start, energies in _energy_blocks(arrays):
        entering = _entering(energies, top_energies, k_best)
        if not len(entering):
            continue
        candidates += len(entering)
        values = energies[entering]
        by_energy = np.argsort(values, kind="stable")
        values = values[by_energy]
        at = np.searchsorted(top_energies, values, side="right")
        top_energies = np.insert(top_energies, at, values)[:k_best]
        top_indices = np.insert(top_indices, at, start + entering[by_energy])[:k_best]
    elapsed = time.monotonic() - started
    diagnostics = {
        "exhaustive": {"assignments_per_s": 2**n / elapsed if elapsed > 0 else 0.0, "candidates": candidates}
    }
    run_times = [elapsed] if params.record_time else None
    return SolutionSet.from_bits(model, _bits(top_indices, n), run_times, diagnostics)


# -- simulated annealing ------------------------------------------------------------


def _sa_chunk_sweeps(n: int, runs: int) -> int:
    """Sweeps per SA chunk, at least one.

    A chunk's buffers take 41 bytes per spin visit of a run: its draw,
    threshold, delta, sweep-start sign and trajectory entry (8 bytes each)
    and its accept flag.
    """
    return max(1, _SA_CHUNK_BYTES // (41 * max(n, 1) * runs))


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

    The visits of a block of ``_SA_BLOCK`` spins are decided together, by
    rounds that reach the sequential sweep's own decisions: starting from the
    guess that every visit flips, a round gives every visit, in all runs at
    once, the block-start field plus the couplings to the block's earlier
    guessed flips (one matmul), and decides all of them by the rule above; the
    decisions become the next guess until a round changes none.  Visit ``k``
    depends only on the visits before it, so round ``t`` settles the first
    ``t`` visits and the fixed point, reached within ``block + 1`` rounds, is
    the sequential sweep.  The block's flips then reach every field through
    one matmul.  The draws, the thresholds and the best-state tracking run
    once per chunk of sweeps, sized so the chunk's buffers stay near
    ``_SA_CHUNK_BYTES``: one ``cumsum`` gives each run's energy after every
    visit of the chunk, and a run whose minimum beats its best rebuilds that
    state from the signs saved at the start of its sweep.  Each run reports
    its best-seen state; ``diagnostics["sa"]`` holds the acceptance rate per
    tenth of the schedule, the spin visits (attempted flips) per second and
    the mean rounds per block visit.
    """
    params = params or SolverParams()
    arrays = model.arrays
    n, runs = len(arrays.order), params.runs
    couplings = np.zeros((n, n))
    couplings[arrays.rows, arrays.cols] = arrays.values
    couplings += couplings.T

    # largest coefficient magnitude; 1.0 when the model has no terms
    scale = float(np.abs(arrays.coefficients()).max(initial=0.0)) or 1.0
    if params.sweeps > 1:
        ratio = (_BETA_END / _BETA_START) ** (1.0 / (params.sweeps - 1))
        betas = np.array([_BETA_START * ratio**t / scale for t in range(params.sweeps)])
    else:
        betas = np.array([_BETA_END / scale])

    started = time.monotonic()
    rngs = [np.random.default_rng(params.seed + run) for run in range(runs)]
    x = np.array([rng.integers(0, 2, size=n) for rng in rngs], dtype=float)
    # Spin-major buffers: row i holds spin i in every run.
    fields = (arrays.linear + x @ couplings).T.copy()
    signs = (1.0 - 2.0 * x).T.copy()
    best_signs = signs.copy()
    energy = np.array(arrays.energies(x))
    best_energy = energy.copy()

    chunk = min(len(betas), _sa_chunk_sweeps(n, runs))
    draws = np.empty((runs, chunk * n))
    thresholds, deltas, sweep_signs = (np.empty((chunk, n, runs)) for _ in range(3))
    accepts = np.empty((chunk, n, runs), dtype=bool)
    trajectory = np.empty((chunk * n + 1, runs))  # row k: each run's energy after the chunk's visit k - 1

    blocks = []
    for first in range(0, n, _SA_BLOCK):
        size = min(_SA_BLOCK, n - first)
        part = slice(first, first + size)
        # ``lift @ stacked`` is ``start + tril(Q_bb, -1) @ steps``: each visit's block-start field
        # plus the couplings to the block's earlier steps (the changes of x).
        lift = np.hstack([np.eye(size), np.tril(couplings[part, part], -1)])
        stacked = np.empty((2 * size, runs))
        all_flip = b"\x01" * (size * runs)  # the accept flags of the first guess
        views = [(thresholds[c, part], deltas[c, part], accepts[c, part]) for c in range(chunk)]
        blocks.append((fields[part], signs[part], lift, stacked, all_flip, couplings[:, part], views))
    matmul, multiply, less_equal = np.matmul, np.multiply, np.less_equal

    accepted = np.zeros(len(betas))
    rounds = 0
    for first_sweep in range(0, len(betas), chunk):
        count = min(chunk, len(betas) - first_sweep)
        for rng, row in zip(rngs, draws):
            rng.random(out=row[: count * n])
        u = draws[:, : count * n]
        np.log1p(np.negative(u, out=u), out=u)
        chunk_betas = betas[first_sweep : first_sweep + count, None, None]
        np.divide(u.reshape(runs, count, n).transpose(1, 2, 0), -chunk_betas, out=thresholds[:count])  # -log1p(-u) / β

        for sweep in range(count):
            sweep_signs[sweep] = signs
            for block_fields, sign, lift, stacked, settled, columns, views in blocks:
                threshold, delta, accept = views[sweep]
                size = len(sign)
                stacked[:size] = block_fields
                steps = stacked[size:]
                steps[:] = sign  # the guess that every visit flips
                for rounds_here in range(1, size + 2):
                    multiply(sign, matmul(lift, stacked, out=delta), out=delta)
                    less_equal(delta, threshold, out=accept)
                    decided = accept.tobytes()
                    if decided == settled:
                        break
                    settled = decided
                    multiply(sign, accept, out=steps)
                else:
                    raise RuntimeError("SA block decisions did not settle within block + 1 rounds")
                rounds += rounds_here
                fields += columns @ steps
            np.negative(signs, out=signs, where=accepts[sweep])

        used = trajectory[: count * n + 1]
        used[0] = energy
        multiply(deltas[:count], accepts[:count], out=used[1:].reshape(count, n, runs))
        np.cumsum(used, axis=0, out=used)
        energy = used[-1].copy()
        lows = used.min(axis=0)  # row 0 is never below the best, so only a visit can improve
        improved = np.flatnonzero(lows < best_energy)
        if len(improved):
            at_sweep, at_visit = np.divmod(used[:, improved].argmin(axis=0) - 1, n)  # row k follows visit k - 1
            start_signs = sweep_signs[at_sweep, :, improved]
            flipped = accepts[at_sweep, :, improved] & (np.arange(n) <= at_visit[:, None])
            best_signs[:, improved] = np.where(flipped, -start_signs, start_signs).T
            best_energy[improved] = lows[improved]
        accepted[first_sweep : first_sweep + count] = np.count_nonzero(accepts[:count], axis=(1, 2))
    elapsed = time.monotonic() - started

    visits = runs * n  # per sweep
    diagnostics = {
        "sa": {
            "acceptance_by_decile": [
                float(part.sum() / (len(part) * visits)) if visits else 0.0
                for part in np.array_split(accepted, min(10, len(betas)))
            ],
            "flips_per_s": visits * len(betas) / elapsed if elapsed > 0 else 0.0,
            "rounds_per_block": rounds / (len(betas) * len(blocks)) if blocks else 0.0,
        }
    }
    run_times = [elapsed / runs] * runs if params.record_time else None
    return SolutionSet.from_bits(model, (1 - best_signs.T) / 2, run_times, diagnostics)


# -- qaoa statevector simulation -----------------------------------------------------


@cache
def _hamming(width: int) -> np.ndarray:
    """Hamming distances between the ``2**width`` basis states of a group of ``width`` qubits."""
    index = np.arange(2**width)
    table = ((index[:, None] ^ index)[..., None] >> np.arange(width) & 1).sum(axis=-1)
    table.setflags(write=False)  # shared by every caller
    return table


def _group_widths(n: int) -> list[int]:
    """Widths of the qubit groups, lowest bits first: as few groups as ``_QAOA_GROUP`` allows, balanced."""
    count = -(-n // _QAOA_GROUP)
    return [n // count + (group < n % count) for group in range(count)]


def _apply_mixer(amplitudes: np.ndarray, n: int, beta: float) -> np.ndarray:
    """``Π_k exp(-iβ·X_k)`` applied to a state, or to each row of a stack of states, as a new array.

    On a group of ``w`` qubits the product is the ``2**w × 2**w`` matrix with
    entries ``cos(β)^(w-d)·(-i·sin β)^d``, ``d`` the Hamming distance of its
    row and column.  Each group, lowest bits first, is one matmul against the
    transposed rows, which also moves the group's bits above the others, so
    after the last group the bits are back in their order.
    """
    if n == 0:
        return amplitudes.copy()
    cos, sin = math.cos(beta), math.sin(beta)
    rows = amplitudes.reshape(-1, 2**n)
    for width in _group_widths(n):
        distance = np.arange(width + 1)
        entries = cos ** (width - distance) * sin**distance * (-1j) ** distance
        rows = np.matmul(entries[_hamming(width)], rows.reshape(len(rows), -1, 2**width).transpose(0, 2, 1))
    return rows.reshape(amplitudes.shape)


def _apply_x_sum(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """``ΣX_k·amplitudes``, the mixer's generator, as a new array.

    On a group of qubits the sum of its ``X_k`` is the 0/1 adjacency of the
    group's hypercube (Hamming distance 1), one matmul over the group's bits.
    """
    total = np.zeros_like(amplitudes)
    below = 1  # 2**(bits below the group)
    for width in _group_widths(n):
        adjacency = (_hamming(width) == 1).astype(amplitudes.dtype)
        if below == 1:  # one 2-D product from the right (the adjacency is symmetric), not 2**(n-w) tiny ones
            total += (amplitudes.reshape(-1, 2**width) @ adjacency).reshape(amplitudes.shape)
        else:
            total += np.matmul(adjacency, amplitudes.reshape(-1, 2**width, below)).reshape(amplitudes.shape)
        below <<= width
    return total


class _QaoaCircuit:
    """A spectrum as the QAOA kernel reads it: ``energies``, the cost ``phase`` and its distinct levels.

    ``phase == levels[inverse]``, so a layer's phase factors take one ``exp``
    per distinct level and a gather.
    """

    def __init__(self, energies: np.ndarray, phase: np.ndarray, n: int):
        self.energies, self.phase, self.n = energies, phase, n
        self.levels, self.inverse = np.unique(phase, return_inverse=True)

    def phase_factors(self, gamma: float) -> np.ndarray:
        """``exp(-iγ·phase)``."""
        return np.exp(-1j * gamma * self.levels)[self.inverse]


def _qaoa_forward(circuit: _QaoaCircuit, angles: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's states after its phase and after its mixer (``2p`` states, the output last) and phase factors."""
    amplitudes = np.full(2**circuit.n, 2 ** (-circuit.n / 2), dtype=np.complex128)
    states, factors = [], []
    for gamma, beta in angles.reshape(-1, 2):
        factors.append(circuit.phase_factors(gamma))
        amplitudes = amplitudes * factors[-1]
        states.append(amplitudes)
        amplitudes = _apply_mixer(amplitudes, circuit.n, beta)
        states.append(amplitudes)
    return states, factors


def _qaoa_objective(circuit: _QaoaCircuit, angles: np.ndarray) -> tuple[float, np.ndarray]:
    """``⟨C⟩`` and its exact gradient in the 2p angles from one backward pass (adjoint method).

    The forward pass keeps each layer's phase factors and its states after the
    phase and after the mixer.  With ``λ = C·ψ`` at the end of the circuit,
    walking the layers backwards gives ``∂⟨C⟩/∂β = 2·Im⟨λ|ΣX|ψ⟩`` with ψ the
    state kept after that mixer, before un-applying the mixer from λ, and
    ``∂⟨C⟩/∂γ = 2·Im⟨λ|phase·ψ⟩`` with ψ the state kept after that phase,
    before un-applying the phase from λ by the conjugate of its factors.  Only
    λ is carried backwards.
    """
    n, energies = circuit.n, circuit.energies
    states, factors = _qaoa_forward(circuit, angles)
    value = float(np.abs(states[-1]) ** 2 @ energies)
    lam = energies * states[-1]
    gradient = np.empty(len(angles))
    for layer in reversed(range(len(factors))):
        gradient[2 * layer + 1] = 2.0 * np.vdot(lam, _apply_x_sum(states[2 * layer + 1], n)).imag
        lam = _apply_mixer(lam, n, -angles[2 * layer + 1])
        gradient[2 * layer] = 2.0 * np.vdot(lam, circuit.phase * states[2 * layer]).imag
        lam *= factors[layer].conj()
    return value, gradient


def _qaoa_distribution(model: QuboModel, params: SolverParams) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, dict]:
    """Optimize the 2p angles and return (order, energies, probabilities, diagnostics)."""
    arrays = model.arrays
    n = len(arrays.order)
    if n > QAOA_MAX_BINARIES:
        raise ValueError(f"QAOA simulation handles at most {QAOA_MAX_BINARIES} binaries, model has {n}")

    energies = _spectrum(arrays)
    # Centering is a global phase; scaling only conditions the angle search.
    centered = energies - energies.mean()
    spread = np.max(np.abs(centered))
    phase = centered / spread if spread > 0 else np.zeros_like(centered)
    circuit = _QaoaCircuit(energies, phase, n)

    evaluations = 0

    def objective(angles: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        return _qaoa_objective(circuit, angles)

    p = params.layers
    starts = []
    for gamma_max, beta_max in ((0.6, 0.8), (1.2, 0.5), (2.4, 1.1)):
        angles = np.empty(2 * p)
        for layer in range(p):
            angles[2 * layer] = gamma_max * (layer + 1) / p  # annealing-style ramps
            angles[2 * layer + 1] = beta_max * (1 - layer / p)
        starts.append(angles)

    best_angles, best_value, converged = starts[0], math.inf, False
    started = time.monotonic()
    for start in starts:
        result = lbfgs(objective, start, _QAOA_MAX_ITERS)  # a module global, looked up per call so tests can replace it
        converged = converged or bool(result.success)
        if result.fun < best_value:
            best_value, best_angles = float(result.fun), result.x
    elapsed = time.monotonic() - started
    if not converged:
        warnings.warn("QAOA angle search did not converge; using best-seen angles")

    amplitudes = _qaoa_forward(circuit, best_angles)[0][-1]
    probabilities = np.abs(amplitudes) ** 2
    probabilities = probabilities / probabilities.sum()
    diagnostics = {
        "evaluations": evaluations,
        "evaluations_per_s": evaluations / elapsed if elapsed > 0 else 0.0,
        "converged": converged,
        "expected_energy": best_value,
        "ground_state_probability": float(probabilities[energies == energies.min()].sum()),
    }
    return arrays.order, energies, probabilities, diagnostics


def solve_qaoa_sim(model: QuboModel, params: SolverParams | None = None) -> SolutionSet:
    """Statevector QAOA: alternating diagonal-cost and single-qubit-mixer layers.

    The 2p angles are tuned by L-BFGS (``qubo_forge.lbfgs``) on the exact
    adjoint gradient from three fixed ramp starts, then each run samples
    ``shots`` bitstrings from the optimized state and keeps its best.  The
    model offset is folded into the reported energies, not the phase operator.
    ``diagnostics["qaoa"]`` holds the objective evaluations summed over the
    starts, the evaluations per second of the angle search, whether any start
    converged, the optimized expected energy, and the probability mass on the
    minimum-energy assignments.  ``run_times`` gives each run an equal share of
    the solve's wall time, the angle search included, as SA's does.
    """
    params = params or SolverParams()
    started = time.monotonic()
    order, energies, probabilities, diagnostics = _qaoa_distribution(model, params)

    kept = np.empty(params.runs, dtype=np.int64)
    for run in range(params.runs):
        rng = np.random.default_rng(params.seed + run)
        drawn = rng.choice(len(probabilities), size=params.shots, p=probabilities)
        kept[run] = drawn[np.argmin(energies[drawn])]
    elapsed = time.monotonic() - started
    run_times = [elapsed / params.runs] * params.runs if params.record_time else None
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
