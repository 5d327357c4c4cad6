"""In-memory spans around the library's public names, installed from outside.

The library has no timers of its own yet, so the traced run replaces the
names each module looks up at call time with wrappers that record a span:
name, start, end, parent span, and counts read from the call's
arguments or result.  ``installed`` puts the originals back on exit.  When
the library no longer has a name, its span name is recorded in
``Tracer.missing`` and the metrics built on that span are reported absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the open-span stack is kept per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.recording = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **counts: float):
        if not self.recording:
            yield None
            return
        stack = self._stack()
        record = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            start=time.perf_counter(),
            counts=dict(counts),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks answers."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    def wrap(self, fn: Callable, name: str, count: Callable[..., dict] | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.counts.update(count(result, *args, **kwargs))
            return result

        return wrapper

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [
                [s.id, s.parent, s.name, s.start, s.end, s.counts] for s in self.spans
            ],
            "missing": sorted(self.missing),
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Tracer":
        tracer = cls()
        tracer.spans = [Span(*fields) for fields in data["spans"]]
        tracer.missing = set(data["missing"])
        return tracer

    def merge(self, other: "Tracer") -> None:
        """Append another process's spans, renumbered so ids stay unique."""
        offset = max((s.id for s in self.spans), default=0)
        for s in other.spans:
            parent = None if s.parent is None else s.parent + offset
            self.spans.append(Span(s.id + offset, parent, s.name, s.start, s.end, s.counts))
        self.missing |= other.missing


# -- what to wrap ----------------------------------------------------------------


def _n_binaries(result, *args, **kwargs) -> dict:
    return {"binaries": len(result.binaries)}


def _slack(result, *args, **kwargs) -> dict:
    _, plan = result
    return {"slack_binaries": 0 if plan is None else len(plan.binaries)}


def _aux(result, *args, **kwargs) -> dict:
    return {"aux_binaries": len(result[1])}


def _terms(result, *args, **kwargs) -> dict:
    return {"terms": len(result.quadratic)}


def _solver_work(result, model, params=None, *args, **kwargs) -> dict:
    counts = {"binaries": len(model.binary_variables())}
    if params is not None:
        counts.update(runs=params.runs, sweeps=params.sweeps)
    return counts


def _nfev(result, *args, **kwargs) -> dict:
    return {"nfev": int(result.nfev)}


# (module, attribute path, span name, counter).  A dotted attribute path is a
# class attribute; "SOLVERS[...]" entries are dict values, because ``solve``
# dispatches through the dict and never looks up the module functions.  The
# first five are the pipeline stages as a CLI process calls them.
WRAPPED: list[tuple[str, str, str, Callable | None]] = [
    ("qubo_forge.cli", "compile_problem", "compiler.compile_problem", _terms),
    ("qubo_forge.solvers", "compile_problem", "compiler.compile_problem", _terms),
    ("qubo_forge.cli", "solve", "solvers.solve", None),
    ("qubo_forge.solvers", "solve", "solvers.solve", None),
    ("qubo_forge.cli", "analyze", "analysis.analyze", None),
    ("qubo_forge.compiler", "encode", "encoding.encode", _n_binaries),
    ("qubo_forge.compiler", "compose_cost", "compiler.compose_cost", None),
    ("qubo_forge.compiler", "equality_penalty", "compiler.penalty", None),
    ("qubo_forge.compiler", "inequality_to_penalty", "compiler.penalty", _slack),
    ("qubo_forge.compiler", "boolean_penalty", "compiler.penalty", None),
    ("qubo_forge.compiler", "estimate_lambda", "compiler.lambda", None),
    ("qubo_forge.compiler", "quadratize", "compiler.quadratize", _aux),
    ("qubo_forge.compiler", "reduce_binary_idempotence", "expression.reduce", None),
    ("qubo_forge.expression", "Polynomial.substitute", "expression.substitute", None),
    ("qubo_forge.problem", "parse_expression", "expression.parse", None),
    ("qubo_forge.problem", "parse_constraint", "expression.parse", None),
    ("qubo_forge.problem", "Problem.load", "problem.build", None),
    ("qubo_forge.solvers", "SOLVERS[exhaustive]", "solvers.exhaustive", _solver_work),
    ("qubo_forge.solvers", "SOLVERS[sa]", "solvers.sa", _solver_work),
    ("qubo_forge.solvers", "SOLVERS[qaoa]", "solvers.qaoa", _solver_work),
    ("qubo_forge.solvers", "minimize", "solvers.qaoa_optimizer", _nfev),
    ("qubo_forge.compiler", "QuboModel.energy", "solvers.energy", None),
    ("qubo_forge.analysis", "check_model_constraints", "analysis.check", None),
    ("qubo_forge.cli", "save_report", "analysis.persist", None),
    ("qubo_forge.cli", "write_cumulative_csv", "analysis.persist", None),
    ("qubo_forge.compiler", "QuboModel.to_json_dict", "analysis.persist", None),
    ("qubo_forge.compiler", "QuboModel.to_matrix_text", "analysis.persist", None),
]


def _patch(tracer: Tracer, module_name: str, path: str, span: str, count) -> Callable[[], None] | None:
    """Replace one name with a traced wrapper; return the function that restores it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        tracer.missing.add(span)
        return None
    if path.startswith("SOLVERS["):
        table = getattr(module, "SOLVERS", None)
        key = path[len("SOLVERS[") : -1]
        if table is None or key not in table:
            tracer.missing.add(span)
            return None
        original = table[key]
        table[key] = tracer.wrap(original, span, count)
        return lambda: table.__setitem__(key, original)
    owner: Any = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    raw = owner.__dict__.get(attr) if owner is not None and isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        tracer.missing.add(span)
        return None
    if isinstance(raw, classmethod):
        replacement: Any = classmethod(tracer.wrap(raw.__func__, span, count))
    else:
        replacement = tracer.wrap(raw, span, count)
    setattr(owner, attr, replacement)
    return lambda: setattr(owner, attr, raw)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every name in ``WRAPPED``, then restore them."""
    restores = [r for r in (_patch(tracer, *target) for target in WRAPPED) if r is not None]
    try:
        yield tracer
    finally:
        for restore in reversed(restores):
            restore()


# -- per-layer figures ---------------------------------------------------------------

# metric -> (span name, what to take): "s" is the summed wall time of the
# outermost spans of that name, "n" the number of spans, anything else the sum
# of that count over the spans.
SIMPLE_METRICS: dict[str, tuple[str, str]] = {
    "problem.build_s": ("problem.build", "s"),
    "expression.parse_s": ("expression.parse", "s"),
    "expression.substitute_s": ("expression.substitute", "s"),
    "expression.substitute_calls": ("expression.substitute", "n"),
    "expression.reduce_s": ("expression.reduce", "s"),
    "encoding.encode_s": ("encoding.encode", "s"),
    "encoding.binaries": ("encoding.encode", "binaries"),
    "compiler.compile_s": ("compiler.compile_problem", "s"),
    "compiler.compose_cost_s": ("compiler.compose_cost", "s"),
    "compiler.penalty_s": ("compiler.penalty", "s"),
    "compiler.slack_binaries": ("compiler.penalty", "slack_binaries"),
    "compiler.lambda_s": ("compiler.lambda", "s"),
    "compiler.quadratize_s": ("compiler.quadratize", "s"),
    "compiler.aux_binaries": ("compiler.quadratize", "aux_binaries"),
    "compiler.output_terms": ("compiler.compile_problem", "terms"),
    "solvers.solve_s": ("solvers.solve", "s"),
    "solvers.exhaustive_s": ("solvers.exhaustive", "s"),
    "solvers.sa_s": ("solvers.sa", "s"),
    "solvers.qaoa_s": ("solvers.qaoa", "s"),
    "solvers.qaoa_optimizer_s": ("solvers.qaoa_optimizer", "s"),
    "solvers.qaoa_nfev": ("solvers.qaoa_optimizer", "nfev"),
    "solvers.energy_calls": ("solvers.energy", "n"),
    "solvers.energy_s": ("solvers.energy", "s"),
    "analysis.analyze_s": ("analysis.analyze", "s"),
    "analysis.check_calls": ("analysis.check", "n"),
    "analysis.check_s": ("analysis.check", "s"),
    "analysis.persist_s": ("analysis.persist", "s"),
}


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {s.id: s for s in spans}
    found = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(s)
    return found


def self_time(spans: list[Span], name: str) -> float:
    """Duration of the ``name`` spans minus the time their direct children cover."""
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    return sum(s.duration - children.get(s.id, 0.0) for s in spans if s.name == name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one pass; metrics whose wrapper is missing are left out."""
    spans = tracer.spans
    metrics: dict[str, float] = {}
    for metric, (name, take) in SIMPLE_METRICS.items():
        if name in tracer.missing:
            continue
        if take == "s":
            metrics[metric] = sum(s.duration for s in outermost(spans, name))
        elif take == "n":
            metrics[metric] = float(sum(1 for s in spans if s.name == name))
        else:
            metrics[metric] = float(sum(s.counts.get(take, 0) for s in spans if s.name == name))
    metrics["compiler.self_s"] = self_time(spans, "compiler.compile_problem")
    if "solvers.sa" not in tracer.missing:
        flips = sum(s.counts["runs"] * s.counts["sweeps"] * s.counts["binaries"] for s in spans if s.name == "solvers.sa")
        metrics["solvers.sa_flip_ns"] = 1e9 * metrics["solvers.sa_s"] / flips if flips else 0.0
    if "solvers.exhaustive" not in tracer.missing:
        enumerated = sum(2 ** s.counts["binaries"] for s in spans if s.name == "solvers.exhaustive")
        seconds = metrics["solvers.exhaustive_s"]
        metrics["solvers.assignments_per_s"] = enumerated / seconds if seconds else 0.0
    return metrics
