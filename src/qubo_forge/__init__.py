"""qubo-forge: compile declared optimization problems to QUBO and solve them."""

from qubo_forge.analysis import (
    AnalysisReport,
    analyze,
    check_constraints,
    cumulative_distribution,
    load_report,
    objective_values,
    p_range,
    save_report,
    time_to_solution,
    valid_rate,
)
from qubo_forge.compiler import CompileConfig, PenaltyBlock, QuboModel, compile_problem
from qubo_forge.encoding import EncodingPlan, encode
from qubo_forge.expression import (
    Comparison,
    ParseError,
    Polynomial,
    parse_constraint,
    parse_expression,
)
from qubo_forge.problem import ConstraintDecl, ObjectiveTerm, Problem, VariableDecl, VariableKind
from qubo_forge.solvers import (
    LambdaUpdateResult,
    SolutionSet,
    SolverParams,
    UpdateStrategy,
    solve,
    solve_exhaustive,
    solve_qaoa_sim,
    solve_sa,
    solve_with_lambda_update,
)

__all__ = [
    "AnalysisReport",
    "Comparison",
    "CompileConfig",
    "ConstraintDecl",
    "EncodingPlan",
    "LambdaUpdateResult",
    "ObjectiveTerm",
    "ParseError",
    "PenaltyBlock",
    "Polynomial",
    "Problem",
    "QuboModel",
    "SolutionSet",
    "SolverParams",
    "UpdateStrategy",
    "VariableDecl",
    "VariableKind",
    "analyze",
    "check_constraints",
    "compile_problem",
    "cumulative_distribution",
    "encode",
    "load_report",
    "objective_values",
    "p_range",
    "parse_constraint",
    "parse_expression",
    "save_report",
    "solve",
    "solve_exhaustive",
    "solve_qaoa_sim",
    "solve_sa",
    "solve_with_lambda_update",
    "time_to_solution",
    "valid_rate",
]

__version__ = "0.1.0"
