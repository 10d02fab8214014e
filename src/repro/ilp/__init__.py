"""Integer-linear-programming substrate.

A small modeling layer (:class:`Model`, :func:`lin_sum`) plus one exact
backend, :class:`HighsBackend` (HiGHS through SciPy's bundled binding,
with incumbent-stream recording), and the ``lp_round`` heuristic.  Stands
in for the OR-Tools CP-SAT stack used by the paper.
"""

from .expr import Constraint, LinExpr, Sense, Variable, VarType, lin_sum
from .greedy_rounding import lp_rounding_warm_start
from .highs_backend import HighsBackend, HighsOptions
from .model import CODE_SENSES, SENSE_CODES, MatrixForm, Model, ObjectiveSense, RowSystem
from .result import Incumbent, SolveResult, SolveStatus
from .solve import BACKEND_NAMES, SolverSpec, solve_model

__all__ = [
    "BACKEND_NAMES",
    "CODE_SENSES",
    "SENSE_CODES",
    "RowSystem",
    "Constraint",
    "HighsBackend",
    "HighsOptions",
    "Incumbent",
    "LinExpr",
    "MatrixForm",
    "Model",
    "ObjectiveSense",
    "Sense",
    "SolveResult",
    "SolveStatus",
    "SolverSpec",
    "solve_model",
    "Variable",
    "VarType",
    "lin_sum",
    "lp_rounding_warm_start",
]
