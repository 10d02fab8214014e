"""Integer-linear-programming substrate.

A small modeling layer (:class:`Model`, :func:`lin_sum`) plus one exact
backend, :class:`HighsBackend` (HiGHS through SciPy's bundled binding,
with incumbent-stream recording), and :class:`SolverSpec`, the picklable
limits of one solve.  Stands in for the OR-Tools CP-SAT stack used by
the paper.
"""

from .expr import Constraint, LinExpr, Sense, Variable, VarType, lin_sum
from .highs_backend import HighsBackend, HighsOptions
from .model import CODE_SENSES, SENSE_CODES, MatrixForm, Model, ObjectiveSense, RowSystem
from .result import Incumbent, SolveResult, SolveStatus
from .solve import SolverSpec, solve_model

__all__ = [
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
]
