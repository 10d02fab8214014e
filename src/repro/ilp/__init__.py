"""Integer-linear-programming substrate.

A small modeling layer (:class:`Model`, :func:`lin_sum`) plus two exact
backends: :class:`HighsBackend` (SciPy/HiGHS) and :class:`BnBBackend`
(pure-Python branch and bound with incumbent-stream recording).  Stands in
for the OR-Tools CP-SAT stack used by the paper.
"""

from .bnb_backend import BnBBackend, BnBOptions, BranchAndBoundBackend
from .dettime import DeterministicClock
from .expr import Constraint, LinExpr, Sense, Variable, VarType, lin_sum
from .greedy_rounding import lp_rounding_warm_start
from .highs_backend import HighsBackend, HighsOptions, solve_with_trace
from .model import CODE_SENSES, SENSE_CODES, MatrixForm, Model, ObjectiveSense, RowSystem
from .result import Incumbent, SolveResult, SolveStatus
from .solve import BACKEND_NAMES, SolverSpec, solve_model

__all__ = [
    "BACKEND_NAMES",
    "CODE_SENSES",
    "SENSE_CODES",
    "RowSystem",
    "BnBBackend",
    "BnBOptions",
    "BranchAndBoundBackend",
    "Constraint",
    "DeterministicClock",
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
    "solve_with_trace",
]
