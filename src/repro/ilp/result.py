"""Solver result containers shared by all ILP backends.

A solution has one form: a dense NumPy vector in model column order
(``Variable.index``).  HiGHS solutions arrive as floats and are snapped
to exact integers on integer columns before they are stored.
Both the final answer (:attr:`SolveResult.x`) and every incumbent
(:attr:`Incumbent.x`) carry it; the mapping models decode it with their
``mapping_from_x``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped at a limit with an incumbent in hand
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLUTION = "no_solution"  # stopped at a limit with no incumbent

    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass(frozen=True)
class Incumbent:
    """One improving solution found during the search.

    ``det_time`` is the backend's deterministic work measure at the moment
    the incumbent was found (HiGHS: node-based units, see
    :data:`repro.ilp.highs_backend.DET_UNITS_PER_NODE`); ``wall_time`` is
    elapsed solver seconds (0 for a warm start).  ``x`` is the solution
    as a dense index-ordered vector, integer columns snapped.
    """

    objective: float
    det_time: float
    wall_time: float
    x: np.ndarray


@dataclass
class SolveResult:
    """Result of solving a :class:`repro.ilp.model.Model`.

    Attributes
    ----------
    status:
        Final :class:`SolveStatus`.
    objective:
        Objective value of the best solution (``None`` without a solution).
    x:
        Best assignment as a dense index-ordered vector, integer columns
        snapped (``None`` without one).
    bound:
        Best proven dual bound on the objective, if known.
    det_time:
        Total deterministic work spent (backend-specific units).
    wall_time:
        Total elapsed wall-clock seconds.
    incumbents:
        Improving-solution trace in discovery order.
    node_count:
        Branch-and-bound nodes processed.
    backend:
        Name of the backend that produced the result.
    phases:
        Per-phase wall-time breakdown as ``(name, seconds)`` pairs in
        execution order — e.g. ``(("build", ...), ("lower", ...),
        ("solve", ...))``.  Backends record their own phases; wrapping
        layers (pipeline build, portfolio lower) prepend theirs, so the
        tuple reads outermost-first.  Plain data: it crosses process
        pools and lands in solve summaries / phase histograms as-is.
    """

    status: SolveStatus
    objective: float | None = None
    x: np.ndarray | None = None
    bound: float | None = None
    det_time: float = 0.0
    wall_time: float = 0.0
    incumbents: list[Incumbent] = field(default_factory=list)
    node_count: int = 0
    backend: str = ""
    phases: tuple[tuple[str, float], ...] = ()

    def gap(self) -> float | None:
        """Relative optimality gap, if both objective and bound are known."""
        if self.objective is None or self.bound is None:
            return None
        denom = max(abs(self.objective), 1e-9)
        return abs(self.objective - self.bound) / denom

    def __repr__(self) -> str:
        return (
            f"SolveResult(status={self.status.value}, objective={self.objective}, "
            f"bound={self.bound}, nodes={self.node_count}, "
            f"det_time={self.det_time:.1f}, wall_time={self.wall_time:.3f}s, "
            f"backend={self.backend!r})"
        )
