"""Solver result containers shared by all ILP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

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
    elapsed solver seconds (0 for a warm start).  ``values`` maps variable *name* to value and may be
    ``None`` when the backend was asked not to retain full assignments.
    """

    objective: float
    det_time: float
    wall_time: float
    values: Mapping[str, float] | None = None


@dataclass
class SolveResult:
    """Result of solving a :class:`repro.ilp.model.Model`.

    Attributes
    ----------
    status:
        Final :class:`SolveStatus`.
    objective:
        Objective value of the best solution (``None`` without a solution).
    values:
        Best assignment, variable name -> value (``None`` without one).
    x:
        Best assignment as a dense index-ordered vector (``None`` without
        one).  The preferred form for index-based consumers (mapping
        extraction, warm-start chaining); ``values`` is derived from it.
    bound:
        Best proven dual bound on the objective, if known.
    det_time:
        Total deterministic work spent (backend-specific units).
    wall_time:
        Total elapsed wall-clock seconds.
    incumbents:
        Improving-solution trace in discovery order.
    node_count:
        Branch-and-bound nodes processed (0 for single-shot backends).
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
    values: dict[str, float] | None = None
    x: np.ndarray | None = None
    bound: float | None = None
    det_time: float = 0.0
    wall_time: float = 0.0
    incumbents: list[Incumbent] = field(default_factory=list)
    node_count: int = 0
    backend: str = ""
    phases: tuple[tuple[str, float], ...] = ()

    def value(self, name: str, default: float = 0.0) -> float:
        """Value of variable ``name`` in the best solution."""
        if self.values is None:
            raise ValueError("solve produced no solution to read values from")
        return self.values.get(name, default)

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
