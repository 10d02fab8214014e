"""Process-safe solve entry points.

The batch engine runs solves inside worker processes, which needs two
things the backend classes alone don't give it:

1. a *picklable* description of a solve's limits that can cross a
   process boundary cheaply — :class:`SolverSpec`;
2. a *cancellation-safe* module-level entry — :func:`solve_model` — that
   turns a ``KeyboardInterrupt`` (pool shutdown, Ctrl-C) into a best-effort
   result instead of a poisoned worker.

The backend's option object is a plain frozen dataclass and every
:class:`~repro.ilp.result.SolveResult` contains only plain data, so the
full request/response cycle pickles without custom reducers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .highs_backend import HighsBackend, HighsOptions
from .model import Model
from .result import Incumbent, SolveResult, SolveStatus

#: Values accepted by :attr:`SolverSpec.emphasis` (``None`` = balanced).
EMPHASIS_MODES = ("speed", "quality")

#: The loose relative gap ``emphasis="speed"`` implies when no explicit
#: ``mip_rel_gap`` is given: stop as soon as the incumbent is within 5%.
SPEED_EMPHASIS_GAP = 0.05


@dataclass(frozen=True)
class SolverSpec:
    """The picklable limits of one HiGHS solve.

    ``build()`` instantiates the :class:`HighsBackend`; the spec itself is
    what travels between processes.

    Tuning knobs (all optional, all picklable):

    - ``time_limit`` — wall-clock cap in seconds;
    - ``mip_rel_gap`` — stop once the relative optimality gap closes to
      this (``0.05`` = accept 5%-from-proven);
    - ``node_limit`` — branch-and-bound node cap (anytime behavior: the
      best incumbent at the cap is returned as ``FEASIBLE``);
    - ``emphasis`` — coarse intent: ``"speed"`` loosens the gap to
      :data:`SPEED_EMPHASIS_GAP` when no explicit gap is set (cheap DSE
      fidelity rungs), ``"quality"`` forces the gap to 0 even if a looser
      default would apply (top rungs / final answers), ``None`` keeps the
      backend's balanced defaults.  Explicit ``mip_rel_gap`` always wins
      over ``"speed"``.
    """

    time_limit: float | None = None  # wall seconds
    mip_rel_gap: float | None = None  # relative-gap stop
    node_limit: int | None = None  # branch-and-bound node cap
    emphasis: str | None = None  # "speed" | "quality" | None (balanced)

    def __post_init__(self) -> None:
        if self.emphasis is not None and self.emphasis not in EMPHASIS_MODES:
            raise ValueError(
                f"unknown emphasis {self.emphasis!r}; choose from {EMPHASIS_MODES}"
            )

    def with_time_limit(self, time_limit: float | None) -> "SolverSpec":
        return replace(self, time_limit=time_limit)

    def effective_gap(self, default: float | None = None) -> float | None:
        """The relative gap after ``emphasis`` is applied.

        Precedence: explicit ``mip_rel_gap`` > ``emphasis`` > ``default``.
        """
        if self.mip_rel_gap is not None:
            return self.mip_rel_gap
        if self.emphasis == "speed":
            return SPEED_EMPHASIS_GAP
        if self.emphasis == "quality":
            return 0.0
        return default

    def build(self) -> HighsBackend:
        """Instantiate the backend this spec describes."""
        return HighsBackend(
            HighsOptions(
                time_limit=self.time_limit,
                mip_rel_gap=self.effective_gap(),
                node_limit=self.node_limit,
            )
        )


def solve_model(
    model: Model,
    spec: SolverSpec,
    warm_start: np.ndarray | None = None,
) -> SolveResult:
    """Solve ``model`` per ``spec``; never lets an interrupt escape empty.

    A ``KeyboardInterrupt`` mid-solve (the way process pools tear workers
    down) degrades to the warm start when one was supplied — the same
    fall-back contract :class:`HighsBackend` applies at its time limit —
    instead of propagating and poisoning the whole batch.
    """
    backend = spec.build()
    try:
        return backend.solve(model, warm_start=warm_start)
    except KeyboardInterrupt:
        if warm_start is None:
            return SolveResult(
                status=SolveStatus.NO_SOLUTION,
                backend=f"{backend.name}-interrupted",
            )
        x0 = model.dense_values(warm_start)
        objective = model.objective_of(x0)
        return SolveResult(
            status=SolveStatus.FEASIBLE,
            objective=objective,
            x=x0,
            incumbents=[Incumbent(objective, 0.0, 0.0, x0)],
            backend=f"{backend.name}-interrupted",
        )
