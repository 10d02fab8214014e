"""The batch engine's solver: one HiGHS solve per spec, tagged ``portfolio``.

``BatchMapper(portfolio=True)`` solves every stage with a
:class:`PortfolioSolver`: one :class:`~repro.ilp.solve.SolverSpec`, whose
per-job limits (:attr:`BatchJob.solver_spec <repro.batch.engine.BatchJob>`)
are how the DSE adaptive driver runs cheap fidelity rungs.  The result
carries the backend tag ``portfolio[<backend>]``, which
:func:`winning_arm` reads back.
"""

from __future__ import annotations

import numpy as np

from ..ilp.model import Model
from ..ilp.result import SolveResult
from ..ilp.solve import SolverSpec, solve_model


def winning_arm(backend: str) -> str | None:
    """The backend inside a ``portfolio[...]`` backend tag, or ``None``.

    An optional ``-interrupted`` suffix on a cancelled solve is dropped.
    Non-portfolio backends map to ``None`` so callers can feed every
    solve summary through unconditionally.
    """
    prefix = "portfolio["
    if not backend.startswith(prefix) or not backend.endswith("]"):
        return None
    inner = backend[len(prefix) : -1]
    return inner.removesuffix("-interrupted")


class PortfolioSolver:
    """A :class:`~repro.mapping.pipeline.SolverBackend` over one spec."""

    name = "portfolio"

    def __init__(self, spec: SolverSpec) -> None:
        self.spec = spec

    def solve(self, model: Model, warm_start: np.ndarray | None = None) -> SolveResult:
        """Solve ``model`` per the spec, tagged ``portfolio[<backend>]``.

        The phases are the backend's own: it times the one ``lower``.
        """
        result = solve_model(model, self.spec, warm_start)
        result.backend = f"{self.name}[{result.backend}]"
        return result


def portfolio_solver_factory(spec: SolverSpec = SolverSpec()) -> "callable":
    """A :class:`~repro.mapping.pipeline.SolverFactory` that solves per
    ``spec``, with the stage's time budget as its time limit."""

    def factory(time_limit: float | None) -> PortfolioSolver:
        return PortfolioSolver(spec.with_time_limit(time_limit))

    return factory
