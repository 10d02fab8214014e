"""MILP backend on top of :func:`scipy.optimize.milp` (HiGHS).

This is the primary exact solver, standing in for the paper's OR-Tools
CP-SAT.  HiGHS does not expose an incumbent callback through SciPy, so
:func:`solve_with_trace` emulates the paper's intermediate-solution plots
(Figs. 3/7/8) with geometrically growing time-sliced re-solves; the
pure-Python branch-and-bound backend records true incumbent streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import Model
from .result import Incumbent, SolveResult, SolveStatus

#: Deterministic work units charged per HiGHS branch-and-bound node plus a
#: per-nonzero setup charge.  The scale is a convention (see
#: repro.ilp.dettime); mip_node_count is the only deterministic effort
#: figure SciPy exposes, so model size supplies the second-order term —
#: together they reproduce CP-SAT's "number, type and complexity of solver
#: operations" spirit.
DET_UNITS_PER_NODE = 25.0
DET_UNITS_PER_NNZ = 0.01
#: HiGHS's own ``mip_rel_gap`` default: a stop at or below it is a proof.
HIGHS_DEFAULT_GAP = 1e-4


@dataclass(frozen=True)
class HighsOptions:
    """Solve limits and tolerances passed to HiGHS."""

    time_limit: float | None = None  # seconds of wall time
    mip_rel_gap: float | None = None  # stop at this relative gap
    node_limit: int | None = None
    presolve: bool = True

    def to_scipy(self) -> dict:
        options: dict = {"disp": False, "presolve": self.presolve}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        if self.mip_rel_gap is not None:
            options["mip_rel_gap"] = float(self.mip_rel_gap)
        if self.node_limit is not None:
            options["node_limit"] = int(self.node_limit)
        return options


class HighsBackend:
    """Solve a :class:`~repro.ilp.model.Model` exactly with HiGHS."""

    name = "highs"

    def __init__(self, options: HighsOptions | None = None) -> None:
        self.options = options or HighsOptions()

    def solve(
        self,
        model: Model,
        warm_start: dict[str, float] | np.ndarray | None = None,
        keep_values: bool = True,
    ) -> SolveResult:
        """Solve ``model``.

        ``warm_start`` (name-keyed dict or dense index-ordered vector)
        cannot seed HiGHS through SciPy, but a feasible warm start still
        helps: its objective is added as a cutoff constraint
        (``objective <= warm_obj``), which prunes the tree, and it is
        returned as the solution whenever HiGHS itself finds nothing better
        within its limits.
        """
        entry = time.perf_counter()
        form = model.lower()
        lower_wall = time.perf_counter() - entry
        warm_x: np.ndarray | None = None
        warm_obj: float | None = None
        if warm_start is not None:
            warm_x = model.dense_values(warm_start)
            violations = model.check_feasible(warm_x)
            if violations:
                raise ValueError(
                    f"warm start infeasible: {violations[:3]}"
                    + ("..." if len(violations) > 3 else "")
                )
            warm_obj = form.objective_value(warm_x)

        start = time.perf_counter()
        constraints = []
        if form.num_rows:
            constraints.append(
                LinearConstraint(form.a_matrix, form.row_lb, form.row_ub)
            )
        if warm_obj is not None:
            # Cutoff: sign-folded minimized objective must not exceed the
            # warm start's (also sign-folded) value.
            row = form.c.reshape(1, -1)
            cutoff = form.sign * warm_obj - form.offset
            constraints.append(LinearConstraint(row, -np.inf, cutoff + 1e-9))

        res = milp(
            c=form.c,
            constraints=constraints,
            integrality=form.integrality,
            bounds=Bounds(form.var_lb, form.var_ub),
            options=self.options.to_scipy(),
        )
        wall = time.perf_counter() - start
        nodes = int(getattr(res, "mip_node_count", 0) or 0)
        det_time = (
            DET_UNITS_PER_NODE * max(nodes, 1)
            + DET_UNITS_PER_NNZ * form.a_matrix.nnz
        )

        status = _translate_status(res, self.options.mip_rel_gap)
        best_x: np.ndarray | None = None
        values: dict[str, float] | None = None
        objective: float | None = None
        if status.has_solution() and res.x is not None:
            best_x = _snap_integers(np.asarray(res.x), form.integrality)
            objective = form.objective_value(best_x)
        elif warm_x is not None:
            # HiGHS hit a limit (or pruned everything past the cutoff)
            # without an incumbent: fall back to the warm start.
            status = SolveStatus.FEASIBLE
            best_x = warm_x
            objective = warm_obj
        if best_x is not None and keep_values:
            values = model.values_dict(best_x)

        bound = None
        dual = getattr(res, "mip_dual_bound", None)
        if dual is not None and np.isfinite(dual):
            bound = form.sign * (float(dual) + form.offset)

        incumbents = []
        if objective is not None:
            incumbents.append(Incumbent(objective, det_time, wall, values))
        return SolveResult(
            status=status,
            objective=objective,
            values=values,
            x=best_x if keep_values else None,
            bound=bound,
            det_time=det_time,
            wall_time=wall,
            incumbents=incumbents,
            node_count=nodes,
            backend=self.name,
            phases=(("lower", lower_wall), ("solve", wall)),
        )


def solve_with_trace(
    model: Model,
    total_time: float,
    num_slices: int = 8,
    warm_start: dict[str, float] | np.ndarray | None = None,
) -> SolveResult:
    """Emulate an incumbent trajectory with geometric time-sliced re-solves.

    Runs HiGHS with time limits ``total_time / 2**(num_slices-1) ...
    total_time`` and records each improvement, approximating the
    intermediate-solution stream CP-SAT callbacks gave the paper.  The
    returned result is the final (largest-budget) solve with the merged
    incumbent trace attached.
    """
    if total_time <= 0:
        raise ValueError("total_time must be positive")
    limits = [total_time / (2 ** k) for k in reversed(range(num_slices))]
    best: SolveResult | None = None
    trace: list[Incumbent] = []
    seen_best = float("inf")
    det_accum = 0.0
    if warm_start is not None:
        # The warm start is the time-zero incumbent (as CP-SAT reports it).
        x0 = model.dense_values(warm_start)
        seen_best = model.objective_of(x0)
        trace.append(Incumbent(seen_best, 0.0, 0.0, model.values_dict(x0)))
    for limit in limits:
        backend = HighsBackend(HighsOptions(time_limit=limit))
        res = backend.solve(model, warm_start=warm_start)
        det_accum += res.det_time
        if res.status.has_solution() and res.objective is not None:
            if res.objective < seen_best - 1e-9:
                seen_best = res.objective
                trace.append(
                    Incumbent(res.objective, det_accum, res.wall_time, res.values)
                )
            if warm_start is None or res.objective < model.objective_of(warm_start):
                warm_start = res.values
        best = res
        if res.status is SolveStatus.OPTIMAL:
            break
    assert best is not None
    best.incumbents = trace
    best.det_time = det_accum
    return best


def _translate_status(res, mip_rel_gap: float | None) -> SolveStatus:
    # scipy.optimize.milp status codes: 0 optimal, 1 iteration/time limit,
    # 2 infeasible, 3 unbounded, 4 other.  Status 0 also covers a stop at
    # a caller-loosened mip_rel_gap, which proves nothing beyond the gap.
    if res.status == 0:
        gap = getattr(res, "mip_gap", None)
        if (
            mip_rel_gap is not None
            and mip_rel_gap > HIGHS_DEFAULT_GAP
            and gap is not None
            and gap > HIGHS_DEFAULT_GAP
        ):
            return SolveStatus.FEASIBLE
        return SolveStatus.OPTIMAL
    if res.status == 2:
        return SolveStatus.INFEASIBLE
    if res.status == 3:
        return SolveStatus.UNBOUNDED
    if res.x is not None:
        return SolveStatus.FEASIBLE
    return SolveStatus.NO_SOLUTION


def _snap_integers(x: np.ndarray, integrality: np.ndarray) -> np.ndarray:
    """Round integer variables to exact integers (HiGHS returns floats)."""
    snapped = x.copy()
    mask = integrality > 0
    snapped[mask] = np.round(snapped[mask])
    return snapped
