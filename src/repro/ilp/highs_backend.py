"""The exact MILP backend: HiGHS, driven through SciPy's bundled binding.

SciPy (>= 1.17) ships HiGHS together with its pybind11 binding as the
private class ``scipy.optimize._highspy._core._Highs``.  Driving it
directly, instead of through :func:`scipy.optimize.milp`, exposes the
solver's callbacks: every improving solution becomes an
:class:`~repro.ilp.result.Incumbent` and a live ``trace.progress`` event.
That incumbent stream stands in for the CP-SAT solution callbacks the
paper reads its area/SNU evolution figures (Figs. 3, 7, 8) from.  Because
the binding is private, ``tests/ilp/test_highs_binding.py`` probes every
member used here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as _highs

from .. import trace
from .model import MatrixForm, Model
from .result import Incumbent, SolveResult, SolveStatus

#: Deterministic work units charged per HiGHS branch-and-bound node plus a
#: per-nonzero setup charge.  The scale is a convention: only ratios
#: between runs mean anything.  The node count is the one deterministic
#: effort figure HiGHS reports (its improving-solution callback reads
#: ``simplex_iteration_count`` as -1), so model size supplies the
#: second-order term.
DET_UNITS_PER_NODE = 25.0
DET_UNITS_PER_NNZ = 0.01
#: HiGHS's own ``mip_rel_gap`` default: a stop at or below it is a proof.
HIGHS_DEFAULT_GAP = 1e-4

_CALLBACK = _highs.cb.HighsCallbackType
_STATUS = _highs.HighsModelStatus


class HighsError(RuntimeError):
    """HiGHS could not take the model or options, or its solve failed."""


@dataclass(frozen=True)
class HighsOptions:
    """Solve limits and tolerances passed to HiGHS."""

    time_limit: float | None = None  # seconds of wall time
    mip_rel_gap: float | None = None  # stop at this relative gap
    node_limit: int | None = None


def highs_option_values(options: HighsOptions) -> dict[str, bool | int | float]:
    """The HiGHS option names and values ``options`` translates to."""
    values: dict[str, bool | int | float] = {"output_flag": False}
    if options.time_limit is not None:
        values["time_limit"] = float(options.time_limit)
    if options.mip_rel_gap is not None:
        values["mip_rel_gap"] = float(options.mip_rel_gap)
    if options.node_limit is not None:
        values["mip_max_nodes"] = int(options.node_limit)
    return values


class HighsBackend:
    """Solve a :class:`~repro.ilp.model.Model` exactly with HiGHS."""

    name = "highs"

    def __init__(self, options: HighsOptions | None = None) -> None:
        self.options = options or HighsOptions()

    def solve(self, model: Model, warm_start: np.ndarray | None = None) -> SolveResult:
        """Solve ``model``, recording every improving solution.

        A feasible ``warm_start`` (dense index-ordered vector) is the
        time-zero incumbent.  It enters HiGHS as a cutoff
        row (``objective <= warm_obj``), which prunes the tree, and it is
        returned whenever HiGHS finds nothing better within its limits.
        An exception raised inside a HiGHS callback (a ``KeyboardInterrupt``
        included) stops the search and is re-raised once ``run()`` returns.
        """
        entry = time.perf_counter()
        form = model.lower()
        lower_wall = time.perf_counter() - entry
        incumbents: list[Incumbent] = []
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
            incumbents.append(Incumbent(warm_obj, 0.0, 0.0, warm_x))

        start = time.perf_counter()
        highs = _load(form, warm_obj, self.options)
        setup_units = DET_UNITS_PER_NNZ * form.a_matrix.nnz
        # Improving solutions, kept strictly better than the previous one
        # (and than the warm start).
        found: list[Incumbent] = []
        best = np.inf if warm_obj is None else form.sign * warm_obj - form.offset
        failures: list[BaseException] = []

        def callback(kind, _message, out, data_in, _user_data) -> None:
            nonlocal best
            try:
                if failures:
                    data_in.user_interrupt = True
                    return
                if kind == _CALLBACK.kCallbackMipInterrupt:
                    return
                if out.objective_function_value >= best - 1e-9:
                    return
                best = out.objective_function_value
                objective = form.sign * (best + form.offset)
                det_time = DET_UNITS_PER_NODE * max(out.mip_node_count, 1) + setup_units
                x = _snap_integers(np.array(out.mip_solution), form.integrality)
                found.append(Incumbent(objective, det_time, out.running_time, x))
                trace.progress(
                    "incumbent",
                    objective=objective,
                    bound=_user_bound(form, out.mip_dual_bound),
                    nodes=out.mip_node_count,
                    det_time=det_time,
                )
            except BaseException as exc:  # noqa: BLE001 - re-raised after run()
                # Raised through HiGHS it would unwind run() mid-search and
                # leave the model status unset; stop the search instead.
                failures.append(exc)
                data_in.user_interrupt = True

        highs.setCallback(callback, None)
        highs.startCallback(_CALLBACK.kCallbackMipImprovingSolution)
        highs.startCallback(_CALLBACK.kCallbackMipInterrupt)
        run_status = highs.run()
        if (
            run_status == _highs.HighsStatus.kError
            and not failures
            and highs.getModelStatus() == _STATUS.kSolveError
        ):
            # HiGHS's MIP presolve reports a solve error on some small
            # infeasible models (e.g. binaries with 3a + 3b + 3c - 2d == 2)
            # that solve cleanly without it: re-solve once, presolve off.
            found.clear()
            best = np.inf if warm_obj is None else form.sign * warm_obj - form.offset
            highs.setOptionValue("presolve", "off")
            run_status = highs.run()
        wall = time.perf_counter() - start
        if failures:
            raise failures[0]
        model_status = highs.getModelStatus()
        if run_status == _highs.HighsStatus.kError:
            raise HighsError(
                f"HiGHS solve failed: {highs.modelStatusToString(model_status)}"
            )
        info = highs.getInfo()
        nodes = max(int(info.mip_node_count), 0)
        det_time = DET_UNITS_PER_NODE * max(nodes, 1) + setup_units
        is_mip = bool(np.any(form.integrality > 0))
        status = _translate_status(
            model_status, info, self.options.mip_rel_gap if is_mip else None
        )

        best_x: np.ndarray | None = None
        objective: float | None = None
        if status.has_solution():
            x = np.asarray(highs.getSolution().col_value)
            best_x = _snap_integers(x, form.integrality)
            objective = form.objective_value(best_x)
        elif warm_x is not None:
            # HiGHS hit a limit (or pruned everything past the cutoff)
            # without an incumbent: fall back to the warm start.
            status = SolveStatus.FEASIBLE
            best_x = warm_x
            objective = warm_obj
        bound = _user_bound(form, info.mip_dual_bound) if is_mip else None

        incumbents.extend(found)
        if objective is not None and (
            not incumbents
            or form.sign * objective < form.sign * incumbents[-1].objective - 1e-9
        ):
            incumbents.append(Incumbent(objective, det_time, wall, best_x))
        trace.progress(
            "bound", objective=objective, bound=bound, nodes=nodes, det_time=det_time
        )
        return SolveResult(
            status=status,
            objective=objective,
            x=best_x,
            bound=bound,
            det_time=det_time,
            wall_time=wall,
            incumbents=incumbents,
            node_count=nodes,
            backend=self.name,
            phases=(("lower", lower_wall), ("solve", wall)),
        )


def _load(form: MatrixForm, cutoff: float | None, options: HighsOptions):
    """A fresh ``_Highs`` set up per ``options`` holding ``form``, plus
    the warm-start cutoff row."""
    blocks = [sparse.csc_array(form.a_matrix)]
    row_lb, row_ub = form.row_lb, form.row_ub
    if cutoff is not None:
        # Cutoff: sign-folded minimized objective must not exceed the
        # warm start's (also sign-folded) value.
        blocks.append(sparse.csc_array(form.c.reshape(1, -1)))
        row_lb = np.append(row_lb, -np.inf)
        row_ub = np.append(row_ub, form.sign * cutoff - form.offset + 1e-9)
    a = sparse.vstack(blocks, format="csc") if len(blocks) > 1 else blocks[0]
    highs = _highs._Highs()
    # Options first: loading a model with output on prints a banner.
    for option, value in highs_option_values(options).items():
        if highs.setOptionValue(option, value) == _highs.HighsStatus.kError:
            raise HighsError(f"HiGHS rejected option {option}={value!r}")
    status = highs.passModel(
        form.num_vars,
        a.shape[0],
        a.nnz,
        int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize),
        0.0,
        np.asarray(form.c, dtype=np.float64),
        np.asarray(form.var_lb, dtype=np.float64),
        np.asarray(form.var_ub, dtype=np.float64),
        np.asarray(row_lb, dtype=np.float64),
        np.asarray(row_ub, dtype=np.float64),
        a.indptr.astype(np.int32),
        a.indices.astype(np.int32),
        a.data.astype(np.float64),
        np.asarray(form.integrality, dtype=np.int32),
    )
    if status == _highs.HighsStatus.kError:
        raise HighsError("HiGHS rejected the model")
    return highs


def _user_bound(form: MatrixForm, dual_bound: float) -> float | None:
    """A HiGHS dual bound in the model's own objective sense, if finite."""
    if not np.isfinite(dual_bound):
        return None
    return form.sign * (float(dual_bound) + form.offset)


def _translate_status(model_status, info, mip_rel_gap: float | None) -> SolveStatus:
    # A HiGHS "optimal" also covers a stop at a caller-loosened
    # mip_rel_gap, which proves nothing beyond the gap.
    if model_status == _STATUS.kOptimal:
        if (
            mip_rel_gap is not None
            and mip_rel_gap > HIGHS_DEFAULT_GAP
            and info.mip_gap > HIGHS_DEFAULT_GAP
        ):
            return SolveStatus.FEASIBLE
        return SolveStatus.OPTIMAL
    if model_status == _STATUS.kInfeasible:
        return SolveStatus.INFEASIBLE
    if model_status == _STATUS.kUnbounded:
        return SolveStatus.UNBOUNDED
    if (
        model_status != _STATUS.kUnboundedOrInfeasible
        and info.primal_solution_status == _highs.kSolutionStatusFeasible
    ):
        return SolveStatus.FEASIBLE
    return SolveStatus.NO_SOLUTION


def _snap_integers(x: np.ndarray, integrality: np.ndarray) -> np.ndarray:
    """Round integer variables to exact integers (HiGHS returns floats)."""
    snapped = x.copy()
    mask = integrality > 0
    snapped[mask] = np.round(snapped[mask])
    return snapped
