"""LP relaxation helper and the LP-rounding warm-start generator.

:class:`_LpRelaxation` solves a lowered model's LP relaxation under
mutable variable bounds; :mod:`repro.ilp.lp_round` races on it.
:func:`lp_rounding_warm_start` solves the relaxation, then greedily
repairs the rounded point into feasibility by re-solving with
progressively more variables fixed.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import MatrixForm, Model

INT_TOL = 1e-6
FEAS_TOL = 1e-6


class _LpRelaxation:
    """LP relaxation of a lowered model with mutable variable bounds."""

    def __init__(self, form: MatrixForm) -> None:
        self.form = form
        a = form.a_matrix.tocsr()
        eq_rows = np.isfinite(form.row_lb) & (form.row_lb == form.row_ub)
        ub_rows = np.isfinite(form.row_ub) & ~eq_rows
        lb_rows = np.isfinite(form.row_lb) & ~eq_rows

        self.a_eq = a[eq_rows] if eq_rows.any() else None
        self.b_eq = form.row_ub[eq_rows] if eq_rows.any() else None
        blocks = []
        rhs = []
        if ub_rows.any():
            blocks.append(a[ub_rows])
            rhs.append(form.row_ub[ub_rows])
        if lb_rows.any():
            blocks.append(-a[lb_rows])
            rhs.append(-form.row_lb[lb_rows])
        self.a_ub = sparse.vstack(blocks).tocsr() if blocks else None
        self.b_ub = np.concatenate(rhs) if rhs else None
        self.nnz = a.nnz

    def solve(self, lb: np.ndarray, ub: np.ndarray):
        """Solve the relaxation under the given variable bounds.

        Returns ``(status, objective, x, iterations)`` where status is one
        of 'optimal', 'infeasible', 'unbounded', 'error'.
        """
        res = linprog(
            c=self.form.c,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )
        iterations = int(getattr(res, "nit", 0) or 0)
        if res.status == 0:
            return "optimal", float(res.fun), np.asarray(res.x), iterations
        if res.status == 2:
            return "infeasible", None, None, iterations
        if res.status == 3:
            return "unbounded", None, None, iterations
        return "error", None, None, iterations

    def is_feasible(self, x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> bool:
        """Feasibility check in matrix form (bounds, rows, integrality)."""
        if np.any(x < lb - FEAS_TOL) or np.any(x > ub + FEAS_TOL):
            return False
        int_mask = self.form.integrality > 0
        if np.any(np.abs(x[int_mask] - np.round(x[int_mask])) > INT_TOL):
            return False
        ax = self.form.a_matrix @ x
        return bool(
            np.all(ax <= self.form.row_ub + FEAS_TOL)
            and np.all(ax >= self.form.row_lb - FEAS_TOL)
        )


def lp_rounding_warm_start(model: Model, max_passes: int = 25) -> np.ndarray | None:
    """Attempt to build a feasible integral assignment by iterative rounding.

    Each pass solves the LP relaxation with all previously rounded integer
    variables fixed, then fixes the most-integral remaining fractional
    variable to its rounded value.  Returns the snapped dense vector, or
    ``None`` when a pass goes infeasible (callers then fall back to
    problem-specific heuristics).
    """
    form = model.lower()
    relax = _LpRelaxation(form)
    lb = form.var_lb.copy()
    ub = form.var_ub.copy()
    int_idx = np.flatnonzero(form.integrality > 0)

    for _ in range(max_passes):
        status, _obj, x, _nit = relax.solve(lb, ub)
        if status != "optimal":
            return None
        frac = np.abs(x[int_idx] - np.round(x[int_idx]))
        if frac.size == 0 or frac.max() <= 1e-6:
            snapped = x.copy()
            snapped[int_idx] = np.round(snapped[int_idx])
            if relax.is_feasible(snapped, form.var_lb, form.var_ub):
                return snapped
            return None
        # Fix every nearly-integral variable plus the single most-integral
        # fractional one, shrinking the problem monotonically.
        nearly = int_idx[frac <= 1e-6]
        lb[nearly] = np.round(x[nearly])
        ub[nearly] = np.round(x[nearly])
        remaining = int_idx[frac > 1e-6]
        pick = remaining[np.argmin(frac[frac > 1e-6])]
        lb[pick] = np.round(x[pick])
        ub[pick] = np.round(x[pick])
    return None
