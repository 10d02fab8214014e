"""Probe of SciPy's private HiGHS binding, as the HiGHS backend uses it.

``repro.ilp.highs_backend`` drives ``scipy.optimize._highspy._core``
directly.  The binding is private, so a SciPy upgrade may rename or drop
any member of it; these probes name the missing member instead of letting
a solve fail somewhere deep in the pipeline.
"""

from __future__ import annotations

import pytest
import scipy

from scipy.optimize._highspy import _core

#: Every binding member the backend touches, by owner.
USED_MEMBERS = {
    "_Highs": (
        "passModel",
        "setOptionValue",
        "setCallback",
        "startCallback",
        "run",
        "getModelStatus",
        "modelStatusToString",
        "getInfo",
        "getSolution",
    ),
    "cb.HighsCallbackType": (
        "kCallbackMipImprovingSolution",
        "kCallbackMipInterrupt",
    ),
    "cb.HighsCallbackOutput": (
        "objective_function_value",
        "mip_dual_bound",
        "mip_node_count",
        "mip_solution",
        "running_time",
    ),
    "cb.HighsCallbackInput": ("user_interrupt",),
    "HighsInfo": (
        "mip_node_count",
        "mip_dual_bound",
        "mip_gap",
        "primal_solution_status",
    ),
    "HighsSolution": ("col_value",),
    "HighsModelStatus": (
        "kOptimal",
        "kInfeasible",
        "kUnbounded",
        "kUnboundedOrInfeasible",
        "kSolveError",
    ),
    "HighsStatus": ("kError",),
    "MatrixFormat": ("kColwise",),
    "ObjSense": ("kMinimize",),
    "_core": ("kSolutionStatusFeasible",),
}


def _owner(path: str):
    owner = _core
    for part in path.split("."):
        if part != "_core":
            owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("owner", sorted(USED_MEMBERS))
def test_binding_has_every_member_the_backend_uses(owner):
    try:
        target = _owner(owner)
    except AttributeError:
        pytest.fail(
            f"scipy {scipy.__version__}: scipy.optimize._highspy._core has no "
            f"{owner!r}; repro.ilp.highs_backend needs it"
        )
    missing = [name for name in USED_MEMBERS[owner] if not hasattr(target, name)]
    assert not missing, (
        f"scipy {scipy.__version__}: scipy.optimize._highspy._core."
        f"{owner} lacks {missing}; repro.ilp.highs_backend uses them"
    )


def test_scipy_meets_the_pinned_floor():
    major, minor = (int(part) for part in scipy.__version__.split(".")[:2])
    assert (major, minor) >= (1, 17), (
        f"scipy {scipy.__version__} is older than the 1.17 the HiGHS backend "
        "is verified against"
    )
