"""Fidelity-rung solver specs for the adaptive DSE driver.

Successive halving (:func:`repro.dse.drivers.explore_adaptive`) evaluates
many candidates cheaply before concentrating budget on survivors.  This
module gives each rung its own solver fidelity, so the *solver* cost
scales with the rung, not just the candidate count.  Every rung runs one
HiGHS solve:

- **cheap rungs** run a loose-gap, node-capped solve (``emphasis="speed"``)
  — good-enough incumbents in a fraction of the exact cost, exactly what
  band-selection needs;
- **the top rung** runs a full-fidelity exact solve (``emphasis="quality"``,
  gap 0) — survivors get the tight answer the frontier is reported from.

Ties of the area optimum are broken toward fewer routes by the pipeline's
route polish (:func:`repro.mapping.local_search.polish_routes`).  The
interpolation is monotone: later rungs never run looser solves than
earlier ones.  Specs are plain
:class:`~repro.ilp.solve.SolverSpec` values, picklable and
fingerprint-stable, so per-rung results cache independently (the spec
is part of the batch-job fingerprint).
"""

from __future__ import annotations

from ..ilp.solve import SolverSpec

#: Node cap of the cheapest rung's solve; interpolated upward.
_MIN_NODE_CAP = 200

#: Node cap of the second-to-top rung's solve.
_MAX_NODE_CAP = 5_000

#: Relative gap of the cheapest rung's solve; tightens to 0.
_MAX_GAP = 0.10


def rung_solver_spec(rung: int, max_rungs: int) -> SolverSpec:
    """The HiGHS limits rung ``rung`` (1-based) of ``max_rungs`` solves under.

    The gap and node cap interpolate from loose/capped on rung 1 to
    exact/uncapped on the top rung.
    """
    if rung < 1:
        raise ValueError("rungs are 1-based")
    top = max(max_rungs, 1)
    if rung >= top:
        return SolverSpec(emphasis="quality")
    # Fraction of the way up the ladder, in [0, 1).
    frac = (rung - 1) / max(top - 1, 1)
    gap = round(_MAX_GAP * (1.0 - frac), 4)
    node_cap = int(_MIN_NODE_CAP + frac * (_MAX_NODE_CAP - _MIN_NODE_CAP))
    return SolverSpec(
        mip_rel_gap=gap if gap > 0 else None,
        node_limit=node_cap,
        emphasis="speed",
    )
