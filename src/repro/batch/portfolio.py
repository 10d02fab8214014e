"""Solver portfolio: race several backends on one model, keep the best.

MILP solvers have wildly instance-dependent performance; a portfolio that
runs a fast heuristic (``lp_round``) and exact HiGHS on the same model and
keeps the best incumbent is more robust than betting on either alone (the
heuristic lands a strong incumbent in O(LP) time; HiGHS improves on it and
proves).

Members race sequentially: one after another, stopping early once a
member proves optimality.  Worst-case wall time is the sum of member
budgets; results are bit-for-bit reproducible.

The winner is the member with the lowest objective; ties break on lower
deterministic time, then on portfolio order.  A winner that did not
prove optimality itself reports ``optimal`` (with the prover's bound)
when another member proved a bound its objective meets.

Races also *share incumbents* (see
:class:`PortfolioOptions.share_incumbents`): each member's best solution
seeds the next member's warm start, so ordering a cheap heuristic arm
(``lp_round``) before the exact arms hands them a strong cutoff before
they open their root node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import trace
from ..ilp.highs_backend import HIGHS_DEFAULT_GAP
from ..ilp.model import Model, ObjectiveSense
from ..ilp.result import SolveResult, SolveStatus
from ..ilp.solve import SolverSpec, solve_model

#: The default portfolio: full-budget HiGHS, then the LP-rounding racer.
DEFAULT_SPECS = (
    SolverSpec("highs"),
    SolverSpec("lp_round", time_limit=5.0),
)


@dataclass(frozen=True)
class PortfolioOptions:
    """Which backends race, and how.

    ``share_incumbents``: each member's best
    incumbent is donated as the warm start of every later member when it
    beats what they would otherwise have been seeded with.  Exact
    backends turn that seed into a cutoff and prune against it from the
    root node on — this is how a fast heuristic arm (``lp_round``)
    accelerates the exact arms that follow it.  Donation never *loses*
    information: a member still falls back to its own search if the seed
    does not help, and the race winner is picked by the same
    deterministic rule either way.
    """

    specs: tuple[SolverSpec, ...] = DEFAULT_SPECS
    stop_on_optimal: bool = True  # skip members after a proof
    share_incumbents: bool = True  # donate the best incumbent

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a portfolio needs at least one member spec")


def winning_arm(backend: str) -> str | None:
    """The member arm inside a ``portfolio[...]`` backend tag, or ``None``.

    Solve summaries carry the winner as ``portfolio[<member>]`` (with an
    optional ``-interrupted`` suffix on degraded races); this is what
    per-arm win-rate metrics key on.  Non-portfolio backends map to
    ``None`` so callers can feed every summary through unconditionally.
    """
    prefix = "portfolio["
    if not backend.startswith(prefix) or not backend.endswith("]"):
        return None
    inner = backend[len(prefix) : -1]
    return inner.removesuffix("-interrupted")


class PortfolioSolver:
    """A :class:`~repro.mapping.pipeline.SolverBackend` over many members.

    Only the winner reaches a mapping result: its ``portfolio[<member>]``
    backend tag, from which :func:`winning_arm` recovers the arm that the
    mapping daemon's ``/metrics`` counts wins by.
    """

    name = "portfolio"

    def __init__(self, options: PortfolioOptions | None = None) -> None:
        self.options = options or PortfolioOptions()

    def solve(self, model: Model, warm_start: np.ndarray | None = None) -> SolveResult:
        """Race every member on ``model`` and return the best result.

        The returned result is the winning member's, re-tagged as
        ``portfolio[<member>]``, with ``det_time`` summed over every member
        that actually ran (deterministic effort is paid regardless of who
        wins) and any other member's optimality proof carried over.
        """
        opts = self.options
        # Assemble the shared matrix form once, up front: every racer's
        # Model.lower() (and warm-start feasibility check) then reuses the
        # cached system instead of re-lowering per backend.
        lower_entry = time.perf_counter()
        model.lower()
        lower_wall = time.perf_counter() - lower_entry
        race_start = time.time()
        results: list[SolveResult] = []
        # Incumbent sharing: the best solution seen so far (including a
        # feasible caller-supplied warm start) seeds every later member,
        # so exact arms inherit the heuristic arms' incumbents as
        # root-node cutoffs.
        fold = 1.0 if model.objective_sense is ObjectiveSense.MINIMIZE else -1.0
        donated = warm_start
        best_folded: float | None = None
        if opts.share_incumbents and warm_start is not None:
            if not model.check_feasible(warm_start):
                best_folded = fold * model.objective_of(warm_start)
        for spec in opts.specs:
            result = solve_model(model, spec, donated)
            results.append(result)
            if opts.stop_on_optimal and result.status is SolveStatus.OPTIMAL:
                break
            if result.backend.endswith("-interrupted"):
                # Cancellation reached us mid-race: don't start more
                # members, report the best of what finished.
                break
            if (
                opts.share_incumbents
                and result.status.has_solution()
                and result.objective is not None
                and result.x is not None
            ):
                folded = fold * result.objective
                if best_folded is None or folded < best_folded:
                    best_folded = folded
                    donated = result.x

        # Per-arm race spans, derived post-race from each member's own
        # wall time and laid end to end.
        arm_start = race_start
        for member in results:
            trace.record_span(
                f"arm:{member.backend}",
                start=arm_start,
                duration=member.wall_time,
                status=member.status.value,
                objective=member.objective,
                bound=member.bound,
                det_time=member.det_time,
                nodes=member.node_count,
            )
            arm_start += member.wall_time

        winner = _pick_winner(results, model.objective_sense)
        _borrow_proof(winner, results, model.objective_sense)
        winner.det_time = sum(r.det_time for r in results)
        winner.wall_time = sum(r.wall_time for r in results)
        winner.backend = f"{self.name}[{winner.backend}]"
        # The shared lowering above is work the winning arm's own phase
        # breakdown never saw — prepend it so phase histograms account
        # for every second the portfolio spent.
        winner.phases = (("lower", lower_wall),) + tuple(winner.phases)
        # A race truncated by cancellation is itself degraded unless the
        # winner independently proved optimality — tag it so the batch
        # cache refuses the result even when the interrupted member lost.
        race_interrupted = any("-interrupted" in r.backend for r in results)
        if (
            race_interrupted
            and winner.status is not SolveStatus.OPTIMAL
            and "-interrupted" not in winner.backend
        ):
            winner.backend += "-interrupted"
        return winner


def _pick_winner(
    results: list[SolveResult], sense: ObjectiveSense
) -> SolveResult:
    """Deterministic selection: best objective, then det time, then order.

    "Best" honors the model's objective sense (objectives are user-facing,
    so a maximize model wants the largest).  Members without a solution
    only win when nobody found one — in which case the first conclusive
    status (infeasible/unbounded beats a bare limit-out) is reported.
    """
    fold = 1.0 if sense is ObjectiveSense.MINIMIZE else -1.0
    solved = [
        (fold * r.objective, r.det_time, pos, r)
        for pos, r in enumerate(results)
        if r.status.has_solution() and r.objective is not None
    ]
    if solved:
        return min(solved, key=lambda item: item[:3])[3]
    conclusive = [
        r
        for r in results
        if r.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)
    ]
    return conclusive[0] if conclusive else results[0]


def _borrow_proof(
    winner: SolveResult, results: list[SolveResult], sense: ObjectiveSense
) -> None:
    """Carry another member's optimality proof over to the winner.

    Ties go to the cheaper arm, so a heuristic incumbent can win against
    an exact arm that proved the same objective; the winner keeps its
    own ``x`` and arm tag but reports the proof's status and bound.  The
    bound closes on the winner within HiGHS's default relative gap, the
    tolerance a HiGHS ``optimal`` is proven to.
    """
    if winner.status is SolveStatus.OPTIMAL or winner.objective is None:
        return
    fold = 1.0 if sense is ObjectiveSense.MINIMIZE else -1.0
    for member in results:
        if (
            member.status is SolveStatus.OPTIMAL
            and member.bound is not None
            and "-interrupted" not in member.backend
            and fold * (winner.objective - member.bound)
            <= HIGHS_DEFAULT_GAP * max(1.0, abs(winner.objective))
        ):
            winner.status = SolveStatus.OPTIMAL
            winner.bound = member.bound
            return


def portfolio_solver_factory(
    specs: tuple[SolverSpec, ...] = DEFAULT_SPECS,
) -> "callable":
    """A :class:`~repro.mapping.pipeline.SolverFactory` that races ``specs``.

    The stage's time budget is honored as a *total*, split evenly across
    members (their wall times add up).
    """

    def factory(time_limit: float | None) -> PortfolioSolver:
        per_member = time_limit / len(specs) if time_limit is not None else None
        timed = tuple(spec.with_time_limit(per_member) for spec in specs)
        return PortfolioSolver(PortfolioOptions(specs=timed))

    return factory
