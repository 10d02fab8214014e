"""Search drivers: exhaustive grid and adaptive successive halving.

Both drivers take a :class:`~repro.dse.scenario.DesignSpace` (or an
explicit scenario list) and an :class:`~repro.dse.explorer.Explorer`,
and return an :class:`~repro.dse.explorer.ExplorationResult`.

- :func:`explore_grid` — ILP-evaluate every scenario.  The reference
  frontier; O(grid) solver budget.
- :func:`explore_adaptive` — successive halving on solver budget.
  Rung 0 scores the whole grid with greedy first-fit bounds (no ILP,
  milliseconds each); rung 1 probes the band of promising candidates,
  cheapest pipelines first; later rungs refine the survivors.  Between
  rungs the candidate set is *halved* two ways: bounds are tightened
  with confirmed prefix-sibling results (an ``area+snu`` scenario's
  pipeline re-solves the same area stage and then only improves routes,
  so its ``area`` sibling's point is a heuristic bound), and candidates
  whose optimistic bound a confirmed point dominates are pruned
  outright.  Total ILP spend is hard-capped at ``budget_fraction`` of
  what the grid executes — met by construction, not by luck.  Both
  count stage solves per distinct solve key: scenarios that share one
  (profile variants of a pgo-free formulation) cost one solve between
  them when they run together.

Both drivers are resumable for free: every evaluation goes store-first
through the explorer, so re-running a finished sweep costs zero solves
and an interrupted one picks up where it stopped.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .explorer import ExplorationResult, Explorer, ScenarioResult
from .fidelity import rung_solver_spec
from .objectives import objective_matrix
from .pareto import crowding_distance, pareto_rank
from .scenario import DesignSpace, Scenario

DRIVERS = ("grid", "adaptive")

#: One adaptive candidate: the scenario plus its greedy rung-0 result.
Candidate = tuple[Scenario, ScenarioResult]


def _as_scenarios(space: DesignSpace | list[Scenario]) -> list[Scenario]:
    return space.scenarios() if isinstance(space, DesignSpace) else list(space)


def _accounting(results: list[ScenarioResult]) -> tuple[int, int]:
    """(executed ILP solves, store-resumed results) over ``results``."""
    solves = sum(r.solves for r in results)
    resumed = sum(1 for r in results if r.from_store)
    return solves, resumed


def explore_grid(
    space: DesignSpace | list[Scenario],
    explorer: Explorer | None = None,
    time_limit: float | None = None,
) -> ExplorationResult:
    """Exhaustive sweep: the full grid through the ILP pipeline."""
    explorer = explorer or Explorer()
    scenarios = _as_scenarios(space)
    start = time.perf_counter()
    evaluated = explorer.evaluate_ilp(scenarios, time_limit=time_limit)
    # Duplicate spellings of one instance share a single result object;
    # keep one copy so solve accounting and the frontier stay per-instance.
    results = list({r.fingerprint: r for r in evaluated}.values())
    solves, resumed = _accounting(results)
    return ExplorationResult(
        results=results,
        driver="grid",
        ilp_solves=solves,
        resumed=resumed,
        wall_time=time.perf_counter() - start,
        meta={"scenarios": len(scenarios)},
    )


def explore_adaptive(
    space: DesignSpace | list[Scenario],
    explorer: Explorer | None = None,
    time_limit: float | None = None,
    keep: float = 0.7,
    budget_fraction: float = 0.5,
    max_rungs: int = 3,
    prune_slack: float = 0.25,
) -> ExplorationResult:
    """Successive-halving sweep: greedy bounds first, ILP on the band.

    ``budget_fraction`` is a hard ceiling on ILP stage-solves relative to
    what :func:`explore_grid` spends on the same candidates: one solve
    per pipeline stage per distinct solve key (see
    :meth:`Explorer.solve_key`); promotion never exceeds it.  A band is
    picked at full stage cost per candidate, and the rung is then
    charged per distinct solve key, so twins promoted together pay once
    and the rest carries to later rungs.  ``keep`` is each rung's
    share of the *remaining* budget (the final rung drains it), so early
    rungs probe broadly with cheap pipelines and later rungs concentrate
    on refinement.

    ``prune_slack`` is how optimistic the halving step assumes a bound to
    be: a candidate is pruned only when a confirmed ILP point dominates
    its bound scaled down by ``1 - prune_slack``.  Greedy placements are
    pessimistic in every objective (the solver can only shrink area,
    reroute packets, shorten paths), so slack 0 would prune exactly the
    candidates the solver could still vindicate.

    Scenarios never promoted to the ILP tier are reported in
    ``result.pruned`` — the driver bet no solver budget on them.
    """
    if not 0 < keep <= 1:
        raise ValueError("keep must be in (0, 1]")
    if not 0 < budget_fraction <= 1:
        raise ValueError("budget_fraction must be in (0, 1]")
    if max_rungs < 1:
        raise ValueError("need at least one rung")
    if not 0 <= prune_slack < 1:
        raise ValueError("prune_slack must be in [0, 1)")
    explorer = explorer or Explorer()
    scenarios = _as_scenarios(space)
    start = time.perf_counter()

    # Rung 0: cheap bounds for the whole grid (store-first, no ILP).
    greedy = explorer.evaluate_greedy(scenarios, meta={"rung": 0})
    greedy_evals = len(greedy)
    candidates: dict[str, Candidate] = {}
    failures: dict[str, ScenarioResult] = {}
    for scenario, result in zip(scenarios, greedy):
        if result.fingerprint in candidates or result.fingerprint in failures:
            continue
        if result.ok:
            candidates[result.fingerprint] = (scenario, result)
        else:
            # Surfaced in the final results: a scenario that cannot even
            # be scored must show up as failed, not silently vanish.
            failures[result.fingerprint] = result

    # The hard solve budget, denominated in the stage solves the grid
    # executes: one per stage per distinct solve key.
    solve_keys = {
        fp: explorer.solve_key(scenario) for fp, (scenario, _) in candidates.items()
    }
    grid_solves = _stage_solves(candidates, solve_keys, list(candidates))
    budget = math.floor(grid_solves * budget_fraction)

    bounds = {
        fp: result.objectives.vector()  # type: ignore[union-attr]
        for fp, (_, result) in candidates.items()
    }
    ilp_results: dict[str, ScenarioResult] = {}
    remaining = dict(candidates)
    rung = 1
    while remaining and rung <= max_rungs and budget > 0:
        quota = budget if rung == max_rungs else max(1, math.ceil(budget * keep))
        promote = _select_band(remaining, bounds, min(quota, budget))
        if not promote:
            break
        # Portfolio runs scale solver fidelity with the rung: one HiGHS
        # spec per rung, loose-gap and node-capped on cheap rungs, exact
        # on the top rung (see dse.fidelity).  Single-backend runs keep
        # their historical configuration.
        spec = rung_solver_spec(rung, max_rungs) if explorer.portfolio else None
        batch = explorer.evaluate_ilp(
            [remaining[fp][0] for fp in promote],
            time_limit=time_limit,
            meta={"rung": rung},
            solver_spec=spec,
        )
        for fingerprint, result in zip(promote, batch):
            ilp_results[fingerprint] = result
            remaining.pop(fingerprint, None)
        # Decrement by the *estimated* cost, not executed solves, so a
        # fresh (store-less) rerun of the same schedule also fits.
        budget -= _stage_solves(candidates, solve_keys, promote)
        _tighten_bounds(remaining, bounds, ilp_results)
        remaining = _filter_dominated(remaining, bounds, ilp_results, prune_slack)
        rung += 1

    results = list(ilp_results.values())
    solves, resumed = _accounting(results)
    resumed += sum(1 for r in greedy if r.from_store)
    return ExplorationResult(
        results=results + list(failures.values()),
        driver="adaptive",
        ilp_solves=solves,
        greedy_evaluations=greedy_evals,
        resumed=resumed,
        pruned=tuple(remaining),
        wall_time=time.perf_counter() - start,
        meta={
            "scenarios": len(scenarios),
            "keep": keep,
            "budget_fraction": budget_fraction,
            "prune_slack": prune_slack,
            "grid_solve_estimate": grid_solves,
            "rungs": rung - 1,
        },
    )


def _stage_solves(
    candidates: dict[str, Candidate],
    solve_keys: dict[str, str],
    fingerprints: list[str],
) -> int:
    """Stage solves one batch of ``fingerprints`` executes.

    The batch engine solves each distinct solve key once, so twins after
    the first cost nothing.
    """
    stages = {
        solve_keys[fp]: len(candidates[fp][0].formulation.stages)
        for fp in fingerprints
    }
    return sum(stages.values())


def _select_band(
    remaining: dict[str, Candidate],
    bounds: dict[str, np.ndarray],
    quota: int,
) -> list[str]:
    """Fingerprints to promote this rung, best-first, within ``quota``.

    Candidates are ordered by Pareto rank of their current bound (among
    the remaining candidates), ties broken toward isolated points
    (crowding distance) and then toward *shorter* stage prefixes — a
    one-solve probe of a fresh instance buys more information than the
    second stage of a known one, and its result tightens the sibling
    bounds for the next rung.  A candidate whose pipeline would not fit
    in the remaining quota is skipped — never overshoots.
    """
    fingerprints = list(remaining)
    points = np.vstack([bounds[fp] for fp in fingerprints])
    ranks = pareto_rank(points)
    crowding = crowding_distance(points)
    order = sorted(
        range(len(fingerprints)),
        key=lambda i: (
            ranks[i],
            -crowding[i],
            len(remaining[fingerprints[i]][0].formulation.stages),
        ),
    )
    promoted: list[str] = []
    spent = 0
    for i in order:
        fingerprint = fingerprints[i]
        cost = len(remaining[fingerprint][0].formulation.stages)
        if spent + cost > quota:
            continue
        promoted.append(fingerprint)
        spent += cost
    return promoted


def _instance_key(scenario: Scenario):
    """Scenarios sharing this key map the same problem, same ILP variant.

    Stage prefixes are deliberately excluded: within one key, a longer
    prefix runs the shorter prefix's stages first, so sibling results
    serve as (heuristic) bounds for it.
    """
    return (
        scenario.workload,
        scenario.architecture,
        scenario.formulation.options,
        scenario.formulation.precision,
    )


def _tighten_bounds(
    remaining: dict[str, Candidate],
    bounds: dict[str, np.ndarray],
    ilp_results: dict[str, ScenarioResult],
) -> None:
    """Replace greedy bounds with confirmed prefix-sibling points.

    The ``area+snu`` scenario of an instance solves the same area stage
    as its confirmed ``area`` sibling, and its snu stage starts from its
    own area mapping and only improves routes.  The sibling's point is
    therefore a heuristic, not a proven, bound: an equally small
    placement with different routes can land elsewhere.  It still beats
    rung 0's greedy placement as evidence, and ``prune_slack`` softens
    it before any pruning decision, so the next rung ranks refinement
    candidates by real solver results, not first-fit.
    """
    confirmed: dict[tuple, list[tuple[tuple[str, ...], np.ndarray]]] = {}
    for result in ilp_results.values():
        if not result.ok or result.objectives is None:
            continue
        confirmed.setdefault(_instance_key(result.scenario), []).append(
            (result.scenario.formulation.stages, result.objectives.vector())
        )
    for fingerprint, (scenario, _) in remaining.items():
        stages = scenario.formulation.stages
        for sibling_stages, vector in confirmed.get(_instance_key(scenario), ()):
            if stages[: len(sibling_stages)] == sibling_stages:
                bounds[fingerprint] = np.minimum(bounds[fingerprint], vector)


def _filter_dominated(
    remaining: dict[str, Candidate],
    bounds: dict[str, np.ndarray],
    ilp_results: dict[str, ScenarioResult],
    slack: float,
) -> dict[str, Candidate]:
    """Drop candidates whose *optimistic* bound an ILP point dominates.

    Each bound is scaled down by ``1 - slack`` before the dominance test,
    so a candidate falls out only when a confirmed point beats even the
    improvement the solver could plausibly deliver.  This is the halving
    step — interior candidates fall out, frontier-adjacent ones survive
    to the next rung.
    """
    confirmed = objective_matrix(
        [r.objectives for r in ilp_results.values() if r.ok and r.objectives]
    )
    if confirmed.size == 0 or not remaining:
        return remaining
    survivors: dict[str, Candidate] = {}
    for fingerprint, candidate in remaining.items():
        bound = bounds[fingerprint] * (1.0 - slack)
        dominated = bool(
            np.any(
                (confirmed <= bound).all(axis=1)
                & (confirmed < bound).any(axis=1)
            )
        )
        if not dominated:
            survivors[fingerprint] = candidate
    return survivors
