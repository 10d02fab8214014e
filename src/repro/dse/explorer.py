"""Scenario evaluation plumbing shared by every search driver.

The :class:`Explorer` turns scenarios into scored design points at two
cost tiers:

- :meth:`evaluate_greedy` — greedy first-fit placement only, no ILP.
  Milliseconds per scenario; the adaptive driver uses these bounds to
  decide where real solver budget is worth spending.
- :meth:`evaluate_ilp` — the full staged mapping pipeline through
  :class:`~repro.batch.engine.BatchMapper` (``jobs`` worker processes,
  optional per-rung solver specs), one ``map_all`` call per evaluation.
  Every scenario is its own ILP: warm starts flow between the stages of
  one pipeline, never between scenarios, so an answer depends only on
  its scenario — not on what the explorer solved before it.

Both tiers are **resumable**: every finished evaluation lands in the
:class:`~repro.dse.store.RunStore` keyed by scenario fingerprint, and a
scenario whose fingerprint already has a successful entry at the
requested tier is rehydrated from the store instead of re-solved.  An
ILP scenario that misses is looked up once more by its solve key (the
batch-job fingerprint, which leaves out a profile no ``pgo`` stage
reads): a proven-optimal entry under that key is re-scored under this
scenario's profile and NoC, at zero solves.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .. import trace
from ..batch.cache import ResultCache
from ..batch.engine import BatchMapper, solve_summary
from ..mapping.greedy import greedy_first_fit
from ..mapping.problem import MappingProblem
from ..mapping.solution import Mapping
from . import TIER_GREEDY, TIER_ILP
from .objectives import ObjectivePoint, evaluate_objectives, objective_matrix
from .pareto import hypervolume, nondominated_mask, reference_point
from .scenario import Scenario, ScenarioRegistry
from .store import RunEntry, RunStore


@dataclass
class ScenarioResult:
    """One scenario's scored outcome at some tier.

    ``stages`` holds one entry per stage solve actually run for this
    result: the engine's :func:`~repro.batch.engine.solve_summary` plus
    the ``stage`` name.  Cache hits, store resumes, re-scored solve-key
    hits and greedy results carry ``()``.  The entries travel with the
    result to the service, never into the run store.

    ``solve_key`` is the batch-job fingerprint an ILP answer was solved
    under and ``optimal`` whether every stage closed ``optimal``; both
    go into the run store's entry.
    """

    scenario: Scenario
    fingerprint: str
    tier: str
    status: str
    objectives: ObjectivePoint | None = None
    assignment: dict[int, int] | None = None
    stages: tuple[dict, ...] = ()
    wall_time: float = 0.0
    error: str | None = None
    from_store: bool = False
    solve_key: str | None = None
    optimal: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def solves(self) -> int:
        """ILP solves actually executed for this result."""
        return len(self.stages)

    def entry(self, meta: dict | None = None) -> RunEntry:
        return RunEntry(
            fingerprint=self.fingerprint,
            tier=self.tier,
            scenario=self.scenario.payload(),
            status=self.status,
            objectives=self.objectives.as_dict() if self.objectives else None,
            assignment=(
                {str(i): j for i, j in self.assignment.items()}
                if self.assignment is not None
                else None
            ),
            solves=self.solves,
            wall_time=self.wall_time,
            error=self.error,
            meta=meta or {},
            solve_key=self.solve_key,
            optimal=self.optimal,
        )


class Explorer:
    """Evaluates scenarios through the batch engine, store-first.

    A pooled explorer (``jobs > 1``) solves in pool processes, which
    record no ``stage:*``/``phase:*`` trace spans.
    """

    def __init__(
        self,
        registry: ScenarioRegistry | None = None,
        store: RunStore | None = None,
        jobs: int = 1,
        portfolio: bool = False,
        cache: ResultCache | None = None,
        time_limit: float | None = 10.0,
        mapper: BatchMapper | None = None,
    ) -> None:
        self.registry = registry if registry is not None else ScenarioRegistry()
        # `store or ...` would discard an *empty* persistent store (its
        # __len__ makes it falsy) — the resume path depends on identity.
        self.store = store if store is not None else RunStore()
        # One BatchMapper for the explorer's whole life: the mapping
        # service hands many client jobs through a single explorer, and
        # they must share one engine.  An explicit ``mapper`` wins over
        # the (jobs, portfolio, cache) knobs.
        self.mapper = (
            mapper
            if mapper is not None
            else BatchMapper(jobs=jobs, portfolio=portfolio, cache=cache)
        )
        self.time_limit = time_limit

    # The mapper is the single source of truth for engine configuration;
    # these are read-only views so stale copies cannot drift from it.
    @property
    def jobs(self) -> int:
        return self.mapper.jobs

    @property
    def portfolio(self) -> bool:
        return self.mapper.portfolio

    def solve_key(self, scenario: Scenario) -> str:
        """The batch-job fingerprint ``scenario`` is solved under.

        Scenarios that differ only in what scores a mapping (a profile no
        ``pgo`` stage reads, the NoC) share it, and so share one solve.
        """
        return self.registry.to_job(scenario).fingerprint(self.portfolio)

    # ------------------------------------------------------------------
    def _safe_fingerprint(self, scenario: Scenario) -> tuple[str, str | None]:
        """(fingerprint, construction error) for one scenario.

        Fingerprinting constructs the scenario's network and pool, which
        can fail (unknown twin name, fan-in wider than every crossbar).
        A failed construction still yields a deterministic store key —
        the digest of the declarative payload — so the error is recorded
        per-scenario instead of aborting the whole sweep.
        """
        from ..mapping.fingerprint import digest

        try:
            return self.registry.fingerprint(scenario), None
        except Exception as exc:
            return (
                "invalid-" + digest(scenario.payload()),
                f"{type(exc).__name__}: {exc}",
            )

    def _construction_error(
        self,
        scenario: Scenario,
        fingerprint: str,
        tier: str,
        error: str,
        meta: dict | None,
    ) -> ScenarioResult:
        result = ScenarioResult(
            scenario=scenario,
            fingerprint=fingerprint,
            tier=tier,
            status="error",
            error=error,
        )
        self.store.record(result.entry(meta))
        return result

    def _noc(self, scenario: Scenario):
        return scenario.architecture.noc(self.registry.pool(scenario))

    def _score(self, scenario: Scenario, mapping) -> ObjectivePoint:
        return evaluate_objectives(
            mapping,
            self.registry.profile(scenario.workload),
            noc=self._noc(scenario),
        )

    def _from_store(
        self, scenario: Scenario, fingerprint: str, tier: str
    ) -> ScenarioResult | None:
        entry = self.store.get(fingerprint, tier)
        if entry is None or not entry.ok or entry.objectives is None:
            return None
        assignment = (
            {int(i): int(j) for i, j in entry.assignment.items()}
            if entry.assignment
            else None
        )
        return ScenarioResult(
            scenario=scenario,
            fingerprint=fingerprint,
            tier=tier,
            status="ok",
            objectives=ObjectivePoint.from_dict(entry.objectives),
            assignment=assignment,
            from_store=True,
        )

    # ------------------------------------------------------------------
    def evaluate_greedy(
        self, scenarios: list[Scenario], meta: dict | None = None
    ) -> list[ScenarioResult]:
        """Cheap bound per scenario: greedy placement, no ILP."""
        results: list[ScenarioResult] = []
        for scenario in scenarios:
            fingerprint, bad = self._safe_fingerprint(scenario)
            if bad is not None:
                results.append(
                    self._construction_error(
                        scenario, fingerprint, TIER_GREEDY, bad, meta
                    )
                )
                continue
            resumed = self._from_store(scenario, fingerprint, TIER_GREEDY)
            if resumed is not None:
                results.append(resumed)
                continue
            start = time.perf_counter()
            try:
                problem = MappingProblem(
                    self.registry.network(scenario.workload),
                    self.registry.pool(scenario),
                )
                mapping = greedy_first_fit(problem)
                result = ScenarioResult(
                    scenario=scenario,
                    fingerprint=fingerprint,
                    tier=TIER_GREEDY,
                    status="ok",
                    objectives=self._score(scenario, mapping),
                    assignment=dict(mapping.assignment),
                    wall_time=time.perf_counter() - start,
                )
            except Exception as exc:
                result = ScenarioResult(
                    scenario=scenario,
                    fingerprint=fingerprint,
                    tier=TIER_GREEDY,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                    wall_time=time.perf_counter() - start,
                )
            self.store.record(result.entry(meta))
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def evaluate_ilp(
        self,
        scenarios: list[Scenario],
        time_limit: float | None = None,
        meta: dict | None = None,
        should_cancel=None,
        solver_spec=None,
    ) -> list[ScenarioResult]:
        """Full pipeline evaluation, store-first, one batch per call.

        Scenarios already answered in the store are returned without a
        solve, and so are scenarios whose solve key has a proven-optimal
        entry (re-scored, see :meth:`_rescore`); the rest run through a
        single :meth:`BatchMapper.map_all` call.  Each job is built from
        its scenario alone, so the answer does not depend on its siblings
        in this call or on earlier calls.

        ``should_cancel`` is polled at job boundaries inside the batch
        engine (see :meth:`BatchMapper.map_all`); cancelled scenarios are
        recorded as errors, never as answers.

        ``solver_spec`` (a :class:`~repro.ilp.solve.SolverSpec`) sets the
        solver limits of every job of this call — the adaptive driver's
        per-rung fidelity knob.  It only takes effect when the mapper runs
        with ``portfolio=True``, and it changes the job fingerprints, so
        rungs tuned differently cache separately.
        """
        limit = self.time_limit if time_limit is None else time_limit
        fingerprints: list[str] = []
        by_fingerprint: dict[str, ScenarioResult] = {}
        seen: set[str] = set()
        jobs = []
        built: list[tuple[Scenario, str]] = []
        with trace.span("scenario-build", scenarios=len(scenarios)):
            for scenario in scenarios:
                fingerprint, bad = self._safe_fingerprint(scenario)
                fingerprints.append(fingerprint)
                if fingerprint in seen:
                    continue  # duplicate spelling of the same instance
                seen.add(fingerprint)
                if bad is not None:
                    by_fingerprint[fingerprint] = self._construction_error(
                        scenario, fingerprint, TIER_ILP, bad, meta
                    )
                    continue
                resumed = self._from_store(scenario, fingerprint, TIER_ILP)
                if resumed is not None:
                    by_fingerprint[fingerprint] = resumed
                    continue
                try:
                    # Building the job simulates the workload's spike
                    # profile; record a failure against the scenario rather
                    # than aborting its siblings.
                    job = self.registry.to_job(scenario, time_limit=limit)
                    if solver_spec is not None:
                        job = dataclasses.replace(job, solver_spec=solver_spec)
                except Exception as exc:
                    by_fingerprint[fingerprint] = self._construction_error(
                        scenario,
                        fingerprint,
                        TIER_ILP,
                        f"{type(exc).__name__}: {exc}",
                        meta,
                    )
                    continue
                solved = self.store.solved(job.fingerprint(self.portfolio))
                if solved is not None:
                    by_fingerprint[fingerprint] = self._rescore(
                        scenario, fingerprint, job, solved, meta
                    )
                    continue
                jobs.append(job)
                built.append((scenario, fingerprint))
        if jobs:
            # Batch job names must be unique; scenario names already are
            # within one space, but guard against collisions from
            # hand-built scenario lists.
            names = [job.name for job in jobs]
            if len(set(names)) != len(names):
                jobs = [
                    dataclasses.replace(job, name=f"{job.name}#{idx}")
                    for idx, job in enumerate(jobs)
                ]
            batch = self.mapper.map_all(jobs, should_cancel=should_cancel)
            for (scenario, fingerprint), record in zip(built, batch.records):
                result = self._result_from_record(scenario, fingerprint, record)
                self.store.record(result.entry(meta))
                by_fingerprint[fingerprint] = result
        return [by_fingerprint[fp] for fp in fingerprints]

    def _rescore(
        self,
        scenario: Scenario,
        fingerprint: str,
        job,
        solved: RunEntry,
        meta: dict | None,
    ) -> ScenarioResult:
        """Answer ``scenario`` with a proven optimum of the same solve.

        The stored assignment is re-scored under this scenario's own
        profile and NoC, and recorded with 0 solves and
        ``meta["solved_as"]`` naming the scenario that was solved.
        """
        start = time.perf_counter()
        assignment = {int(i): int(j) for i, j in solved.assignment.items()}
        mapping = Mapping(job.build_problem(), assignment)
        result = ScenarioResult(
            scenario=scenario,
            fingerprint=fingerprint,
            tier=TIER_ILP,
            status="ok",
            objectives=self._score(scenario, mapping),
            assignment=assignment,
            wall_time=time.perf_counter() - start,
            from_store=True,
            solve_key=solved.solve_key,
            optimal=True,
        )
        source = solved.meta.get("solved_as", solved.fingerprint)
        self.store.record(result.entry({**(meta or {}), "solved_as": source}))
        return result

    def _result_from_record(
        self, scenario: Scenario, fingerprint: str, record
    ) -> ScenarioResult:
        if not record.ok:
            return ScenarioResult(
                scenario=scenario,
                fingerprint=fingerprint,
                tier=TIER_ILP,
                status="error",
                error=record.error,
                wall_time=record.wall_time,
            )
        mapping = record.final().mapping
        stages = tuple(
            {"stage": name, **solve_summary(stage.solve_result)}
            for name, stage in record.stages.items()
            if stage.solve_result is not None and not record.from_cache
        )
        return ScenarioResult(
            scenario=scenario,
            fingerprint=fingerprint,
            tier=TIER_ILP,
            status="ok",
            objectives=self._score(scenario, mapping),
            assignment=dict(mapping.assignment),
            stages=stages,
            wall_time=record.wall_time,
            solve_key=record.fingerprint,
            optimal=record.optimal,
        )


# ----------------------------------------------------------------------
@dataclass
class ExplorationResult:
    """A finished sweep: every scored scenario plus driver accounting."""

    results: list[ScenarioResult]
    driver: str
    ilp_solves: int = 0
    greedy_evaluations: int = 0
    resumed: int = 0
    pruned: tuple[str, ...] = ()  # fingerprints skipped by the driver
    wall_time: float = 0.0
    meta: dict = field(default_factory=dict)

    def ok_results(self) -> list[ScenarioResult]:
        return [r for r in self.results if r.ok and r.objectives is not None]

    def frontier(self) -> list[ScenarioResult]:
        """The non-dominated scored scenarios (area, energy, latency)."""
        scored = self.ok_results()
        if not scored:
            return []
        mask = nondominated_mask(
            objective_matrix([r.objectives for r in scored])
        )
        return [r for r, keep in zip(scored, mask) if keep]

    def objective_points(self) -> np.ndarray:
        return objective_matrix([r.objectives for r in self.ok_results()])

    def hypervolume(self, ref=None) -> float:
        points = self.objective_points()
        if points.size == 0:
            return 0.0
        reference = ref if ref is not None else reference_point(points)
        return hypervolume(points, reference)

    def report(self) -> str:
        """Fixed-width frontier table (the sweep's terminal 'figure')."""
        from ..experiments.runner import format_table

        frontier = sorted(
            self.frontier(), key=lambda r: r.objectives.area  # type: ignore[union-attr]
        )
        frontier_keys = {r.fingerprint for r in frontier}
        rows = []
        for result in self.ok_results():
            obj = result.objectives
            assert obj is not None
            rows.append(
                (
                    "*" if result.fingerprint in frontier_keys else "",
                    result.scenario.name,
                    round(obj.area, 1),
                    round(obj.energy, 1),
                    int(obj.latency),
                    result.solves,
                    "store" if result.from_store else "",
                )
            )
        rows.sort(key=lambda row: (row[0] != "*", row[2]))
        header = [
            "front",
            "scenario",
            "area",
            "energy_pj",
            "latency",
            "solves",
            "src",
        ]
        lines = [format_table(header, rows)]
        lines.append(
            f"\n{len(frontier)}/{len(self.ok_results())} non-dominated; "
            f"{self.ilp_solves} ILP solve(s), {self.resumed} resumed, "
            f"{len(self.pruned)} pruned [{self.driver}]"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "driver": self.driver,
            "ilp_solves": self.ilp_solves,
            "greedy_evaluations": self.greedy_evaluations,
            "resumed": self.resumed,
            "pruned": len(self.pruned),
            "wall_time": self.wall_time,
            "hypervolume": self.hypervolume(),
            "evaluated": len(self.ok_results()),
            "frontier": [
                {
                    "scenario": r.scenario.name,
                    "fingerprint": r.fingerprint,
                    **(r.objectives.as_dict() if r.objectives else {}),
                }
                for r in sorted(
                    self.frontier(),
                    key=lambda r: r.objectives.area,  # type: ignore[union-attr]
                )
            ],
            "meta": self.meta,
        }
