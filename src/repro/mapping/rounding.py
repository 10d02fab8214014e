"""LP-guided rounding for mapping models (the ``lp_round`` arm's engine).

The generic :func:`repro.ilp.greedy_rounding.lp_rounding_warm_start`
fix-and-round works on any model but knows nothing about mapping
structure, so on the mapping formulations it either stalls (every
fractional fix triggers a cascade of re-solves) or lands far from good
incumbents.  This module exploits what the formulations guarantee: a
model solution *is* a neuron->slot mapping, mappings are cheap to repair
and score incrementally through
:class:`~repro.mapping.delta.DeltaEvaluator`, and any valid mapping
converts back to a feasible variable vector via the builder's
``warm_start_from``.

:class:`MappingRoundingGuide` is attached by the model builders as
``model.rounding_guide`` (a duck-typed hook -
:class:`~repro.ilp.lp_round.LpRoundBackend` looks it up by name, the ILP
layer keeps no import of the mapping layer).  Its pipeline:

1. **seed** — the warm-start vector's placement when one is given (the
   pipeline always seeds route stages), else greedy first-fit;
2. **LP-guided pass** — relocate each neuron to its LP-preferred slot
   when that is feasible and not worse (on these formulations the LP
   point is often fully fractional and guides weakly, which is why the
   later stages carry the quality);
3. **delta local search** — best-improvement relocations plus pairwise
   swaps.  Each candidate is scored by a read-only
   :meth:`DeltaEvaluator.probe` (O(fan-in), no move and undo); a swap
   makes one real move, probes the partner's move and then either
   completes it or undoes the first;
4. **ruin-and-recreate** — repeatedly empty a couple of random slots,
   greedily re-insert each mover at its best probed slot, re-run local
   search, keep the best; this crosses the plateaus single moves cannot
   (measured on fig2-E SNU it beats the node-capped exact incumbent in
   well under a second).  The trial budget (``max_trials``) normally ends
   the search; the deadline only cuts it short on slow hosts, and the
   incumbent is deterministic whenever it does not.

Every accepted move preserves mapping validity and the model's area
budget, so the final incumbent is feasible by construction; the backend
still verifies it against the lowered rows before reporting.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .delta import DeltaEvaluator
from .greedy import greedy_first_fit
from .solution import Mapping

_EPS = 1e-9


@dataclass
class MappingRoundingGuide:
    """Model-aware rounding attached as ``model.rounding_guide``.

    ``handle`` is the owning builder (:class:`AreaModel` or
    :class:`RouteModel`): it supplies the problem, the variable layout and
    the symmetry-aware ``warm_start_from`` used to emit the final vector.
    ``objective`` picks the score the delta search minimizes — ``"area"``
    (lexicographic area then routes, the area formulations) or
    ``"routes"`` (global routes, the SNU/PGO formulations; PGO's weighted
    objective is searched by its unweighted proxy, which keeps every probe
    O(affected) and still yields a feasible incumbent the model scores
    exactly).
    """

    handle: object
    objective: str = "area"
    symmetry: str = "off"

    # ------------------------------------------------------------------
    def round(
        self,
        lp_x: np.ndarray | None,
        warm_start: np.ndarray | None,
        deadline: float | None,
        rng: random.Random,
    ) -> np.ndarray | None:
        """A feasible incumbent vector, or ``None`` when no seed exists."""
        problem = self.handle.problem
        layout = self.handle._layout
        allowed = [int(j) for j in layout.slot_ids.tolist()]
        budget = self._area_budget()

        seed = self._seed_mapping(warm_start, allowed, budget)
        if seed is None:
            return None
        ev = DeltaEvaluator(problem, dict(seed.assignment))

        if lp_x is not None:
            self._lp_guided_pass(ev, lp_x, layout, allowed, budget)

        neurons = problem.network.neuron_ids()
        self._improve(ev, neurons, allowed, budget, deadline)
        best = dict(ev.to_mapping().assignment)
        best_score = self._key(*ev.score())
        best = self._ruin_recreate(
            ev, best, best_score, neurons, allowed, budget, deadline, rng
        )
        return self.handle.warm_start_from(Mapping(problem, best))

    # ------------------------------------------------------------------
    def _area_budget(self) -> float | None:
        options = getattr(self.handle, "options", None)
        return getattr(options, "area_budget", None)

    def _key(self, area: float, routes: int) -> tuple[float, float]:
        """The score the search minimizes, from an area and route count."""
        if self.objective == "area":
            return (area, float(routes))
        return (float(routes), area)

    def _probe(
        self, ev: DeltaEvaluator, neuron: int, dst: int, budget: float | None
    ) -> tuple[float, float] | None:
        """The score after relocating ``neuron`` to ``dst``, or ``None``
        when the move breaks a capacity or the area budget."""
        feasible, area, routes = ev.probe(neuron, dst)
        if not feasible or (budget is not None and area > budget + _EPS):
            return None
        return self._key(area, routes)

    def _seed_mapping(
        self,
        warm_start: np.ndarray | None,
        allowed: Sequence[int],
        budget: float | None,
    ) -> Mapping | None:
        problem = self.handle.problem
        layout = self.handle._layout
        if warm_start is not None:
            assignment, counts = layout.placement_from_x(warm_start)
            if len(assignment) == layout.num_neurons and not np.any(counts > 1):
                mapping = Mapping(problem, assignment)
                if not mapping.validate():
                    return mapping
        # No (usable) warm start: greedy first-fit, accepted only when it
        # stays inside this model's slot universe and area budget.
        try:
            mapping = greedy_first_fit(problem)
        except Exception:
            return None
        allowed_set = set(allowed)
        if any(j not in allowed_set for j in mapping.assignment.values()):
            return None
        if budget is not None and mapping.area() > budget + _EPS:
            return None
        return mapping

    def _lp_guided_pass(
        self,
        ev: DeltaEvaluator,
        lp_x: np.ndarray,
        layout,
        allowed: Sequence[int],
        budget: float | None,
    ) -> None:
        n, m = layout.num_neurons, layout.num_model_slots
        xs = np.asarray(lp_x)[layout.x_base : layout.x_base + n * m].reshape(n, m)
        # Most-confident neurons first: ties in the fully-fractional case
        # keep the pass a cheap no-op rather than a random shuffle.
        for i in np.argsort(-xs.max(axis=1)).tolist():
            src = ev.slot_of(i)
            pref = allowed[int(np.argmax(xs[i]))]
            if pref == src or xs[i].max() < 0.5:
                continue
            score = self._probe(ev, i, pref, budget)
            if score is not None and score <= self._key(*ev.score()):
                ev.move(i, pref)

    def _improve(
        self,
        ev: DeltaEvaluator,
        neurons: Sequence[int],
        allowed: Sequence[int],
        budget: float | None,
        deadline: float | None,
        max_rounds: int = 20,
    ) -> None:
        """Best-improvement relocations + first-improvement swaps to a
        local optimum of :meth:`_key`."""
        for _ in range(max_rounds):
            improved = False
            for i in neurons:
                src = ev.slot_of(i)
                best = None
                before = self._key(*ev.score())
                for dst in allowed:
                    if dst == src:
                        continue
                    score = self._probe(ev, i, dst, budget)
                    if score is not None and score < before and (
                        best is None or score < best[0]
                    ):
                        best = (score, dst)
                if best is not None:
                    ev.move(i, best[1])
                    improved = True
            if deadline is not None and time.perf_counter() > deadline:
                return
            for a in neurons:
                for b in neurons:
                    if b <= a:
                        continue
                    ja, jb = ev.slot_of(a), ev.slot_of(b)
                    if ja == jb:
                        continue
                    before = self._key(*ev.score())
                    ev.move(a, jb)
                    score = self._probe(ev, b, ja, budget)
                    if score is not None and score < before:
                        ev.move(b, ja)
                        improved = True
                    else:
                        ev.move(a, ja)
            if not improved:
                return
            if deadline is not None and time.perf_counter() > deadline:
                return

    def _ruin_recreate(
        self,
        ev: DeltaEvaluator,
        best: dict[int, int],
        best_score: tuple[float, float],
        neurons: Sequence[int],
        allowed: Sequence[int],
        budget: float | None,
        deadline: float | None,
        rng: random.Random,
        max_trials: int = 200,
    ) -> dict[int, int]:
        problem = self.handle.problem
        for _ in range(max_trials):
            if deadline is not None and time.perf_counter() > deadline:
                break
            trial = DeltaEvaluator(problem, dict(best))
            occupied = sorted(trial.occupied_slots())
            if len(occupied) < 2:
                break
            victims = rng.sample(occupied, min(2, len(occupied)))
            movers = [i for j in victims for i in sorted(trial.members_of(j))]
            rng.shuffle(movers)
            for i in movers:
                src = trial.slot_of(i)
                pick = None
                for dst in allowed:
                    if dst == src:
                        continue
                    score = self._probe(trial, i, dst, budget)
                    if score is not None and (pick is None or score < pick[0]):
                        pick = (score, dst)
                if pick is not None:
                    trial.move(i, pick[1])
            self._improve(trial, neurons, allowed, budget, deadline)
            score = self._key(*trial.score())
            if score < best_score:
                best_score = score
                best = dict(trial.to_mapping().assignment)
        return best
