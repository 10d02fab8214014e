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
3. **descent** — :meth:`MoveEngine.improve
   <repro.mapping.local_search.MoveEngine.improve>`: best-improvement
   relocations plus pairwise swaps over the model's slots, each
   candidate scored by a read-only :meth:`DeltaEvaluator.probe`;
4. **ruin-and-recreate** — :meth:`MoveEngine.ruin_recreate
   <repro.mapping.local_search.MoveEngine.ruin_recreate>`: repeatedly
   empty a couple of random slots, re-insert the movers, descend again
   and keep the best; this crosses the plateaus single moves cannot
   (measured on fig2-E SNU it beats the node-capped exact incumbent in
   well under a second).  The trial budget (200) normally ends the
   search; the deadline only cuts it short on slow hosts, and the
   incumbent is deterministic whenever it does not.

Every accepted move preserves mapping validity and the model's area
budget, so the final incumbent is feasible by construction; the backend
still verifies it against the lowered rows before reporting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .delta import DeltaEvaluator
from .greedy import greedy_first_fit
from .local_search import AREA_TOL, MoveEngine
from .solution import Mapping


@dataclass
class MappingRoundingGuide:
    """Model-aware rounding attached as ``model.rounding_guide``.

    ``handle`` is the owning builder (:class:`AreaModel` or
    :class:`RouteModel`): it supplies the problem, the variable layout and
    the ``warm_start_from`` used to emit the final vector.
    ``objective`` picks the score the delta search minimizes — ``"area"``
    (lexicographic area then routes, the area formulations) or
    ``"routes"`` (global routes, the SNU/PGO formulations; PGO's weighted
    objective is searched by its unweighted proxy, which keeps every probe
    O(affected) and still yields a feasible incumbent the model scores
    exactly).
    """

    handle: object
    objective: str = "area"

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
        options = getattr(self.handle, "options", None)
        engine = MoveEngine(
            [int(j) for j in layout.slot_ids.tolist()],
            routes_first=self.objective == "routes",
            budget=getattr(options, "area_budget", None),
            deadline=deadline,
        )

        seed = self._seed_mapping(warm_start, engine)
        if seed is None:
            return None
        ev = DeltaEvaluator(problem, dict(seed.assignment))

        if lp_x is not None:
            self._lp_guided_pass(ev, lp_x, layout, engine)

        neurons = problem.network.neuron_ids()
        engine.improve(ev, neurons)
        best = engine.ruin_recreate(ev, neurons, rng)
        return self.handle.warm_start_from(Mapping(problem, best))

    # ------------------------------------------------------------------
    def _seed_mapping(
        self, warm_start: np.ndarray | None, engine: MoveEngine
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
        # stays inside this model's slot universe and area budget.  Pool
        # exhaustion is greedy's one documented failure; anything else is
        # a bug and propagates.
        try:
            mapping = greedy_first_fit(problem)
        except RuntimeError:
            return None
        allowed = set(engine.slots)
        if any(j not in allowed for j in mapping.assignment.values()):
            return None
        budget = engine.budget
        if budget is not None and mapping.area() > budget + AREA_TOL:
            return None
        return mapping

    def _lp_guided_pass(
        self,
        ev: DeltaEvaluator,
        lp_x: np.ndarray,
        layout,
        engine: MoveEngine,
    ) -> None:
        n, m = layout.num_neurons, layout.num_model_slots
        xs = np.asarray(lp_x)[layout.x_base : layout.x_base + n * m].reshape(n, m)
        allowed = engine.slots
        # Most-confident neurons first: ties in the fully-fractional case
        # keep the pass a cheap no-op rather than a random shuffle.
        for i in np.argsort(-xs.max(axis=1)).tolist():
            src = ev.slot_of(i)
            pref = allowed[int(np.argmax(xs[i]))]
            if pref == src or xs[i].max() < 0.5:
                continue
            score = engine.probe(ev, i, pref)
            if score is not None and score <= engine.key(ev):
                ev.move(i, pref)
