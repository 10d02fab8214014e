"""The move engine: iterative-swap search over mappings (paper §V-E).

The paper's area-breakdown experiment observes that "preferred crossbar
sizes were clearly identified quickly before solutions were slowly
refined" and notes that "the iterative swapping approach in [22] is
validated with our data" as a route toward finding optimal solutions
faster.  This module is the one implementation of that idea in the repo:
the search runs on :class:`MoveEngine` over a
:class:`~repro.mapping.delta.DeltaEvaluator`, under the policy of each of
its one caller, :func:`polish_routes`, the area stage's route tie-break
(:class:`~repro.mapping.pipeline.MappingPipeline` runs it when the area
stage ends the pipeline): every pool slot as a destination,
``(area, routes)`` as the score and a fixed trial count.

The engine's moves:

- **relocate** — best-improvement: each neuron moves to the slot with the
  best probed score, when that beats the current one;
- **swap** — first-improvement over neuron pairs on different slots: one
  real move, a probe of the partner's move, then completion or undo;
- **ruin-and-recreate** — empty two random occupied slots, re-insert each
  mover at its best probed slot, descend again and keep the best trial.
  This is what empties and downsizes crossbars: single moves cannot
  cross the plateau between two half-full slots and one cheaper one.

Every candidate is scored by the read-only :meth:`DeltaEvaluator.probe`
(O(fan-in), no move and undo), and a move is accepted only when both
slots stay within capacity, so a search started from a valid mapping
ends on one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .delta import DeltaEvaluator
from .solution import Mapping

#: Ruin-and-recreate trials of :func:`polish_routes`.
POLISH_TRIALS = 20


@dataclass(frozen=True, slots=True)
class MoveEngine:
    """Relocations, swaps and ruin-and-recreate over a ``DeltaEvaluator``.

    ``slots`` are the destinations a move may use, in candidate order.
    The score minimized is ``(area, global routes)``, compared as a
    float pair.
    """

    slots: Sequence[int]

    def key(self, ev: DeltaEvaluator) -> tuple[float, float]:
        """The score of the evaluator's current state."""
        area, routes = ev.score()
        return area, float(routes)

    def probe(
        self, ev: DeltaEvaluator, neuron: int, dst: int
    ) -> tuple[float, float] | None:
        """The score after relocating ``neuron`` to ``dst``, or ``None``
        when the move breaks a capacity."""
        feasible, area, routes = ev.probe(neuron, dst)
        if not feasible:
            return None
        return area, float(routes)

    def improve(
        self, ev: DeltaEvaluator, neurons: Sequence[int], max_rounds: int = 20
    ) -> None:
        """Best-improvement relocations + first-improvement swaps to a
        local optimum of :meth:`key` (or ``max_rounds`` rounds)."""
        for _ in range(max_rounds):
            improved = False
            for i in neurons:
                src = ev.slot_of(i)
                best = None
                before = self.key(ev)
                for dst in self.slots:
                    if dst == src:
                        continue
                    score = self.probe(ev, i, dst)
                    if score is not None and score < before and (
                        best is None or score < best[0]
                    ):
                        best = (score, dst)
                if best is not None:
                    ev.move(i, best[1])
                    improved = True
            for a in neurons:
                for b in neurons:
                    if b <= a:
                        continue
                    ja, jb = ev.slot_of(a), ev.slot_of(b)
                    if ja == jb:
                        continue
                    before = self.key(ev)
                    ev.move(a, jb)
                    score = self.probe(ev, b, ja)
                    if score is not None and score < before:
                        ev.move(b, ja)
                        improved = True
                    else:
                        ev.move(a, ja)
            if not improved:
                return

    def ruin_recreate(
        self,
        ev: DeltaEvaluator,
        neurons: Sequence[int],
        rng: random.Random,
        max_trials: int = 200,
    ) -> dict[int, int]:
        """The best placement over ``ev``'s state and ``max_trials``
        ruin-and-recreate trials from the best so far.

        Each trial runs on its own evaluator (inheriting ``ev.verify``);
        ``ev`` itself is left as it was.
        """
        best = ev.assignment()
        best_score = self.key(ev)
        for _ in range(max_trials):
            trial = DeltaEvaluator(ev.problem, dict(best), verify=ev.verify)
            occupied = sorted(trial.occupied_slots())
            if len(occupied) < 2:
                break
            victims = rng.sample(occupied, min(2, len(occupied)))
            movers = [i for j in victims for i in sorted(trial.members_of(j))]
            rng.shuffle(movers)
            for i in movers:
                src = trial.slot_of(i)
                pick = None
                for dst in self.slots:
                    if dst == src:
                        continue
                    score = self.probe(trial, i, dst)
                    if score is not None and (pick is None or score < pick[0]):
                        pick = (score, dst)
                if pick is not None:
                    trial.move(i, pick[1])
            self.improve(trial, neurons)
            score = self.key(trial)
            if score < best_score:
                best_score = score
                best = trial.assignment()
        return best


def polish_routes(mapping: Mapping) -> Mapping:
    """A mapping of no more area and no more global routes than ``mapping``.

    The area optimum has ties, and which one a solver lands on decides
    the routes of an area-only answer.  This breaks the tie explicitly:
    :meth:`MoveEngine.improve` over every pool slot, then
    :data:`POLISH_TRIALS` ruin-and-recreate trials seeded with
    ``random.Random(0)``, all under the ``(area, global routes)`` key.
    Every accepted move keeps both slots within capacity, so a valid
    input gives a valid output, and the result is deterministic.
    """
    problem = mapping.problem
    ev = DeltaEvaluator(problem, dict(mapping.assignment))
    engine = MoveEngine(range(problem.num_slots))
    neurons = problem.network.neuron_ids()
    engine.improve(ev, neurons)
    best = engine.ruin_recreate(
        ev, neurons, random.Random(0), max_trials=POLISH_TRIALS
    )
    return Mapping(problem, best)
