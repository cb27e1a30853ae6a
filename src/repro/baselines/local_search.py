"""Move-based local search with DDFW-style adaptive constraint weights.

Instead of redrawing whole mappings, this scheduler walks the map space one
*move* at a time — relocating a single prime factor between (level,
temporal/spatial) slots, swapping two temporal loops, or flipping a factor
between temporal and spatial at one level (:mod:`repro.mapping.moves`).

Guidance borrows the *divide and distribute fixed weights* (DDFW) idea from
SAT local search: each constraint group — buffer **capacity**, spatial
**fanout**, and a soft compute-**utilization** target — carries a weight, and
the search minimises ``cost/ref + sum(weight * violation)``.  The raw cost
term stays finite even for invalid states, so the search can cross
infeasible regions instead of rejecting them outright.  On a plateau (no
proposed move improves the guidance), weight is *transferred* from the
maximum-weight satisfied group to every violated group
(``weight_transfer * donor + weight_increment`` each), re-shaping the
landscape until the violated constraints dominate and the search is pushed
back into the feasible region; with a small ``perturbation`` probability the
best proposal is committed anyway (random-walk escape).

Lockstep walkers
----------------
Per layer, :attr:`LocalSearchScheduler.WALKERS` independent walkers advance
in lockstep, each with its own state, weights, reference cost, stall counter
and restarts.  One step proposes every walker's neighbourhood (or, for a
walker due to restart, its fresh batch of random draws), writes each
candidate straight into flat factor rows, and scores all rows with **one**
:class:`~repro.model.batch.CompiledKernel` call.  The kernel's detail view
supplies what the guidance needs besides the masked cost: the unmasked
latency/energy/utilization and the per-level buffer occupancy and spatial
products the violation magnitudes are summed from.  Each walker then applies
the accept, weight-transfer and perturbation rules above, in walker order,
drawing from the one per-layer RNG.  The walkers start from the best
distinct draws of one shared seed batch.

Scoring always goes through the kernel, so ``eval_batch_size`` cannot
change the outcome.  The final winner is re-costed by the scalar
:class:`~repro.model.cost.CostModel` oracle.
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.mapping.moves import MappingState
from repro.mapping.space import MapSpace
from repro.model.batch import BatchRows
from repro.model.cost import CostModel
from repro.workloads.layer import Layer

#: Constraint groups carrying DDFW weights.
CONSTRAINT_GROUPS = ("capacity", "spatial", "utilization")

#: Weights never decay below this floor, so no group is ever ignored.
MIN_WEIGHT = 0.1


class LocalSearchScheduler(SearchScheduler):
    """Lockstep local-search walkers guided by adaptive constraint weights.

    Parameters
    ----------
    accelerator:
        Target architecture.
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    seed:
        Base seed; perturbed per layer like the other baselines.
    max_evaluations:
        Total cost-evaluation budget per layer (seed and restart draws plus
        one per scored move, over all walkers) — the unit for equal-budget
        comparisons against the sampling baselines.
    init_samples:
        Random draws scored to seed the walkers (each takes one of the best
        distinct draws) and, per restart, to pick the restarted walker's new
        state (the best valid draw, else the first).
    moves_per_step:
        Candidate moves scored per walker and step; the best by guidance is
        committed when it improves on the walker's current state.
    weight_transfer / weight_increment:
        DDFW transfer rule: on a plateau every violated group receives
        ``weight_transfer * donor_weight + weight_increment`` from the
        maximum-weight satisfied group (or just the increment when every
        group is violated).
    perturbation:
        Probability of committing the best proposal on a plateau even though
        it worsens the guidance (random-walk escape).
    restart_after:
        Steps without improving the best valid cost before a walker
        restarts from a fresh best-of-``init_samples`` seed with reset
        weights (escapes basins no single move leads out of).
    utilization_target:
        Soft lower bound on compute utilization; the shortfall
        ``max(0, target - utilization) / target`` is the violation of the
        ``"utilization"`` group.  ``0`` disables the group.
    eval_batch_size / time_budget_seconds:
        See :class:`~repro.baselines.base.SearchScheduler`.  Every step is
        scored in one kernel call whatever ``eval_batch_size`` says, so the
        knob never changes the outcome; the time budget is checked once per
        step.
    """

    name = "local-search"

    #: Walkers advanced in lockstep per layer.  A constant of the algorithm
    #: (it shapes every outcome), so it enters the config fingerprint.
    WALKERS = 8

    def __init__(
        self,
        accelerator: Accelerator,
        metric: str = "latency",
        seed: int = 0,
        max_evaluations: int = 4000,
        init_samples: int = 64,
        moves_per_step: int = 8,
        weight_transfer: float = 0.2,
        weight_increment: float = 1.0,
        perturbation: float = 0.1,
        restart_after: int = 30,
        utilization_target: float = 0.5,
        eval_batch_size: int | None = None,
        time_budget_seconds: float | None = None,
    ):
        super().__init__(
            metric,
            eval_batch_size=eval_batch_size,
            time_budget_seconds=time_budget_seconds,
        )
        if max_evaluations < 1:
            raise ValueError(f"max_evaluations must be >= 1, got {max_evaluations}")
        if init_samples < 1:
            raise ValueError(f"init_samples must be >= 1, got {init_samples}")
        if moves_per_step < 1:
            raise ValueError(f"moves_per_step must be >= 1, got {moves_per_step}")
        if weight_transfer < 0 or weight_increment < 0:
            raise ValueError("weight_transfer and weight_increment must be >= 0")
        if not 0.0 <= perturbation <= 1.0:
            raise ValueError("perturbation must be within [0, 1]")
        if restart_after < 1:
            raise ValueError(f"restart_after must be >= 1, got {restart_after}")
        if utilization_target < 0 or utilization_target > 1:
            raise ValueError("utilization_target must be within [0, 1]")
        self.accelerator = accelerator
        self.seed = seed
        self.max_evaluations = max_evaluations
        self.init_samples = init_samples
        self.moves_per_step = moves_per_step
        self.weight_transfer = weight_transfer
        self.weight_increment = weight_increment
        self.perturbation = perturbation
        self.restart_after = restart_after
        self.utilization_target = utilization_target
        self._cost_model = CostModel(accelerator)

    def _config(self) -> dict:
        return {
            **super()._config(),
            "seed": self.seed,
            "max_evaluations": self.max_evaluations,
            "init_samples": self.init_samples,
            "moves_per_step": self.moves_per_step,
            "weight_transfer": self.weight_transfer,
            "weight_increment": self.weight_increment,
            "perturbation": self.perturbation,
            "restart_after": self.restart_after,
            "utilization_target": self.utilization_target,
            "walkers": self.WALKERS,
        }

    # ----------------------------------------------------------------- search
    def schedule(self, layer: Layer) -> SearchResult:
        """Run the lockstep weighted local search for ``layer``."""
        start = time.perf_counter()
        deadline = self._deadline(start)
        if self._out_of_time(deadline):
            return SearchResult(mapping=None, cost=None, elapsed_seconds=time.perf_counter() - start)
        rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name))
        space = MapSpace(layer, self.accelerator)
        kernel = self._batch_model().kernel_for(layer.problem)

        # Seed every walker from one shared batch: the best distinct draws,
        # valid ones by score, then invalid ones in draw order.
        draws = space.sample_batch(min(self.init_samples, self.max_evaluations), rng)
        rows = BatchRows(layer, space.num_levels)
        rows.add_draws(draws)
        view = self._score(kernel, rows)
        evaluations = len(draws)
        order = sorted(range(len(draws)), key=view.rank)
        walkers: list[_Walker] = []
        seen = set()
        for i in order:
            key = repr((draws.temporal[i], draws.spatial[i]))  # the placement, hashable
            if key not in seen and len(walkers) < self.WALKERS:
                seen.add(key)
                walkers.append(self._reseed(_Walker(), MappingState.from_draws(draws, i), view, i))
        best_score = view.score[order[0]]
        best_state = walkers[0].state.clone() if view.valid[order[0]] else None

        while evaluations < self.max_evaluations and not self._out_of_time(deadline):
            # Propose: every walker's neighbourhood (or restart draws), in
            # walker order, all written into one set of rows.
            rows = BatchRows(layer, space.num_levels)
            plans = []
            for walker in walkers:
                budget = self.max_evaluations - evaluations - len(rows)
                begin = len(rows)
                if budget <= 0:
                    plans.append(None)
                elif walker.state is None:
                    draws = space.sample_batch(min(self.init_samples, budget), rng)
                    rows.add_draws(draws)
                    plans.append((begin, draws))
                else:
                    moves = space.neighborhood(walker.state, rng, min(self.moves_per_step, budget))
                    state = walker.state
                    for move in moves:
                        undo = state.apply(move)
                        rows.add(state.temporal, state.spatial)
                        state.undo(undo)
                    plans.append((begin, moves) if moves else None)
            if not len(rows):
                break  # every walker is frozen: every loop bound is 1
            view = self._score(kernel, rows)
            evaluations += len(rows)

            # Select: each walker's DDFW rules, in walker order.
            for walker, plan in zip(walkers, plans):
                if plan is None:
                    continue
                begin, candidates = plan
                if walker.state is None:  # restart at the best valid draw, else the first
                    row = min(range(begin, begin + len(candidates)), key=view.rank)
                    self._reseed(walker, MappingState.from_draws(candidates, row - begin), view, row)
                    if view.score[row] < best_score:
                        best_state, best_score = walker.state.clone(), view.score[row]
                    continue

                improved_best = False
                best_row = -1
                best_guidance = float("inf")
                for i, move in enumerate(candidates):
                    row = begin + i
                    guidance = walker.guidance(view.raw[row], view.violations[row])
                    if guidance < best_guidance:
                        best_row, best_guidance = row, guidance
                    if view.valid[row] and view.score[row] < best_score:
                        undo = walker.state.apply(move)
                        best_state, best_score = walker.state.clone(), view.score[row]
                        walker.state.undo(undo)
                        improved_best = True

                walker.stalled = 0 if improved_best else walker.stalled + 1
                if walker.stalled >= self.restart_after:
                    walker.state = None  # basin exhausted: restart next step
                    continue
                if best_row < 0:
                    continue
                if best_guidance < walker.guidance(walker.raw, walker.violations):
                    walker.commit(candidates[best_row - begin], view, best_row)
                    continue

                # Plateau: re-shape the landscape (DDFW weight transfer), then
                # optionally random-walk through it.
                self._transfer_weights(walker.weights, walker.violations)
                if rng.random() < self.perturbation:
                    walker.commit(candidates[best_row - begin], view, best_row)

        best_mapping = best_state.to_mapping() if best_state is not None else None
        best_cost = self._cost_model.evaluate(best_mapping) if best_mapping is not None else None
        return SearchResult(
            mapping=best_mapping,
            cost=best_cost,
            num_sampled=evaluations,
            num_evaluated=evaluations,
            elapsed_seconds=time.perf_counter() - start,
        )

    def schedule_network(self, layers) -> list[SearchResult]:
        """Schedule every layer of a network independently."""
        return [self.schedule(layer) for layer in layers]

    # ------------------------------------------------------------- evaluation
    def _score(self, kernel, rows: BatchRows) -> "_View":
        """One kernel call over ``rows``: masked scores plus guidance terms."""
        detail = kernel.evaluate_detail(rows.batch())
        capacity, spatial = kernel.violation_magnitudes(detail)
        if self.utilization_target > 0:
            shortfall = np.maximum(self.utilization_target - detail.raw_utilization, 0.0)
            shortfall = shortfall / self.utilization_target
        else:
            shortfall = np.zeros_like(capacity)
        if self.metric == "latency":
            raw = detail.raw_latency
        elif self.metric == "energy":
            raw = detail.raw_energy
        else:
            raw = detail.raw_energy * detail.raw_latency
        valid = detail.result.valid
        return _View(
            valid=valid.tolist(),
            score=np.where(valid, raw, np.inf).tolist(),
            raw=raw.tolist(),
            violations=list(zip(capacity.tolist(), spatial.tolist(), shortfall.tolist())),
        )

    def _reseed(self, walker: "_Walker", state: MappingState, view: "_View", row: int) -> "_Walker":
        """(Re)start ``walker`` at ``state`` (scored as ``row``) with fresh weights."""
        walker.state = state
        walker.raw = view.raw[row]
        walker.violations = view.violations[row]
        ref = walker.raw
        walker.ref = ref if math.isfinite(ref) and ref > 0.0 else 1.0
        walker.weights = {group: 1.0 for group in CONSTRAINT_GROUPS}
        walker.stalled = 0
        return walker

    # --------------------------------------------------------------- guidance
    def _transfer_weights(self, weights: dict, violations: tuple) -> None:
        """DDFW plateau rule: move weight from satisfied onto violated groups."""
        violated = [g for g, v in zip(CONSTRAINT_GROUPS, violations) if v > 0]
        satisfied = [g for g, v in zip(CONSTRAINT_GROUPS, violations) if v == 0]
        if not violated:
            return
        if satisfied:
            donor = max(satisfied, key=lambda g: weights[g])
            for group in violated:
                amount = self.weight_transfer * weights[donor] + self.weight_increment
                amount = min(amount, weights[donor] - MIN_WEIGHT)
                if amount > 0:
                    weights[donor] -= amount
                    weights[group] += amount
                else:
                    weights[group] += self.weight_increment
        else:
            for group in violated:
                weights[group] += self.weight_increment


class _View(NamedTuple):
    """One step's kernel results as Python lists, indexed by row."""

    valid: list
    score: list
    raw: list
    violations: list

    def rank(self, row: int) -> tuple:
        """Sort key: valid rows by score first, then invalid ones."""
        return not self.valid[row], self.score[row]


class _Walker:
    """One lockstep walker: its state, the state's guidance terms and DDFW weights.

    ``state is None`` marks a walker due to restart at the next step.
    """

    __slots__ = ("state", "raw", "violations", "ref", "weights", "stalled")

    def guidance(self, raw: float, violations: tuple) -> float:
        """Weighted objective: normalized raw cost plus weighted violations."""
        guidance = raw / self.ref
        for group, violation in zip(CONSTRAINT_GROUPS, violations):
            guidance += self.weights[group] * violation
        return guidance

    def commit(self, move, view: _View, row: int) -> None:
        """Apply ``move`` for good; ``row`` holds the moved state's terms."""
        self.state.apply(move)
        self.raw = view.raw[row]
        self.violations = view.violations[row]
