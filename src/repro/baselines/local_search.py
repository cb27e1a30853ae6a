"""Move-based local search with DDFW-style adaptive constraint weights.

Instead of redrawing whole mappings, this scheduler walks the map space one
*move* at a time — relocating a single prime factor between (level,
temporal/spatial) slots, swapping two temporal loops, or flipping a factor
between temporal and spatial at one level (:mod:`repro.mapping.moves`).
Candidate moves are costed incrementally by the
:class:`~repro.model.delta.DeltaEvaluator`, which re-derives only the
per-level terms a move touches and is bit-identical to a full re-evaluation,
so ``use_delta`` is purely a speed knob.

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

The final winner is always re-costed by the scalar
:class:`~repro.model.cost.CostModel` oracle.
"""

from __future__ import annotations

import math
import random
import time

from repro.arch.accelerator import Accelerator
from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.mapping.moves import MappingState
from repro.mapping.space import MapSpace
from repro.model.cost import CostModel
from repro.model.delta import DeltaCostResult, DeltaEvaluator
from repro.workloads.layer import Layer

#: Constraint groups carrying DDFW weights.
CONSTRAINT_GROUPS = ("capacity", "spatial", "utilization")

#: Weights never decay below this floor, so no group is ever ignored.
MIN_WEIGHT = 0.1


class LocalSearchScheduler(SearchScheduler):
    """Delta-evaluated local search guided by adaptive constraint weights.

    Parameters
    ----------
    accelerator:
        Target architecture.
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    seed:
        Base seed; perturbed per layer like the other baselines.
    max_evaluations:
        Total cost-evaluation budget per layer (initial samples plus one per
        previewed move) — the unit for equal-budget comparisons against the
        sampling baselines.
    init_samples:
        Random draws scored to pick the starting state (the best valid draw,
        else the first).
    moves_per_step:
        Candidate moves previewed per step; the best by guidance is
        committed when it improves on the current state.
    weight_transfer / weight_increment:
        DDFW transfer rule: on a plateau every violated group receives
        ``weight_transfer * donor_weight + weight_increment`` from the
        maximum-weight satisfied group (or just the increment when every
        group is violated).
    perturbation:
        Probability of committing the best proposal on a plateau even though
        it worsens the guidance (random-walk escape).
    restart_after:
        Steps without improving the best valid cost before the search
        restarts from a fresh best-of-``init_samples`` seed with reset
        weights (escapes basins no single move leads out of).
    utilization_target:
        Soft lower bound on compute utilization; the shortfall
        ``max(0, target - utilization) / target`` is the violation of the
        ``"utilization"`` group.  ``0`` disables the group.
    use_delta:
        Cost proposals incrementally (default) or by full re-evaluation.
        Both are bit-identical (enforced by the parity tests), so this knob
        never changes the outcome and stays out of the fingerprint.
    eval_batch_size / time_budget_seconds:
        See :class:`~repro.baselines.base.SearchScheduler`; they affect the
        initial sampling phase exactly as in the other baselines.
    """

    name = "local-search"

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
        use_delta: bool = True,
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
        self.use_delta = use_delta
        self._cost_model = CostModel(accelerator)

    def _config(self) -> dict:
        # ``use_delta`` is deliberately absent: delta and full evaluation are
        # bit-identical, so the knob cannot change the produced mapping.
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
        }

    # ----------------------------------------------------------------- search
    def schedule(self, layer: Layer) -> SearchResult:
        """Run the weighted local search for ``layer``."""
        start = time.perf_counter()
        deadline = self._deadline(start)
        rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name))
        space = MapSpace(layer, self.accelerator)
        fanouts = space.spatial_fanouts

        evaluations = 0
        best_state: MappingState | None = None
        best_score = float("inf")
        state = evaluator = current = None
        ref = 1.0
        weights = {group: 1.0 for group in CONSTRAINT_GROUPS}
        stalled = 0

        while evaluations < self.max_evaluations and not self._out_of_time(deadline):
            if state is None:
                # (Re)seed: best valid of a random batch, else the first draw.
                num_init = min(self.init_samples, self.max_evaluations - evaluations)
                draws = space.sample_batch(num_init, rng)
                valid, scores = self._score_draws(draws)
                evaluations += num_init
                seed_index = 0
                seed_score = float("inf")
                for i in range(len(draws)):
                    if valid[i] and scores[i] < seed_score:
                        seed_index, seed_score = i, float(scores[i])
                state = space.initial_state(draws, seed_index)
                evaluator = DeltaEvaluator(state, self.accelerator)
                current = evaluator.evaluate()
                if current.valid and current.score(self.metric) < best_score:
                    best_state, best_score = state.clone(), current.score(self.metric)
                ref = current.raw_score(self.metric)
                if not math.isfinite(ref) or ref <= 0.0:
                    ref = 1.0
                weights = {group: 1.0 for group in CONSTRAINT_GROUPS}
                stalled = 0
                continue

            budget = self.max_evaluations - evaluations
            moves = space.neighborhood(state, rng, min(self.moves_per_step, budget))
            if not moves:
                break  # frozen state: every loop bound is 1

            improved_best = False
            best_move = None
            best_result: DeltaCostResult | None = None
            best_guidance = float("inf")
            for move in moves:
                result = self._preview(evaluator, move)
                evaluations += 1
                guidance = self._guidance(result, weights, ref)
                if guidance < best_guidance:
                    best_move, best_result, best_guidance = move, result, guidance
                if result.valid and result.score(self.metric) < best_score:
                    undo = state.apply(move)
                    best_state, best_score = state.clone(), result.score(self.metric)
                    state.undo(undo)
                    improved_best = True

            stalled = 0 if improved_best else stalled + 1
            if stalled >= self.restart_after:
                state = None  # basin exhausted: restart from a fresh seed
                continue
            if best_move is None:
                continue
            if best_guidance < self._guidance(current, weights, ref):
                current = self._commit(evaluator, best_move)
                continue

            # Plateau: re-shape the landscape (DDFW weight transfer), then
            # optionally random-walk through it.
            self._transfer_weights(weights, current)
            if rng.random() < self.perturbation:
                current = self._commit(evaluator, best_move)

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
    def _preview(self, evaluator: DeltaEvaluator, move) -> DeltaCostResult:
        """Cost of ``move`` without keeping it applied."""
        if self.use_delta:
            return evaluator.preview(move)
        undo = evaluator.state.apply(move)
        evaluator.reset()
        result = evaluator.evaluate()
        evaluator.state.undo(undo)
        evaluator.reset()
        return result

    def _commit(self, evaluator: DeltaEvaluator, move) -> DeltaCostResult:
        """Apply ``move`` for good and return the new state's cost."""
        if self.use_delta:
            result, _ = evaluator.apply(move)
            return result
        evaluator.state.apply(move)
        evaluator.reset()
        return evaluator.evaluate()

    # --------------------------------------------------------------- guidance
    def _violations(self, result: DeltaCostResult) -> dict[str, float]:
        """Per-group violation magnitudes of a (possibly invalid) state."""
        shortfall = 0.0
        if self.utilization_target > 0:
            shortfall = max(0.0, self.utilization_target - result.raw_utilization)
            shortfall /= self.utilization_target
        return {
            "capacity": result.capacity_violation,
            "spatial": result.spatial_violation,
            "utilization": shortfall,
        }

    def _guidance(self, result: DeltaCostResult, weights: dict, ref: float) -> float:
        """Weighted objective: normalized raw cost plus weighted violations."""
        violations = self._violations(result)
        guidance = result.raw_score(self.metric) / ref
        for group in CONSTRAINT_GROUPS:
            guidance += weights[group] * violations[group]
        return guidance

    def _transfer_weights(self, weights: dict, current: DeltaCostResult) -> None:
        """DDFW plateau rule: move weight from satisfied onto violated groups."""
        violations = self._violations(current)
        violated = [g for g in CONSTRAINT_GROUPS if violations[g] > 0]
        satisfied = [g for g in CONSTRAINT_GROUPS if violations[g] == 0]
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
