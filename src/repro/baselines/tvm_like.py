"""TVM-like iterative tuner (baseline of the GPU experiment, Sec. V-D).

The paper compares CoSA-GPU against TVM's XGBoost tuner running 50
measurement trials per layer.  Hardware measurements are unavailable here
(documented substitution), so both sides are evaluated on the same
analytical cost model; this tuner reproduces the *search behaviour* of a
feedback-driven autotuner: it alternates exploration (random candidates)
with exploitation (mutations of the best schedules found so far), spending a
fixed number of "measurement" trials, each of which evaluates a small batch
of candidates.
"""

from __future__ import annotations

import random
import time

from repro.arch.accelerator import Accelerator
from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.mapping.space import MapSpace
from repro.model.cost import CostModel
from repro.workloads.layer import Layer


class TVMLikeTuner(SearchScheduler):
    """Feedback-driven autotuner in the style of AutoTVM.

    Parameters
    ----------
    accelerator:
        Target (typically the GPU-as-accelerator description).
    trials:
        Number of measurement trials (50 in the paper's TVM baseline).
    batch_size:
        Candidates evaluated per trial.  Each trial's batch is the natural
        unit of vectorized evaluation: with ``eval_batch_size`` set, the
        whole batch is scored in one :class:`~repro.model.batch.BatchCostModel`
        pass instead of one scalar evaluation per candidate.
    exploration:
        Fraction of each batch drawn at random instead of mutated from the
        incumbent population.
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    seed:
        Base random seed.
    eval_batch_size / time_budget_seconds:
        See :class:`~repro.baselines.base.SearchScheduler`.  The wall-clock
        budget is checked once per trial in both the scalar and the batched
        path; the number of trials a budget buys still depends on machine
        and evaluation speed, so budget-capped outcomes are time-dependent.
    """

    name = "tvm-like"

    def __init__(
        self,
        accelerator: Accelerator,
        trials: int = 50,
        batch_size: int = 8,
        exploration: float = 0.3,
        metric: str = "latency",
        seed: int = 0,
        eval_batch_size: int | None = None,
        time_budget_seconds: float | None = None,
    ):
        super().__init__(
            metric,
            eval_batch_size=eval_batch_size,
            time_budget_seconds=time_budget_seconds,
        )
        if trials < 1 or batch_size < 1:
            raise ValueError("trials and batch_size must be positive")
        if not 0.0 <= exploration <= 1.0:
            raise ValueError("exploration must be within [0, 1]")
        self.accelerator = accelerator
        self.trials = trials
        self.batch_size = batch_size
        self.exploration = exploration
        self.seed = seed
        self._cost_model = CostModel(accelerator)

    def _config(self) -> dict:
        return {
            **super()._config(),
            "trials": self.trials,
            "batch_size": self.batch_size,
            "exploration": self.exploration,
            "seed": self.seed,
        }

    def schedule(self, layer: Layer) -> SearchResult:
        """Tune ``layer`` for ``trials`` measurement rounds and return the best mapping."""
        start = time.perf_counter()
        deadline = self._deadline(start)
        rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name))
        space = MapSpace(layer, self.accelerator)

        population: list[tuple[float, Mapping]] = []
        best_mapping = None
        best_score = float("inf")
        sampled = 0
        evaluated = 0

        for _ in range(self.trials):
            if self._out_of_time(deadline):
                break
            batch: list[Mapping] = []
            for _ in range(self.batch_size):
                if population and rng.random() > self.exploration:
                    _, parent = population[rng.randrange(min(len(population), 4))]
                    batch.append(self._mutate(parent, space, rng))
                else:
                    batch.append(space.random_mapping(rng))
            for candidate, ok, score in self._scored(batch):
                sampled += 1
                if not ok:
                    continue
                evaluated += 1
                score = float(score)
                population.append((score, candidate))
                if score < best_score:
                    best_mapping, best_score = candidate, score
            population.sort(key=lambda item: item[0])
            del population[16:]

        best_cost = self._cost_model.evaluate(best_mapping) if best_mapping is not None else None
        return SearchResult(
            mapping=best_mapping,
            cost=best_cost,
            num_sampled=sampled,
            num_evaluated=evaluated,
            elapsed_seconds=time.perf_counter() - start,
        )

    def schedule_network(self, layers) -> list[SearchResult]:
        """Tune every layer of a network independently."""
        return [self.schedule(layer) for layer in layers]

    # ---------------------------------------------------------------- mutation
    def _mutate(self, mapping: Mapping, space: MapSpace, rng: random.Random) -> Mapping:
        """Local perturbation: move one prime factor to a different level or
        shuffle one level's loop order."""
        if rng.random() < 0.5:
            return self._shuffle_level(mapping, rng)
        return self._move_factor(mapping, space, rng)

    @staticmethod
    def _shuffle_level(mapping: Mapping, rng: random.Random) -> Mapping:
        levels = [
            LevelMapping(temporal=list(l.temporal), spatial=list(l.spatial))
            for l in mapping.levels
        ]
        candidates = [i for i, l in enumerate(levels) if len(l.temporal) > 1]
        if candidates:
            index = rng.choice(candidates)
            rng.shuffle(levels[index].temporal)
        return Mapping(mapping.layer, levels)

    @staticmethod
    def _move_factor(mapping: Mapping, space: MapSpace, rng: random.Random) -> Mapping:
        levels = [
            LevelMapping(temporal=list(l.temporal), spatial=list(l.spatial))
            for l in mapping.levels
        ]
        sources = [
            (i, j)
            for i, level in enumerate(levels)
            for j, loop in enumerate(level.temporal)
            if loop.bound > 1
        ]
        if not sources:
            return Mapping(mapping.layer, levels)
        level_index, loop_index = rng.choice(sources)
        loop = levels[level_index].temporal.pop(loop_index)
        # Split off one prime factor of the loop and move it elsewhere.
        from repro.workloads.prime import factorize

        primes = factorize(loop.bound)
        moved = rng.choice(primes)
        remaining = loop.bound // moved
        if remaining > 1:
            levels[level_index].temporal.insert(loop_index, Loop(loop.dim, remaining))
        target = rng.randrange(len(levels))
        levels[target].temporal.append(Loop(loop.dim, moved))
        return Mapping(mapping.layer, levels)
