"""Random-search baseline ("Random (5x)" in the paper).

The paper's Random scheduler draws random points of the scheduling space
until five valid schedules have been found (20 K draws yielded only five
valid ones in their measurement) and keeps the best of those five under the
target metric.

The search runs a propose-batch/evaluate-batch loop: candidates are drawn in
chunks of ``eval_batch_size`` as factor matrices
(:meth:`~repro.mapping.space.MapSpace.sample_batch`) and scored by the
vectorized :class:`~repro.model.batch.BatchCostModel`; with batching off (or
numpy unavailable) the chunk size is 1 and each draw goes through the scalar
:class:`~repro.model.cost.CostModel`.  Both paths see the identical
candidate stream, so the outcome does not depend on the batch size.
"""

from __future__ import annotations

import random
import time

from repro.arch.accelerator import Accelerator
from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.mapping.space import MapSpace
from repro.model.cost import CostModel
from repro.workloads.layer import Layer


class RandomScheduler(SearchScheduler):
    """Best-of-N random valid schedules.

    Parameters
    ----------
    accelerator:
        Target architecture.
    num_valid:
        How many valid schedules to collect before stopping (5 in the paper).
    max_attempts:
        Upper bound on random draws per layer.
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    seed:
        Base seed; each layer perturbs it with a content hash of its name so
        results are deterministic but layers are decorrelated.
    eval_batch_size / time_budget_seconds:
        See :class:`~repro.baselines.base.SearchScheduler`.  With a wall
        clock budget set, the budget is checked once per proposed chunk.
    """

    name = "random"

    def __init__(
        self,
        accelerator: Accelerator,
        num_valid: int = 5,
        max_attempts: int = 20_000,
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
        self.accelerator = accelerator
        self.num_valid = num_valid
        self.max_attempts = max_attempts
        self.seed = seed
        self._cost_model = CostModel(accelerator)

    def _config(self) -> dict:
        return {
            **super()._config(),
            "num_valid": self.num_valid,
            "max_attempts": self.max_attempts,
            "seed": self.seed,
        }

    def schedule(self, layer: Layer) -> SearchResult:
        """Search for the best of ``num_valid`` random valid schedules of ``layer``."""
        start = time.perf_counter()
        deadline = self._deadline(start)
        rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name))
        space = MapSpace(layer, self.accelerator)
        chunk = self.eval_batch_size if self.batching_enabled else 1

        best_draws = None
        best_index = -1
        best_score = float("inf")
        sampled = 0
        evaluated = 0
        while (
            evaluated < self.num_valid
            and sampled < self.max_attempts
            and not self._out_of_time(deadline)
        ):
            draws = space.sample_batch(min(chunk, self.max_attempts - sampled), rng)
            valid, scores = self._score_draws(draws)
            for i in range(len(draws)):
                sampled += 1
                if not valid[i]:
                    continue
                evaluated += 1
                if scores[i] < best_score:
                    best_draws, best_index, best_score = draws, i, float(scores[i])
                if evaluated >= self.num_valid:
                    break
        best_mapping = best_draws.materialize(best_index) if best_draws is not None else None
        best_cost = self._cost_model.evaluate(best_mapping) if best_mapping is not None else None
        return SearchResult(
            mapping=best_mapping,
            cost=best_cost,
            num_sampled=sampled,
            num_evaluated=evaluated,
            elapsed_seconds=time.perf_counter() - start,
        )

    def schedule_network(self, layers) -> list[SearchResult]:
        """Schedule every layer of a network independently."""
        return [self.schedule(layer) for layer in layers]
