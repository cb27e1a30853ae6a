"""Timeloop-Hybrid-style mapper.

Re-implements the search strategy of Timeloop's hybrid mapper as described in
Sec. IV-B of the paper: every (simulated) thread repeatedly

1. draws a **random tiling factorisation** (including the spatial split),
2. **prunes superfluous permutations** — only the relative order of the
   NoC-facing loops materially changes the cost, and loops over the same
   dimension are merged before permuting,
3. **linearly explores** the pruned permutation subspace with the analytical
   cost model, scoring ``eval_batch_size`` candidates drawn across
   factorisations per vectorized call and materializing only the winner,

and self-terminates after a run of ``termination_condition`` consecutive
valid-yet-suboptimal mappings.  The best mapping over all threads is
returned.

The paper runs 32 threads with a 500-mapping termination window, visiting
67 M samples and 16 K+ valid mappings per layer; the defaults here are scaled
down so a full four-network sweep stays practical in pure Python, and
:meth:`TimeloopHybridScheduler.paper_settings` restores the original budget.
"""

from __future__ import annotations

import random
import time
from itertools import islice, permutations

from repro.arch.accelerator import Accelerator
from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.mapping.space import MappingDraws, MapSpace
from repro.model.cost import CostModel
from repro.workloads.layer import Layer


class TimeloopHybridScheduler(SearchScheduler):
    """Random-factorisation + pruned-permutation search (Timeloop hybrid mapper).

    Parameters
    ----------
    accelerator:
        Target architecture.
    num_threads:
        Independent search threads (executed sequentially, like the paper's
        32-thread mapper but scaled down by default).
    termination_condition:
        A thread stops after this many consecutive valid mappings that did
        not improve its best.
    max_permutations:
        Cap on permutations explored per factorisation (pruning).
    max_evaluations:
        Global cap on valid-mapping evaluations per layer (safety budget).
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    seed:
        Base seed for the random factorisations.
    eval_batch_size / time_budget_seconds:
        See :class:`~repro.baselines.base.SearchScheduler`.  A batch holds
        ``eval_batch_size`` candidates across factorisations' sweeps; a
        thread over-draws at most one batch past its stop and drops it.
        Stopping rule, evaluation cap and wall-clock budget are checked per
        factorisation and per evaluation; budget-capped outcomes still
        depend on machine and evaluation speed.
    """

    name = "timeloop-hybrid"

    def __init__(
        self,
        accelerator: Accelerator,
        num_threads: int = 4,
        termination_condition: int = 96,
        max_permutations: int = 24,
        max_evaluations: int = 3000,
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
        if max_permutations < 1:
            raise ValueError(f"max_permutations must be >= 1, got {max_permutations}")
        self.accelerator = accelerator
        self.num_threads = num_threads
        self.termination_condition = termination_condition
        self.max_permutations = max_permutations
        self.max_evaluations = max_evaluations
        self.seed = seed
        self._cost_model = CostModel(accelerator)

    @classmethod
    def paper_settings(cls, accelerator: Accelerator, metric: str = "latency", seed: int = 0):
        """The full-size configuration used by the paper (32 threads, 500-window)."""
        return cls(
            accelerator,
            num_threads=32,
            termination_condition=500,
            max_permutations=64,
            max_evaluations=20_000,
            metric=metric,
            seed=seed,
        )

    def _config(self) -> dict:
        return {
            **super()._config(),
            "num_threads": self.num_threads,
            "termination_condition": self.termination_condition,
            "max_permutations": self.max_permutations,
            "max_evaluations": self.max_evaluations,
            "seed": self.seed,
        }

    # ----------------------------------------------------------------- search
    def schedule(self, layer: Layer) -> SearchResult:
        """Run the hybrid search for ``layer`` and return the best mapping found."""
        start = time.perf_counter()
        deadline = self._deadline(start)
        space = MapSpace(layer, self.accelerator)
        noc_level = self.accelerator.pe_level_index()

        best_draws, best_index = None, 0
        best_score = float("inf")
        sampled = 0
        evaluated = 0

        for thread in range(self.num_threads):
            if self._out_of_time(deadline):
                break
            rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name, thread))
            sweeps = self._scored_sweeps(space, noc_level, rng)
            consecutive_suboptimal = 0
            thread_best = float("inf")
            while (
                consecutive_suboptimal < self.termination_condition
                and evaluated < self.max_evaluations
                and not self._out_of_time(deadline)
            ):
                draws, rows, valid, scores = next(sweeps)
                sampled += 1
                for index in rows:
                    sampled += 1
                    if not valid[index]:
                        continue
                    evaluated += 1
                    score = float(scores[index])
                    if score < thread_best:
                        thread_best = score
                        consecutive_suboptimal = 0
                    else:
                        consecutive_suboptimal += 1
                    if score < best_score:
                        best_draws, best_index, best_score = draws, index, score
                    if (
                        consecutive_suboptimal >= self.termination_condition
                        or evaluated >= self.max_evaluations
                    ):
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

    # ------------------------------------------------------------ permutations
    def _scored_sweeps(self, space: MapSpace, level: int, rng: random.Random):
        """Yield ``(draws, rows, valid, scores)`` for one factorisation at a time.

        ``rows`` indexes the factorisation's pruned sweep in ``draws``: one row
        per explored order of its temporal loops at the NoC ``level`` (draws
        come merged per dimension).  Sweeps are drawn until ``eval_batch_size``
        rows are pending and scored together, so a caller that stops early
        leaves at most one batch unread.
        """
        while True:
            draws = MappingDraws(layer=space.layer, num_levels=space.num_levels)
            sweeps = []
            while len(draws) < (self.eval_batch_size or 1):
                drawn = space.sample_batch(1, rng)
                temporal, spatial = drawn.temporal[0], drawn.spatial[0]
                orders = [temporal[level]]
                if len(temporal[level]) > 1:
                    orders = list(islice(permutations(temporal[level]), self.max_permutations * 4))
                    rng.shuffle(orders)
                    orders = orders[: self.max_permutations]
                sweeps.append(range(len(draws), len(draws) + len(orders)))
                for order in orders:
                    draws.temporal.append(temporal[:level] + [list(order)] + temporal[level + 1 :])
                    draws.spatial.append(spatial)
            valid, scores = self._score_draws(draws)
            for rows in sweeps:
                yield draws, rows, valid, scores
