"""Timeloop-Hybrid-style mapper.

Re-implements the search strategy of Timeloop's hybrid mapper as described in
Sec. IV-B of the paper: every (simulated) thread repeatedly

1. draws a **random tiling factorisation** (including the spatial split),
2. **prunes superfluous permutations** — only the relative order of the
   NoC-facing loops materially changes the cost, and loops over the same
   dimension are merged before permuting,
3. **linearly explores** the pruned permutation subspace, evaluating each
   valid mapping with the analytical cost model,

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
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.mapping.space import MapSpace
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
        See :class:`~repro.baselines.base.SearchScheduler`.  Each pruned
        permutation sweep is the natural evaluation batch; the wall-clock
        budget is checked once per drawn factorisation in both the scalar
        and the batched path.  How many factorisations a budget buys still
        depends on machine and evaluation speed, so budget-capped outcomes
        are time-dependent.
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

        best_mapping = None
        best_score = float("inf")
        sampled = 0
        evaluated = 0

        for thread in range(self.num_threads):
            if self._out_of_time(deadline):
                break
            rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name, thread))
            consecutive_suboptimal = 0
            thread_best = float("inf")
            while (
                consecutive_suboptimal < self.termination_condition
                and evaluated < self.max_evaluations
                and not self._out_of_time(deadline)
            ):
                base = space.random_mapping(rng)
                sampled += 1
                for candidate, ok, score in self._scored(
                    self._permutation_sweep(base, noc_level, rng)
                ):
                    sampled += 1
                    if not ok:
                        continue
                    evaluated += 1
                    score = float(score)
                    if score < thread_best:
                        thread_best = score
                        consecutive_suboptimal = 0
                    else:
                        consecutive_suboptimal += 1
                    if score < best_score:
                        best_mapping, best_score = candidate, score
                    if (
                        consecutive_suboptimal >= self.termination_condition
                        or evaluated >= self.max_evaluations
                    ):
                        break

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
    def _permutation_sweep(self, base: Mapping, noc_level: int, rng: random.Random):
        """Yield the base mapping under every (pruned) NoC-level loop permutation."""
        merged = self._merged_outer_loops(base, noc_level)
        if len(merged) <= 1:
            yield base
            return
        orders = list(islice(permutations(merged), self.max_permutations * 4))
        rng.shuffle(orders)
        for order in orders[: self.max_permutations]:
            yield self._with_outer_order(base, noc_level, list(order))

    @staticmethod
    def _merged_outer_loops(mapping: Mapping, noc_level: int) -> list[Loop]:
        """NoC-level temporal loops merged per dimension (permutation pruning)."""
        merged: dict[str, int] = {}
        for loop in mapping.levels[noc_level].temporal:
            merged[loop.dim] = merged.get(loop.dim, 1) * loop.bound
        return [Loop(dim=dim, bound=bound) for dim, bound in merged.items() if bound > 1]

    @staticmethod
    def _with_outer_order(mapping: Mapping, noc_level: int, order: list[Loop]) -> Mapping:
        """Copy of ``mapping`` with the NoC-level temporal loops replaced by ``order``."""
        levels = []
        for index, level in enumerate(mapping.levels):
            if index == noc_level:
                levels.append(LevelMapping(temporal=list(order), spatial=list(level.spatial)))
            else:
                levels.append(LevelMapping(temporal=list(level.temporal), spatial=list(level.spatial)))
        return Mapping(mapping.layer, levels)
