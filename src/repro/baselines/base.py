"""Shared machinery of the search-based baseline schedulers.

Besides the classic :class:`SearchResult`, this module hosts the shared
adapter that makes every search baseline satisfy the engine's
:class:`~repro.engine.outcome.Scheduler` protocol: a stable scheduler
``name``, a deterministic :meth:`SearchScheduler.config_fingerprint` (used in
mapping-cache keys) and :meth:`SearchScheduler.schedule_outcome`, which
converts the native :class:`SearchResult` into the unified
:class:`~repro.engine.outcome.ScheduleOutcome`.

It also hosts the two knobs shared by all search baselines:

* **Batched evaluation** (``eval_batch_size``): candidates are proposed in
  batches and evaluated with the vectorized
  :class:`~repro.model.batch.BatchCostModel` instead of one scalar
  :class:`~repro.model.cost.CostModel` call per mapping.  The scalar path is
  the reference oracle — a batched and an unbatched run of the same
  budget-free configuration produce **identical** search outcomes (same
  candidates, same winner, same sample/evaluation counters), which is why
  ``eval_batch_size`` deliberately does *not* enter the config fingerprint
  of budget-free runs: cache entries stay shareable across batch sizes.
* **Wall-clock budget** (``time_budget_seconds``): the search stops once the
  budget is exhausted, regardless of how many iterations remain, so
  time-to-solution comparisons are apples-to-apples.  A budget-capped
  search stops wherever the clock catches it, which depends on machine
  speed *and* on the batch size (faster evaluation buys more candidates
  before the deadline), so with a budget set both the budget and
  ``eval_batch_size`` enter the fingerprint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.digest import canonical_json, stable_seed32
from repro.engine.outcome import ScheduleOutcome
from repro.mapping.mapping import Mapping
from repro.mapping.space import MappingDraws
from repro.model.batch import BatchCostModel
from repro.model.cost import CostResult
from repro.workloads.layer import Layer


def stable_layer_seed(*parts) -> int:
    """Deterministic 32-bit seed derived from arbitrary key parts.

    The baselines previously seeded their per-layer RNGs with
    ``hash((seed, layer.canonical_name))``, which changes between processes
    under string-hash randomisation.  A content hash makes per-layer seeds
    reproducible across processes — a prerequisite for the engine's
    guarantee that serial, threaded and process-pool runs produce identical
    mappings.
    """
    return stable_seed32(*parts)


@dataclass
class SearchResult:
    """Outcome of one baseline search on one layer.

    Attributes
    ----------
    mapping:
        Best valid mapping found (``None`` when the search found no valid
        mapping within its budget).
    cost:
        Cost of the best mapping under the optimisation metric's model.
    num_sampled:
        Mappings drawn/generated (the paper's "samples per layer").
    num_evaluated:
        Valid mappings that were fully evaluated (the paper's
        "evaluations per layer").
    elapsed_seconds:
        Wall-clock search time (time-to-solution).
    """

    mapping: Mapping | None
    cost: CostResult | None
    num_sampled: int = 0
    num_evaluated: int = 0
    elapsed_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        """True when a valid mapping was found."""
        return self.mapping is not None and self.cost is not None and self.cost.valid


class SearchScheduler:
    """Base class holding the optimisation metric shared by the baselines.

    Parameters
    ----------
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    eval_batch_size:
        Candidates evaluated per vectorized batch (``None``/``1`` keeps the
        scalar reference path).  Outcome-invariant for budget-free runs —
        see the module docstring — and therefore excluded from their
        fingerprint (budget-capped runs include it).
    time_budget_seconds:
        Optional wall-clock budget per layer; the search stops at the first
        check point after the budget expires.  ``None`` means unbounded.
    """

    #: Supported optimisation metrics.
    METRICS = ("latency", "energy", "edp")

    #: Scheduler identifier (subclasses override; used in reports and cache keys).
    name = "search"

    def __init__(
        self,
        metric: str = "latency",
        eval_batch_size: int | None = None,
        time_budget_seconds: float | None = None,
    ):
        if metric not in self.METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {self.METRICS}")
        if eval_batch_size is not None and eval_batch_size < 1:
            raise ValueError(f"eval_batch_size must be >= 1, got {eval_batch_size}")
        if time_budget_seconds is not None and time_budget_seconds < 0:
            raise ValueError(f"time_budget_seconds must be >= 0, got {time_budget_seconds}")
        self.metric = metric
        self.eval_batch_size = eval_batch_size
        self.time_budget_seconds = time_budget_seconds
        self._batch_model_cache: BatchCostModel | None = None

    def score(self, cost: CostResult) -> float:
        """Scalar to minimise for a cost result (``inf`` for invalid mappings)."""
        if not cost.valid:
            return float("inf")
        if self.metric == "latency":
            return cost.latency
        if self.metric == "energy":
            return cost.energy
        return cost.edp

    # ------------------------------------------------------ batched evaluation
    @property
    def batching_enabled(self) -> bool:
        """True when candidates will be evaluated with the vectorized model."""
        return bool(self.eval_batch_size and self.eval_batch_size > 1)

    def _batch_model(self) -> BatchCostModel:
        """The vectorized evaluator (built on first use)."""
        if self._batch_model_cache is None:
            self._batch_model_cache = BatchCostModel(self.accelerator)
        return self._batch_model_cache

    def _scored(self, candidates: Iterable[Mapping]) -> Iterator[tuple[Mapping, bool, float]]:
        """Yield ``(mapping, valid, score)`` for every candidate, in order.

        With batching enabled, the candidates are materialized up front and
        evaluated in one vectorized pass; otherwise each is lazily evaluated
        by the scalar oracle (so callers that break early never pay for the
        rest).  Scores are bit-compatible between the two paths.
        """
        if self.batching_enabled:
            mappings = list(candidates)
            if len(mappings) > 1:
                result = self._batch_model().evaluate_mappings(mappings)
                scores = result.score(self.metric)
                for i, mapping in enumerate(mappings):
                    yield mapping, bool(result.valid[i]), float(scores[i])
                return
            candidates = mappings
        for mapping in candidates:
            cost = self._cost_model.evaluate(mapping)
            yield mapping, cost.valid, self.score(cost)

    def _score_draws(self, draws: MappingDraws):
        """Score a :class:`MappingDraws` chunk: ``(valid, scores)`` sequences.

        The vectorized path never materializes :class:`Mapping` objects —
        candidates live as factor matrices; only winners are materialized by
        the caller via :meth:`MappingDraws.materialize`.
        """
        if self.batching_enabled and len(draws) > 1:
            result = self._batch_model().evaluate_draws(draws)
            return result.valid, result.score(self.metric)
        valid, scores = [], []
        for mapping in draws.iter_mappings():
            cost = self._cost_model.evaluate(mapping)
            valid.append(cost.valid)
            scores.append(self.score(cost))
        return valid, scores

    # --------------------------------------------------------- wall-clock budget
    def _deadline(self, start: float) -> float | None:
        """Absolute deadline for a search that started at ``start`` (or ``None``)."""
        if self.time_budget_seconds is None:
            return None
        return start + self.time_budget_seconds

    @staticmethod
    def _out_of_time(deadline: float | None) -> bool:
        """True when the wall-clock budget is exhausted."""
        return deadline is not None and time.perf_counter() >= deadline

    # -------------------------------------------------------- engine protocol
    def _config(self) -> dict:
        """Configuration entering the fingerprint (subclasses extend).

        Without a wall-clock budget, ``eval_batch_size`` is intentionally
        absent: batching is outcome-invariant (enforced by the parity test
        suite), so cache entries are shared between batched and scalar runs.
        A budget-capped search, however, stops wherever the clock catches it
        — which depends on how fast candidates are evaluated and on where
        the budget check points fall — so with a budget set the batch size
        *does* key the cache, alongside the budget itself.
        """
        config: dict = {"metric": self.metric}
        if self.time_budget_seconds is not None:
            config["time_budget_seconds"] = self.time_budget_seconds
            config["eval_batch_size"] = self.eval_batch_size
            # Legacy key of the removed backend knob: keeps stored budget-capped entries hitting.
            config["kernel_backend"] = "numpy"
        return config

    def config_fingerprint(self) -> str:
        """Deterministic description of this scheduler's configuration.

        Everything that can change the produced mapping — metric, budgets,
        seeds — must appear here, because the fingerprint keys the mapping
        cache (:func:`repro.engine.cache.cache_key`).
        """
        return canonical_json(self._config())

    def schedule_outcome(self, layer: Layer) -> ScheduleOutcome:
        """Run :meth:`schedule` and report the unified outcome."""
        result = self.schedule(layer)
        mapping = result.mapping if result.succeeded else None
        return ScheduleOutcome(
            layer=layer,
            scheduler=self.name,
            mapping=mapping,
            wall_time_seconds=result.elapsed_seconds,
            solve_time_seconds=result.elapsed_seconds,
            num_sampled=result.num_sampled,
            num_evaluated=result.num_evaluated,
            detail=result,
        )
