"""The :class:`SchedulingEngine`: drive any scheduler over networks and suites.

The engine owns the three production concerns that individual schedulers
should not re-implement:

* **Parallelism** — layers of a network are independent solves, so
  :meth:`SchedulingEngine.schedule_network` fans them out over a thread or
  process pool (``jobs=N``) and reassembles results in input order.
* **De-duplication** — equal layers (same seven loop bounds and stride; the
  display name does not participate in :class:`~repro.workloads.layer.Layer`
  equality) are solved once and the outcome is fanned back out to every
  duplicate.
* **Caching** — with a :class:`~repro.engine.cache.MappingCache` attached,
  previously solved (layer, architecture, scheduler config) triples are
  served from the cache instead of re-running the MIP or search.

Determinism guarantees
----------------------
For a fixed scheduler configuration (including its seed) the engine returns
**identical mappings** regardless of ``jobs``, the executor kind, the layer
order, and the hosting process:

* every scheduler derives its per-layer RNG from a stable content hash of
  ``(scheduler seed, layer canonical name)`` (see
  :func:`repro.baselines.base.stable_layer_seed`), never from shared mutable
  state, so concurrent solves cannot interleave randomness;
* results are collected positionally, so the output order is the input
  order, not completion order;
* the cache key (:func:`repro.engine.cache.cache_key`) covers everything
  that determines a solve, so a cache hit returns the exact mapping the
  solve would have produced.

One caveat: a MIP solve that terminates on its **wall-clock limit** (rather
than on optimality or the relative gap) returns the best incumbent at the
deadline, which can depend on how much CPU the solve received — and
``jobs > 1`` shares the machine between solves.  The guarantee is therefore
unconditional for the search baselines and for MIP solves that finish
within the limit; for limit-capped solves, prefer the cache (exact by
construction) or a deterministic budget when bit-identical reruns matter.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping as MappingT

from repro.engine.cache import MappingCache, cache_key_from_parts
from repro.engine.outcome import ScheduleOutcome, Scheduler
from repro.workloads.layer import Layer

#: Supported executor kinds for ``jobs > 1``.
EXECUTORS = ("thread", "process")

#: How a layer's outcome was obtained (see :class:`LayerReport.source`).
LAYER_SOURCES = ("solve", "cache", "dedup")


@dataclass(frozen=True)
class LayerReport:
    """Progress report for one input layer of a network run.

    Handed to the ``observer`` callback of :meth:`SchedulingEngine.schedule_network`
    exactly once per input layer, **in input order** — duplicates included —
    regardless of ``jobs`` and the executor kind, so downstream event streams
    (see :mod:`repro.api.events`) are deterministic by construction.

    ``source`` records how the outcome was obtained: a fresh ``"solve"``, a
    mapping-``"cache"`` hit, or a ``"dedup"`` copy of an identical layer's
    outcome earlier in the same network.
    """

    network: str
    index: int
    layer: Layer
    outcome: ScheduleOutcome
    source: str


def _solve_one(scheduler: Scheduler, layer: Layer) -> ScheduleOutcome:
    """Module-level solve entry point (importable, hence process-pool safe)."""
    return scheduler.schedule_outcome(layer)


#: Per-worker scheduler installed by :func:`_init_worker` (process pools).
_WORKER_SCHEDULER: Scheduler | None = None


def _init_worker(scheduler: Scheduler) -> None:
    """Install the scheduler once per pool worker (instead of per task)."""
    global _WORKER_SCHEDULER
    _WORKER_SCHEDULER = scheduler


def _solve_in_worker(layer: Layer) -> ScheduleOutcome:
    """Solve one layer with the worker's installed scheduler."""
    return _WORKER_SCHEDULER.schedule_outcome(layer)


@dataclass
class EngineStats:
    """Effort summary of one engine run.

    ``cache_hits``/``cache_misses`` count this run's lookups only (the
    attached cache keeps global counters); ``dedup_reuses`` counts layers
    served by copying another identical layer's fresh solve.
    """

    num_layers: int = 0
    unique_layers: int = 0
    dedup_reuses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    solves: int = 0
    wall_time_seconds: float = 0.0
    jobs: int = 1

    def merged(self, other: "EngineStats") -> "EngineStats":
        """Aggregate of two runs (used by the suite summary)."""
        return EngineStats(
            num_layers=self.num_layers + other.num_layers,
            unique_layers=self.unique_layers + other.unique_layers,
            dedup_reuses=self.dedup_reuses + other.dedup_reuses,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            solves=self.solves + other.solves,
            wall_time_seconds=self.wall_time_seconds + other.wall_time_seconds,
            jobs=max(self.jobs, other.jobs),
        )

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "unique_layers": self.unique_layers,
            "dedup_reuses": self.dedup_reuses,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "solves": self.solves,
            "wall_time_seconds": self.wall_time_seconds,
            "jobs": self.jobs,
        }


@dataclass
class NetworkSchedule:
    """Outcomes of one network run, in input-layer order.

    ``groups`` is populated by the fused scheduling path only (one
    :class:`~repro.fusion.schedule.GroupOutcome` per multi-operator fusion
    group); per-operator runs leave it empty and their ``to_dict`` payload
    is byte-identical to pre-fusion releases.
    """

    label: str
    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)
    groups: list = field(default_factory=list)

    @property
    def mappings(self):
        """The mappings in layer order (``None`` entries for failures)."""
        return [outcome.mapping for outcome in self.outcomes]

    @property
    def num_succeeded(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.succeeded)

    def to_dict(self) -> dict:
        payload = {
            "label": self.label,
            "stats": self.stats.to_dict(),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }
        if self.groups:
            payload["groups"] = [group.to_dict() for group in self.groups]
        return payload


@dataclass
class SuiteSchedule:
    """Outcomes of a whole workload suite, keyed by network id."""

    networks: dict[str, NetworkSchedule] = field(default_factory=dict)

    @property
    def stats(self) -> EngineStats:
        """Aggregate effort over every network of the suite."""
        total = EngineStats()
        for schedule in self.networks.values():
            total = total.merged(schedule.stats)
        return total

    def to_dict(self) -> dict:
        return {
            "networks": {name: schedule.to_dict() for name, schedule in self.networks.items()},
            "stats": self.stats.to_dict(),
        }


class SchedulingEngine:
    """Drive one scheduler over layers, networks and suites.

    Parameters
    ----------
    scheduler:
        Any object satisfying the :class:`~repro.engine.outcome.Scheduler`
        protocol (all four shipped schedulers do).
    cache:
        Optional :class:`~repro.engine.cache.MappingCache` consulted before
        and updated after every solve.  One cache instance may be shared by
        several engines: the key includes the scheduler identity.
    evaluate_metrics:
        When ``True`` (default) every fresh mapping is evaluated once on the
        analytical cost model and the outcome's ``metrics`` dictionary is
        populated with ``latency``, ``energy`` and ``edp``.
    batch_size:
        Evaluation batch size pushed onto schedulers that support batched
        candidate evaluation (the search baselines' ``eval_batch_size``);
        schedulers without the knob (e.g. the one-shot MIP scheduler) ignore
        it.  For budget-free schedulers batching is outcome-invariant by
        construction — the parity test suite enforces it — so the batch
        size does **not** enter their cache keys: entries written by a
        batched engine are served to scalar runs and vice versa.  For a
        budget-capped scheduler the batch size *does* key the cache, so the
        engine refuses to override it here (set ``eval_batch_size`` on the
        scheduler itself instead); this also keeps the override free of
        fingerprint-changing side effects on schedulers shared between
        engines.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        cache: MappingCache | None = None,
        evaluate_metrics: bool = True,
        batch_size: int | None = None,
    ):
        if not isinstance(scheduler, Scheduler):
            raise TypeError(
                f"{type(scheduler).__name__} does not satisfy the Scheduler protocol "
                "(needs name, accelerator, schedule_outcome, config_fingerprint)"
            )
        if batch_size is not None:
            if batch_size < 1:
                raise ValueError(f"batch_size must be >= 1, got {batch_size}")
            if hasattr(scheduler, "eval_batch_size"):
                if (
                    getattr(scheduler, "time_budget_seconds", None) is not None
                    and scheduler.eval_batch_size != batch_size
                ):
                    raise ValueError(
                        "cannot override eval_batch_size of a budget-capped scheduler "
                        "(it keys the mapping cache); construct the scheduler with "
                        "eval_batch_size instead"
                    )
                scheduler.eval_batch_size = batch_size
        self.scheduler = scheduler
        self.cache = cache
        self.evaluate_metrics = evaluate_metrics
        self._cost_model = None
        if evaluate_metrics:
            from repro.model.cost import CostModel

            self._cost_model = CostModel(scheduler.accelerator)
        # The architecture and scheduler configuration are assumed fixed for
        # the engine's lifetime; hash them once instead of per layer.  They
        # are computed even without a cache so that attaching one later
        # (``engine.cache = ...``) still produces collision-free keys.
        self._arch_fingerprint = scheduler.accelerator.fingerprint()
        self._config_fingerprint = scheduler.config_fingerprint()

    def _key(self, layer: Layer) -> str:
        """Cache key of ``layer`` using the memoized invariant fingerprints."""
        return cache_key_from_parts(
            layer, self._arch_fingerprint, self.scheduler.name, self._config_fingerprint
        )

    # ------------------------------------------------------------- single layer
    def schedule_layer(self, layer: Layer) -> ScheduleOutcome:
        """Schedule one layer, consulting the cache first."""
        outcome, _ = self._schedule_unique(layer)
        return outcome

    def _schedule_unique(self, layer: Layer) -> tuple[ScheduleOutcome, bool]:
        """Return ``(outcome, was_cache_hit)`` for one unique layer."""
        key = None
        if self.cache is not None:
            start = time.perf_counter()
            key = self._key(layer)
            cached = self.cache.get(key, layer)
            if cached is not None:
                self._attach_metrics(cached)
                cached.wall_time_seconds = time.perf_counter() - start
                return cached, True
        outcome = _solve_one(self.scheduler, layer)
        self._attach_metrics(outcome)
        if self.cache is not None and key is not None:
            self.cache.put(key, outcome)
        return outcome, False

    def _attach_metrics(self, outcome: ScheduleOutcome) -> None:
        """Populate latency/energy/edp, including on cache hits whose entry
        was stored by a metrics-less engine."""
        if self._cost_model is None or outcome.mapping is None or outcome.metrics:
            return
        cost = self._cost_model.evaluate(outcome.mapping)
        if cost.valid:
            outcome.metrics.update(latency=cost.latency, energy=cost.energy, edp=cost.edp)

    # ----------------------------------------------------------------- network
    def schedule_network(
        self,
        layers: Iterable[Layer],
        jobs: int = 1,
        executor: str = "thread",
        label: str = "",
        observer=None,
        fusion=None,
        fusion_options=None,
    ) -> NetworkSchedule:
        """Schedule every layer of a network.

        Parameters
        ----------
        layers:
            The network's layers, in order.
        jobs:
            Concurrent solves; ``1`` runs serially in the calling thread.
        executor:
            ``"thread"`` or ``"process"``.  Both return mappings identical
            to the serial path (see the module docstring); the process pool
            buys real parallelism for the pure-Python search baselines at
            the price of per-task pickling.
        label:
            Display name recorded on the returned :class:`NetworkSchedule`.
        observer:
            Optional progress callback, invoked with one :class:`LayerReport`
            per input layer in input order once the layer's outcome is known
            (the service layer turns these into ``layer_scheduled`` events).
            Observer exceptions propagate: a broken subscriber should fail
            the run loudly rather than silently drop events.
        fusion:
            Optional fusion plan: ``"auto"``, a
            :class:`~repro.fusion.plan.FusionPlan` or a single
            :class:`~repro.fusion.group.FusionGroup`.  When given, the run
            is delegated to :func:`repro.fusion.schedule.schedule_fused_network`:
            multi-operator groups are scheduled as units with their
            intermediates pinned on-chip, and the returned schedule carries
            one :class:`~repro.fusion.schedule.GroupOutcome` per group.
            The fused path reports ``"solve"``/``"cache"`` layer sources
            only (no ``"dedup"``).
        fusion_options:
            Optional alignment-search knobs for the fused path (currently
            ``max_candidates``, the frontier-candidate cap).  Execution-only:
            never part of cache keys or result fingerprints.
        """
        if fusion is not None:
            from repro.fusion.schedule import schedule_fused_network

            return schedule_fused_network(
                self,
                layers,
                fusion,
                jobs=jobs,
                executor=executor,
                label=label,
                observer=observer,
                fusion_options=fusion_options,
            )
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
        layers = list(layers)
        start = time.perf_counter()

        # Group equal layers: solve the first occurrence, fan out to the rest.
        unique_layers: list[Layer] = []
        groups: dict[Layer, list[int]] = {}
        for index, layer in enumerate(layers):
            if layer not in groups:
                groups[layer] = []
                unique_layers.append(layer)
            groups[layer].append(index)

        stats = EngineStats(num_layers=len(layers), unique_layers=len(unique_layers), jobs=jobs)

        # Cache lookups are cheap; resolve them serially so the pool only
        # receives layers that genuinely need a solve.
        resolved: dict[Layer, ScheduleOutcome] = {}
        to_solve: list[Layer] = []
        keys: dict[Layer, str] = {}
        cached_layers: set[Layer] = set()
        for layer in unique_layers:
            if self.cache is not None:
                keys[layer] = self._key(layer)
                cached = self.cache.get(keys[layer], layer)
                if cached is not None:
                    self._attach_metrics(cached)
                    resolved[layer] = cached
                    cached_layers.add(layer)
                    stats.cache_hits += 1
                    continue
                stats.cache_misses += 1
            to_solve.append(layer)

        stats.solves = len(to_solve)
        stats.dedup_reuses = len(layers) - len(unique_layers)

        # Walk the input order, pulling fresh solves lazily from the pool as
        # their turn comes up.  ``to_solve`` preserves first-occurrence order
        # and the pool yields results in submission order, so the next solve
        # off the stream is always the layer the walk is waiting for: the
        # observer sees every layer in input order *while later solves are
        # still running*, and the emitted payloads are identical for any
        # ``jobs``/executor combination.
        solve_stream = zip(to_solve, self._run(to_solve, jobs, executor))
        first_index = {layer: indices[0] for layer, indices in groups.items()}
        outcomes: list[ScheduleOutcome] = [None] * len(layers)  # type: ignore[list-item]
        for index, layer in enumerate(layers):
            if index != first_index[layer]:
                source = "dedup"
                outcomes[index] = resolved[layer].with_layer(layer)
            elif layer in cached_layers:
                source = "cache"
                outcomes[index] = resolved[layer]
            else:
                source = "solve"
                solved_layer, outcome = next(solve_stream)
                assert solved_layer is layer  # both follow first-occurrence order
                self._attach_metrics(outcome)
                if self.cache is not None:
                    self.cache.put(keys[layer], outcome)
                resolved[layer] = outcome
                outcomes[index] = outcome
            if observer is not None:
                observer(
                    LayerReport(
                        network=label,
                        index=index,
                        layer=layer,
                        outcome=outcomes[index],
                        source=source,
                    )
                )
        stats.wall_time_seconds = time.perf_counter() - start
        return NetworkSchedule(label=label, outcomes=outcomes, stats=stats)

    def _run(self, layers: list[Layer], jobs: int, executor: str):
        """Solve ``layers`` with the configured parallelism, yielding outcomes
        lazily in input order.

        The pools submit every task eagerly (full ``jobs`` parallelism) but
        results are *yielded* as they arrive, so callers can stream per-layer
        progress while later layers are still solving.
        """
        if not layers:
            return
        if jobs == 1 or len(layers) == 1:
            for layer in layers:
                yield _solve_one(self.scheduler, layer)
            return
        workers = min(jobs, len(layers))
        if executor == "process":
            import multiprocessing

            # A forked worker inherits sys.path and the loaded modules, so the
            # engine works from un-installed source checkouts; without fork
            # (e.g. Windows / macOS spawn) fall back to threads.
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
                with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=context,
                    initializer=_init_worker,
                    initargs=(self.scheduler,),
                ) as pool:
                    # The scheduler ships once per worker via the initializer;
                    # tasks carry only their layer.
                    yield from pool.map(_solve_in_worker, layers)
                return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_solve_one, [self.scheduler] * len(layers), layers)

    # ------------------------------------------------------------------- suite
    def schedule_suite(
        self,
        suite: MappingT[str, Iterable[Layer]] | None = None,
        jobs: int = 1,
        executor: str = "thread",
        observer=None,
    ) -> SuiteSchedule:
        """Schedule every network of a workload suite.

        ``suite`` defaults to the paper's four evaluated workloads
        (:func:`repro.workloads.networks.workload_suite`).  The cache (when
        attached) is shared across the whole suite, so shapes repeated
        between networks — e.g. ResNet-50 and ResNeXt-50 share layers — are
        solved once.  ``observer`` receives one :class:`LayerReport` per
        layer of every network, streamed network by network in suite order.
        """
        if suite is None:
            from repro.workloads.networks import workload_suite

            suite = workload_suite()
        result = SuiteSchedule()
        for name, layers in suite.items():
            result.networks[name] = self.schedule_network(
                layers, jobs=jobs, executor=executor, label=name, observer=observer
            )
        return result
