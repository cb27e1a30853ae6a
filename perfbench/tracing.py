"""Spans and counts taken from outside the program.

The benchmark never edits ``src/``: :func:`install` wraps public functions
and methods of each module (``api``, ``engine``, ``core``, ``solver``,
``baselines``, ``mapping``, ``model``, ``fusion``, ``noc``) on their
defining class or module, records a span per call, and restores the
originals on exit.  Spans carry a name, start, end, parent and run id (the
client op they belong to), stay in memory, and are written out as JSON
lines when the run ends.

Parent rule: a span's parent is the innermost span open on its own thread.
A span opened on a thread with nothing open inherits the span that handed
the thread its work: the submitting span for ``ThreadPoolExecutor`` tasks
(the engine's ``jobs > 1`` pool), otherwise the innermost span open on the
client thread (the worker thread of the private ``SchedulingService`` that
``repro.api.run`` submits to; the loop is closed, so the client is blocked
in exactly the op the worker is serving).

A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).  Every ``*_s`` per-layer metric
is a sum of self times.

``install(tracer, timed=False)`` keeps only the clockless counters of the
deterministic outputs (formulations, re-solves, solver solves/nodes/time
limits, baseline samples/evaluations), so untraced runs report them too
without recording spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

#: Span name -> per-layer metric holding the sum of its self times.
SELF_TIME_METRICS = {
    "api.run": "api.run.self_s",
    "engine": "engine.self_s",
    "core.build": "core.build_s",
    "core.decode": "core.decode_s",
    "solver.matrix": "solver.matrix_s",
    "solver.highs": "solver.highs_s",
    "baselines.timeloop-hybrid": "baselines.timeloop-hybrid.self_s",
    "baselines.local-search": "baselines.local-search.self_s",
    "mapping.sample": "mapping.sample_s",
    "mapping.move": "mapping.move_s",
    "model.scalar": "model.scalar.s",
    "model.batch": "model.batch.s",
    "model.delta": "model.delta.s",
    "model.fused": "model.fused.s",
    "fusion": "fusion.self_s",
    "noc.validate": "noc.validate_s",
}

#: Count metrics (all start at zero so every name is always reported).
COUNT_METRICS = (
    "engine.solves",
    "engine.dedup_reuses",
    "core.formulations",
    "core.resolves",
    "core.mip_vars",
    "core.mip_constraints",
    "solver.solves",
    "solver.nodes",
    "solver.time_limit_hits",
    "baselines.sampled",
    "baselines.evaluated",
    "mapping.sample_calls",
    "mapping.move_calls",
    "model.scalar.calls",
    "model.batch.mappings",
    "model.delta.previews",
    "model.fused.candidates",
    "model.kernel.compiles",
    "fusion.groups",
    "fusion.pinned_edges",
    "noc.inconsistent",
)

#: Counts that repeat exactly for a given input, reported by every run.
DETERMINISTIC_COUNTS = (
    "core.formulations",
    "core.resolves",
    "solver.solves",
    "solver.nodes",
    "solver.time_limit_hits",
    "baselines.sampled",
    "baselines.evaluated",
)


class Tracer:
    """In-memory span and count recorder (see the module docstring)."""

    def __init__(self):
        #: One ``[name, parent, start, end, run]`` list per span, by id.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Run id stamped on new spans: the client op being served.
        self.run_id = 0
        #: Per job: perf_counter of its ``run_queued`` and ``run_started``.
        self.job_events: dict[str, dict[str, float]] = defaultdict(dict)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the span new spans on this thread would nest under."""
        stack = self._stack()
        if stack:
            return stack[-1]
        inherited = getattr(self._local, "inherited", None)
        if inherited is not None:
            return inherited
        return self._client_stack[-1] if self._client_stack else None

    def open(self, name: str) -> int:
        parent = self.current()
        record = [name, parent, time.perf_counter(), None, self.run_id]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(record)
        self._stack().append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][3] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span_id = self.open(name)
        try:
            yield span_id
        finally:
            self.close(span_id)

    @contextmanager
    def inherit(self, parent: int | None):
        """Nest spans of this thread under ``parent`` (a pool task's submitter)."""
        previous = getattr(self._local, "inherited", None)
        self._local.inherited = parent
        try:
            yield
        finally:
            self._local.inherited = previous

    def queue_wait_seconds(self) -> float:
        """Sum over jobs of submit (``run_queued``) to ``run_started``."""
        return sum(
            times["run_started"] - times["run_queued"]
            for times in self.job_events.values()
            if "run_started" in times and "run_queued" in times
        )

    def write(self, path) -> None:
        """Write every span as one JSON line ``[id, parent, name, start, end, run]``."""
        with open(path, "w") as handle:
            for span_id, (name, parent, start, end, run) in enumerate(self.spans):
                handle.write(json.dumps([span_id, parent, name, start, end, run]) + "\n")


def self_times(spans) -> Counter:
    """Per span name, the sum of span duration minus the union of its
    children's intervals (clipped to the span).  Children may overlap each
    other when they ran on parallel threads."""
    children: dict[int, list[int]] = defaultdict(list)
    for span_id, (_, parent, _, _, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(span_id)
    totals: Counter = Counter()
    for span_id, (name, _, start, end, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][2], start), min(spans[c][3], end)) for c in children[span_id]
        )
        covered = 0.0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        totals[name] += (end - start) - covered
    return totals


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values of a finished traced pass."""
    selfs = self_times(tracer.spans)
    metrics = {metric: selfs.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNT_METRICS})
    sampled = metrics["baselines.sampled"]
    metrics["baselines.valid_ratio"] = metrics["baselines.evaluated"] / sampled if sampled else 0.0
    metrics["api.service.queue_wait_s"] = tracer.queue_wait_seconds()
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


# ------------------------------------------------------------------ hooks


def _count_formulation(tracer, args, kwargs, result):
    formulation = args[0]
    tracer.counts["core.formulations"] += 1
    tracer.counts["core.mip_vars"] += formulation.model.num_variables
    tracer.counts["core.mip_constraints"] += formulation.model.num_constraints
    tracer._local.built = getattr(tracer._local, "built", 0) + 1


def _count_resolves(tracer, args, kwargs, result):
    """Every formulation a ``CoSAScheduler.schedule`` call built after its first."""
    built, tracer._local.built = getattr(tracer._local, "built", 0), 0
    tracer.counts["core.resolves"] += max(built - 1, 0)


def _count_solve(tracer, args, kwargs, result):
    from repro.solver.solution import SolveStatus

    tracer.counts["solver.solves"] += 1
    tracer.counts["solver.nodes"] += result.iterations
    tracer.counts["solver.time_limit_hits"] += result.status is SolveStatus.TIME_LIMIT


def _count_engine(tracer, args, kwargs, result):
    if kwargs.get("fusion") is None:  # the fused path re-enters without fusion
        tracer.counts["engine.solves"] += result.stats.solves
        tracer.counts["engine.dedup_reuses"] += result.stats.dedup_reuses


def _count_baseline(tracer, args, kwargs, result):
    tracer.counts["baselines.sampled"] += result.num_sampled
    tracer.counts["baselines.evaluated"] += result.num_evaluated


def _count_fusion(tracer, args, kwargs, result):
    for group in result.groups:
        tracer.counts["fusion.groups"] += 1
        if group.cost is not None and group.cost.valid:
            tracer.counts["fusion.pinned_edges"] += group.cost.num_pinned_edges


def _count_noc(tracer, args, kwargs, result):
    tracer.counts["noc.inconsistent"] += not result["consistent"]


def _counter(name):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += 1

    return count


#: ``(module, class or None, attribute, span name, count callback, deterministic)``.
#: A span name of ``None`` means the name comes from the bound object
#: (``baselines.<scheduler name>``).  Deterministic hooks also run, without
#: spans, in untraced runs.
HOOKS = (
    ("repro.api.runner", None, "run", "api.run", None, False),
    ("repro.api.runner", None, "execute", "api.run", None, False),
    ("repro.engine.engine", "SchedulingEngine", "schedule_network", "engine", _count_engine, False),
    ("repro.core.scheduler", "CoSAScheduler", "schedule", "core.schedule", _count_resolves, True),
    ("repro.core.formulation", "CoSAFormulation", "__init__", "core.build", _count_formulation, True),
    ("repro.core.formulation", "CoSAFormulation", "decode", "core.decode", None, False),
    ("repro.solver.model", "MIPModel", "to_matrix_form", "solver.matrix", None, False),
    ("repro.solver.scipy_backend", "ScipyMilpBackend", "solve", "solver.highs", _count_solve, True),
    ("repro.baselines.base", "SearchScheduler", "schedule_outcome", None, _count_baseline, True),
    ("repro.mapping.space", "MapSpace", "random_mapping", "mapping.sample", _counter("mapping.sample_calls"), False),
    ("repro.mapping.space", "MapSpace", "sample_batch", "mapping.sample", _counter("mapping.sample_calls"), False),
    ("repro.mapping.space", "MapSpace", "random_move", "mapping.move", _counter("mapping.move_calls"), False),
    ("repro.model.cost", "CostModel", "evaluate", "model.scalar", _counter("model.scalar.calls"), False),
    ("repro.model.kernels", "CompiledCostModel", "evaluate_batch", "model.batch", None, False),
    ("repro.model.kernels", "CompiledCostModel", "evaluate_draws", "model.batch", None, False),
    ("repro.model.kernels", "CompiledCostModel", "evaluate_mappings", "model.batch", None, False),
    ("repro.model.batch", "BatchCostModel", "evaluate_batch", "model.batch", None, False),
    ("repro.model.batch", "BatchCostModel", "evaluate_mappings", "model.batch", None, False),
    ("repro.model.delta", "DeltaEvaluator", "preview", "model.delta", _counter("model.delta.previews"), False),
    ("repro.model.fused", "FusedCostModel", "evaluate_group", "model.fused", _counter("model.fused.candidates"), False),
    ("repro.model.fused_batch", "BatchFusedCostModel", "evaluate_group", "model.fused", None, False),
    ("repro.model.kernels", "CompiledFusedKernel", "evaluate_group", "model.fused", None, False),
    ("repro.fusion.schedule", None, "schedule_fused_network", "fusion", _count_fusion, False),
    ("repro.noc.traffic", None, "validate_fused_transfers", "noc.validate", _count_noc, False),
)

#: Batched entry points count the mappings of their outermost call only
#: (``evaluate_mappings`` re-enters ``evaluate_batch``).
_BATCH_COUNTS = {"model.batch": "model.batch.mappings", "model.fused": "model.fused.candidates"}


def _wrap(tracer: Tracer, original, span_name, count, timed: bool):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not timed:
            result = original(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result
        name = span_name or f"baselines.{args[0].name}"
        outer = tracer.current()
        span_id = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span_id)
        if count is not None:
            count(tracer, args, kwargs, result)
        if name in _BATCH_COUNTS and count is None:
            if outer is None or tracer.spans[outer][0] != name:
                tracer.counts[_BATCH_COUNTS[name]] += len(result.valid)
        return result

    return wrapper


def _wrap_submit(tracer: Tracer, original):
    """``SchedulingService.submit``: time each job's events via ``on_event``."""

    @functools.wraps(original)
    def wrapper(self, spec, on_event=None, **kwargs):
        def record(event):
            tracer.job_events[event.job_id].setdefault(event.KIND, time.perf_counter())
            if on_event is not None:
                on_event(event)

        return original(self, spec, record, **kwargs)

    return wrapper


def _wrap_pool_submit(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(self, fn, /, *args, **kwargs):
        parent = tracer.current()

        def task(*task_args, **task_kwargs):
            with tracer.inherit(parent):
                return fn(*task_args, **task_kwargs)

        return original(self, task, *args, **kwargs)

    return wrapper


@contextmanager
def install(tracer: Tracer, timed: bool = True):
    """Wrap the program's layer entry points for the duration of the block."""
    patched = []

    def patch(owner, attribute, replacement):
        had_own = attribute in vars(owner)
        patched.append((owner, attribute, vars(owner).get(attribute), had_own))
        setattr(owner, attribute, replacement)

    try:
        for module_name, class_name, attribute, span_name, count, deterministic in HOOKS:
            if not (timed or deterministic):
                continue
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = getattr(owner, attribute)
            patch(owner, attribute, _wrap(tracer, original, span_name, count, timed))
        if timed:
            from repro.api.service import SchedulingService

            patch(SchedulingService, "submit", _wrap_submit(tracer, SchedulingService.submit))
            patch(ThreadPoolExecutor, "submit", _wrap_pool_submit(tracer, ThreadPoolExecutor.submit))
        yield tracer
    finally:
        for owner, attribute, original, had_own in reversed(patched):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
