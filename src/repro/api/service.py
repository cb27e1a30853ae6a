"""The asynchronous scheduling service: jobs, events and the result store.

The paper's experiments are long-running sweeps, so the service API has the
shape production schedulers converge on — submit work, observe progress,
fetch and de-duplicate results:

* :meth:`SchedulingService.submit` turns a
  :class:`~repro.api.specs.RunSpec` into a first-class :class:`Job` executed
  on a bounded worker pool;
* every job narrates its life through the typed, schema-versioned event
  protocol of :mod:`repro.api.events` (``run_queued`` → ``run_started`` →
  one ``layer_scheduled`` per layer → ``run_finished``/``run_failed``),
  consumable via :meth:`Job.events` or an ``on_event`` callback;
* with a :class:`~repro.api.store.ResultStore` attached, finished envelopes
  are persisted under the spec fingerprint and **resubmitting an identical
  spec is a store hit** — the stored envelope is returned verbatim and no
  scheduler runs.

Quickstart::

    from repro.api import RunSpec, SchedulingService

    with SchedulingService(max_workers=4, store="run-store") as service:
        job = service.submit(RunSpec.from_dict({
            "kind": "compare",
            "workload": {"network": "resnet50", "first_layers": 4},
        }))
        for event in job.events():            # streams as layers finish
            print(event.to_dict())
        result = job.result()                 # the stamped RunResult

The synchronous :func:`repro.api.run` is a thin wrapper over
``submit(spec).result()`` on a private single-worker service, so both entry
points share one execution path and produce bit-identical envelopes.

Threading notes: jobs run on a bounded pool of **daemon** worker threads
(``max_workers`` concurrent runs; further submissions queue in order).
Daemon workers keep the process interruptible: Ctrl-C during a long sweep
exits promptly instead of blocking until the sweep drains, matching the
pre-service inline ``run()`` behaviour.  ``on_event`` callbacks and
:meth:`Job.events` deliveries originate from the worker thread that
executes the job (``run_queued`` alone fires from the submitting thread);
event payloads are deterministic even under ``engine.jobs > 1`` because
the engine reports layers in input order (see
:class:`~repro.engine.engine.LayerReport`).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator

from repro.api.events import (
    TERMINAL_EVENTS,
    Event,
    LayerScheduled,
    RunFailed,
    RunFinished,
    RunQueued,
    RunStarted,
    event_from_dict,
)
from repro.api.result import RunResult
from repro.api.specs import RunSpec
from repro.api.store import ResultStore, spec_fingerprint


class JobState(str, Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job can never leave.
TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

#: Valid ``submit(priority=...)`` levels, highest first.
PRIORITIES = ("interactive", "batch")


class JobCancelled(RuntimeError):
    """Raised by :meth:`Job.result` when the job was cancelled."""


class JobTimeout(TimeoutError):
    """Raised by :meth:`Job.result` / :meth:`Job.events` on timeout."""


class Job:
    """One submitted run: state, events, and eventually a result.

    Jobs are created by :meth:`SchedulingService.submit`; the constructor is
    not public API.  All attributes are safe to read from any thread.
    """

    def __init__(
        self,
        job_id: str,
        spec: RunSpec,
        fingerprint: str,
        on_event: Callable[[Event], None] | None = None,
        priority: str = "interactive",
    ):
        self.id = job_id
        self.spec = spec
        self.fingerprint = fingerprint
        self.priority = priority
        self.state = JobState.QUEUED
        #: ``True`` when the result was served from the result store — or
        #: from an identical in-flight job (single-flight dedup).
        self.store_hit = False
        #: The original exception of a failed job.
        self.error: BaseException | None = None
        self._result: RunResult | None = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._log: list[Event] = []
        self._subscribers: list[queue.SimpleQueue] = []
        self._on_event = on_event
        #: The store this job records to (per-job: the gateway gives every
        #: tenant its own subtree on one shared service).
        self._store: "ResultStore | None" = None
        #: Single-flight bookkeeping: the dedup key this job flies under and
        #: identical-spec jobs waiting on this one (guarded by the service
        #: lock, not the job lock).
        self._flight_key: tuple = (None, fingerprint)
        self._followers: list["Job"] = []
        #: Persists the job record; installed by the owning service.
        self._record: Callable[["Job"], None] = lambda job: None
        #: Releases single-flight followers; installed by the owning service.
        self._settle: Callable[["Job"], None] = lambda job: None
        #: Extra veto ahead of a local cancel — fabric jobs must first win
        #: the remote cancellation race (see ``WorkQueue.cancel``).
        self._cancel_guard: Callable[[], bool] = lambda: True
        #: Fabric bookkeeping (``backend="fabric"`` jobs only).
        self._task_id: str | None = None
        self._events_offset = 0

    def __repr__(self) -> str:
        return f"Job(id={self.id!r}, kind={self.spec.kind!r}, state={self.state.value!r})"

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    @property
    def event_log(self) -> list[Event]:
        """Snapshot of every event emitted so far, in ``seq`` order."""
        with self._lock:
            return list(self._log)

    # -------------------------------------------------------------- emission
    def _emit(self, cls: type[Event], **fields) -> Event:
        with self._lock:
            event = cls(job_id=self.id, seq=len(self._log), **fields)
            self._log.append(event)
            subscribers = list(self._subscribers)
        for channel in subscribers:
            channel.put(event)
        if self._on_event is not None:
            self._on_event(event)
        return event

    # ------------------------------------------------------------ observation
    def events(self, timeout: float | None = None) -> Iterator[Event]:
        """Iterate the job's events from the beginning, live.

        Replays everything already emitted, then blocks for new events until
        the terminal ``run_finished``/``run_failed`` arrives.  ``timeout``
        bounds the wait for each *individual* event (:class:`JobTimeout` on
        expiry); ``None`` waits indefinitely.  Multiple concurrent iterators
        each see the complete stream.
        """
        channel: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            backlog = list(self._log)
            finished = any(event.KIND in TERMINAL_EVENTS for event in backlog)
            if not finished:
                self._subscribers.append(channel)
        try:
            yield from backlog
            if finished:
                return
            while True:
                try:
                    event = channel.get(timeout=timeout)
                except queue.Empty:
                    raise JobTimeout(
                        f"job {self.id} emitted no event within {timeout} seconds"
                    ) from None
                yield event
                if event.KIND in TERMINAL_EVENTS:
                    return
        finally:
            with self._lock:
                if channel in self._subscribers:
                    self._subscribers.remove(channel)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; ``False`` on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> RunResult:
        """Block for and return the job's :class:`RunResult`.

        Raises :class:`JobTimeout` when the job is still running after
        ``timeout`` seconds, :class:`JobCancelled` for cancelled jobs, and
        re-raises the original exception for failed ones.
        """
        if not self._done.wait(timeout):
            raise JobTimeout(
                f"job {self.id} did not finish within {timeout} seconds "
                f"(state: {self.state.value})"
            )
        if self.state is JobState.CANCELLED:
            raise JobCancelled(f"job {self.id} was cancelled")
        if self.state is JobState.FAILED:
            assert self.error is not None
            raise self.error
        assert self._result is not None
        return self._result

    # ------------------------------------------------------------ cancellation
    def cancel(self) -> bool:
        """Cancel the job if it has not started executing yet.

        Returns ``True`` when the job was still queued and is now
        ``CANCELLED`` (a terminal ``run_failed`` event is emitted so event
        streams drain, and the persisted job record is updated); ``False``
        when it already runs or finished — in-flight solves are never
        interrupted.  The worker that eventually dequeues a cancelled job
        skips it; identical-spec jobs deduplicated onto a cancelled job are
        re-queued to run on their own.
        """
        if not self._cancel_guard():
            return False
        with self._lock:
            if self.state is not JobState.QUEUED:
                return False
            self.state = JobState.CANCELLED
        try:
            self._emit(
                RunFailed,
                error_type=JobCancelled.__name__,
                error_message="cancelled before execution",
            )
        finally:
            self._record(self)
            self._done.set()
            self._settle(self)
        return True

    # ------------------------------------------------------------- persistence
    def to_dict(self) -> dict:
        """JSON-compatible job record (what ``repro jobs`` lists)."""
        return {
            "job_id": self.id,
            "state": self.state.value,
            "kind": self.spec.kind,
            "priority": self.priority,
            "spec_fingerprint": self.fingerprint,
            "store_hit": self.store_hit,
            "error": None
            if self.error is None
            else {"type": type(self.error).__name__, "message": str(self.error)},
            "num_events": len(self.event_log),
            "spec": self.spec.to_dict(),
        }


#: Queue sentinel telling a worker thread to exit.
_SHUTDOWN = object()


class FIFOJobQueue:
    """The default job queue: strict submission order.

    Items without a ``priority`` attribute (the service's shutdown
    sentinels) go to a separate drain lane handed out only once the job
    lane is empty, so ``shutdown(wait=True)`` always lets queued jobs
    finish first — even when a racing submit enqueues after the sentinels
    were posted.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: deque = deque()
        self._drain: deque = deque()

    def put(self, item) -> None:
        with self._not_empty:
            lane = self._jobs if hasattr(item, "priority") else self._drain
            lane.append(item)
            self._not_empty.notify()

    def get(self):
        with self._not_empty:
            while True:
                if self._jobs:
                    return self._jobs.popleft()
                if self._drain:
                    return self._drain.popleft()
                self._not_empty.wait()


class TwoLevelPriorityQueue:
    """Weighted two-level (``interactive`` / ``batch``) job queue.

    Dequeueing prefers the interactive lane, but out of every
    ``interactive_weight + 1`` dequeues with both lanes occupied one comes
    from the batch lane — interactive submissions are never stuck behind a
    1000-layer sweep, and the sweep still makes progress underneath a
    steady interactive stream.  Jobs carry their lane in ``Job.priority``
    (anything unknown counts as ``batch``); items without a ``priority``
    attribute are shutdown sentinels and drain only once both lanes are
    empty, preserving :class:`FIFOJobQueue`'s shutdown semantics.
    """

    def __init__(self, interactive_weight: int = 4):
        if interactive_weight < 1:
            raise ValueError(
                f"interactive_weight must be >= 1, got {interactive_weight}"
            )
        self.interactive_weight = interactive_weight
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._interactive: deque = deque()
        self._batch: deque = deque()
        self._drain: deque = deque()
        self._streak = 0  # consecutive interactive dequeues

    def put(self, item) -> None:
        priority = getattr(item, "priority", None)
        with self._not_empty:
            if priority is None:
                self._drain.append(item)
            elif priority == "interactive":
                self._interactive.append(item)
            else:
                self._batch.append(item)
            self._not_empty.notify()

    def get(self):
        with self._not_empty:
            while True:
                if self._interactive or self._batch:
                    serve_batch = bool(self._batch) and (
                        not self._interactive
                        or self._streak >= self.interactive_weight
                    )
                    if serve_batch:
                        self._streak = 0
                        return self._batch.popleft()
                    self._streak += 1
                    return self._interactive.popleft()
                if self._drain:
                    return self._drain.popleft()
                self._not_empty.wait()


class SchedulingService:
    """Bounded-concurrency job executor with events and a result store.

    Parameters
    ----------
    max_workers:
        Concurrent jobs (further submissions queue in order).  Per-job layer
        parallelism is independent and comes from ``spec.engine.jobs``.
    store:
        Optional :class:`~repro.api.store.ResultStore` (or a directory path,
        which constructs one): finished envelopes are persisted under the
        spec fingerprint, resubmissions of identical specs become store
        hits, and job records survive the process for ``repro jobs`` /
        ``repro result``.  ``submit(store=...)`` overrides it per job — how
        the gateway keeps tenants in separate subtrees on one worker pool.
    job_queue:
        The queue workers drain; defaults to :class:`FIFOJobQueue`.  The
        gateway passes a :class:`TwoLevelPriorityQueue` so interactive
        submissions overtake batch sweeps.
    backend:
        ``"local"`` (default) executes on this process's thread pool;
        ``"fabric"`` enqueues every submission into the persistent
        :class:`~repro.fabric.queue.WorkQueue` under ``fabric_root``, to be
        drained by external ``repro worker`` processes.  In fabric mode
        ``max_workers`` may be 0 (a pure front-end: ``repro serve`` with
        zero in-process workers) and every job needs a store — that is
        where workers put envelopes and event logs.
    fabric_root:
        The fabric directory (required for ``backend="fabric"``).

    The service is a context manager; leaving the block waits for running
    jobs and shuts the pool down.  Workers are daemon threads, so an
    interrupted process (Ctrl-C mid-sweep) exits promptly instead of
    draining the queue; call :meth:`shutdown` (or use the context manager)
    for a clean hand-over.  Fabric tasks outlive the service by design:
    shutting down the front-end leaves queued work in the fabric for
    workers to finish.
    """

    #: Seconds between fabric watcher sweeps over live jobs' event logs.
    FABRIC_POLL_INTERVAL = 0.05

    def __init__(
        self,
        max_workers: int = 2,
        store: ResultStore | str | Path | None = None,
        job_queue=None,
        *,
        backend: str = "local",
        fabric_root: str | Path | None = None,
    ):
        if backend not in ("local", "fabric"):
            raise ValueError(f"backend must be 'local' or 'fabric', got {backend!r}")
        if backend == "fabric" and fabric_root is None:
            raise ValueError("backend='fabric' requires fabric_root")
        min_workers = 0 if backend == "fabric" else 1
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers must be >= {min_workers}, got {max_workers}"
            )
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.backend = backend
        self.max_workers = max_workers
        self._fabric = None
        self._watcher: threading.Thread | None = None
        if backend == "fabric":
            from repro.fabric.queue import WorkQueue

            self._fabric = WorkQueue(fabric_root)
        self._queue = job_queue if job_queue is not None else FIFOJobQueue()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-service-{index}", daemon=True
            )
            for index in range(max_workers if backend == "local" else 0)
        ]
        for worker in self._workers:
            worker.start()
        self._jobs: dict[str, Job] = {}
        #: Single-flight leaders by ``Job._flight_key``; guarded by ``_lock``.
        self._inflight: dict[tuple, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._closed = False
        #: Fabric jobs the watcher still tails; guarded by ``_lock``.
        self._watched: list[Job] = []

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) wait for queued/running ones.

        Closing and posting the worker sentinels happen under one lock
        acquisition, so a racing ``submit`` either lands before the
        sentinels (and its job drains normally) or observes the closed flag
        and raises — a job can never be enqueued behind the sentinels and
        silently hang.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join()
            if self._watcher is not None:
                self._watcher.join(timeout=10)

    # ------------------------------------------------------------- submission
    _STORE_UNSET = object()

    def submit(
        self,
        spec: RunSpec,
        on_event: Callable[[Event], None] | None = None,
        *,
        priority: str = "interactive",
        store=_STORE_UNSET,
    ) -> Job:
        """Queue one spec for execution and return its :class:`Job`.

        ``on_event`` is invoked synchronously for every event the job emits:
        ``run_queued`` from this call, everything later from the worker
        thread.  An ``on_event`` exception during ``run_queued`` aborts the
        submission (the job is unregistered and the exception propagates).

        ``priority`` labels the job's queue lane (``"interactive"`` or
        ``"batch"``; only meaningful with a priority-aware ``job_queue``).
        ``store`` overrides the service store for this job — ``None``
        disables persistence, a path or :class:`ResultStore` redirects it
        (the gateway's per-tenant subtrees).

        Identical-spec submissions are **single-flighted**: while a job with
        the same spec fingerprint (and store) is queued or running, a new
        submission does not execute — it waits on the in-flight job, shares
        its result and reports ``store_hit`` — so a stampede of identical
        sweeps costs one solve.  Under ``backend="fabric"`` the arbitration
        moves into the work queue's on-disk in-flight index (leader/follower
        tasks), so the dedup spans every submitting process *and* tenant
        sharing one results tier, not just this service instance.  Record
        I/O happens outside the service lock, so ``job()``/``jobs()``
        inspection never blocks on disk.
        """
        if not isinstance(spec, RunSpec):
            raise TypeError(f"submit() expects a RunSpec, got {type(spec).__name__}")
        if priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {', '.join(PRIORITIES)}, got {priority!r}"
            )
        job_store = self.store if store is self._STORE_UNSET else store
        if isinstance(job_store, (str, Path)):
            job_store = ResultStore(job_store)
        if self.backend == "fabric" and job_store is None:
            raise ValueError(
                "backend='fabric' jobs need a result store: workers deliver "
                "envelopes and event logs through it"
            )
        fingerprint = spec_fingerprint(spec)
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a shut-down SchedulingService")
        if job_store is not None:
            job_id = job_store.allocate_job_id(fingerprint)
        else:
            with self._lock:
                self._counter += 1
                job_id = f"job-{self._counter:06d}-{fingerprint[:12]}"
        job = Job(job_id, spec, fingerprint, on_event=on_event, priority=priority)
        job._store = job_store
        job._flight_key = (
            None if job_store is None else str(job_store.results_root.resolve()),
            fingerprint,
        )
        job._record = self._record
        job._settle = self._settle_followers
        self._record(job)
        try:
            job._emit(RunQueued, kind=spec.kind, spec_fingerprint=fingerprint)
        except BaseException:
            # The subscriber died before the job ever queued: fail it without
            # registering, so nothing waits on a job that will never run.
            job.error = JobCancelled(f"job {job.id} aborted during run_queued emission")
            with job._lock:
                job.state = JobState.FAILED
            job._done.set()
            raise
        with self._lock:
            if self._closed:
                # Lost the race against shutdown(): the sentinels are already
                # posted, so this job must not be enqueued.  Cancel it so
                # event streams drain and the record is terminal.
                with job._lock:
                    job.state = JobState.CANCELLED
                enqueue = False
            elif self.backend == "fabric":
                self._jobs[job.id] = job
                enqueue = True  # the fabric queue arbitrates single-flight
            else:
                self._jobs[job.id] = job
                leader = self._inflight.get(job._flight_key)
                if leader is not None and not leader.done:
                    leader._followers.append(job)  # single-flight: wait on it
                    enqueue = False
                else:
                    self._inflight[job._flight_key] = job
                    enqueue = True
                    self._queue.put(job)
        if job.state is JobState.CANCELLED:
            try:
                job._emit(
                    RunFailed,
                    error_type=JobCancelled.__name__,
                    error_message="service shut down during submission",
                )
            finally:
                self._record(job)
                job._done.set()
            raise RuntimeError("cannot submit to a shut-down SchedulingService")
        if self.backend == "fabric":
            self._enqueue_fabric(job)
        elif not enqueue:
            self._record(job)  # record the deduplicated (waiting) job
        return job

    def _enqueue_fabric(self, job: Job) -> None:
        """Hand one accepted job to the persistent work queue."""
        store = job._store
        tenant = store.job_prefix.rstrip("-")
        # Task paths must be absolute: workers run with their own cwd, and a
        # relative --store would make them write envelopes somewhere else.
        results_root = (
            None
            if store.results_root == store.root
            else str(Path(store.results_root).resolve())
        )
        # Seed the on-disk record and event log (run_queued, seq 0) BEFORE the
        # task becomes claimable: the worker's appender continues numbering
        # from the file's line count, so the combined log reads like a local
        # job's, and `repro jobs` sees the job while it is still queued.
        self._record(job)
        task = self._fabric.enqueue(
            job.spec.to_dict(),
            job.fingerprint,
            job_id=job.id,
            store_root=str(Path(store.root).resolve()),
            results_root=results_root,
            job_prefix=store.job_prefix,
            tenant=tenant,
            priority=job.priority,
        )
        job._task_id = task["task_id"]
        job._events_offset = 1  # the local run_queued is already in the log
        job._cancel_guard = lambda: self._fabric.cancel(task["task_id"])
        with self._lock:
            self._watched.append(job)
            if self._watcher is None or not self._watcher.is_alive():
                self._watcher = threading.Thread(
                    target=self._watch_fabric, name="repro-fabric-watch", daemon=True
                )
                self._watcher.start()

    # -------------------------------------------------------------- inspection
    def job(self, job_id: str) -> Job:
        """Look up a job of this service instance by id."""
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(
                    f"unknown job {job_id!r}; known: {', '.join(sorted(self._jobs)) or 'none'}"
                )
            return self._jobs[job_id]

    def jobs(self) -> list[Job]:
        """Every job submitted to this service, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    # --------------------------------------------------------------- execution
    def _record(self, job: Job) -> None:
        if job._store is not None:
            job._store.record_job(job.to_dict())
            job._store.record_events(job.id, job.event_log)

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            try:
                self._execute_job(item)
            except BaseException:
                # _execute_job handles job failures itself; anything escaping
                # it is a subscriber blowing up on a terminal event.  The job
                # is already terminal and recorded — keep the worker alive.
                pass

    def _execute_job(self, job: Job) -> None:
        with job._lock:
            if job.state is not JobState.QUEUED:  # cancelled while queued
                return
            job.state = JobState.RUNNING
        try:
            job._emit(RunStarted)
            result = None
            store_hit = False
            if job._store is not None:
                result = job._store.get(job.spec, job.fingerprint)
                store_hit = result is not None
            if result is None:
                from repro.api import runner

                result = runner.execute(
                    job.spec,
                    emit_layer=lambda payload: job._emit(LayerScheduled, **payload),
                )
                if job._store is not None:
                    job._store.put(result, job.fingerprint)
            job._result = result
            job.store_hit = store_hit
            with job._lock:
                job.state = JobState.DONE
        except BaseException as error:  # the error re-raises from Job.result
            job.error = error
            with job._lock:
                job.state = JobState.FAILED
            try:
                job._emit(
                    RunFailed, error_type=type(error).__name__, error_message=str(error)
                )
            finally:
                self._record(job)
                job._done.set()
                self._settle_followers(job)
            return
        # Success: emit the terminal event *after* the DONE transition, and
        # release waiters even when a subscriber raises on it (the event is
        # in the log and every queue before on_event callbacks run).
        try:
            job._emit(RunFinished, store_hit=store_hit, result=result.to_dict())
        finally:
            self._record(job)
            job._done.set()
            self._settle_followers(job)

    # ------------------------------------------------------------ fabric watch
    def _watch_fabric(self) -> None:
        """Tail fabric jobs' on-disk event logs into their local ``Job``s.

        Workers append the typed NDJSON events as they execute (possibly on
        another host); this thread re-emits each new line into the in-process
        :class:`Job`, so ``Job.events()`` subscribers and gateway streams see
        a fabric job exactly like a local one.  One watcher serves every
        fabric job of the service; it exits with the service.
        """
        while True:
            with self._lock:
                if self._closed:
                    return
                jobs = [job for job in self._watched if not job.done]
                self._watched = jobs
            for job in jobs:
                try:
                    self._poll_fabric_job(job)
                except BaseException:
                    # A subscriber blowing up on a re-emitted event must not
                    # kill the watcher for every other job.
                    pass
            time.sleep(self.FABRIC_POLL_INTERVAL)

    def _poll_fabric_job(self, job: Job) -> None:
        """Apply any new event-log lines (and dead-letter state) to ``job``."""
        try:
            lines = job._store.events_path(job.id).read_text().splitlines()
        except FileNotFoundError:
            lines = []
        for line in lines[job._events_offset :]:
            if not line.strip():
                job._events_offset += 1
                continue
            try:
                event = event_from_dict(json.loads(line))
            except ValueError:
                break  # torn tail mid-append; complete next sweep
            job._events_offset += 1
            self._apply_fabric_event(job, event)
            if job.done:
                return
        if job._task_id is not None and not job.done:
            task = self._fabric.load_task(job._task_id)
            if task is not None and task["state"] == "dead":
                # The queue dead-lettered it: no worker will ever emit a
                # terminal event, so fail the local job now.
                error = task.get("error") or {}
                self._fail_fabric_job(
                    job,
                    error.get("type", "LeaseExpired"),
                    error.get("message", "task was dead-lettered"),
                )

    def _apply_fabric_event(self, job: Job, event: Event) -> None:
        if isinstance(event, RunStarted):
            with job._lock:
                if job.state is JobState.QUEUED:
                    job.state = JobState.RUNNING
            job._emit(RunStarted)
            return
        if isinstance(event, RunFinished):
            job._result = RunResult.from_dict(event.result)
            job.store_hit = event.store_hit
            with job._lock:
                job.state = JobState.DONE
            try:
                job._emit(RunFinished, store_hit=event.store_hit, result=event.result)
            finally:
                job._done.set()
            return
        if isinstance(event, RunFailed):
            self._fail_fabric_job(job, event.error_type, event.error_message)
            return
        job._emit(type(event), **event.payload())

    def _fail_fabric_job(self, job: Job, error_type: str, message: str) -> None:
        job.error = RuntimeError(f"{error_type}: {message}")
        with job._lock:
            if job.state in TERMINAL_STATES:
                return
            job.state = JobState.FAILED
        try:
            # Persist the terminal state before waiters wake: on the
            # dead-letter path no worker is alive to update the record, so
            # merge ours in (keeping worker/task bookkeeping an earlier
            # attempt may have written).
            if job._store is not None:
                record = job._store.load_job(job.id) or {}
                record.update(job.to_dict())
                job._store.record_job(record)
            job._emit(RunFailed, error_type=error_type, error_message=message)
        finally:
            job._done.set()

    # ----------------------------------------------------------- single-flight
    def _settle_followers(self, leader: Job) -> None:
        """Release jobs deduplicated onto ``leader`` once it turns terminal.

        A DONE leader completes its followers in place (they share the
        result object and report ``store_hit``); a failed or cancelled
        leader re-queues them, so a duplicate submission is never poisoned
        by its leader's cancellation.
        """
        with self._lock:
            if self._inflight.get(leader._flight_key) is leader:
                del self._inflight[leader._flight_key]
            followers = list(leader._followers)
            leader._followers.clear()
        if not followers:
            return
        if leader.state is JobState.DONE:
            for follower in followers:
                try:
                    self._complete_follower(follower, leader)
                except BaseException:
                    # A subscriber blowing up on one follower's terminal
                    # event must not strand the remaining followers.
                    pass
            return
        for follower in followers:
            with self._lock:
                current = self._inflight.get(follower._flight_key)
                if current is not None and not current.done:
                    current._followers.append(follower)
                else:
                    self._inflight[follower._flight_key] = follower
                    self._queue.put(follower)

    def _complete_follower(self, follower: Job, leader: Job) -> None:
        """Finish ``follower`` with its leader's result, store-hit style."""
        with follower._lock:
            if follower.state is not JobState.QUEUED:  # cancelled while waiting
                return
            follower.state = JobState.RUNNING
        assert leader._result is not None
        try:
            follower._emit(RunStarted)
        except BaseException:
            pass  # a dead subscriber must not lose the shared result
        follower._result = leader._result
        follower.store_hit = True
        with follower._lock:
            follower.state = JobState.DONE
        try:
            follower._emit(
                RunFinished, store_hit=True, result=leader._result.to_dict()
            )
        finally:
            self._record(follower)
            follower._done.set()
