"""Content-addressed on-disk store of finished :class:`RunResult` envelopes.

The paper's sweeps re-run the same experiments constantly — across shell
sessions, CI jobs and notebook restarts — and the mapping cache only
de-duplicates *per-layer solves inside one process tree*.  The
:class:`ResultStore` closes the loop at the experiment level: every finished
run is persisted under the **fingerprint of its spec**, so resubmitting an
identical spec is a store hit that returns the stored envelope verbatim
without invoking any scheduler.

* Envelopes are the plain v1 :meth:`~repro.api.result.RunResult.to_dict`
  JSON — the store adds no wrapper, so a stored file round-trips through
  ``RunResult.from_json`` and is byte-for-byte what ``run()`` produced.
* The key (:func:`spec_fingerprint`) hashes the *result-determining* part of
  the spec: execution-only knobs (``jobs``, ``executor``, the mapping-cache
  path) are excluded, so a 1-job and an 8-job run of the same experiment
  share one entry, while everything that can change the payload (kind, axes,
  seed, options, evaluation batch size and time budget) splits entries.
* Writes go through :func:`repro.io_utils.atomic_write_json`, so concurrent
  services sharing one store directory never tear an envelope.

Layout (v2, fingerprint-prefix sharded)
---------------------------------------
One flat directory stops scaling somewhere in the tens of thousands of
entries (every lookup lists siblings, every backup walks one dir), so the
results tier shards by fingerprint prefix — the standard content-addressed
trick (git objects, blob caches)::

    <results_root>/store.json                      # layout meta (version, depth)
    <results_root>/results/<fp[:depth]>/<fp>.json  # RunResult envelopes
    <root>/jobs/<job_id>.json                      # job records (tenant-private)
    <root>/jobs/<job_id>.events.ndjson             # one serialized event per line

``results_root`` defaults to ``root`` but may point elsewhere: the gateway
gives every tenant a private ``root`` (job records, event logs) while all
tenants share one ``results_root`` — identical specs submitted by different
tenants are **one** content-addressed entry, executed once.

Flat v1 stores (PR 4–7) are migrated transparently on first open: existing
``results/*.json`` files move into their shard directory and the layout meta
is written.  Envelope bytes are untouched — golden v1 envelopes and every
store-hit semantic survive the move.

Tiers, eviction, compaction
---------------------------
A warm in-memory LRU tier (``warm_capacity`` parsed envelopes) fronts the
disk tier; :class:`StoreStats` splits hits into ``warm_hits`` /
``disk_hits``.  With ``max_bytes`` set, :meth:`gc` (also run
opportunistically by :meth:`put`) evicts least-recently-*used* envelopes —
every disk hit refreshes the file's mtime — until the results tier fits,
and :meth:`compact` sweeps crashed writers' temp debris and empty shard
directories.  ``repro store stats`` / ``repro store gc`` expose both from
the shell.

Record repair semantics: a job record that cannot be parsed (empty,
truncated, or not a JSON object — e.g. a process that crashed between
reserving an id and writing the placeholder, or a reader racing that window)
is **skipped with a** :class:`StoreRecordWarning` by :meth:`ResultStore.load_jobs`
and treated as unknown by :meth:`ResultStore.load_job`, so one bad file never
takes down job listings for the whole store.  The next ``record_job`` for
that id rewrites the file atomically and repairs it.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.result import RunResult
from repro.api.specs import RunSpec
from repro.digest import stable_digest
from repro.io_utils import atomic_write_json, atomic_write_text

#: ``EngineSpec`` keys that steer execution but cannot change the payload
#: (see the determinism notes in :mod:`repro.engine.engine`); they are
#: excluded from the spec fingerprint.  ``fusion_options`` qualifies because
#: the frontier alignment search only tunes how hard the scheduler looks,
#: never the meaning of the workload.
EXECUTION_ONLY_ENGINE_KEYS = ("jobs", "executor", "cache", "fusion_options")

#: On-disk layout version written to the ``store.json`` meta file.
STORE_LAYOUT_VERSION = 2

#: Fingerprint-prefix characters used as the shard directory name.  Two hex
#: chars give 256 shards — flat-directory behaviour returns only past ~256x
#: the entry count that made v1 slow.
DEFAULT_SHARD_DEPTH = 2

#: Envelopes kept parsed in the warm tier by default.
DEFAULT_WARM_CAPACITY = 128

#: Meta file name, a sibling of the ``results/`` directory.
META_FILE = "store.json"


def spec_fingerprint(spec: RunSpec) -> str:
    """Content hash of the result-determining part of ``spec``."""
    payload = spec.to_dict()
    payload["engine"] = {
        key: value
        for key, value in payload["engine"].items()
        if key not in EXECUTION_ONLY_ENGINE_KEYS
    }
    return stable_digest(payload)


class StoreRecordWarning(RuntimeWarning):
    """An on-disk job record was unreadable and has been skipped."""


@dataclass
class StoreStats:
    """Hit/miss counters of one :class:`ResultStore` instance.

    ``hits`` remains the total (warm + disk) so pre-fabric consumers keep
    reading the same field; the tier split rides alongside.  ``fused_hits``
    counts the subset of hits whose spec requested fusion-group scheduling
    (``spec.workload.fusion`` set), so operators can see how much of the
    store traffic the fusion tier serves.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    warm_hits: int = 0
    disk_hits: int = 0
    fused_hits: int = 0
    evictions: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "warm_hits": self.warm_hits,
            "disk_hits": self.disk_hits,
            "fused_hits": self.fused_hits,
            "evictions": self.evictions,
        }


@dataclass
class GCReport:
    """What one :meth:`ResultStore.gc` / :meth:`ResultStore.compact` pass did."""

    evicted: list = field(default_factory=list)
    evicted_bytes: int = 0
    removed_temp_files: int = 0
    removed_empty_shards: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    dry_run: bool = False

    def to_dict(self) -> dict:
        return {
            "evicted": list(self.evicted),
            "evicted_bytes": self.evicted_bytes,
            "removed_temp_files": self.removed_temp_files,
            "removed_empty_shards": self.removed_empty_shards,
            "remaining_entries": self.remaining_entries,
            "remaining_bytes": self.remaining_bytes,
            "dry_run": self.dry_run,
        }


class ResultStore:
    """Spec-fingerprint-addressed directory of finished run envelopes.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).  One store may
        be shared by many services and processes; every write is atomic.
    job_prefix:
        Optional prefix minted into every job id (``<prefix>job-000001-…``).
        The gateway uses it to give each tenant a distinct id namespace, so
        an id names its tenant even outside the tenant's store subtree.
    shard_depth:
        Fingerprint-prefix characters per shard directory.  Only consulted
        when this store *creates* the layout; an existing ``store.json``
        meta on disk wins, so every process sharing one results tree agrees.
    warm_capacity:
        Parsed envelopes kept in the in-memory LRU tier (0 disables it).
    max_bytes:
        Size bound of the results tier; ``None`` disables eviction.  When
        set, :meth:`put` opportunistically evicts least-recently-used
        envelopes to fit.
    results_root:
        Directory holding the shared ``results/`` tier (defaults to
        ``root``).  Point several stores' ``results_root`` at one directory
        to share envelopes cross-tenant while job records stay private.
    """

    def __init__(
        self,
        root: str | Path,
        job_prefix: str = "",
        *,
        shard_depth: int | None = None,
        warm_capacity: int = DEFAULT_WARM_CAPACITY,
        max_bytes: int | None = None,
        results_root: str | Path | None = None,
    ):
        self.root = Path(root)
        self.job_prefix = job_prefix
        self.results_root = Path(results_root) if results_root is not None else self.root
        self.max_bytes = max_bytes
        self.warm_capacity = warm_capacity
        self.stats = StoreStats()
        self._requested_shard_depth = shard_depth
        self._shard_depth: int | None = None  # resolved lazily from disk meta
        self._warm: OrderedDict[str, RunResult] = OrderedDict()
        self._warm_lock = threading.Lock()
        self._layout_lock = threading.Lock()
        self._alloc_lock = threading.Lock()
        #: Cached next job ordinal; ``None`` until the first allocation scans
        #: the directory once.  Cross-process safety still comes from the
        #: ``O_EXCL`` reservation loop, the cache only kills the per-submit
        #: O(n) re-glob.
        self._next_ordinal: int | None = None

    @property
    def results_dir(self) -> Path:
        return self.results_root / "results"

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    @property
    def meta_path(self) -> Path:
        return self.results_root / META_FILE

    # ---------------------------------------------------------------- layout
    @property
    def shard_depth(self) -> int:
        """The resolved shard depth (reads/creates the on-disk meta)."""
        self._ensure_layout()
        assert self._shard_depth is not None
        return self._shard_depth

    def _ensure_layout(self) -> None:
        """Resolve the shard depth, migrating a flat v1 tree on first open.

        The on-disk ``store.json`` meta is authoritative — every process
        sharing one results tree must shard identically, so a constructor
        argument never overrides an existing meta.  A results directory with
        loose ``results/*.json`` files and no meta is a pre-fabric flat
        store: its files move (``os.replace``, atomic, content untouched)
        into their shard directories.  The migration is idempotent and safe
        to race: a file two migrators fight over is moved by whichever
        ``replace`` runs first and skipped by the loser.
        """
        if self._shard_depth is not None:
            return
        with self._layout_lock:
            if self._shard_depth is not None:
                return
            meta = self._read_meta()
            if meta is not None:
                self._shard_depth = int(meta.get("shard_depth", DEFAULT_SHARD_DEPTH))
                return
            depth = (
                DEFAULT_SHARD_DEPTH
                if self._requested_shard_depth is None
                else self._requested_shard_depth
            )
            if depth < 0 or depth > 8:
                raise ValueError(f"shard_depth must be in [0, 8], got {depth}")
            if depth and self.results_dir.is_dir():
                for path in list(self.results_dir.glob("*.json")):
                    shard = self.results_dir / path.stem[:depth]
                    shard.mkdir(parents=True, exist_ok=True)
                    try:
                        os.replace(path, shard / path.name)
                    except FileNotFoundError:
                        pass  # a racing migrator moved it first
            atomic_write_json(
                self.meta_path,
                {"layout_version": STORE_LAYOUT_VERSION, "shard_depth": depth},
            )
            self._shard_depth = depth

    def _read_meta(self) -> dict | None:
        try:
            meta = json.loads(self.meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def result_path(self, fingerprint: str) -> Path:
        """The envelope path of ``fingerprint`` under the current layout."""
        depth = self.shard_depth
        if depth:
            return self.results_dir / fingerprint[:depth] / f"{fingerprint}.json"
        return self.results_dir / f"{fingerprint}.json"

    # Kept for pre-fabric callers; the public spelling is ``result_path``.
    def _result_path(self, fingerprint: str) -> Path:
        return self.result_path(fingerprint)

    def _iter_result_files(self):
        if not self.results_dir.is_dir():
            return
        yield from self.results_dir.rglob("*.json")

    # ------------------------------------------------------------- warm tier
    def _warm_get(self, fingerprint: str) -> RunResult | None:
        if self.warm_capacity <= 0:
            return None
        with self._warm_lock:
            result = self._warm.get(fingerprint)
            if result is not None:
                self._warm.move_to_end(fingerprint)
            return result

    def _warm_put(self, fingerprint: str, result: RunResult) -> None:
        if self.warm_capacity <= 0:
            return
        with self._warm_lock:
            self._warm[fingerprint] = result
            self._warm.move_to_end(fingerprint)
            while len(self._warm) > self.warm_capacity:
                self._warm.popitem(last=False)

    def _warm_drop(self, fingerprint: str) -> None:
        with self._warm_lock:
            self._warm.pop(fingerprint, None)

    # -------------------------------------------------------------- envelopes
    def load(self, fingerprint: str) -> RunResult | None:
        """Envelope stored under ``fingerprint`` (no hit/miss counting)."""
        warm = self._warm_get(fingerprint)
        if warm is not None:
            return warm
        path = self.result_path(fingerprint)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None  # miss, or evicted between exists-check and read
        result = RunResult.from_json(text)
        try:
            os.utime(path)  # refresh LRU recency for size-bounded eviction
        except OSError:
            pass
        self._warm_put(fingerprint, result)
        return result

    def get(self, spec: RunSpec, fingerprint: str | None = None) -> RunResult | None:
        """Stored result of ``spec`` (``None`` on a miss; counted either way)."""
        fingerprint = fingerprint or spec_fingerprint(spec)
        in_warm = self._warm_get(fingerprint) is not None
        result = self.load(fingerprint)
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            if in_warm:
                self.stats.warm_hits += 1
            else:
                self.stats.disk_hits += 1
            if spec.workload.fusion is not None:
                self.stats.fused_hits += 1
        return result

    def put(self, result: RunResult, fingerprint: str | None = None) -> Path:
        """Persist ``result`` under its spec's fingerprint, atomically."""
        fingerprint = fingerprint or spec_fingerprint(result.spec)
        self.stats.puts += 1
        path = atomic_write_json(self.result_path(fingerprint), result.to_dict())
        self._warm_put(fingerprint, result)
        if self.max_bytes is not None:
            self.gc()
        return path

    def __contains__(self, spec: RunSpec) -> bool:
        """Membership test that does not touch the hit/miss counters."""
        return self.result_path(spec_fingerprint(spec)).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_result_files())

    # ------------------------------------------------------- gc / compaction
    def gc(self, max_bytes: int | None = None, dry_run: bool = False) -> GCReport:
        """Evict least-recently-used envelopes until the tier fits.

        ``max_bytes`` overrides the store's bound for this pass (``None``
        falls back to it; both ``None`` evicts nothing).  Recency is file
        mtime, refreshed on every disk hit, so hot entries survive.  With
        ``dry_run`` the report lists what *would* go without touching disk.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        report = GCReport(dry_run=dry_run)
        entries = []
        total = 0
        for path in self._iter_result_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if bound is not None and total > bound:
            for mtime, size, path in sorted(entries):
                if total <= bound:
                    break
                report.evicted.append(path.stem)
                report.evicted_bytes += size
                total -= size
                if not dry_run:
                    self._warm_drop(path.stem)
                    path.unlink(missing_ok=True)
                    self.stats.evictions += 1
        report.remaining_entries = len(entries) - len(report.evicted)
        report.remaining_bytes = total
        return report

    def compact(self, dry_run: bool = False) -> GCReport:
        """Sweep crashed writers' temp debris and empty shard directories.

        Temp files (``.*.tmp`` siblings left by a writer that died between
        creating and publishing its scratch file) older than a minute are
        removed — younger ones may belong to an in-flight write.  Shard
        directories emptied by eviction are pruned so ``stats`` histograms
        reflect reality.
        """
        import time

        report = GCReport(dry_run=dry_run)
        if not self.results_dir.is_dir():
            return report
        now = time.time()
        for path in self.results_dir.rglob(".*.tmp"):
            try:
                if now - path.stat().st_mtime < 60:
                    continue
            except OSError:
                continue
            report.removed_temp_files += 1
            if not dry_run:
                path.unlink(missing_ok=True)
        for path in sorted(self.results_dir.iterdir(), reverse=True):
            if path.is_dir() and not any(path.iterdir()):
                report.removed_empty_shards += 1
                if not dry_run:
                    try:
                        path.rmdir()
                    except OSError:
                        pass
        entries = list(self._iter_result_files())
        report.remaining_entries = len(entries)
        report.remaining_bytes = sum(p.stat().st_size for p in entries if p.exists())
        return report

    def stats_summary(self) -> dict:
        """One JSON-ready snapshot: layout, sizes, shard histogram, tiers."""
        histogram: dict[str, int] = {}
        total_bytes = 0
        entries = 0
        for path in self._iter_result_files():
            entries += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            shard = path.parent.name if path.parent != self.results_dir else "."
            histogram[shard] = histogram.get(shard, 0) + 1
        with self._warm_lock:
            warm_entries = len(self._warm)
        return {
            "root": str(self.root),
            "results_root": str(self.results_root),
            "layout_version": STORE_LAYOUT_VERSION,
            "shard_depth": self.shard_depth,
            "entries": entries,
            "bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "shards": dict(sorted(histogram.items())),
            "warm_tier": {
                "capacity": self.warm_capacity,
                "entries": warm_entries,
            },
            "counters": self.stats.to_dict(),
            "jobs": sum(1 for _ in self.jobs_dir.glob(f"{self.job_prefix}job-*.json"))
            if self.jobs_dir.is_dir()
            else 0,
        }

    # ------------------------------------------------------------ job records
    def _scan_next_ordinal(self) -> int:
        """One directory scan for the highest minted ordinal, plus one."""
        highest = 0
        start = len(self.job_prefix) + len("job-")
        for path in self.jobs_dir.glob(f"{self.job_prefix}job-*.json"):
            digits = path.name[start : start + 6]
            if digits.isdigit():
                highest = max(highest, int(digits))
        return highest + 1

    def allocate_job_id(self, fingerprint: str) -> str:
        """Mint the next job id: a 1-based ordinal plus the spec fingerprint.

        Ids sort chronologically (``job-000001-…``, ``job-000002-…``) and
        carry enough of the fingerprint to locate the result by eye.  The id
        is *reserved* by exclusively creating its record file, so concurrent
        services sharing one store directory can never mint the same id and
        overwrite each other's records (``O_EXCL`` arbitrates; losers retry
        with the next ordinal).  The next ordinal is cached per store
        instance — the directory is scanned once, not on every submit — and
        the ``O_EXCL`` loop re-synchronizes the cache whenever another
        process minted ids in the meantime.
        """
        with self._alloc_lock:
            self.jobs_dir.mkdir(parents=True, exist_ok=True)
            if self._next_ordinal is None:
                self._next_ordinal = self._scan_next_ordinal()
            index = self._next_ordinal
            while True:
                job_id = f"{self.job_prefix}job-{index:06d}-{fingerprint[:12]}"
                try:
                    with open(self.jobs_dir / f"{job_id}.json", "x") as handle:
                        handle.write("{}\n")  # placeholder until record_job runs
                except FileExistsError:
                    index += 1
                    continue
                self._next_ordinal = index + 1
                return job_id

    def record_job(self, record: dict) -> Path:
        """Persist one job record (see ``Job.to_dict``), atomically."""
        return atomic_write_json(self.jobs_dir / f"{record['job_id']}.json", record)

    def _read_record(self, path: Path) -> dict | None:
        """Parse one record file; unreadable files warn and read as ``None``.

        An empty or truncated file is what a crash between the ``O_EXCL``
        reservation and the placeholder write leaves behind (or what a reader
        racing that window observes); it must never crash a listing.
        """
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            warnings.warn(
                f"skipping unreadable job record {path}: {error}",
                StoreRecordWarning,
                stacklevel=3,
            )
            return None
        if not isinstance(record, dict) or not record.get("job_id"):
            return None  # freshly reserved placeholder
        return record

    def load_jobs(self) -> list[dict]:
        """Every readable job record, sorted by job id (= submission order).

        Placeholders and unreadable files are skipped (the latter with a
        :class:`StoreRecordWarning`), so a torn record never takes down
        ``repro jobs`` for the whole store.
        """
        if not self.jobs_dir.is_dir():
            return []
        records = []
        for path in sorted(self.jobs_dir.glob(f"{self.job_prefix}job-*.json")):
            record = self._read_record(path)
            if record is not None:
                records.append(record)
        return records

    def load_job(self, job_id: str) -> dict | None:
        """One persisted job record, or ``None`` when unknown or unreadable."""
        path = self.jobs_dir / f"{job_id}.json"
        if not path.exists():
            return None
        return self._read_record(path)

    def events_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.events.ndjson"

    def record_events(self, job_id: str, events) -> Path:
        """Persist a job's full event log as NDJSON (one event per line)."""
        lines = "".join(json.dumps(event.to_dict()) + "\n" for event in events)
        return atomic_write_text(self.events_path(job_id), lines)
