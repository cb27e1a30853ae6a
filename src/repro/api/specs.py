"""Typed, serializable experiment specifications.

A :class:`RunSpec` is the declarative description of one experiment: pick an
architecture, a workload, a scheduler and an evaluation platform, plus the
engine knobs (parallelism, cache, batching, budgets).  Specs are plain
frozen dataclasses that round-trip losslessly through ``to_dict`` /
``from_dict`` / JSON, so the same object serves Python callers, spec files
on disk (``repro run spec.json``) and the stamped ``spec`` echo inside every
:class:`~repro.api.result.RunResult`.

Parsing is strict by design: unknown keys, wrong types and contradictory
fields raise ``ValueError`` with messages that name the offending key and
list what would have been accepted.  Name *resolution* (does this scheduler
exist?) intentionally happens later, in :func:`repro.api.runner.run`, against
the live registries — a spec referencing a plugin parses fine before the
plugin is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

#: Supported experiment kinds.
RUN_KINDS = ("schedule", "compare", "suite")

#: Platform metrics a spec may request.
METRICS = ("latency", "energy", "edp")

#: Executor kinds accepted by the engine.
EXECUTORS = ("thread", "process")


def _require_keys(data: Mapping, allowed: tuple[str, ...], where: str) -> None:
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
            f"allowed keys: {', '.join(allowed)}"
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _check_int(value, where: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{where} must be >= {minimum}, got {value}")
    return value


def _check_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{where} must be a non-empty string, got {value!r}")
    return value


@dataclass(frozen=True)
class ArchSpec:
    """The architecture axis: a preset name from the architecture registry."""

    preset: str = "baseline-4x4"

    def __post_init__(self) -> None:
        _check_str(self.preset, "ArchSpec.preset")

    def to_dict(self) -> dict:
        return {"preset": self.preset}

    @classmethod
    def from_dict(cls, data) -> "ArchSpec":
        if isinstance(data, str):  # shorthand: "arch": "pe-8x8"
            return cls(preset=data)
        _require_keys(data, ("preset",), "ArchSpec")
        return cls(preset=data.get("preset", "baseline-4x4"))


@dataclass(frozen=True)
class WorkloadSpec:
    """The workload axis: a registered network, explicit layer strings, or a
    tensor problem.

    Exactly one of ``network`` / ``layers`` / ``problem`` names the workload
    (``suite`` runs may leave all three empty to mean *every registered
    workload*).  ``problem`` names an entry of the problem registry — a
    tensor-problem template such as ``matmul`` or ``attention-qk`` — and
    ``problem_options`` carries its dimension sizes (e.g. ``{"m": 128,
    "n": 768, "k": 768}``).  ``first_layers`` truncates for quick runs;
    ``batch`` is the batch size of every layer.

    ``fusion`` opts the run into fusion-group scheduling: ``"auto"`` runs
    the greedy auto-grouper over the named workload's operators, while any
    other value names an entry of the fusion-group registry (e.g.
    ``attention-block``) and *is itself the workload* — a standalone fused
    group scheduled as one unit, with ``fusion_options`` carrying the
    factory's keyword options (e.g. ``{"seq": 128, "heads": 12}``).

    Serialisation note: the ``problem`` / ``problem_options`` and
    ``fusion`` / ``fusion_options`` keys are only emitted when their axis is
    used, so legacy conv specs (and their fingerprints and golden
    envelopes) are byte-identical to earlier schemas.
    """

    network: str | None = None
    layers: tuple[str, ...] = ()
    problem: str | None = None
    problem_options: dict = field(default_factory=dict)
    fusion: str | None = None
    fusion_options: dict = field(default_factory=dict)
    first_layers: int | None = None
    batch: int = 1

    def __post_init__(self) -> None:
        if self.network is not None:
            _check_str(self.network, "WorkloadSpec.network")
        object.__setattr__(self, "layers", tuple(self.layers))
        for entry in self.layers:
            _check_str(entry, "WorkloadSpec.layers entries")
        if self.problem is not None:
            _check_str(self.problem, "WorkloadSpec.problem")
        _require(
            isinstance(self.problem_options, dict),
            f"WorkloadSpec.problem_options must be an object, got {self.problem_options!r}",
        )
        _require(
            "batch" not in self.problem_options,
            "WorkloadSpec.problem_options must not contain 'batch'; "
            "set WorkloadSpec.batch instead",
        )
        if self.fusion is not None:
            _check_str(self.fusion, "WorkloadSpec.fusion")
        _require(
            isinstance(self.fusion_options, dict),
            f"WorkloadSpec.fusion_options must be an object, got {self.fusion_options!r}",
        )
        _require(
            "batch" not in self.fusion_options,
            "WorkloadSpec.fusion_options must not contain 'batch'; "
            "set WorkloadSpec.batch instead",
        )
        # Detach from the caller's dict so the frozen spec (and anything
        # keyed off it, e.g. store fingerprints) cannot change after validation.
        object.__setattr__(self, "problem_options", dict(self.problem_options))
        object.__setattr__(self, "fusion_options", dict(self.fusion_options))
        # A named fusion group (anything but "auto") is itself the workload,
        # so it participates in the at-most-one rule; "auto" modifies a
        # workload named through another axis instead.
        named_fusion = self.fusion if self.fusion not in (None, "auto") else None
        named = sum(
            1
            for used in (self.network, self.layers or None, self.problem, named_fusion)
            if used
        )
        _require(
            named <= 1,
            "WorkloadSpec must name at most one of network / layers / problem / "
            "fusion group",
        )
        _require(
            not (self.problem_options and self.problem is None),
            "WorkloadSpec.problem_options requires WorkloadSpec.problem",
        )
        _require(
            not (self.fusion_options and self.fusion is None),
            "WorkloadSpec.fusion_options requires WorkloadSpec.fusion",
        )
        _require(
            not (
                self.fusion == "auto"
                and self.network is None
                and not self.layers
                and self.problem is None
            ),
            "WorkloadSpec.fusion='auto' needs a workload to group: name a "
            "network, explicit layers or a problem",
        )
        _require(
            not (self.fusion == "auto" and self.fusion_options),
            "WorkloadSpec.fusion_options requires a named fusion group, "
            "not fusion='auto'",
        )
        _require(
            not (named_fusion and self.first_layers is not None),
            "WorkloadSpec.first_layers cannot truncate a named fusion group "
            "(groups are scheduled whole)",
        )
        if self.first_layers is not None:
            _check_int(self.first_layers, "WorkloadSpec.first_layers", minimum=1)
        _check_int(self.batch, "WorkloadSpec.batch", minimum=1)

    @property
    def is_empty(self) -> bool:
        """True when no network, explicit layers, problem or fusion group was named."""
        return (
            self.network is None
            and not self.layers
            and self.problem is None
            and self.fusion in (None, "auto")
        )

    @property
    def uses_fusion(self) -> bool:
        """True when the run goes through the fusion-group scheduling path."""
        return self.fusion is not None

    @property
    def uses_problem_axis(self) -> bool:
        """True when the workload is named through the problem registry."""
        return self.problem is not None

    def to_dict(self) -> dict:
        data = {
            "network": self.network,
            "layers": list(self.layers),
            "first_layers": self.first_layers,
            "batch": self.batch,
        }
        if self.problem is not None:
            data["problem"] = self.problem
            data["problem_options"] = dict(self.problem_options)
        if self.fusion is not None:
            data["fusion"] = self.fusion
            data["fusion_options"] = dict(self.fusion_options)
        return data

    @classmethod
    def from_dict(cls, data) -> "WorkloadSpec":
        if isinstance(data, str):  # shorthand: "workload": "resnet50"
            return cls(network=data)
        _require_keys(
            data,
            (
                "network",
                "layers",
                "problem",
                "problem_options",
                "fusion",
                "fusion_options",
                "first_layers",
                "batch",
            ),
            "WorkloadSpec",
        )
        layers = data.get("layers") or ()
        if isinstance(layers, str):
            layers = (layers,)
        _require(
            isinstance(layers, (list, tuple)),
            f"WorkloadSpec.layers must be a list of layer strings, got {layers!r}",
        )
        return cls(
            network=data.get("network"),
            layers=tuple(layers),
            problem=data.get("problem"),
            problem_options=dict(data.get("problem_options") or {}),
            fusion=data.get("fusion"),
            fusion_options=dict(data.get("fusion_options") or {}),
            first_layers=data.get("first_layers"),
            batch=data.get("batch", 1),
        )


@dataclass(frozen=True)
class SchedulerSpec:
    """The scheduler axis: a registry name plus factory keyword options."""

    name: str = "cosa"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_str(self.name, "SchedulerSpec.name")
        _require(
            isinstance(self.options, dict),
            f"SchedulerSpec.options must be an object, got {self.options!r}",
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data) -> "SchedulerSpec":
        if isinstance(data, str):  # shorthand: "scheduler": "hybrid"
            return cls(name=data)
        _require_keys(data, ("name", "options"), "SchedulerSpec")
        return cls(name=data.get("name", "cosa"), options=dict(data.get("options") or {}))


@dataclass(frozen=True)
class PlatformSpec:
    """The evaluation-platform axis: a registry name and the report metric."""

    name: str = "timeloop"
    metric: str = "latency"

    def __post_init__(self) -> None:
        _check_str(self.name, "PlatformSpec.name")
        _require(
            self.metric in METRICS,
            f"PlatformSpec.metric must be one of {METRICS}, got {self.metric!r}",
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "metric": self.metric}

    @classmethod
    def from_dict(cls, data) -> "PlatformSpec":
        if isinstance(data, str):  # shorthand: "platform": "noc"
            return cls(name=data)
        _require_keys(data, ("name", "metric"), "PlatformSpec")
        return cls(name=data.get("name", "timeloop"), metric=data.get("metric", "latency"))


@dataclass(frozen=True)
class EngineSpec:
    """Engine knobs: parallelism, mapping cache, batching and time budget.

    ``fusion_options`` tunes the fused alignment search (currently only
    ``max_candidates``, the frontier-candidate cap — distinct from
    ``WorkloadSpec.fusion_options``, which carries a fusion group factory's
    *workload* options).  It is execution-only: omitted from serialized
    specs when empty and excluded from store fingerprints
    (:data:`repro.api.store.EXECUTION_ONLY_ENGINE_KEYS`).

    :meth:`from_dict` accepts and drops the ``kernel_backend`` key of the
    removed evaluation-backend knob, so stored records and older specs
    still parse to the same fingerprint.
    """

    #: Recognised ``fusion_options`` keys.
    FUSION_OPTION_KEYS = ("max_candidates",)

    jobs: int = 1
    cache: str | None = None
    batch_size: int = 64
    time_budget: float | None = None
    executor: str = "thread"
    fusion_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_int(self.jobs, "EngineSpec.jobs", minimum=1)
        if self.cache is not None:
            _check_str(self.cache, "EngineSpec.cache")
        _check_int(self.batch_size, "EngineSpec.batch_size", minimum=1)
        if self.time_budget is not None:
            _require(
                isinstance(self.time_budget, (int, float)) and self.time_budget >= 0,
                f"EngineSpec.time_budget must be a non-negative number, got {self.time_budget!r}",
            )
        _require(
            self.executor in EXECUTORS,
            f"EngineSpec.executor must be one of {EXECUTORS}, got {self.executor!r}",
        )
        _require_keys(
            self.fusion_options, self.FUSION_OPTION_KEYS, "EngineSpec.fusion_options"
        )
        if "max_candidates" in self.fusion_options:
            _check_int(
                self.fusion_options["max_candidates"],
                "EngineSpec.fusion_options['max_candidates']",
                minimum=1,
            )
        object.__setattr__(self, "fusion_options", dict(self.fusion_options))

    def to_dict(self) -> dict:
        data = {
            "jobs": self.jobs,
            "cache": self.cache,
            "batch_size": self.batch_size,
            "time_budget": self.time_budget,
            "executor": self.executor,
        }
        if self.fusion_options:
            data["fusion_options"] = dict(self.fusion_options)
        return data

    @classmethod
    def from_dict(cls, data) -> "EngineSpec":
        _require_keys(
            data,
            (
                "jobs",
                "cache",
                "batch_size",
                "time_budget",
                "executor",
                "kernel_backend",  # legacy key, accepted and dropped
                "fusion_options",
            ),
            "EngineSpec",
        )
        return cls(
            jobs=data.get("jobs", 1),
            cache=data.get("cache"),
            batch_size=data.get("batch_size", 64),
            time_budget=data.get("time_budget"),
            executor=data.get("executor", "thread"),
            fusion_options=dict(data.get("fusion_options") or {}),
        )


@dataclass(frozen=True)
class RunSpec:
    """One complete, declarative experiment description.

    Attributes
    ----------
    kind:
        ``"schedule"`` runs one scheduler over the workload's layers and
        reports per-layer outcomes; ``"compare"`` runs the paper's
        Random / Timeloop-Hybrid / CoSA triple and reports speedups;
        ``"suite"`` runs one scheduler over whole workloads (all registered
        workloads when the workload spec is empty).
    arch / workload / scheduler / platform / engine:
        The axis specs.  ``scheduler`` is filled with the default
        (``cosa``) for ``schedule``/``suite`` runs and must be omitted for
        ``compare`` runs (the triple is fixed by construction).
    seed:
        Base seed for the search baselines.
    options:
        Kind-specific extras (e.g. the compare triple's budget knobs
        ``hybrid_threads`` / ``hybrid_termination`` /
        ``hybrid_max_evaluations`` / ``random_valid``).
    """

    kind: str
    arch: ArchSpec = field(default_factory=ArchSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    scheduler: SchedulerSpec | None = None
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    seed: int = 0
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            self.kind in RUN_KINDS,
            f"RunSpec.kind must be one of {RUN_KINDS}, got {self.kind!r}",
        )
        _check_int(self.seed, "RunSpec.seed")
        _require(
            isinstance(self.options, dict),
            f"RunSpec.options must be an object, got {self.options!r}",
        )
        if self.kind == "compare":
            _require(
                self.scheduler is None,
                "RunSpec(kind='compare') runs the fixed Random/Hybrid/CoSA triple; "
                "per-scheduler selection belongs to kind='schedule' or kind='suite'",
            )
        elif self.scheduler is None:
            object.__setattr__(self, "scheduler", SchedulerSpec())
        if self.kind in ("schedule", "compare"):
            _require(
                not self.workload.is_empty,
                f"RunSpec(kind={self.kind!r}) needs a workload: name a registered "
                "network or give explicit layer strings",
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "arch": self.arch.to_dict(),
            "workload": self.workload.to_dict(),
            "scheduler": None if self.scheduler is None else self.scheduler.to_dict(),
            "platform": self.platform.to_dict(),
            "engine": self.engine.to_dict(),
            "seed": self.seed,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data) -> "RunSpec":
        allowed = (
            "kind", "arch", "workload", "scheduler", "platform", "engine", "seed", "options"
        )
        _require_keys(data, allowed, "RunSpec")
        _require("kind" in data, f"RunSpec requires 'kind' (one of {RUN_KINDS})")
        scheduler = data.get("scheduler")
        return cls(
            kind=data["kind"],
            arch=ArchSpec.from_dict(data.get("arch", {})),
            workload=WorkloadSpec.from_dict(data.get("workload", {})),
            scheduler=None if scheduler is None else SchedulerSpec.from_dict(scheduler),
            platform=PlatformSpec.from_dict(data.get("platform", {})),
            engine=EngineSpec.from_dict(data.get("engine", {})),
            seed=data.get("seed", 0),
            options=dict(data.get("options") or {}),
        )
