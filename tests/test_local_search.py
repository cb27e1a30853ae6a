"""Tests for the DDFW-style local-search scheduler and its plumbing.

Four layers of contract:

* **End-to-end** — ``local-search`` is registered, schedules conv and
  matmul layers through ``schedule_outcome`` and the declarative ``run()``
  path, and its winner validates against the layer.
* **Outcome invariance** — every lockstep step is scored in one kernel
  call, so ``eval_batch_size`` cannot change the outcome: same seed, same
  winner, same cost, same config fingerprint (the mapping-cache key).  The
  budget is never overrun, and the walker count keys the fingerprint.
* **Quality** — under an equal evaluation budget the guided search is never
  worse than random search on a spread of ResNet-50 layers (and strictly
  better on some).
* **Store identity** — specs carrying the legacy ``engine.kernel_backend``
  key (the removed evaluation-backend knob) parse to the same spec
  fingerprint as specs without it, and therefore share a result-store
  entry; budget-capped config fingerprints keep their legacy key too.
"""

import pytest

from repro.api import (
    EngineSpec,
    RunSpec,
    SchedulingService,
    run,
    schedulers,
    spec_fingerprint,
)
from repro.api.store import ResultStore
from repro.arch import simba_like
from repro.baselines import LocalSearchScheduler, RandomScheduler
from repro.engine import SchedulingEngine
from repro.mapping import mapping_to_dict
from repro.workloads import layer_from_name, matmul

ARCH = simba_like()

#: Cheap spec used by the fingerprint/store tests below.
LOCAL_SEARCH_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {
        "name": "local-search",
        "options": {"max_evaluations": 200, "init_samples": 32},
    },
}


#: ``spec_fingerprint`` of LOCAL_SEARCH_SPEC as computed before the
#: evaluation-backend knob was removed (with or without the key).
LEGACY_SPEC_FINGERPRINT = "07758c2890a0cd9e86f92886d9b7ec23c13c0f9c01f8a36b7fd6d1083a4e8599"


def small_scheduler(**overrides):
    options = {"max_evaluations": 400, "init_samples": 64, "seed": 3}
    options.update(overrides)
    return LocalSearchScheduler(ARCH, **options)


class TestEndToEnd:
    def test_registered_and_creatable(self):
        assert "local-search" in schedulers.available()
        scheduler = schedulers.create("local-search", ARCH, max_evaluations=100)
        assert isinstance(scheduler, LocalSearchScheduler)
        assert scheduler.max_evaluations == 100

    def test_schedules_conv_and_matmul(self):
        scheduler = small_scheduler()
        for layer in (
            layer_from_name("3_7_64_64_1"),
            matmul(m=64, n=256, k=256, name="ls_matmul"),
        ):
            outcome = scheduler.schedule_outcome(layer)
            assert outcome.succeeded, layer.name
            outcome.mapping.validate_against_layer()
            result = scheduler.schedule(layer)
            assert result.cost.valid
            assert result.num_evaluated <= scheduler.max_evaluations

    def test_runs_through_the_declarative_api(self):
        result = run(RunSpec.from_dict(LOCAL_SEARCH_SPEC))
        assert result.data["succeeded"] is True
        assert result.data["outcomes"][0]["scheduler"] == "local-search"

    def test_runs_a_spec_with_the_legacy_kernel_backend_key(self):
        spec = RunSpec.from_dict(
            {**LOCAL_SEARCH_SPEC, "engine": {"kernel_backend": "numba"}}
        )
        result = run(spec)
        assert result.data["succeeded"] is True
        assert not hasattr(result.artifacts["scheduler"], "kernel_backend")


class TestOutcomeInvariance:
    def test_batch_size_does_not_change_the_winner(self):
        layer = layer_from_name("3_14_32_64_1")
        reference = small_scheduler().schedule(layer)
        for overrides in (
            {"eval_batch_size": 1},  # scalar reference path
            {"eval_batch_size": 8},
            {"eval_batch_size": 256},
        ):
            result = small_scheduler(**overrides).schedule(layer)
            assert mapping_to_dict(result.mapping) == mapping_to_dict(reference.mapping), overrides
            assert result.cost.latency == reference.cost.latency
            assert result.num_evaluated == reference.num_evaluated

    @pytest.mark.parametrize("budget", [97, 200, 1201])
    def test_budget_is_never_overrun(self, budget):
        # Budgets that are not multiples of the 64-draw seed batch or of the
        # 8 walkers x 8 moves step: the last step is cut to fit exactly.
        layer = layer_from_name("3_14_32_64_1")
        result = small_scheduler(max_evaluations=budget).schedule(layer)
        assert result.num_evaluated <= budget
        assert result.num_evaluated == budget  # no walker is frozen on this layer
        assert result.succeeded

    def test_zero_time_budget_returns_nothing(self):
        result = small_scheduler(time_budget_seconds=0.0).schedule(layer_from_name("3_7_64_64_1"))
        assert result.mapping is None and result.cost is None
        assert result.num_sampled == 0 and result.num_evaluated == 0

    def test_removed_delta_knob_is_rejected(self):
        with pytest.raises(TypeError):
            LocalSearchScheduler(ARCH, use_delta=True)

    def test_fingerprint_differs_from_the_single_walker_search(self):
        # Lockstep walkers change every outcome, so cached mappings of the
        # single-walker search (this fingerprint) must miss.
        single_walker = (
            '{"init_samples":64,"max_evaluations":400,"metric":"latency",'
            '"moves_per_step":8,"perturbation":0.1,"restart_after":30,"seed":3,'
            '"utilization_target":0.5,"weight_increment":1.0,"weight_transfer":0.2}'
        )
        scheduler = small_scheduler()
        assert scheduler.config_fingerprint() != single_walker
        assert scheduler._config()["walkers"] == LocalSearchScheduler.WALKERS == 8

    def test_fingerprint_ignores_execution_knobs_when_budget_free(self):
        reference = small_scheduler().config_fingerprint()
        assert small_scheduler(eval_batch_size=16).config_fingerprint() == reference
        # Result-determining knobs do split the fingerprint.
        assert small_scheduler(seed=9).config_fingerprint() != reference
        assert small_scheduler(moves_per_step=4).config_fingerprint() != reference

    def test_fingerprint_includes_backend_under_a_time_budget(self):
        # Budget-capped fingerprints keep the legacy ``kernel_backend`` key
        # with its old default value.  The string is pinned: the one earlier
        # releases wrote plus the lockstep walker count.
        budgeted = small_scheduler(time_budget_seconds=60.0)
        assert budgeted.config_fingerprint() == (
            '{"eval_batch_size":null,"init_samples":64,"kernel_backend":"numpy",'
            '"max_evaluations":400,"metric":"latency","moves_per_step":8,'
            '"perturbation":0.1,"restart_after":30,"seed":3,'
            '"time_budget_seconds":60.0,"utilization_target":0.5,"walkers":8,'
            '"weight_increment":1.0,"weight_transfer":0.2}'
        )


class TestBeatsRandomAtEqualBudget:
    def test_never_worse_on_resnet50_layers(self):
        budget = 1200
        wins = 0
        for name in (
            "3_56_64_64_1",
            "1_28_128_512_1",
            "3_14_256_256_1",
            "1_7_512_2048_1",
        ):
            layer = layer_from_name(name)
            local = LocalSearchScheduler(ARCH, max_evaluations=budget, seed=0).schedule(layer)
            rand = RandomScheduler(
                ARCH, num_valid=budget, max_attempts=budget, seed=0
            ).schedule(layer)
            assert local.num_evaluated <= budget
            assert local.cost.latency <= rand.cost.latency, name
            wins += local.cost.latency < rand.cost.latency
        assert wins >= 1, "guided search should strictly beat random somewhere"


class TestSpecAndStoreIdentity:
    def test_engine_spec_serialization_is_legacy_identical_when_unset(self):
        assert "kernel_backend" not in EngineSpec().to_dict()
        # The legacy key is accepted and dropped, whatever its value.
        for value in ("numpy", "numba", "off"):
            legacy = EngineSpec.from_dict({"kernel_backend": value})
            assert legacy == EngineSpec()
            assert "kernel_backend" not in legacy.to_dict()
        with pytest.raises(TypeError):
            EngineSpec(kernel_backend="numpy")

    def test_spec_fingerprint_ignores_kernel_backend(self):
        base = RunSpec.from_dict(LOCAL_SEARCH_SPEC)
        numpy_spec = RunSpec.from_dict(
            {**LOCAL_SEARCH_SPEC, "engine": {"kernel_backend": "numpy"}}
        )
        numba_spec = RunSpec.from_dict(
            {**LOCAL_SEARCH_SPEC, "engine": {"kernel_backend": "numba"}}
        )
        assert spec_fingerprint(base) == spec_fingerprint(numpy_spec)
        assert spec_fingerprint(base) == spec_fingerprint(numba_spec)
        # Pinned: the fingerprint earlier releases computed for this spec.
        assert spec_fingerprint(numba_spec) == LEGACY_SPEC_FINGERPRINT

    def test_backend_switch_is_a_store_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        numpy_spec = RunSpec.from_dict(
            {**LOCAL_SEARCH_SPEC, "engine": {"kernel_backend": "numpy"}}
        )
        numba_spec = RunSpec.from_dict(
            {**LOCAL_SEARCH_SPEC, "engine": {"kernel_backend": "numba"}}
        )
        with SchedulingService(max_workers=1, store=store) as service:
            first = service.submit(numpy_spec)
            first.result(timeout=300)
            second = service.submit(numba_spec)
            second.result(timeout=300)
        assert store.stats.puts == 1
        assert store.stats.hits == 1


class TestEngineOverride:
    def test_override_applies_to_budget_free_scheduler(self):
        scheduler = small_scheduler()
        before = scheduler.config_fingerprint()
        SchedulingEngine(scheduler, batch_size=16)
        assert scheduler.eval_batch_size == 16
        assert scheduler.config_fingerprint() == before

    def test_refuses_to_rekey_budget_capped_scheduler(self):
        scheduler = small_scheduler(time_budget_seconds=1.0, eval_batch_size=64)
        with pytest.raises(ValueError, match="budget-capped"):
            SchedulingEngine(scheduler, batch_size=16)
        # A no-op override (same value) is allowed.
        SchedulingEngine(scheduler, batch_size=64)
        assert scheduler.eval_batch_size == 64


class TestKnobValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_evaluations": 0},
            {"init_samples": 0},
            {"moves_per_step": 0},
            {"weight_transfer": -0.5},
            {"weight_increment": -1.0},
            {"perturbation": 1.5},
            {"restart_after": 0},
            {"utilization_target": 2.0},
            {"metric": "throughput"},
        ],
    )
    def test_bad_knobs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LocalSearchScheduler(ARCH, **kwargs)
