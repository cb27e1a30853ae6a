"""Tensor-problem IR: conv parity, cross-problem scheduler smoke, IR properties.

Three layers of protection for the IR refactor:

* **Conv parity** — a ResNet-50 layer expressed as an explicit
  :data:`~repro.workloads.problem.CONV7` :class:`ProblemLayer` must reproduce
  the legacy :class:`~repro.workloads.layer.Layer` bit-for-bit: footprints,
  MAC counts, scalar :class:`CostResult`, batched results and sampled
  candidate streams.  (The golden envelope tests in ``test_api_golden.py``
  additionally pin the conv pipeline end-to-end, since ``Layer`` itself now
  flows through the IR.)
* **Scheduler smoke** — every registered scheduler completes on matmul,
  depthwise-conv and attention problems, including CoSA's MIP path and the
  batched fast path of the search baselines.
* **IR properties** — projection/relevance semantics, reduction-dim
  derivation, registry and serialization round-trips, spec-axis behaviour.
"""

import json
import random

import pytest

from repro.arch.presets import simba_like
from repro.mapping.mapping import Mapping
from repro.mapping.serialize import mapping_from_dict, mapping_to_dict
from repro.mapping.space import MapSpace
from repro.model.cost import CostModel
from repro.workloads.layer import (
    DIMENSION_NAMES,
    Layer,
    RELEVANCE,
    TensorKind,
    conv_layer,
)
from repro.workloads.problem import (
    ATTENTION_AV,
    ATTENTION_QK,
    CONV7,
    DEPTHWISE_CONV,
    GROUPED_CONV,
    MATMUL,
    ProblemLayer,
    TensorProblem,
    Window,
    attention_av,
    attention_qk,
    available_problems,
    depthwise_conv,
    get_problem,
    grouped_conv,
    matmul,
)


def conv7_layer(layer: Layer) -> ProblemLayer:
    """The explicit CONV7 ProblemLayer equivalent of a conv ``Layer``."""
    return CONV7.layer(layer.bounds, stride=layer.stride, name=layer.name)


ARCH = simba_like()


# --------------------------------------------------------------------- parity
class TestConvParity:
    LAYERS = ("3_56_64_64_1", "7_112_3_64_2", "1_28_512_128_1")

    def _pairs(self):
        from repro.workloads.networks import layer_from_name

        for name in self.LAYERS:
            legacy = layer_from_name(name)
            yield legacy, conv7_layer(legacy)

    def test_bounds_macs_and_volumes_match(self):
        for legacy, ir in self._pairs():
            assert ir.bounds == legacy.bounds
            assert ir.macs == legacy.macs
            for tensor in TensorKind:
                assert ir.tensor_volume(tensor) == legacy.tensor_volume(tensor)
            assert ir.prime_factors() == legacy.prime_factors()

    def test_scalar_cost_results_are_bit_identical(self):
        cost_model = CostModel(ARCH)
        for legacy, ir in self._pairs():
            rng_a, rng_b = random.Random(3), random.Random(3)
            space_a = MapSpace(legacy, ARCH)
            space_b = MapSpace(ir, ARCH)
            for _ in range(20):
                mapping_a = space_a.random_mapping(rng_a)
                mapping_b = space_b.random_mapping(rng_b)
                # Identical RNG consumption: the candidate streams agree.
                assert mapping_a.summary() == mapping_b.summary()
                cost_a = cost_model.evaluate(mapping_a)
                cost_b = cost_model.evaluate(mapping_b)
                assert cost_a.valid == cost_b.valid
                if cost_a.valid:
                    assert cost_a.latency == cost_b.latency
                    assert cost_a.energy == cost_b.energy
                    assert cost_a.utilization == cost_b.utilization

    def test_batched_results_are_bit_identical(self):
        from repro.model.batch import BatchCostModel, MappingBatch

        batch_model = BatchCostModel(ARCH)
        for legacy, ir in self._pairs():
            draws_a = MapSpace(legacy, ARCH).sample_batch(64, random.Random(5))
            draws_b = MapSpace(ir, ARCH).sample_batch(64, random.Random(5))
            result_a = batch_model.evaluate_batch(MappingBatch.from_draws(draws_a))
            result_b = batch_model.evaluate_batch(MappingBatch.from_draws(draws_b))
            assert (result_a.valid == result_b.valid).all()
            assert (result_a.latency == result_b.latency).all()
            assert (result_a.energy == result_b.energy).all()

    def test_cosa_produces_identical_schedules(self):
        from repro.core.scheduler import CoSAScheduler

        scheduler = CoSAScheduler(ARCH)
        cost_model = CostModel(ARCH)
        legacy = conv_layer(r=3, p=4, c=8, k=16)
        ir = conv7_layer(legacy)
        result_a = scheduler.schedule(legacy)
        result_b = scheduler.schedule(ir)
        assert result_a.succeeded and result_b.succeeded
        assert result_a.mapping.summary() == result_b.mapping.summary()
        cost_a = cost_model.evaluate(result_a.mapping)
        cost_b = cost_model.evaluate(result_b.mapping)
        assert cost_a.latency == cost_b.latency
        assert cost_a.energy == cost_b.energy

    def test_conv_relevance_table_matches_conv7(self):
        assert CONV7.dims == DIMENSION_NAMES
        for dim in DIMENSION_NAMES:
            for tensor in TensorKind:
                assert CONV7.relevance(dim, tensor) == bool(RELEVANCE[dim][tensor])
        assert CONV7.reduction_dims == ("R", "S", "C")


# ---------------------------------------------------------------- smoke tests
def _small_problem_layers():
    return [
        matmul(m=8, n=16, k=32, name="smoke_matmul"),
        depthwise_conv(r=3, p=8, c=16, name="smoke_dw"),
        attention_qk(seq=16, heads=2, head_dim=8, name="smoke_qk"),
        attention_av(seq=16, heads=2, head_dim=8, name="smoke_av"),
    ]


class TestEverySchedulerOnEveryProblem:
    def test_all_registered_schedulers_complete(self):
        from repro.api import architectures, schedulers

        for name in schedulers.available():
            # The GPU scheduler builds its own accelerator from a GPUSpec;
            # pair it with the matching registry preset like run() does.
            arch = "gpu-k80" if name == "gpu" else "baseline-4x4"
            scheduler = schedulers.create(
                name, architectures.create(arch), **self._options(name)
            )
            for layer in _small_problem_layers():
                outcome = scheduler.schedule_outcome(layer)
                assert outcome.succeeded, f"{name} failed on {layer.name}"
                outcome.mapping.validate_against_layer()

    @staticmethod
    def _options(name: str) -> dict:
        # Small search budgets keep the smoke test fast; CoSA needs none.
        return {
            "random": {"num_valid": 2, "max_attempts": 2000, "eval_batch_size": 32},
            "hybrid": {"num_threads": 1, "termination_condition": 4, "max_evaluations": 20},
            "tvm": {"trials": 8, "batch_size": 4, "eval_batch_size": 8},
        }.get(name, {})

    def test_batched_fast_path_matches_oracle_on_new_problems(self):
        from repro.model.batch import BatchCostModel, MappingBatch

        cost_model = CostModel(ARCH)
        batch_model = BatchCostModel(ARCH)
        layers = _small_problem_layers() + [
            grouped_conv(r=3, p=8, c=4, k=4, groups=8, name="smoke_gconv")
        ]
        for layer in layers:
            draws = MapSpace(layer, ARCH).sample_batch(48, random.Random(11))
            result = batch_model.evaluate_batch(MappingBatch.from_draws(draws))
            for i in range(len(draws)):
                cost = cost_model.evaluate(draws.materialize(i))
                assert cost.valid == bool(result.valid[i])
                if cost.valid:
                    assert cost.latency == result.latency[i]
                    assert cost.energy == result.energy[i]


# ------------------------------------------------------------- IR properties
class TestTensorProblem:
    def test_window_extent(self):
        window = Window(outer="P", window="R")
        assert window.extent({"P": 14, "R": 3}, stride=2) == (14 - 1) * 2 + 3

    def test_relevance_from_projections(self):
        assert MATMUL.relevant_dims(TensorKind.WEIGHT) == ("N", "K")
        assert MATMUL.relevant_dims(TensorKind.INPUT) == ("M", "K", "B")
        assert MATMUL.relevant_dims(TensorKind.OUTPUT) == ("M", "N", "B")

    def test_reduction_dims_are_non_output_dims(self):
        assert MATMUL.reduction_dims == ("K",)
        assert DEPTHWISE_CONV.reduction_dims == ("R", "S")
        assert GROUPED_CONV.reduction_dims == ("R", "S", "C")
        assert ATTENTION_QK.reduction_dims == ("D",)
        assert ATTENTION_AV.reduction_dims == ("N",)

    def test_footprint_multiplies_in_term_order(self):
        f = {"M": 4, "N": 8, "K": 16, "B": 2}
        assert MATMUL.footprint(TensorKind.OUTPUT, f) == 4 * 8 * 2
        assert MATMUL.footprint(TensorKind.WEIGHT, f) == 16 * 8

    def test_validation_rejects_malformed_problems(self):
        with pytest.raises(ValueError, match="unknown"):
            TensorProblem(name="bad", dims=("A",), projections=(("A",), ("A",), ("Z",)))
        with pytest.raises(ValueError, match="index no tensor"):
            TensorProblem(
                name="orphan", dims=("A", "B"), projections=(("A",), ("A",), ("A",))
            )
        with pytest.raises(ValueError, match="empty projection"):
            TensorProblem(name="empty", dims=("A",), projections=(("A",), (), ("A",)))
        with pytest.raises(ValueError, match="duplicate"):
            TensorProblem(
                name="dup", dims=("A", "A"), projections=(("A",), ("A",), ("A",))
            )

    def test_registry_round_trip(self):
        for name in available_problems():
            assert get_problem(name).name == name
        with pytest.raises(KeyError, match="unknown problem"):
            get_problem("nope")

    def test_layer_constructor_validates(self):
        with pytest.raises(KeyError, match="unknown matmul dimension"):
            MATMUL.layer({"M": 2, "Z": 3})
        with pytest.raises(ValueError, match="positive integer"):
            MATMUL.layer({"M": 0})
        layer = MATMUL.layer({"M": 2})
        assert layer.bounds == {"M": 2, "N": 1, "K": 1, "B": 1}

    def test_problem_layers_dedupe_by_value(self):
        a = matmul(m=4, n=4, k=4, name="first")
        b = matmul(m=4, n=4, k=4, name="second")
        c = matmul(m=4, n=4, k=8)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != conv_layer(r=1, p=2, c=4, k=4)

    def test_canonical_name_is_stable(self):
        assert matmul(m=4, n=8, k=16).canonical_name == "matmul_4x8x16x1"


class TestSerialization:
    def test_problem_mapping_round_trip(self):
        layer = attention_qk(seq=8, heads=2, head_dim=4, name="rt")
        mapping = Mapping.from_factors(
            layer,
            temporal_factors=[{"M": 8}, {"N": 8}, {}, {}, {"D": 4}, {"H": 2}],
        )
        data = mapping_to_dict(mapping)
        assert data["version"] == 2
        assert data["layer"]["problem"] == "attention-qk"
        restored = mapping_from_dict(json.loads(json.dumps(data)))
        assert restored.layer == layer
        assert restored.summary() == mapping.summary()

    def test_conv_mapping_keeps_version_1(self):
        layer = conv_layer(r=1, p=2, c=2, k=2)
        mapping = Mapping.from_factors(layer, temporal_factors=[{"P": 2}, {"C": 2}, {}, {}, {"K": 2}, {}])
        data = mapping_to_dict(mapping)
        assert data["version"] == 1
        assert data["layer"]["r"] == 1  # legacy payload shape, pre-IR files load

    def test_direct_construction_rejects_foreign_loop_dims(self):
        from repro.mapping.mapping import LevelMapping, Loop

        layer = conv_layer(r=1, p=2, c=2, k=2)
        levels = [LevelMapping(temporal=[Loop("Z", 8)])] + [LevelMapping() for _ in range(5)]
        with pytest.raises(ValueError, match="not a conv7 dimension"):
            Mapping(layer, levels)

    def test_problem_options_batch_key_rejected(self):
        from repro.api import WorkloadSpec

        with pytest.raises(ValueError, match="must not contain 'batch'"):
            WorkloadSpec(problem="matmul", problem_options={"m": 4, "batch": 2})

    def test_load_rejects_foreign_loop_dims(self):
        layer = conv_layer(r=1, p=2, c=2, k=2)
        mapping = Mapping.from_factors(
            layer, temporal_factors=[{"P": 2}, {"C": 2}, {}, {}, {"K": 2}, {}]
        )
        data = mapping_to_dict(mapping)
        data["levels"][0]["temporal"][0][0] = "Z"  # simulate a corrupted file
        with pytest.raises(ValueError, match="not a conv7 dimension"):
            mapping_from_dict(data)

    def test_cache_degrades_to_miss_on_unregistered_problem(self, tmp_path):
        # A persisted v2 mapping whose TensorProblem is unknown to this
        # process must surface as a cache miss, not crash the lookup.
        from repro.engine.cache import MappingCache

        layer = matmul(m=4, n=4, k=4)
        mapping = Mapping.from_factors(
            layer, temporal_factors=[{"M": 4}, {"N": 4}, {}, {}, {"K": 4}, {}]
        )
        cache = MappingCache()
        entry = mapping_to_dict(mapping)
        entry["layer"]["problem"] = "not-registered"
        cache._entries["key"] = {"scheduler": "random", "mapping": entry, "metrics": {}}
        assert cache.get("key", layer) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert "key" not in cache._entries

    def test_cache_round_trip_for_problem_layers(self, tmp_path):
        from repro.engine.cache import MappingCache, cache_key
        from repro.engine.outcome import ScheduleOutcome

        layer = matmul(m=4, n=4, k=4, name="cached")
        mapping = Mapping.from_factors(
            layer, temporal_factors=[{"M": 4}, {"N": 4}, {}, {}, {"K": 4}, {}]
        )
        outcome = ScheduleOutcome(
            layer=layer, scheduler="random", mapping=mapping, metrics={"latency": 1.0}
        )

        class _FakeScheduler:
            name = "random"

            def config_fingerprint(self):
                return "{}"

        key = cache_key(layer, ARCH, _FakeScheduler())
        path = tmp_path / "cache.json"
        cache = MappingCache(path=path)
        cache.put(key, outcome)
        cache.save()
        reloaded = MappingCache(path=path)
        hit = reloaded.get(key, layer)
        assert hit is not None
        assert hit.mapping.summary() == mapping.summary()
        assert hit.mapping.layer == layer


class TestSpecProblemAxis:
    def test_problem_spec_runs_and_stamps_v2(self):
        from repro.api import RunSpec, run

        spec = RunSpec.from_dict(
            {
                "kind": "schedule",
                "scheduler": {"name": "random", "options": {"num_valid": 2}},
                "workload": {
                    "problem": "matmul",
                    "problem_options": {"m": 4, "n": 8, "k": 8},
                },
            }
        )
        result = run(spec)
        assert result.schema_version == 2
        assert result.data["succeeded"] is True
        assert result.data["label"] == "matmul"
        restored = json.loads(result.to_json())
        assert restored["spec"]["workload"]["problem"] == "matmul"

    def test_legacy_spec_dicts_have_no_problem_keys(self):
        from repro.api import RunSpec

        spec = RunSpec.from_dict({"kind": "compare", "workload": "alexnet"})
        workload = spec.to_dict()["workload"]
        assert "problem" not in workload and "problem_options" not in workload

    def test_legacy_spec_fingerprints_unchanged_by_the_problem_axis(self):
        # The spec fingerprint is the result-store address: conv specs must
        # keep hashing to the same value as before the IR refactor.
        from repro.api import RunSpec
        from repro.api.store import spec_fingerprint

        spec = RunSpec.from_dict({"kind": "compare", "workload": "alexnet"})
        payload = spec.to_dict()
        assert set(payload["workload"]) == {"network", "layers", "first_layers", "batch"}
        assert spec_fingerprint(spec) == spec_fingerprint(RunSpec.from_dict(payload))

    def test_problem_spec_round_trips(self):
        from repro.api import RunSpec

        spec = RunSpec.from_dict(
            {
                "kind": "schedule",
                "workload": {
                    "problem": "attention-qk",
                    "problem_options": {"seq": 16, "heads": 2, "head_dim": 8},
                },
            }
        )
        restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_v1_and_v2_envelopes_both_load(self):
        from repro.api import RunResult, RunSpec

        spec = RunSpec.from_dict({"kind": "compare", "workload": "alexnet"})
        for version in (1, 2):
            envelope = {
                "schema_version": version,
                "kind": "compare",
                "spec": spec.to_dict(),
                "data": {},
            }
            assert RunResult.from_dict(envelope).schema_version == version
        with pytest.raises(ValueError, match="unsupported schema_version"):
            RunResult.from_dict(
                {"schema_version": 3, "kind": "compare", "spec": spec.to_dict(), "data": {}}
            )

    def test_transformer_network_flows_through_compare(self):
        from repro.api import RunSpec, run

        result = run(
            RunSpec.from_dict(
                {
                    "kind": "compare",
                    "workload": {"network": "bert-base-block", "first_layers": 1},
                    "options": {
                        "random_valid": 2,
                        "hybrid_threads": 1,
                        "hybrid_termination": 4,
                        "hybrid_max_evaluations": 16,
                    },
                }
            )
        )
        assert result.schema_version == 2
        assert {"random", "timeloop-hybrid", "cosa"} <= set(result.data["engine_stats"])
