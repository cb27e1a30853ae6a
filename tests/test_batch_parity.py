"""Parity tests: the vectorized batch evaluator against the scalar oracle.

Two layers of protection:

* **Cost parity** — for every mapping the scalar test-suite constructs (the
  hand-built nests of ``test_model.py``) plus hundreds of random samples per
  architecture preset, the batched evaluator must agree with
  :class:`~repro.model.cost.CostModel` on validity and match latency /
  energy / EDP / utilization to within 1e-9 relative (they are bit-identical
  in practice: the batch model mirrors the scalar float expression order).
* **Search parity** — every search baseline must produce the *identical*
  outcome (same winner mapping, same sample/evaluation counters, same best
  cost) with batching on and off, which is what justifies keeping
  ``eval_batch_size`` out of the cache-key fingerprint.
"""

import random

import pytest

from repro.arch import architecture_presets, simba_like
from repro.baselines import RandomScheduler, TimeloopHybridScheduler, TVMLikeTuner
from repro.mapping import MapSpace, Mapping, mapping_to_dict
from repro.model import CostModel, BatchCostModel, MappingBatch
from repro.workloads import Layer, layer_from_name

ARCH = simba_like()
REL = 1e-9


def make_mapping(arch, layer, temporal, spatial=None, permutations=None):
    """Pad per-level factor dicts to the architecture's level count."""
    num = arch.num_memory_levels
    temporal = list(temporal) + [{}] * (num - len(temporal))
    spatial = list(spatial or []) + [{}] * (num - len(spatial or []))
    return Mapping.from_factors(layer, temporal, spatial, permutations)


def assert_batch_matches_scalar(arch, mappings):
    """Core parity assertion: evaluate ``mappings`` both ways and compare."""
    scalar = CostModel(arch)
    result = BatchCostModel(arch).evaluate_mappings(mappings)
    for i, mapping in enumerate(mappings):
        cost = scalar.evaluate(mapping)
        assert bool(result.valid[i]) == cost.valid, f"validity diverges for candidate {i}"
        if not cost.valid:
            assert result.latency[i] == float("inf")
            assert result.energy[i] == float("inf")
            continue
        assert result.latency[i] == pytest.approx(cost.latency, rel=REL, abs=0)
        assert result.energy[i] == pytest.approx(cost.energy, rel=REL, abs=0)
        assert result.edp[i] == pytest.approx(cost.edp, rel=REL, abs=0)
        assert result.utilization[i] == pytest.approx(cost.utilization, rel=REL)


class TestCostParityHandBuilt:
    """The exact nests the scalar model's own tests construct."""

    def test_suite_constructed_mappings(self):
        cases = []
        layer = layer_from_name("3_7_64_64_1")
        cases.append(
            make_mapping(ARCH, layer, [{"R": 3, "S": 3, "P": 7, "Q": 7, "C": 64, "K": 64}])
        )
        cases.append(
            make_mapping(
                ARCH, layer, [{"R": 3, "S": 3}, {"C": 4}, {"C": 16}, {"P": 7, "Q": 7}, {"K": 64}, {}]
            )
        )
        cases.append(
            make_mapping(
                ARCH, layer,
                [{"R": 3, "S": 3}, {"C": 64}, {}, {"P": 7, "Q": 7}, {"K": 64}, {}],
            )
        )
        cases.append(
            make_mapping(
                ARCH, layer,
                [{"R": 3, "S": 3}, {}, {}, {"P": 7, "Q": 7}, {"C": 64, "K": 64}, {}],
                permutations=[(), (), (), (), ("C", "K"), ()],
            )
        )
        assert_batch_matches_scalar(ARCH, cases)

    def test_small_layer_variants(self):
        layer = Layer(p=4, q=4, c=8, k=16)
        cases = [
            make_mapping(ARCH, layer, [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 16}, {}]),
            make_mapping(
                ARCH, layer,
                [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
                spatial=[{}, {}, {}, {}, {"K": 4}, {}],
            ),
            make_mapping(
                ARCH, layer,
                [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {}, {}],
                spatial=[{}, {}, {}, {}, {"K": 16}, {}],
            ),
            make_mapping(
                ARCH, layer,
                [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 1}, {}],
                spatial=[{"K": 16}, {}, {}, {}, {}, {}],
            ),
        ]
        assert_batch_matches_scalar(ARCH, cases)

    def test_strided_input_halo(self):
        layer = Layer(r=3, s=3, p=4, q=4, c=1, k=1, stride=2)
        cases = [make_mapping(ARCH, layer, [{"R": 3, "S": 3, "P": 4, "Q": 4}])]
        assert_batch_matches_scalar(ARCH, cases)

    def test_invalid_mappings_rejected_identically(self):
        oversized = make_mapping(ARCH, Layer(p=64, q=64), [{"P": 64, "Q": 64}])
        overfanout = make_mapping(
            ARCH, Layer(k=32), [{}] * 6, spatial=[{}, {}, {}, {}, {"K": 32}, {}]
        )
        inconsistent = make_mapping(ARCH, Layer(p=4, k=4), [{"P": 2, "K": 4}])
        valid = make_mapping(
            ARCH, Layer(p=4, q=4, c=8, k=16),
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial=[{}, {}, {}, {}, {"K": 4}, {}],
        )
        # Mixed batch: invalids must not poison the valid candidate.
        for layer_cases in ([oversized], [overfanout], [inconsistent]):
            assert_batch_matches_scalar(ARCH, layer_cases)
        mixed = BatchCostModel(ARCH).evaluate_mappings([valid, valid])
        assert mixed.num_valid == 2

    def test_level_count_mismatch_marks_all_invalid(self):
        layer = Layer(p=2)
        short = Mapping.from_factors(layer, temporal_factors=[{"P": 2}])
        result = BatchCostModel(ARCH).evaluate_mappings([short, short])
        assert not result.valid.any()
        assert result.latency[0] == float("inf")


class TestCostParityRandom:
    """Random sampling parity over every architecture preset."""

    @pytest.mark.parametrize("arch_name", sorted(architecture_presets()))
    @pytest.mark.parametrize("layer_name", ["3_7_64_64_1", "3_28_128_128_2", "1_14_256_256_1"])
    def test_random_samples(self, arch_name, layer_name):
        arch = architecture_presets()[arch_name]
        layer = layer_from_name(layer_name)
        space = MapSpace(layer, arch)
        rng = random.Random(7)
        mappings = [space.random_mapping(rng) for _ in range(60)]
        assert_batch_matches_scalar(arch, mappings)

    def test_draws_match_materialized_mappings(self):
        """from_draws and from_mappings agree on the same candidates."""
        layer = layer_from_name("3_7_64_64_1")
        space = MapSpace(layer, ARCH)
        draws = space.sample_batch(40, random.Random(3))
        model = BatchCostModel(ARCH)
        via_draws = model.evaluate_batch(MappingBatch.from_draws(draws))
        via_mappings = model.evaluate_mappings([draws.materialize(i) for i in range(40)])
        assert (via_draws.valid == via_mappings.valid).all()
        assert (via_draws.latency == via_mappings.latency).all()
        assert (via_draws.energy == via_mappings.energy).all()


class TestSearchParity:
    """Batching on vs off: identical scheduler outcomes."""

    LAYERS = ("3_7_64_64_1", "1_14_256_256_1")

    def assert_same_outcome(self, scalar_result, batched_result):
        assert scalar_result.num_sampled == batched_result.num_sampled
        assert scalar_result.num_evaluated == batched_result.num_evaluated
        assert (scalar_result.mapping is None) == (batched_result.mapping is None)
        if scalar_result.mapping is not None:
            assert mapping_to_dict(scalar_result.mapping) == mapping_to_dict(
                batched_result.mapping
            )
            assert scalar_result.cost.latency == batched_result.cost.latency
            assert scalar_result.cost.energy == batched_result.cost.energy

    @pytest.mark.parametrize("layer_name", LAYERS)
    def test_random_scheduler(self, layer_name):
        layer = layer_from_name(layer_name)
        scalar = RandomScheduler(ARCH, num_valid=5, max_attempts=2000).schedule(layer)
        for batch_size in (8, 64, 512):
            batched = RandomScheduler(
                ARCH, num_valid=5, max_attempts=2000, eval_batch_size=batch_size
            ).schedule(layer)
            self.assert_same_outcome(scalar, batched)

    @pytest.mark.parametrize("layer_name", LAYERS)
    def test_tvm_like_tuner(self, layer_name):
        layer = layer_from_name(layer_name)
        scalar = TVMLikeTuner(ARCH, trials=8, batch_size=8).schedule(layer)
        batched = TVMLikeTuner(ARCH, trials=8, batch_size=8, eval_batch_size=64).schedule(layer)
        self.assert_same_outcome(scalar, batched)

    @pytest.mark.parametrize("layer_name", LAYERS)
    def test_timeloop_hybrid(self, layer_name):
        layer = layer_from_name(layer_name)
        kwargs = dict(num_threads=2, termination_condition=32, max_evaluations=250)
        scalar = TimeloopHybridScheduler(ARCH, **kwargs).schedule(layer)
        batched = TimeloopHybridScheduler(ARCH, eval_batch_size=64, **kwargs).schedule(layer)
        self.assert_same_outcome(scalar, batched)

    def test_batch_size_not_in_fingerprint(self):
        """Cache entries must be shareable across batch sizes."""
        scalar = RandomScheduler(ARCH, seed=3)
        batched = RandomScheduler(ARCH, seed=3, eval_batch_size=256)
        assert scalar.config_fingerprint() == batched.config_fingerprint()

    def test_time_budget_is_in_fingerprint(self):
        """A budget-capped search is machine-dependent: it must key the cache."""
        free = RandomScheduler(ARCH, seed=3)
        capped = RandomScheduler(ARCH, seed=3, time_budget_seconds=1.0)
        assert free.config_fingerprint() != capped.config_fingerprint()

    def test_budgeted_runs_key_by_batch_size(self):
        """Under a budget, batch size changes where the clock stops the
        search, so budgeted fingerprints must include it."""
        scalar = RandomScheduler(ARCH, seed=3, time_budget_seconds=1.0)
        batched = RandomScheduler(
            ARCH, seed=3, time_budget_seconds=1.0, eval_batch_size=256
        )
        assert scalar.config_fingerprint() != batched.config_fingerprint()


class TestHybridBatchMatrix:
    """Timeloop-Hybrid scores sweeps from many factorisations in one batch and
    replays its stopping rule over the scores: every batch size must give the
    scalar oracle's outcome, wherever in a batch a thread stops."""

    BATCH_SIZES = (1, 2, 7, 64, 1000)

    CASES = {
        # Every thread is stopped by its termination window.
        "termination-window": (
            "3_7_64_64_1",
            dict(num_threads=2, termination_condition=8, max_evaluations=10_000),
        ),
        # The global cap stops the first thread in the middle of a batch;
        # the later threads draw nothing.
        "max-evaluations": (
            "1_14_256_256_1",
            dict(num_threads=4, termination_condition=1000, max_evaluations=37),
        ),
        # One prime factor only: every sweep is a single candidate.
        "single-candidate-sweeps": (
            "1_1_1_2_1",
            dict(num_threads=3, termination_condition=16, max_evaluations=500),
        ),
        "many-threads-energy": (
            "3_28_128_128_2",
            dict(
                num_threads=5,
                termination_condition=20,
                max_evaluations=400,
                metric="energy",
                max_permutations=5,
            ),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_batch_size_matches_scalar(self, case):
        layer_name, kwargs = self.CASES[case]
        layer = layer_from_name(layer_name)
        scalar = TimeloopHybridScheduler(ARCH, seed=1, **kwargs).schedule(layer)
        assert scalar.mapping is not None
        if case == "termination-window":
            assert scalar.num_evaluated < kwargs["max_evaluations"]
        if case == "max-evaluations":
            assert scalar.num_evaluated == kwargs["max_evaluations"]
        if case == "single-candidate-sweeps":
            # One factorisation plus its lone candidate per step.
            assert scalar.num_sampled % 2 == 0
        for batch_size in self.BATCH_SIZES:
            batched = TimeloopHybridScheduler(
                ARCH, seed=1, eval_batch_size=batch_size, **kwargs
            ).schedule(layer)
            TestSearchParity.assert_same_outcome(self, scalar, batched)

    @pytest.mark.parametrize("batch_size", (None,) + BATCH_SIZES)
    def test_zero_time_budget_returns_nothing(self, batch_size):
        result = TimeloopHybridScheduler(
            ARCH, num_threads=2, eval_batch_size=batch_size, time_budget_seconds=0.0
        ).schedule(layer_from_name("3_7_64_64_1"))
        assert result.mapping is None and result.cost is None
        assert result.num_sampled == 0 and result.num_evaluated == 0

    def test_rejects_empty_permutation_budget(self):
        with pytest.raises(ValueError):
            TimeloopHybridScheduler(ARCH, max_permutations=0)

    # Measured with the one-sweep-per-batch search this one replaced, at the
    # Table VI full budget (8 threads, 256-window, 8000 evaluations, seed 0).
    TABLE6_FULL = {
        "7_112_3_64_2": (5843, 3232, 150528.0),
        "3_14_256_256_2": (5242, 3768, 200992.0),
        "1_1_2048_1000_1": (3595, 2121, 256381.0),
    }

    @pytest.mark.parametrize("layer_name", sorted(TABLE6_FULL))
    def test_table6_full_budget_counts_pinned(self, layer_name):
        result = TimeloopHybridScheduler(
            ARCH, num_threads=8, termination_condition=256, max_evaluations=8000,
            seed=0, eval_batch_size=64,
        ).schedule(layer_from_name(layer_name))
        counts = (result.num_sampled, result.num_evaluated, result.cost.latency)
        assert counts == self.TABLE6_FULL[layer_name]
