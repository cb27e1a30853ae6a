"""Batched + compiled fused-group evaluation and the frontier alignment search.

The scalar :class:`~repro.model.fused.FusedCostModel` is the parity oracle:
the batched combiner (:mod:`repro.model.fused_batch`) must agree with it
**bit-for-bit** on every preset fusion group — headline numbers and per-edge
detail alike.

Also covered here: the scalar model's memoization counters, the divisor /
frontier helpers of :mod:`repro.fusion.schedule` (including ``_retile_outer``
leftover handling), the frontier alignment search itself (it must fully pin
the small attention chain and never lose to the unfused baseline), and the
``EngineSpec.fusion_options`` execution-only knob (round-trip +
store-fingerprint invariance).
"""

import random

import pytest

from repro.api import RunSpec
from repro.api.specs import EngineSpec
from repro.api.store import EXECUTION_ONLY_ENGINE_KEYS, spec_fingerprint
from repro.arch.presets import simba_like
from repro.core.scheduler import CoSAScheduler
from repro.engine.engine import SchedulingEngine
from repro.fusion.presets import (
    attention_block,
    bert_base_block_plan,
    conv_bn_relu,
    gpt2_small_block_plan,
)
from repro.fusion.schedule import (
    DEFAULT_MAX_CANDIDATES,
    _align_group,
    _divisors,
    _frontier_combos,
    _retile_outer,
    _smallest_prime_factor,
)
from repro.mapping.mapping import Mapping
from repro.mapping.space import MapSpace
from repro.model.fused import FusedCostModel
from repro.model.fused_batch import BatchFusedCostModel, FusedMappingBatch
from repro.workloads.problem import matmul

ARCH = simba_like()


def preset_groups():
    """Every multi-operator preset group, at CI-sized shapes."""
    groups = [
        attention_block(seq=32, heads=2, head_dim=16),
        conv_bn_relu(r=3, p=8, c=16, k=16),
    ]
    for plan in (bert_base_block_plan(seq=64), gpt2_small_block_plan(seq=64)):
        groups.extend(g for g in plan.groups if len(g.layers) > 1)
    return groups


def random_candidates(group, samples, seed):
    """``samples`` random group tilings (one mapping list per candidate)."""
    rng = random.Random(seed)
    per_op = [MapSpace(layer, ARCH).sample_batch(samples, rng) for layer in group.layers]
    return [[draws.materialize(i) for draws in per_op] for i in range(samples)]


def assert_candidate_matches_scalar(cost, result, i):
    """One batched row equals the scalar ``FusedGroupCost`` exactly (``==``)."""
    assert bool(result.valid[i]) == cost.valid
    assert float(result.latency[i]) == cost.latency
    assert float(result.energy[i]) == cost.energy
    assert float(result.dram_words[i]) == cost.dram_words
    assert float(result.dram_bytes[i]) == cost.dram_bytes
    assert float(result.unfused_latency[i]) == cost.unfused_latency
    assert float(result.unfused_energy[i]) == cost.unfused_energy
    assert float(result.unfused_dram_words[i]) == cost.unfused_dram_words
    assert float(result.unfused_dram_bytes[i]) == cost.unfused_dram_bytes
    assert int(result.pipeline_rounds[i]) == cost.pipeline_rounds
    assert int(result.num_pinned_edges[i]) == cost.num_pinned_edges
    if cost.valid and cost.edges:
        for e, edge in enumerate(cost.edges):
            assert bool(result.edge_pinned[i, e]) == edge.pinned
            assert float(result.edge_rounds[i, e]) == edge.rounds
            assert bool(result.edge_aligned[i, e]) == edge.aligned
            assert float(result.edge_pinned_bytes[i, e]) == edge.pinned_bytes
            assert float(result.edge_saved_dram_words[i, e]) == edge.saved_dram_words
            assert float(result.edge_saved_dram_bytes[i, e]) == edge.saved_dram_bytes
            assert float(result.edge_saved_energy_pj[i, e]) == edge.saved_energy_pj


# ------------------------------------------------- batched vs scalar oracle


class TestBatchedParity:
    def test_batched_equals_scalar_on_every_preset_group(self):
        for group in preset_groups():
            for samples, seed in ((16, 7), (12, 11)):
                candidates = random_candidates(group, samples, seed=seed)
                scalar = FusedCostModel(ARCH)
                costs = [scalar.evaluate_group(group, c) for c in candidates]
                batch = FusedMappingBatch.from_candidates(group, candidates)
                result = BatchFusedCostModel(ARCH).evaluate_group(batch)
                assert len(result) == len(candidates)
                for i, cost in enumerate(costs):
                    assert_candidate_matches_scalar(cost, result, i)
            assert any(c.valid for c in costs), f"{group.name}: weak test, no valid draw"

    def test_randomized_property_parity(self):
        """Property test: fresh seeds each class of shapes, exact agreement."""
        group = attention_block(seq=32, heads=2, head_dim=16)
        for seed in (0, 1, 2, 3, 4):
            candidates = random_candidates(group, 12, seed=seed)
            scalar = FusedCostModel(ARCH)
            batch = FusedMappingBatch.from_candidates(group, candidates)
            result = BatchFusedCostModel(ARCH).evaluate_group(batch)
            for i, candidate in enumerate(candidates):
                assert_candidate_matches_scalar(
                    scalar.evaluate_group(group, candidate), result, i
                )

    def test_unfused_view_matches_scalar(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        candidates = random_candidates(group, 8, seed=3)
        scalar = FusedCostModel(ARCH)
        batch = FusedMappingBatch.from_candidates(group, candidates)
        result = BatchFusedCostModel(ARCH).evaluate_group(batch, fused=False)
        assert result.num_edges == 0
        assert not result.all_pinned.any()
        for i, candidate in enumerate(candidates):
            assert_candidate_matches_scalar(
                scalar.evaluate_group(group, candidate, fused=False), result, i
            )

    def test_mappings_round_trip_through_the_batch(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        candidates = random_candidates(group, 4, seed=1)
        batch = FusedMappingBatch.from_candidates(group, candidates)
        for i, candidate in enumerate(candidates):
            assert [m.summary() for m in batch.mappings_at(i)] == [
                m.summary() for m in candidate
            ]

    def test_batch_guards(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        candidates = random_candidates(group, 4, seed=1)
        with pytest.raises(ValueError, match="zero candidates"):
            FusedMappingBatch.from_candidates(group, [])
        with pytest.raises(ValueError, match="operators"):
            FusedMappingBatch.from_candidates(group, [c[:2] for c in candidates])


# ------------------------------------------------- scalar memoization


class TestFusedModelMemoization:
    def test_repeat_evaluation_hits_the_memo(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        candidates = random_candidates(group, 2, seed=5)
        model = FusedCostModel(ARCH)
        first = model.evaluate_group(group, candidates[0])
        evaluations = model.scalar_evaluations
        assert evaluations == len(group.layers)
        assert model.memo_hits == 0
        second = model.evaluate_group(group, candidates[0])
        assert model.scalar_evaluations == evaluations  # no new scalar work
        assert model.memo_hits == len(group.layers)
        assert second.latency == first.latency
        assert second.energy == first.energy
        assert second.dram_words == first.dram_words

    def test_memo_clears_at_the_limit(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        candidates = random_candidates(group, 2, seed=6)
        model = FusedCostModel(ARCH)
        model.MEMO_LIMIT = 2  # instance override, class default untouched
        model.evaluate_group(group, candidates[0])  # 3 entries via clears
        model.evaluate_group(group, candidates[0])
        assert model.memo_hits < len(group.layers)  # a clear dropped entries
        model.clear_memo()
        before = model.scalar_evaluations
        model.evaluate_group(group, candidates[0])  # memo emptied: all misses
        assert model.scalar_evaluations == before + len(group.layers)
        assert FusedCostModel.MEMO_LIMIT > 2


# ------------------------------------------------- frontier helpers


class TestFrontierHelpers:
    def test_divisors_edge_cases(self):
        assert _divisors(1) == [1]
        assert _divisors(7) == [1, 7]  # prime
        assert _divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        assert _divisors(97) == [1, 97]  # larger prime
        large = _divisors(2 * 3 * 5 * 7 * 11 * 13)  # 30030, highly composite
        assert len(large) == 64
        assert large == sorted(large)
        assert all(30030 % d == 0 for d in large)

    def test_smallest_prime_factor(self):
        assert _smallest_prime_factor(1) == 1
        assert _smallest_prime_factor(2) == 2
        assert _smallest_prime_factor(9) == 3
        assert _smallest_prime_factor(91) == 7  # 7 * 13
        assert _smallest_prime_factor(97) == 97
        assert _smallest_prime_factor(2**20) == 2

    def test_frontier_combos_sorted_and_thinned(self):
        combos = _frontier_combos([12], [1], max_candidates=100)
        assert combos == [(1,), (2,), (3,), (4,), (6,), (12,)]
        combos = _frontier_combos([12], [3], max_candidates=100)
        assert combos == [(3,), (4,), (6,), (12,)]  # frontier starts at 3
        thinned = _frontier_combos([12], [1], max_candidates=3)
        assert thinned[0] == (1,) and thinned[-1] == (12,)  # endpoints survive
        assert len(thinned) == 3
        assert _frontier_combos([12], [1], max_candidates=1) == [(1,)]
        # two classes: sorted by total round count, ties by combo
        combos = _frontier_combos([4, 4], [1, 1], max_candidates=100)
        assert combos[0] == (1, 1) and combos[-1] == (4, 4)
        products = [a * b for a, b in combos]
        assert products == sorted(products)

    def _mapping(self, temporal_m):
        """A matmul mapping whose per-level temporal M factors are given."""
        layer = matmul(m=8, n=4, k=4, name="retile_probe")
        levels = len(ARCH.hierarchy.levels)
        temporal = [{} for _ in range(levels)]
        temporal[0] = {"N": 4, "K": 4}
        for index, factor in enumerate(temporal_m):
            if factor > 1:
                temporal[index]["M"] = factor
        spatial = [{} for _ in range(levels)]
        perms = [tuple(t) for t in temporal]
        return Mapping.from_factors(layer, temporal, spatial, perms)

    def test_retile_outer_moves_the_target_factor_to_dram(self):
        mapping = self._mapping([8])
        retiled = _retile_outer(mapping, {"M": 2})
        dram = mapping.num_levels - 1
        assert retiled.levels[dram].factor("M", include_spatial=False) == 2
        assert retiled.dim_product("M", include_spatial=False) == 8
        assert retiled.levels[0].factor("M", include_spatial=False) == 4

    def test_retile_outer_leftover_lands_just_below_dram(self):
        # All of M already sits at DRAM: pulling only a factor of 2 back out
        # leaves a leftover of 4 that no inner level can absorb via gcd; it
        # must land at the level just under DRAM (rounds, not footprint).
        levels = len(ARCH.hierarchy.levels)
        factors = [1] * levels
        factors[levels - 1] = 8
        mapping = self._mapping(factors)
        retiled = _retile_outer(mapping, {"M": 2})
        dram = levels - 1
        assert retiled.levels[dram].factor("M", include_spatial=False) == 2
        assert retiled.levels[dram - 1].factor("M", include_spatial=False) == 4
        assert retiled.dim_product("M", include_spatial=False) == 8

    def test_retile_outer_rejects_non_divisors(self):
        mapping = self._mapping([8])
        assert _retile_outer(mapping, {"M": 3}) is None
        assert _retile_outer(mapping, {"M": 16}) is None
        assert _retile_outer(mapping, {"M": 0}) is None


# ------------------------------------------------- the alignment search


class TestFrontierAlignment:
    def _base(self, group):
        engine = SchedulingEngine(CoSAScheduler(ARCH))
        base = engine.schedule_network(list(group.layers))
        return engine, [outcome.mapping for outcome in base.outcomes]

    def test_frontier_fully_pins_the_small_attention_chain(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        engine, base_mappings = self._base(group)
        mappings, cost, _retiled = _align_group(
            engine, group, base_mappings, FusedCostModel(ARCH)
        )
        assert cost.valid
        assert cost.num_pinned_edges == len(group.edges)
        assert cost.dram_words <= cost.unfused_dram_words
        assert len(mappings) == len(group.layers)

    def test_max_candidates_caps_the_search(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        engine, base_mappings = self._base(group)
        capped = _align_group(
            engine, group, base_mappings, FusedCostModel(ARCH),
            options={"max_candidates": 1},
        )
        full = _align_group(engine, group, base_mappings, FusedCostModel(ARCH))
        # the capped search sees a subset of the frontier: it can never beat
        # the full search, and both must beat (or match) the unfused baseline
        assert full[1].dram_words <= capped[1].dram_words
        assert DEFAULT_MAX_CANDIDATES > 1


# ------------------------------------------------- the spec surface


class TestEngineSpecFusionOptions:
    def test_round_trip_and_defaults(self):
        spec = EngineSpec(fusion_options={"max_candidates": 32})
        data = spec.to_dict()
        assert data["fusion_options"] == {"max_candidates": 32}
        assert EngineSpec.from_dict(data) == spec
        # unset -> omitted, so legacy spec files stay byte-identical
        assert "fusion_options" not in EngineSpec().to_dict()
        assert EngineSpec.from_dict({}) == EngineSpec()

    def test_rejects_unknown_and_invalid_options(self):
        with pytest.raises(ValueError, match="fusion_options"):
            EngineSpec(fusion_options={"bogus": 1})
        with pytest.raises(ValueError, match="max_candidates"):
            EngineSpec(fusion_options={"max_candidates": 0})
        with pytest.raises(ValueError, match="EngineSpec.fusion_options"):
            EngineSpec(fusion_options=[("max_candidates", 4)])

    def test_fusion_options_is_execution_only(self):
        assert "fusion_options" in EXECUTION_ONLY_ENGINE_KEYS
        plain = RunSpec.from_dict({"kind": "compare", "workload": "alexnet"})
        tuned = RunSpec.from_dict(
            {
                "kind": "compare",
                "workload": "alexnet",
                "engine": {"fusion_options": {"max_candidates": 8}},
            }
        )
        assert spec_fingerprint(plain) == spec_fingerprint(tuned)
