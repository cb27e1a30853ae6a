"""Parity and cache tests for the per-(problem, arch) evaluation kernels.

The kernels behind :class:`~repro.model.batch.BatchCostModel` must be a
pure speed-up:

* **Bit-exact parity** — on every built-in tensor problem and every
  architecture preset the validity / latency / energy / utilization arrays
  equal the scalar oracle's with ``==`` (no tolerance).
* **Packing parity** — ``MappingBatch.from_draws`` produces exactly the
  arrays of ``MappingBatch.from_mappings`` over the materialized draws.
* **Cache behaviour** — kernels are cached process-wide per
  (problem, architecture) with observable hit/miss counters.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from repro.arch import architecture_presets, gpu_k80, simba_like
from repro.mapping import MapSpace
from repro.model import CostModel
from repro.model.batch import (
    PAD,
    BatchCostModel,
    MappingBatch,
    clear_kernel_cache,
    kernel_cache_info,
)
from repro.workloads import (
    attention_av,
    attention_qk,
    depthwise_conv,
    grouped_conv,
    layer_from_name,
    matmul,
)

ARCH = simba_like()


def builtin_problem_layers():
    """One small layer per built-in tensor problem (all six)."""
    return [
        layer_from_name("3_7_64_64_1"),  # conv7
        matmul(m=8, n=16, k=32, name="kernel_matmul"),
        depthwise_conv(r=3, p=8, c=16, name="kernel_dw"),
        grouped_conv(r=3, p=8, c=4, k=4, groups=8, name="kernel_gconv"),
        attention_qk(seq=16, heads=2, head_dim=8, name="kernel_qk"),
        attention_av(seq=16, heads=2, head_dim=8, name="kernel_av"),
    ]


def assert_results_identical(a, b):
    """BatchCostResult equality with ``==`` — bit-exact, not approximate."""
    assert np.array_equal(a.valid, b.valid)
    assert np.array_equal(a.latency, b.latency)
    assert np.array_equal(a.energy, b.energy)
    assert np.array_equal(a.utilization, b.utilization)


def assert_matches_scalar(result, scalar, draws):
    """Every row equals the scalar oracle exactly, validity included."""
    for i in range(len(draws)):
        cost = scalar.evaluate(draws.materialize(i))
        assert bool(result.valid[i]) == cost.valid
        if cost.valid:
            assert result.latency[i] == cost.latency
            assert result.energy[i] == cost.energy
            assert result.utilization[i] == cost.utilization


class TestCompiledParity:
    def test_compiled_equals_scalar_oracle(self):
        scalar = CostModel(ARCH)
        model = BatchCostModel(ARCH)
        for layer in builtin_problem_layers():
            for samples, seed in ((24, 11), (64, 7)):
                draws = MapSpace(layer, ARCH).sample_batch(samples, random.Random(seed))
                result = model.evaluate_draws(draws)
                assert_matches_scalar(result, scalar, draws)
            assert bool(result.valid.any()), f"no valid draw for {layer.name}: weak test"

    def test_parity_across_architecture_presets(self):
        layer = layer_from_name("3_14_32_64_1")
        for _, arch in sorted(architecture_presets().items()):
            draws = MapSpace(layer, arch).sample_batch(48, random.Random(3))
            result = BatchCostModel(arch).evaluate_draws(draws)
            assert_matches_scalar(result, CostModel(arch), draws)

    def test_evaluate_mappings_matches_batched_model(self):
        layer = layer_from_name("3_7_64_64_1")
        draws = MapSpace(layer, ARCH).sample_batch(16, random.Random(5))
        mappings = [draws.materialize(i) for i in range(len(draws))]
        assert_results_identical(
            BatchCostModel(ARCH).evaluate_mappings(mappings),
            BatchCostModel(ARCH).evaluate_draws(draws),
        )


class TestPackDraws:
    def test_pack_draws_reproduces_from_draws_arrays(self):
        for layer in builtin_problem_layers():
            draws = MapSpace(layer, ARCH).sample_batch(32, random.Random(0))
            fast = MappingBatch.from_draws(draws)
            reference = MappingBatch.from_mappings(
                [draws.materialize(i) for i in range(len(draws))]
            )
            for name in ("temporal", "spatial", "loop_level", "loop_dim", "loop_bound"):
                assert np.array_equal(getattr(fast, name), getattr(reference, name)), (
                    f"{layer.name}: {name} diverges"
                )
            assert fast.layer is draws.layer
            assert fast._source is draws  # materialize() keeps working

    def test_packing_matches_a_direct_loop_walk(self):
        """Factor products and the level-major loop sequence, built by hand."""
        for layer in builtin_problem_layers():
            draws = MapSpace(layer, ARCH).sample_batch(16, random.Random(1))
            batch = MappingBatch.from_draws(draws)
            dims = layer.problem.dims
            sequences = []
            for b in range(len(draws)):
                mapping = draws.materialize(b)
                for lvl, level in enumerate(mapping.levels):
                    for d, dim in enumerate(dims):
                        assert batch.temporal[b, lvl, d] == math.prod(
                            loop.bound for loop in level.temporal if loop.dim == dim
                        )
                        assert batch.spatial[b, lvl, d] == math.prod(
                            loop.bound for loop in level.spatial if loop.dim == dim
                        )
                sequences.append(
                    [
                        (lvl, dims.index(loop.dim), loop.bound)
                        for lvl, level in enumerate(mapping.levels)
                        for loop in level.temporal
                    ]
                )
            width = max(max(len(seq) for seq in sequences), 1)
            assert batch.loop_level.shape == (len(draws), width)
            for b, seq in enumerate(sequences):
                pad = [(PAD, PAD, 1)] * (width - len(seq))
                packed = list(
                    zip(batch.loop_level[b].tolist(), batch.loop_dim[b].tolist(),
                        batch.loop_bound[b].tolist())
                )
                assert packed == seq + pad, f"{layer.name} row {b}"


class TestKernelCache:
    def test_second_compile_hits_the_cache(self):
        clear_kernel_cache()
        layer = matmul(m=8, n=16, k=32, name="cache_probe")
        model = BatchCostModel(ARCH)
        first = model.kernel_for(layer.problem)
        assert kernel_cache_info()["misses"] == 1
        assert kernel_cache_info()["hits"] == 0
        second = model.kernel_for(layer.problem)
        assert second is first
        # A fresh model on the same architecture shares the cache too.
        assert BatchCostModel(ARCH).kernel_for(layer.problem) is first
        info = kernel_cache_info()
        assert info["hits"] == 2
        assert info["misses"] == 1
        assert info["entries"] == 1

    def test_lookups_digest_the_problem_once(self, monkeypatch):
        import repro.digest

        problem = dataclasses.replace(matmul(m=8, n=16, k=32, name="digest_probe").problem)
        model = BatchCostModel(ARCH)
        real = repro.digest.stable_digest
        calls = []
        monkeypatch.setattr(
            repro.digest, "stable_digest", lambda payload: calls.append(1) or real(payload)
        )
        assert len({id(model.kernel_for(problem)) for _ in range(3)}) == 1
        assert len(calls) == 1  # memoized on the frozen problem
        # The memo is the digest itself: an equal, fresh problem computes the same.
        assert dataclasses.replace(problem).fingerprint() == problem.fingerprint()
        assert len(calls) == 2

    def test_distinct_architectures_get_distinct_kernels(self):
        clear_kernel_cache()
        layer = layer_from_name("3_7_64_64_1")
        presets = sorted(architecture_presets().items())
        kernels = [BatchCostModel(arch).kernel_for(layer.problem) for _, arch in presets]
        assert len({id(k) for k in kernels}) == len(presets)
        assert kernel_cache_info()["entries"] == len(presets)

    def test_clear_kernel_cache_resets_counters(self):
        BatchCostModel(ARCH).kernel_for(matmul(m=4, n=4, k=4, name="tiny").problem)
        clear_kernel_cache()
        assert kernel_cache_info() == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "fused_misses": 0,
        }

    def test_kernel_records_build_time(self):
        clear_kernel_cache()
        kernel = BatchCostModel(ARCH).kernel_for(layer_from_name("3_7_64_64_1").problem)
        assert kernel.build_seconds >= 0.0


class TestKernelGuards:
    def test_problem_mismatch_is_an_error(self):
        kernel = BatchCostModel(ARCH).kernel_for(layer_from_name("3_7_64_64_1").problem)
        other = matmul(m=8, n=16, k=32, name="wrong_problem")
        draws = MapSpace(other, ARCH).sample_batch(4, random.Random(0))
        with pytest.raises(ValueError, match="cannot"):
            kernel.evaluate(MappingBatch.from_draws(draws))

    def test_level_count_mismatch_marks_everything_invalid(self):
        layer = layer_from_name("3_7_64_64_1")
        kernel = BatchCostModel(ARCH).kernel_for(layer.problem)  # 6-level hierarchy
        shallow = gpu_k80()  # 4-level hierarchy
        draws = MapSpace(layer, shallow).sample_batch(8, random.Random(2))
        result = kernel.evaluate(MappingBatch.from_draws(draws))
        assert not result.valid.any()
        assert np.all(np.isinf(result.latency))
        assert np.all(np.isinf(result.energy))
        assert np.all(result.utilization == 0.0)
