"""Property tests: what a move changes, as seen by the batched kernel.

Local search scores moved states through the kernel's *raw view* — the
unmasked latency / energy / utilization plus the capacity and fanout
violation magnitudes of :class:`~repro.model.batch.BatchEvalDetail` — so
that view must be exact on invalid states too, where the masked cost is
``inf``.  Hand-rolled generators (seeded ``random.Random``, no external
property-testing dependency — the coverage CI job installs none) drive
random walks of factor moves, spatial flips and permutation swaps over every
built-in tensor problem and every architecture preset, asserting after
**every committed move** that the kernel's raw view equals, with ``==``:

* :class:`~repro.model.performance.PerformanceModel` latency and
  :class:`~repro.model.energy.EnergyModel` energy on a
  :class:`~repro.model.nest.NestAnalysis` of the same mapping,
* the normalized excesses of :meth:`NestAnalysis.buffer_violations` and of
  the per-level spatial products over the fanouts,
* and, on valid states, the scalar :class:`~repro.model.cost.CostModel`.

Plus the mechanics underneath: writing a moved state's row leaves the state
untouched, ``apply``/``undo`` round-trips restore it, and ``MappingState``
materializes exactly the mapping its seed draw would.
"""

import random

import pytest

from repro.arch import architecture_presets, simba_like
from repro.mapping import MapSpace, mapping_to_dict
from repro.mapping.moves import FactorMove, MappingState, PermutationSwap, propose_move
from repro.model import CostModel, EnergyModel, NestAnalysis, PerformanceModel
from repro.model.batch import BatchCostModel, BatchRows, MappingBatch
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
        matmul(m=8, n=16, k=32, name="delta_matmul"),
        depthwise_conv(r=3, p=8, c=16, name="delta_dw"),
        grouped_conv(r=3, p=8, c=4, k=4, groups=8, name="delta_gconv"),
        attention_qk(seq=16, heads=2, head_dim=8, name="delta_qk"),
        attention_av(seq=16, heads=2, head_dim=8, name="delta_av"),
    ]


def seeded_state(layer, arch, rng):
    """A state from one random draw plus the space's fanout table."""
    space = MapSpace(layer, arch)
    draws = space.sample_batch(1, rng)
    return space.initial_state(draws, 0), space.spatial_fanouts


def snapshot(state):
    """Deep-copied placement lists for exact-restoration assertions."""
    return (
        [[list(e) for e in level] for level in state.temporal],
        [[list(e) for e in level] for level in state.spatial],
    )


def raw_view(states, arch):
    """Score ``states`` in one kernel call: per-state raw-view tuples + validity."""
    layer = states[0].layer
    rows = BatchRows(layer, arch.num_memory_levels)
    for state in states:
        rows.add(state.temporal, state.spatial)
    kernel = BatchCostModel(arch).kernel_for(layer.problem)
    detail = kernel.evaluate_detail(rows.batch())
    capacity, spatial = kernel.violation_magnitudes(detail)
    views = [
        (
            detail.raw_latency[i],
            detail.raw_energy[i],
            detail.raw_utilization[i],
            capacity[i],
            spatial[i],
        )
        for i in range(len(states))
    ]
    return views, detail.result


def scalar_view(mapping, arch):
    """The same raw view from the scalar models, unmasked."""
    analysis = NestAnalysis(mapping, arch)
    latency = PerformanceModel(arch).evaluate(mapping, analysis).latency
    energy = EnergyModel(arch).evaluate(mapping, analysis).total
    utilization = PerformanceModel(arch).utilization(mapping)
    capacity = 0.0
    for _, used, limit in analysis.buffer_violations():
        capacity += (used - limit) / limit
    spatial = 0.0
    for index, level in enumerate(arch.hierarchy):
        product = mapping.spatial_product_at(index)
        if product > level.spatial_fanout:
            spatial += (product - level.spatial_fanout) / level.spatial_fanout
    return latency, energy, utilization, capacity, spatial


def walk(state, fanouts, rng, steps, **kwargs):
    """Commit up to ``steps`` random moves; returns clones of every visited state."""
    visited = [state.clone()]
    for _ in range(steps):
        move = propose_move(state, fanouts, rng, **kwargs)
        if move is None:
            break
        state.apply(move)
        visited.append(state.clone())
    return visited


def assert_raw_parity(states, arch):
    """Kernel raw view == scalar models on every state.

    Returns how many states overflow a buffer and how many over-subscribe
    a fanout, so callers can check that the walk crossed invalid regions.
    """
    scalar = CostModel(arch)
    views, result = raw_view(states, arch)
    for i, state in enumerate(states):
        mapping = state.to_mapping()
        assert views[i] == scalar_view(mapping, arch), f"state {i} of {mapping.layer.name}"
        cost = scalar.evaluate(mapping)
        assert bool(result.valid[i]) == cost.valid
        if cost.valid:
            assert result.latency[i] == cost.latency
            assert result.energy[i] == cost.energy
            assert result.utilization[i] == cost.utilization
        else:
            # Invalid: masked to inf, and some violation (or broken
            # consistency, which moves never cause) explains why.
            assert result.latency[i] == float("inf")
            assert views[i][3] > 0 or views[i][4] > 0 or not mapping.is_consistent()
    return (
        sum(view[3] > 0 for view in views),
        sum(view[4] > 0 for view in views),
    )


#: Half of the spatial moves may over-subscribe a fanout, so walks cross
#: invalid regions often enough to test the raw view there.
OVERFLOW = {"overflow_probability": 0.5}


class TestDeltaMatchesFullReevaluation:
    """The kernel's view of each moved state equals a full scalar re-evaluation."""

    def test_random_walks_on_every_builtin_problem(self):
        rng = random.Random(2026)
        overflows = [0, 0]
        # The six small problems, plus two ResNet-50 layers whose tiles
        # overflow the buffers.
        for layer in builtin_problem_layers() + [
            layer_from_name("3_56_64_64_1"),
            layer_from_name("1_7_512_2048_1"),
        ]:
            state, fanouts = seeded_state(layer, ARCH, rng)
            states = walk(state, fanouts, rng, 60, **OVERFLOW)
            assert len(states) > 20, f"{layer.name}: walk froze too early"
            for group, count in enumerate(assert_raw_parity(states, ARCH)):
                overflows[group] += count
        assert min(overflows) > 0, f"walks crossed too few invalid states: {overflows}"

    def test_random_walks_across_architecture_presets(self):
        rng = random.Random(7)
        layer = layer_from_name("3_28_128_128_1")
        overflows = [0, 0]
        for _, arch in sorted(architecture_presets().items()):
            state, fanouts = seeded_state(layer, arch, rng)
            states = walk(state, fanouts, rng, 25, **OVERFLOW)
            for group, count in enumerate(assert_raw_parity(states, arch)):
                overflows[group] += count
        assert min(overflows) > 0, f"walks crossed too few invalid states: {overflows}"

    def test_moves_conserve_consistency(self):
        """Factor products are conserved, so consistency never breaks."""
        rng = random.Random(13)
        for layer in builtin_problem_layers():
            state, fanouts = seeded_state(layer, ARCH, rng)
            for visited in walk(state, fanouts, rng, 40):
                assert visited.to_mapping().is_consistent()


class TestViolationMagnitudes:
    def test_capacity_and_fanout_excess_are_normalized_sums(self):
        """Hand-computed overflow of one buffer and one fanout on simba-4x4."""
        layer = layer_from_name("3_14_32_64_1")
        space = MapSpace(layer, ARCH)
        # Every loop temporal at the registers, then all of C spatial at the
        # global buffer (fanout 16).
        state = MappingState(
            layer=layer,
            num_levels=space.num_levels,
            temporal=[[[dim, bound] for dim, bound in layer.bounds.items() if bound > 1]]
            + [[] for _ in range(space.num_levels - 1)],
            spatial=[[] for _ in range(space.num_levels)],
        )
        state.apply(
            FactorMove(dim="C", factor=32, src_level=0, src_spatial=False,
                       dst_level=4, dst_spatial=True)
        )
        (view,), result = raw_view([state], ARCH)
        assert not result.valid[0]
        # The accumulation buffer (3072 B) holds the P*Q*K = 12544-word
        # output tile at 3 B a word: (37632 - 3072) / 3072.  Nothing else
        # overflows.  The global buffer's 32 lanes over-subscribe its 16.
        assert view[3] == (37632 - 3072) / 3072 == 11.25
        assert view[4] == (32 - 16) / 16 == 1.0
        assert view == scalar_view(state.to_mapping(), ARCH)


class TestPreviewAndUndo:
    def test_preview_leaves_state_and_caches_untouched(self):
        """Writing a moved state's row (apply, add, undo) keeps the state as it was."""
        rng = random.Random(3)
        state, fanouts = seeded_state(layer_from_name("3_7_64_64_1"), ARCH, rng)
        for _ in range(30):
            move = propose_move(state, fanouts, rng)
            if move is None:
                break
            shape = snapshot(state)
            rows = BatchRows(state.layer, state.num_levels)
            undo = state.apply(move)
            rows.add(state.temporal, state.spatial)
            state.undo(undo)
            assert snapshot(state) == shape, "writing the row mutated the state"
            # The row is exactly the committed state's packing.
            committed = state.clone()
            committed.apply(move)
            reference = MappingBatch.from_mappings([committed.to_mapping()])
            previewed = rows.batch()
            for name in ("temporal", "spatial", "loop_level", "loop_dim", "loop_bound"):
                assert (getattr(previewed, name) == getattr(reference, name)).all(), name
            state.apply(move)

    def test_apply_undo_restores_state_and_result(self):
        rng = random.Random(4)
        for layer in builtin_problem_layers():
            state, fanouts = seeded_state(layer, ARCH, rng)
            (baseline,), _ = raw_view([state], ARCH)
            shape = snapshot(state)
            for _ in range(25):
                move = propose_move(state, fanouts, rng)
                if move is None:
                    break
                record = state.apply(move)
                state.undo(record)
                assert snapshot(state) == shape
            (restored,), _ = raw_view([state], ARCH)
            assert restored == baseline

    def test_state_apply_undo_round_trips(self):
        rng = random.Random(5)
        state, fanouts = seeded_state(
            grouped_conv(r=3, p=8, c=4, k=4, groups=8, name="undo_gconv"), ARCH, rng
        )
        for _ in range(50):
            move = propose_move(state, fanouts, rng)
            if move is None:
                break
            shape = snapshot(state)
            record = state.apply(move)
            state.undo(record)
            assert snapshot(state) == shape


class TestMappingStateMechanics:
    def test_state_materializes_its_seed_draw(self):
        rng = random.Random(6)
        for layer in builtin_problem_layers():
            space = MapSpace(layer, ARCH)
            draws = space.sample_batch(8, rng)
            for index in range(len(draws)):
                state = space.initial_state(draws, index)
                assert mapping_to_dict(state.to_mapping()) == mapping_to_dict(
                    draws.materialize(index)
                )

    def test_from_mapping_round_trips(self):
        rng = random.Random(8)
        layer = layer_from_name("3_7_64_64_1")
        mapping = MapSpace(layer, ARCH).random_mapping(rng)
        state = MappingState.from_mapping(mapping)
        assert mapping_to_dict(state.to_mapping()) == mapping_to_dict(mapping)

    def test_spatial_flip_and_move_classification(self):
        flip = FactorMove(
            dim="C", factor=2, src_level=1, src_spatial=False, dst_level=1, dst_spatial=True
        )
        assert flip.is_spatial_flip
        assert flip.touches_temporal and flip.touches_spatial
        hop = FactorMove(
            dim="C", factor=2, src_level=0, src_spatial=False, dst_level=3, dst_spatial=False
        )
        assert not hop.is_spatial_flip
        assert hop.touches_temporal and not hop.touches_spatial

    def test_apply_rejects_bad_factor_and_missing_entry(self):
        rng = random.Random(9)
        state, _ = seeded_state(matmul(m=8, n=16, k=32, name="guard_mm"), ARCH, rng)
        # Find some placed entry, then ask for a factor that cannot divide it.
        level, spatial, entry = next(
            (lvl, sp, e)
            for sp, levels in ((False, state.temporal), (True, state.spatial))
            for lvl, loops in enumerate(levels)
            for e in loops
        )
        bad = FactorMove(
            dim=entry[0],
            factor=entry[1] + 1,
            src_level=level,
            src_spatial=spatial,
            dst_level=(level + 1) % state.num_levels,
            dst_spatial=False,
        )
        with pytest.raises(ValueError, match="does not divide"):
            state.apply(bad)
        missing = FactorMove(
            dim="Z9", factor=2, src_level=0, src_spatial=False, dst_level=1, dst_spatial=False
        )
        with pytest.raises(ValueError, match="no Z9 entry"):
            state.apply(missing)

    def test_propose_move_returns_none_on_frozen_state(self):
        layer = matmul(m=1, n=1, k=1, name="frozen_mm")
        space = MapSpace(layer, ARCH)
        draws = space.sample_batch(1, random.Random(0))
        state = space.initial_state(draws, 0)
        assert propose_move(state, space.spatial_fanouts, random.Random(1)) is None

    def test_permutation_swap_changes_order_only(self):
        rng = random.Random(10)
        state, _ = seeded_state(layer_from_name("3_7_64_64_1"), ARCH, rng)
        level = next(
            lvl for lvl in range(state.num_levels) if len(state.temporal[lvl]) >= 2
        )
        before = [list(e) for e in state.temporal[level]]
        record = state.apply(PermutationSwap(level=level, i=0, j=1))
        after = state.temporal[level]
        assert after[0] == before[1] and after[1] == before[0]
        assert sorted(map(tuple, after)) == sorted(map(tuple, before))
        state.undo(record)
        assert [list(e) for e in state.temporal[level]] == before
