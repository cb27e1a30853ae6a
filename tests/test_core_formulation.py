"""Unit tests for the CoSA formulation: constants, variables, constraints."""

import math

import numpy as np
import pytest

from repro.arch import simba_like
from repro.core.constants import is_relevant, relevance_matrix, relevant_dims, storage_matrix
from repro.core.constraints import add_all_constraints
from repro.core.decode import decode_solution
from repro.core.formulation import CoSAFormulation
from repro.core.objectives import (
    ObjectiveWeights,
    mapping_compute,
    mapping_objective_breakdown,
    mapping_traffic,
    mapping_utilization,
)
from repro.core.variables import CoSAVariables
from repro.solver.expr import VarKind
from repro.solver.model import MIPModel
from repro.solver.scipy_backend import ScipyMilpBackend
from repro.solver.solution import Solution, SolveStatus
from repro.workloads import Layer, layer_from_name
from repro.workloads.layer import DIMENSION_NAMES, TensorKind

ARCH = simba_like()


class TestConstantMatrices:
    def test_relevance_matrix_matches_table_iv(self):
        a = relevance_matrix()
        assert a.shape == (7, 3)
        # Weight column: R, S, C, K.
        assert list(np.flatnonzero(a[:, TensorKind.WEIGHT])) == [
            DIMENSION_NAMES.index(d) for d in ("R", "S", "C", "K")
        ]
        # Output column: P, Q, K, N.
        assert list(np.flatnonzero(a[:, TensorKind.OUTPUT])) == [
            DIMENSION_NAMES.index(d) for d in ("P", "Q", "K", "N")
        ]

    def test_storage_matrix_matches_hierarchy(self):
        b = storage_matrix(ARCH)
        assert b.shape == (6, 3)
        wbuf = ARCH.hierarchy.index_of("WeightBuffer")
        assert list(b[wbuf]) == [1, 0, 0]
        dram = ARCH.hierarchy.dram_index
        assert list(b[dram]) == [1, 1, 1]

    def test_relevant_dims_helpers(self):
        assert relevant_dims(TensorKind.WEIGHT) == ("R", "S", "C", "K")
        assert is_relevant("K", TensorKind.OUTPUT)
        assert not is_relevant("K", TensorKind.INPUT)


class TestVariables:
    def test_factor_enumeration(self):
        layer = Layer(r=3, s=3, p=4, q=4, c=8, k=16, n=1)
        model = MIPModel()
        variables = CoSAVariables(model, layer, ARCH)
        # One group per (dimension, prime): 1 + 1 + 2 + 2 + 3 + 4 = 13 primes.
        counts = {f.dim: (f.value, f.count) for f in variables.factors}
        assert counts == {
            "R": (3, 1), "S": (3, 1), "P": (2, 2), "Q": (2, 2), "C": (2, 3), "K": (2, 4)
        }
        assert sum(f.count for f in variables.factors) == 13
        assert len(variables.factors_of_dim("K")) == 1
        assert all(f.log_value == pytest.approx(math.log(f.value)) for f in variables.factors)
        for factor in variables.factors:
            for var in variables.assignment_vars(factor):
                assert var.kind == VarKind.INTEGER
                assert var.lower == 0
            for level in variables.temporal_levels:
                assert variables.temporal_at(factor, level).upper == factor.count

    def test_spatial_slots_are_capped_by_fanout(self):
        # 2^6 on a 4x4 = 16-PE level: at most four copies of 2 fit.
        layer = Layer(k=64)
        variables = CoSAVariables(MIPModel(), layer, ARCH)
        (two,) = variables.factors_of_dim("K")
        assert two.count == 6
        for level, fanout in variables.spatial_fanouts.items():
            cap = int(variables.spatial_at(two, level).upper)
            assert cap == min(6, int(math.log2(fanout)))

    def test_spatial_variables_respect_fanout(self):
        # A prime factor of 7 cannot be mapped across a 4x4=16-PE array level
        # only when it exceeds the fanout; 7 <= 16 so it can, but 17 could not.
        layer = Layer(p=7, c=17)
        model = MIPModel()
        variables = CoSAVariables(model, layer, ARCH)
        seven = variables.factors_of_dim("P")[0]
        seventeen = variables.factors_of_dim("C")[0]
        gb = ARCH.pe_level_index()
        assert variables.spatial_at(seven, gb) is not None
        assert variables.spatial_at(seventeen, gb) is None

    def test_temporal_levels_stop_at_noc_boundary(self):
        layer = Layer(k=8)
        variables = CoSAVariables(MIPModel(), layer, ARCH)
        assert variables.temporal_levels == list(range(ARCH.pe_level_index() + 1))

    def test_active_dims_and_ranks(self):
        layer = Layer(p=4, k=8)
        variables = CoSAVariables(MIPModel(), layer, ARCH)
        assert variables.active_dims == ["P", "K"]
        assert variables.num_ranks == 2

    def test_variable_count_matches_registry(self):
        layer = Layer(p=4, c=4, k=4)
        model = MIPModel()
        variables = CoSAVariables(model, layer, ARCH)
        assert variables.num_variables == model.num_variables


class TestDecode:
    def _variables(self):
        return CoSAVariables(MIPModel(), Layer(k=16), ARCH)

    def test_count_split_across_two_slots_expands_into_loops(self):
        variables = self._variables()
        (two,) = variables.factors_of_dim("K")
        noc = variables.noc_level
        solution = Solution(
            status=SolveStatus.OPTIMAL,
            values={
                variables.temporal_at(two, 0): 1.0,
                variables.temporal_at(two, noc): 3.0,
                variables.rank[("K", 0)]: 1.0,
            },
        )
        mapping = decode_solution(variables, solution)
        assert [(loop.dim, loop.bound) for loop in mapping.levels[0].temporal] == [("K", 2)]
        assert [(loop.dim, loop.bound) for loop in mapping.levels[noc].temporal] == [("K", 2)] * 3
        assert all(not level.spatial for level in mapping.levels)

    def test_spatial_copies_merge_into_one_loop(self):
        variables = self._variables()
        (two,) = variables.factors_of_dim("K")
        level = ARCH.pe_level_index()
        solution = Solution(
            status=SolveStatus.OPTIMAL,
            values={variables.spatial_at(two, level): 4.0},
        )
        mapping = decode_solution(variables, solution)
        assert [(loop.dim, loop.bound) for loop in mapping.levels[level].spatial] == [("K", 16)]

    def test_incomplete_count_is_rejected(self):
        variables = self._variables()
        (two,) = variables.factors_of_dim("K")
        solution = Solution(
            status=SolveStatus.OPTIMAL, values={variables.temporal_at(two, 0): 3.0}
        )
        with pytest.raises(ValueError, match="3 of its 4 copies"):
            decode_solution(variables, solution)


#: Proven optima (``mip_rel_gap=0``, capacity fraction 0.8, ``baseline-4x4``)
#: of the formulation with one 0/1 assignment variable per prime and
#: lexicographic symmetry breaking.  The multiplicity encoding spans the same
#: mappings with the same objective, so it must reach the same values.
PER_PRIME_OPTIMA = [
    (layer_from_name("3_4_8_16_1"), 25.034809148),
    (layer_from_name("1_8_16_32_1"), 27.864516659),
    (layer_from_name("1_1_64_64_1"), 17.46730895),
    (Layer(r=3, p=4, c=8, k=8), 9.186232797),  # S = Q = 1
    (layer_from_name("1_7_32_64_1"), 33.961779725),
    (layer_from_name("3_14_16_16_2"), 41.806538796),
    (layer_from_name("1_56_64_64_1"), 61.442212397),  # ResNet-50
    (layer_from_name("1_7_512_2048_1"), 69.173656498),  # ResNet-50
]


@pytest.mark.parametrize(
    "layer, optimum", PER_PRIME_OPTIMA, ids=[layer.canonical_name for layer, _ in PER_PRIME_OPTIMA]
)
def test_gap_zero_optimum_matches_the_per_prime_encoding(layer, optimum):
    formulation = CoSAFormulation(layer, ARCH, capacity_fraction=0.8)
    solution = formulation.solve(ScipyMilpBackend(mip_rel_gap=0.0))
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(optimum, abs=1e-6)
    assert formulation.decode(solution).is_consistent()


class TestFormulationSolutions:
    """End-to-end checks on small layers where the optimum is easy to reason about."""

    def _schedule(self, layer, weights=ObjectiveWeights()):
        formulation = CoSAFormulation(layer, ARCH, weights=weights, capacity_fraction=0.5)
        solution = formulation.solve()
        assert solution.status is SolveStatus.OPTIMAL
        mapping = formulation.decode(solution)
        return formulation, solution, mapping

    def test_small_layer_produces_consistent_mapping(self):
        layer = Layer(r=3, s=3, p=4, q=4, c=8, k=16)
        _, _, mapping = self._schedule(layer)
        assert mapping.is_consistent()
        assert mapping.num_levels == ARCH.num_memory_levels

    def test_spatial_factors_respect_fanouts(self):
        layer = Layer(p=8, q=8, c=16, k=32)
        _, _, mapping = self._schedule(layer)
        for index, level in enumerate(ARCH.hierarchy):
            assert mapping.spatial_product_at(index) <= level.spatial_fanout

    def test_compute_objective_encourages_spatial_mapping(self):
        # With a compute-dominant objective the solver should parallelise
        # heavily rather than run everything sequentially.
        layer = Layer(c=64, k=64)
        weights = ObjectiveWeights(utilization=0.0, compute=1.0, traffic=0.0)
        _, _, mapping = self._schedule(layer, weights)
        assert mapping.total_spatial_product() >= 64

    def test_mip_constraints_all_satisfied_at_solution(self):
        layer = Layer(r=3, p=4, c=8, k=8)
        formulation, solution, _ = self._schedule(layer)
        for constraint in formulation.model.constraints:
            assert constraint.satisfied_by(solution.values), constraint.name

    def test_objective_breakdown_matches_decoded_mapping(self):
        """The MIP's objective terms must agree with the direct evaluation of the
        decoded mapping (they encode the same Eq. 5/6/11 quantities)."""
        layer = Layer(r=3, p=4, c=8, k=8)
        formulation, solution, mapping = self._schedule(layer)
        solver_side = formulation.objective_breakdown(solution)
        mapping_side = mapping_objective_breakdown(mapping, ARCH)
        assert solver_side.compute == pytest.approx(mapping_side.compute, abs=1e-6)
        assert solver_side.utilization == pytest.approx(mapping_side.utilization, abs=1e-6)
        assert solver_side.traffic == pytest.approx(mapping_side.traffic, abs=1e-6)

    def test_decoded_mapping_is_valid_under_cost_model(self):
        from repro.model import CostModel

        layer = layer_from_name("3_14_128_256_1")
        formulation = CoSAFormulation(layer, ARCH, capacity_fraction=0.5)
        solution = formulation.solve()
        mapping = formulation.decode(solution)
        result = CostModel(ARCH).evaluate(mapping)
        assert result.valid, result.violations

    def test_stats_report_problem_size(self):
        layer = Layer(c=16, k=16)
        formulation = CoSAFormulation(layer, ARCH)
        stats = formulation.stats
        assert stats.num_prime_factors == 8
        assert stats.num_variables > 0
        assert stats.num_constraints > 0


class TestMappingSideObjectives:
    def test_compute_term_is_log_of_temporal_product(self):
        from repro.mapping import Mapping

        layer = Layer(p=4, c=8, k=16)
        mapping = Mapping.from_factors(
            layer,
            temporal_factors=[{"P": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial_factors=[{}, {}, {}, {}, {"K": 4}, {}],
        )
        assert mapping_compute(mapping) == pytest.approx(math.log(4 * 8 * 4))

    def test_traffic_term_depends_on_permutation(self):
        from repro.mapping import Mapping

        # Asymmetric bounds (small P, large K) make the permutation matter:
        # iterating the small P dimension outermost re-transfers far less data
        # than iterating the large K dimension outermost.
        layer = Layer(p=4, c=1, k=16)

        def build(order):
            return Mapping.from_factors(
                layer,
                temporal_factors=[{}, {}, {}, {}, {"P": 4, "K": 16}, {}],
                permutations=[(), (), (), (), order, ()],
            )

        p_innermost = mapping_traffic(build(("P", "K")), ARCH)
        k_innermost = mapping_traffic(build(("K", "P")), ARCH)
        assert p_innermost > k_innermost

    def test_utilization_counts_only_onchip_levels(self):
        from repro.mapping import Mapping

        layer = Layer(k=16)
        all_outer = Mapping.from_factors(
            layer, temporal_factors=[{}, {}, {}, {}, {"K": 16}, {}]
        )
        all_inner = Mapping.from_factors(
            layer, temporal_factors=[{"K": 16}, {}, {}, {}, {}, {}]
        )
        assert mapping_utilization(all_inner, ARCH) > mapping_utilization(all_outer, ARCH)

    def test_breakdown_total_uses_weights(self):
        from repro.mapping import Mapping

        layer = Layer(k=4)
        mapping = Mapping.from_factors(layer, temporal_factors=[{"K": 4}, {}, {}, {}, {}, {}])
        weights = ObjectiveWeights(utilization=2.0, compute=3.0, traffic=0.5)
        breakdown = mapping_objective_breakdown(mapping, ARCH, weights)
        expected = -2.0 * breakdown.utilization + 3.0 * breakdown.compute + 0.5 * breakdown.traffic
        assert breakdown.total == pytest.approx(expected)


class TestObjectiveWeights:
    def test_scaled_replaces_selected_fields(self):
        weights = ObjectiveWeights().scaled(traffic=5.0)
        assert weights.traffic == 5.0
        assert weights.compute == ObjectiveWeights().compute
