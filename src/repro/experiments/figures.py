"""Generators for every figure of the paper's evaluation.

Each function returns plain data (lists of rows / dataclasses) and accepts a
scale knob so the same code serves quick CI-sized runs and full paper-sized
sweeps.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import permutations as iter_permutations

from repro.arch import Accelerator, large_buffers, pe_array_8x8, simba_like
from repro.arch.gpu import gpu_as_accelerator
from repro.baselines import TVMLikeTuner
from repro.core.gpu import CoSAGPUScheduler
from repro.core.objectives import ObjectiveWeights, mapping_objective_breakdown
from repro.api.comparison import (
    ComparisonConfig,
    SpeedupSummary,
    build_schedulers,
    compare_on_layer,
    compare_on_network,
    geometric_mean,
)
from repro.mapping.mapping import Mapping
from repro.mapping.space import MapSpace
from repro.model.cost import CostModel
from repro.noc.simulator import NoCSimulator
from repro.workloads.layer import Layer
from repro.workloads.networks import (
    NETWORK_DISPLAY_NAMES,
    figure1_layer,
    figure3_layer,
    figure4_layer,
    figure8_layer,
    workload_suite,
)


def _limited_suite(layers_per_network: int | None):
    """The four evaluated workloads, optionally truncated for quick runs."""
    suite = workload_suite()
    if layers_per_network is None:
        return suite
    return {name: layers[:layers_per_network] for name, layers in suite.items()}


# --------------------------------------------------------------------- Fig. 1
@dataclass
class HistogramResult:
    """Latency histogram of random valid schedules (Fig. 1)."""

    layer: str
    num_sampled: int
    num_valid: int
    latencies_mcycles: list[float] = field(default_factory=list)
    bin_edges_mcycles: tuple[float, ...] = (1.0, 2.0, 3.0)

    @property
    def bin_counts(self) -> list[int]:
        """Schedule counts per bin: <1, 1-2, 2-3 and 3+ MCycles (as in Fig. 1)."""
        counts = [0] * (len(self.bin_edges_mcycles) + 1)
        for value in self.latencies_mcycles:
            for i, edge in enumerate(self.bin_edges_mcycles):
                if value < edge:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        return counts

    @property
    def best_to_worst_ratio(self) -> float:
        """Spread between the best and worst valid schedule (7.2x in the paper)."""
        if not self.latencies_mcycles:
            return 0.0
        return max(self.latencies_mcycles) / min(self.latencies_mcycles)


def fig1_latency_histogram(
    accelerator: Accelerator | None = None,
    num_samples: int = 2000,
    seed: int = 0,
) -> HistogramResult:
    """Fig. 1: latency distribution of random valid schedules of a ResNet-50 layer."""
    accelerator = accelerator or simba_like()
    layer = figure1_layer()
    space = MapSpace(layer, accelerator)
    cost_model = CostModel(accelerator)
    rng = random.Random(seed)

    latencies = []
    valid = 0
    for _ in range(num_samples):
        mapping = space.random_mapping(rng)
        cost = cost_model.evaluate(mapping)
        if cost.valid:
            valid += 1
            latencies.append(cost.latency / 1e6)
    return HistogramResult(
        layer=layer.name,
        num_sampled=num_samples,
        num_valid=valid,
        latencies_mcycles=latencies,
    )


# --------------------------------------------------------------------- Fig. 3
@dataclass
class PermutationPoint:
    """One bar of Fig. 3: a loop order at the global-buffer level and its latency."""

    order: str
    latency_mcycles: float


def _fig3_mapping(layer: Layer, order: tuple[str, ...]) -> Mapping:
    """Fixed tiling/spatial mapping of the Fig. 3 layer with a chosen GB loop order.

    The loop order is given outermost-first (the paper's ``CKP`` notation);
    the mapping stores loops innermost-first, hence the reversal.
    """
    innermost_first = tuple(reversed(order))
    return Mapping.from_factors(
        layer,
        temporal_factors=[
            {"R": 3, "S": 3, "Q": 8},
            {"C": 2, "K": 8},
            {},
            {},
            {"C": 4, "K": 8, "P": 8},
            {},
        ],
        spatial_factors=[{"C": 4}, {}, {}, {}, {"K": 16}, {}],
        permutations=[(), (), (), (), innermost_first, ()],
    )


def fig3_permutation_sweep(accelerator: Accelerator | None = None) -> list[PermutationPoint]:
    """Fig. 3: impact of the global-buffer loop permutation (C, K, P orders)."""
    accelerator = accelerator or simba_like()
    layer = figure3_layer()
    cost_model = CostModel(accelerator)
    points = []
    for order in iter_permutations(("C", "K", "P")):
        mapping = _fig3_mapping(layer, order)
        cost = cost_model.evaluate(mapping)
        latency = cost.latency if cost.valid else float("inf")
        points.append(PermutationPoint(order="".join(order), latency_mcycles=latency / 1e6))
    return points


# --------------------------------------------------------------------- Fig. 4
@dataclass
class SpatialPoint:
    """One bar of Fig. 4: a spatial/temporal split and its simulated latency."""

    label: str
    spatial: dict[str, int]
    temporal: dict[str, int]
    latency_mcycles: float


def _fig4_mapping(layer: Layer, spatial_split: dict[str, int]) -> Mapping:
    """Fixed mapping of the Fig. 4 layer with the studied P/C/K factors split
    between spatial and temporal execution at the global-buffer level."""
    study = {"P": 4, "C": 4, "K": 4}
    gb_temporal = {dim: study[dim] // spatial_split.get(dim, 1) for dim in study}
    # The K factors not under study iterate at the global-buffer level so the
    # per-PE tiles (and therefore the study's traffic patterns) stay fixed.
    gb_temporal["K"] = gb_temporal.get("K", 1) * 32
    return Mapping.from_factors(
        layer,
        temporal_factors=[
            {},
            {"Q": 4},
            {"C": 8},
            {"P": 4, "Q": 4},
            gb_temporal,
            {},
        ],
        spatial_factors=[{"C": 8, "K": 8}, {}, {}, {}, dict(spatial_split), {}],
    )


def fig4_spatial_sweep(accelerator: Accelerator | None = None) -> list[SpatialPoint]:
    """Fig. 4: impact of the spatial-mapping choice, evaluated on the NoC simulator."""
    accelerator = accelerator or simba_like()
    layer = figure4_layer()
    simulator = NoCSimulator(accelerator)
    cost_model = CostModel(accelerator)
    num_pes = accelerator.num_pes

    points = []
    for sp in (1, 2, 4):
        for sc in (1, 2, 4):
            for sk in (1, 2, 4):
                if sp * sc * sk > num_pes:
                    continue
                spatial = {d: f for d, f in (("P", sp), ("C", sc), ("K", sk)) if f > 1}
                mapping = _fig4_mapping(layer, spatial)
                if not cost_model.evaluate(mapping).valid:
                    continue
                latency = simulator.simulate(mapping).latency
                temporal = {d: 4 // spatial.get(d, 1) for d in ("P", "C", "K")}
                label_s = "".join(f"{d}{f}" for d, f in spatial.items()) or "-"
                label_t = "".join(f"{d}{f}" for d, f in temporal.items() if f > 1) or "-"
                points.append(
                    SpatialPoint(
                        label=f"s:{label_s},t:{label_t}",
                        spatial=spatial,
                        temporal=temporal,
                        latency_mcycles=latency / 1e6,
                    )
                )
    points.sort(key=lambda p: -p.latency_mcycles)
    return points


# --------------------------------------------------- Fig. 6 / 7 / 9 / 10 sweeps
def fig6_timeloop_speedup(
    accelerator: Accelerator | None = None,
    layers_per_network: int | None = 6,
    seed: int = 0,
) -> list[SpeedupSummary]:
    """Fig. 6: per-network speedups over Random on the analytical (Timeloop) platform."""
    accelerator = accelerator or simba_like()
    config = ComparisonConfig(accelerator=accelerator, platform="timeloop", seed=seed)
    return [
        compare_on_network(NETWORK_DISPLAY_NAMES[name], layers, config)
        for name, layers in _limited_suite(layers_per_network).items()
    ]


def fig7_energy_improvement(
    accelerator: Accelerator | None = None,
    layers_per_network: int | None = 4,
    seed: int = 0,
) -> list[SpeedupSummary]:
    """Fig. 7: per-network total-energy improvement over Random (energy objective)."""
    accelerator = accelerator or simba_like()
    config = ComparisonConfig(
        accelerator=accelerator, platform="timeloop", metric="energy", seed=seed
    )
    return [
        compare_on_network(NETWORK_DISPLAY_NAMES[name], layers, config)
        for name, layers in _limited_suite(layers_per_network).items()
    ]


@dataclass
class ObjectiveRow:
    """One group of bars in Fig. 8: the objective terms of one scheduler's mapping."""

    scheduler: str
    weighted_utilization: float
    weighted_compute: float
    weighted_traffic: float
    total: float


def fig8_objective_breakdown(
    accelerator: Accelerator | None = None,
    weights: ObjectiveWeights | None = None,
    seed: int = 0,
) -> list[ObjectiveRow]:
    """Fig. 8: CoSA objective values of the Random / Hybrid / CoSA schedules of
    ResNet-50 layer 3_7_512_512_1."""
    accelerator = accelerator or simba_like()
    weights = weights or ObjectiveWeights()
    layer = figure8_layer()
    config = ComparisonConfig(accelerator=accelerator, seed=seed, cosa_weights=weights)
    random_scheduler, hybrid_scheduler, cosa_scheduler = build_schedulers(config)

    rows = []
    for name, mapping in (
        ("Random", random_scheduler.schedule(layer).mapping),
        ("Timeloop Hybrid", hybrid_scheduler.schedule(layer).mapping),
        ("CoSA", cosa_scheduler.schedule(layer).mapping),
    ):
        breakdown = mapping_objective_breakdown(mapping, accelerator, weights)
        rows.append(
            ObjectiveRow(
                scheduler=name,
                weighted_utilization=weights.utilization * breakdown.utilization,
                weighted_compute=weights.compute * breakdown.compute,
                weighted_traffic=weights.traffic * breakdown.traffic,
                total=breakdown.total,
            )
        )
    return rows


def fig9_architecture_sweep(
    layers_per_network: int | None = 4,
    seed: int = 0,
) -> dict[str, list[SpeedupSummary]]:
    """Fig. 9: geomean speedups on the 8x8-PE and enlarged-buffer architectures."""
    results = {}
    for label, accelerator in (("8x8 PEs", pe_array_8x8()), ("Larger Buffers", large_buffers())):
        config = ComparisonConfig(accelerator=accelerator, platform="timeloop", seed=seed)
        results[label] = [
            compare_on_network(NETWORK_DISPLAY_NAMES[name], layers, config)
            for name, layers in _limited_suite(layers_per_network).items()
        ]
    return results


def fig10_noc_speedup(
    accelerator: Accelerator | None = None,
    layers_per_network: int | None = 4,
    seed: int = 0,
) -> list[SpeedupSummary]:
    """Fig. 10: per-network speedups over Random evaluated on the NoC simulator."""
    accelerator = accelerator or simba_like()
    config = ComparisonConfig(accelerator=accelerator, platform="noc", seed=seed)
    return [
        compare_on_network(NETWORK_DISPLAY_NAMES[name], layers, config)
        for name, layers in _limited_suite(layers_per_network).items()
    ]


# -------------------------------------------------------------------- Fig. 11
@dataclass
class GPULayerResult:
    """One bar of Fig. 11: TVM-baseline vs CoSA latency on the GPU model."""

    layer: str
    tvm_latency: float
    cosa_latency: float
    tvm_time_seconds: float
    cosa_time_seconds: float

    @property
    def speedup(self) -> float:
        """CoSA speedup over the TVM-like tuner."""
        if self.cosa_latency <= 0:
            return 0.0
        return self.tvm_latency / self.cosa_latency


@dataclass
class GPUComparison:
    """Fig. 11 summary."""

    rows: list[GPULayerResult] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> float:
        return geometric_mean(r.speedup for r in self.rows)

    @property
    def time_to_solution_ratio(self) -> float:
        """How much faster CoSA reaches a schedule than the iterative tuner."""
        cosa = sum(r.cosa_time_seconds for r in self.rows)
        tvm = sum(r.tvm_time_seconds for r in self.rows)
        if cosa <= 0:
            return 0.0
        return tvm / cosa


def fig11_gpu_comparison(
    num_layers: int | None = 6,
    tvm_trials: int = 50,
    seed: int = 0,
) -> GPUComparison:
    """Fig. 11: CoSA-GPU vs a TVM-like iterative tuner on ResNet-50 layers."""
    gpu_accelerator = gpu_as_accelerator()
    cost_model = CostModel(gpu_accelerator)
    tuner = TVMLikeTuner(gpu_accelerator, trials=tvm_trials, seed=seed)
    cosa = CoSAGPUScheduler()

    layers = workload_suite()["resnet50"]
    if num_layers is not None:
        layers = layers[:num_layers]

    comparison = GPUComparison()
    for layer in layers:
        tvm_result = tuner.schedule(layer)
        start = time.perf_counter()
        cosa_result = cosa.schedule(layer)
        cosa_time = time.perf_counter() - start
        cosa_cost = cost_model.evaluate(cosa_result.mapping)
        comparison.rows.append(
            GPULayerResult(
                layer=layer.name,
                tvm_latency=tvm_result.cost.latency if tvm_result.succeeded else float("inf"),
                cosa_latency=cosa_cost.latency if cosa_cost.valid else float("inf"),
                tvm_time_seconds=tvm_result.elapsed_seconds,
                cosa_time_seconds=cosa_time,
            )
        )
    return comparison
