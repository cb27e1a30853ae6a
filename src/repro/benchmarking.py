"""Shared core of the evaluation-throughput benchmark.

One measurement recipe serves both entry points — ``repro bench`` (the CLI
subcommand) and ``benchmarks/bench_eval.py`` (the CI-gated script): for every
layer of a workload preset, draw one fixed set of random candidates and time
the evaluation pipelines over identical inputs:

* **scalar** — one :class:`repro.model.cost.CostModel` call per mapping (the
  bit-exact reference oracle),
* **batched** — one :class:`repro.model.batch.BatchCostModel` pass over the
  draws (packing included in the timing; the per-(problem, arch) kernel
  build time is reported separately),
* **lockstep** — a fixed-budget :class:`~repro.baselines.local_search.LocalSearchScheduler`
  run, reported as scored candidates per second (reported, not gated).

Every timing doubles as a parity audit: batched results must match the
scalar oracle, and along a random move walk the kernel's unmasked
(raw) latency, energy and constraint-violation magnitudes — what local
search steers by — must equal the scalar models' exactly.  A speedup claim
is meaningless if the fast path disagrees with the oracle.
"""

from __future__ import annotations

import math
import random
import time

from repro.arch import simba_like
from repro.baselines.local_search import LocalSearchScheduler
from repro.mapping.moves import MappingState, propose_move
from repro.mapping.space import MapSpace
from repro.model import CostModel, EnergyModel, NestAnalysis, PerformanceModel
from repro.model.batch import BatchCostModel, MappingBatch, kernel_cache_info

#: Quick subset: the 3x3 conv layers plus the stem (covers small and large shapes).
QUICK_LAYERS = (
    "7_112_3_64_2",
    "3_56_64_64_1",
    "3_28_128_128_2",
    "3_14_256_256_1",
    "3_7_512_512_1",
    "1_7_2048_512_1",
)

#: Workload presets accepted by ``repro bench`` / ``preset_layers``.
PRESETS = ("quick", "resnet50", "transformer")

#: The fused-group throughput preset (``repro bench fusion``) — benchmarks
#: group-tiling evaluation rather than per-layer mapping evaluation, so it
#: lives beside :data:`PRESETS` instead of inside ``preset_layers``.
FUSION_PRESET = "fusion"

#: Every preset name the bench CLI accepts.
ALL_PRESETS = PRESETS + (FUSION_PRESET,)

#: Tolerance of the scalar-vs-batched parity audit (the raw view is compared
#: exactly, not against this).
PARITY_TOLERANCE = 1e-9

#: Evaluation budget of the timed local-search run per layer.
LOCKSTEP_BUDGET = 1024


def _transformer_layers():
    """Non-conv tensor problems tracked alongside the ResNet-50 conv layers:
    a BERT-style projection / FFN matmul and the two attention contractions."""
    from repro.workloads.problem import attention_av, attention_qk, matmul

    return [
        matmul(m=128, n=768, k=768, name="matmul_128x768x768"),
        matmul(m=128, n=3072, k=768, name="matmul_128x768x3072"),
        attention_qk(seq=128, heads=12, head_dim=64, name="attn_qk_128_h12d64"),
        attention_av(seq=128, heads=12, head_dim=64, name="attn_av_128_h12d64"),
    ]


def preset_layers(preset: str) -> list:
    """Resolve a named workload preset into its benchmark layers."""
    from repro.workloads import layer_from_name
    from repro.workloads.networks import RESNET50_LAYER_STRINGS

    if preset == "quick":
        return [layer_from_name(name) for name in QUICK_LAYERS] + _transformer_layers()
    if preset == "resnet50":
        layers = [layer_from_name(name) for name in RESNET50_LAYER_STRINGS]
        return layers + _transformer_layers()
    if preset == "transformer":
        return _transformer_layers()
    raise ValueError(f"unknown bench preset {preset!r}; expected one of {PRESETS}")


def scalar_raw_view(mapping, arch) -> tuple:
    """The scalar models' ``(latency, energy, capacity, spatial)`` raw view.

    Latency and energy come from :class:`PerformanceModel` and
    :class:`EnergyModel` on one :class:`NestAnalysis`, unmasked (they are
    defined for invalid mappings too); the violation magnitudes are the
    normalized excesses of :meth:`NestAnalysis.buffer_violations` and of the
    per-level spatial products over the fanouts, summed in level order.
    """
    analysis = NestAnalysis(mapping, arch)
    latency = PerformanceModel(arch).evaluate(mapping, analysis).latency
    energy = EnergyModel(arch).evaluate(mapping, analysis).total
    capacity = 0.0
    for _, used, limit in analysis.buffer_violations():
        capacity += (used - limit) / limit
    spatial = 0.0
    for index, level in enumerate(arch.hierarchy):
        product = mapping.spatial_product_at(index)
        if product > level.spatial_fanout:
            spatial += (product - level.spatial_fanout) / level.spatial_fanout
    return latency, energy, capacity, spatial


def raw_view_mismatches(kernel, space: MapSpace, draws, valid, seed: int, num_moves: int) -> tuple:
    """Audit the kernel's raw view along a random move walk: ``(mismatches, states)``.

    The walk starts at the first valid draw (else draw 0) and commits every
    proposed move, so it crosses invalid states too; all visited states are
    scored in one kernel call and compared with :func:`scalar_raw_view`
    using ``==``.
    """
    seed_index = next((i for i in range(len(draws)) if valid[i]), 0)
    state = MappingState.from_draws(draws, seed_index)
    fanouts = space.spatial_fanouts
    rng = random.Random(seed + 1)
    mappings = [state.to_mapping()]
    for _ in range(num_moves):
        move = propose_move(state, fanouts, rng)
        if move is None:
            break
        state.apply(move)
        mappings.append(state.to_mapping())
    detail = kernel.evaluate_detail(MappingBatch.from_mappings(mappings))
    capacity, spatial = kernel.violation_magnitudes(detail)
    mismatches = 0
    for i, mapping in enumerate(mappings):
        actual = (detail.raw_latency[i], detail.raw_energy[i], capacity[i], spatial[i])
        mismatches += actual != scalar_raw_view(mapping, kernel.accelerator)
    return mismatches, len(mappings)


def bench_lockstep(arch, layer, seed: int) -> float:
    """Scored candidates per second of a :data:`LOCKSTEP_BUDGET` local search."""
    scheduler = LocalSearchScheduler(arch, seed=seed, max_evaluations=LOCKSTEP_BUDGET)
    start = time.perf_counter()
    result = scheduler.schedule(layer)
    return result.num_evaluated / (time.perf_counter() - start)


def bench_layer(arch, layer, samples: int, seed: int, num_moves: int = 96) -> dict:
    """Time all evaluation pipelines over identical candidates of one layer."""
    space = MapSpace(layer, arch)
    draws = space.sample_batch(samples, random.Random(seed))
    mappings = [draws.materialize(i) for i in range(samples)]

    scalar_model = CostModel(arch)
    start = time.perf_counter()
    scalar_results = [scalar_model.evaluate(m) for m in mappings]
    scalar_seconds = time.perf_counter() - start

    batch_model = BatchCostModel(arch)
    misses_before = kernel_cache_info()["misses"]
    kernel = batch_model.kernel_for(layer.problem)
    build_seconds = (
        kernel.build_seconds if kernel_cache_info()["misses"] > misses_before else 0.0
    )
    start = time.perf_counter()
    batch_result = batch_model.evaluate_draws(draws)
    batched_seconds = time.perf_counter() - start

    # Parity audit alongside the timings: the speedups are meaningless if
    # the fast path disagrees with the oracle.
    max_rel = 0.0
    mismatches = 0
    for i, cost in enumerate(scalar_results):
        if cost.valid != bool(batch_result.valid[i]):
            mismatches += 1
            continue
        if cost.valid:
            for s, b in ((cost.latency, batch_result.latency[i]),
                         (cost.energy, batch_result.energy[i])):
                rel = abs(s - b) / abs(s) if s else 0.0
                max_rel = max(max_rel, rel)

    row = {
        "layer": layer.name or layer.canonical_name,
        "problem": layer.problem.name,
        "samples": samples,
        "num_valid": int(batch_result.num_valid),
        "scalar_mappings_per_sec": samples / scalar_seconds,
        "batched_mappings_per_sec": samples / batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "kernel_build_seconds": build_seconds,
        "validity_mismatches": mismatches,
        "max_rel_diff": max_rel,
    }
    raw_mismatches, raw_states = raw_view_mismatches(
        kernel, space, draws, batch_result.valid, seed, num_moves
    )
    row["raw_view_mismatches"] = raw_mismatches
    row["raw_view_states"] = raw_states
    row["lockstep_moves_per_sec"] = bench_lockstep(arch, layer, seed)
    return row


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_report(
    layers,
    samples: int,
    seed: int,
    arch=None,
    num_moves: int = 96,
    label: str = "resnet50+transformer",
    quick: bool = False,
    progress=None,
) -> dict:
    """Benchmark every layer and aggregate the cross-layer summary.

    ``progress``, when given, is called with each finished row (the CLI and
    the script use it to print the per-layer table live).
    """
    arch = arch or simba_like()
    rows = []
    for layer in layers:
        row = bench_layer(arch, layer, samples, seed, num_moves=num_moves)
        rows.append(row)
        if progress is not None:
            progress(row)

    speedups = [row["speedup"] for row in rows]
    return {
        "benchmark": "batched-mapping-evaluation",
        "network": label,
        "arch": arch.name,
        "quick": quick,
        "samples_per_layer": samples,
        "seed": seed,
        "layers": rows,
        "geomean_speedup": _geomean(speedups),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "geomean_lockstep_moves_per_sec": _geomean(r["lockstep_moves_per_sec"] for r in rows),
        "kernel_build_seconds_total": sum(row["kernel_build_seconds"] for row in rows),
        "total_validity_mismatches": sum(r["validity_mismatches"] for r in rows),
        "total_raw_view_mismatches": sum(r["raw_view_mismatches"] for r in rows),
        "max_rel_diff": max(r["max_rel_diff"] for r in rows),
    }


def render_row(row: dict) -> str:
    """One fixed-width table line per benchmarked layer."""
    return (
        f"{row['layer']:<20} scalar {row['scalar_mappings_per_sec']:>9.0f}/s   "
        f"batched {row['batched_mappings_per_sec']:>10.0f}/s ({row['speedup']:5.1f}x)   "
        f"lockstep {row['lockstep_moves_per_sec']:>7.0f}/s   "
        f"valid {row['num_valid']}/{row['samples']}"
    )


def render_summary(report: dict) -> str:
    """The cross-layer summary block printed after the table."""
    return (
        f"geomean speedup over scalar: batched {report['geomean_speedup']:.1f}x "
        f"(build {report['kernel_build_seconds_total'] * 1e3:.1f} ms total); "
        f"lockstep local search {report['geomean_lockstep_moves_per_sec']:.0f} moves/s; "
        f"raw-view mismatches {report['total_raw_view_mismatches']} "
        f"over {len(report['layers'])} layers"
    )


def check_report(report: dict, check=None) -> list[str]:
    """Validate a finished report; returns human-readable failure strings.

    Parity failures — batched vs scalar, and any raw-view mismatch — are
    always fatal; the optional floor gates the batched geomean speedup.
    """
    failures = []
    if report["total_validity_mismatches"]:
        failures.append("PARITY FAILURE: batched validity disagrees with the scalar oracle")
    if report["max_rel_diff"] > PARITY_TOLERANCE:
        failures.append(
            f"PARITY FAILURE: max relative difference {report['max_rel_diff']:.2e} "
            f"exceeds the {PARITY_TOLERANCE:.0e} tolerance"
        )
    if report["total_raw_view_mismatches"]:
        failures.append(
            f"PARITY FAILURE: {report['total_raw_view_mismatches']} raw-view states "
            "disagree with the scalar models"
        )
    if check is not None and report["geomean_speedup"] < check:
        failures.append(
            f"speedup check failed: geomean {report['geomean_speedup']:.1f}x < {check}x"
        )
    return failures


# ---------------------------------------------------------------------------
# Fused-group evaluation throughput (``repro bench fusion``)
# ---------------------------------------------------------------------------

def fusion_bench_groups(quick: bool = False) -> list:
    """The fused groups benchmarked by the ``fusion`` preset.

    Both canonical chains plus the multi-operator attention group of each
    transformer-block preset (at a reduced sequence length so the scalar
    reference pass stays CI-sized).  ``quick`` keeps only the two canonical
    chains.
    """
    from repro.fusion.presets import (
        attention_block,
        bert_base_block_plan,
        conv_bn_relu,
        gpt2_small_block_plan,
    )

    groups = [
        attention_block(seq=64, heads=4, head_dim=32, prefix="bench_attn"),
        conv_bn_relu(r=3, p=14, c=32, k=32, prefix="bench_conv_bn"),
    ]
    if not quick:
        for plan in (bert_base_block_plan(seq=64), gpt2_small_block_plan(seq=64)):
            groups.extend(g for g in plan.groups if len(g.layers) > 1)
    return groups


def bench_fused_group(arch, group, samples: int, seed: int) -> dict:
    """Time scalar vs batched fused evaluation over identical candidates.

    Per group: draw ``samples`` random tilings of every operator (candidate
    ``b`` is row ``b`` of each operator's draws), then price all candidates
    through the scalar :class:`~repro.model.fused.FusedCostModel` loop (the
    oracle) and one :class:`~repro.model.fused_batch.BatchFusedCostModel`
    pass.  Packing (``FusedMappingBatch.from_candidates``) and the build of
    the per-operator kernels are timed separately as ``pack_seconds`` and
    ``fused_build_seconds``.  Scalar-vs-batched parity is audited per
    candidate.
    """
    from repro.model.fused import FusedCostModel
    from repro.model.fused_batch import BatchFusedCostModel, FusedMappingBatch

    rng = random.Random(seed)
    per_op_draws = [
        MapSpace(layer, arch).sample_batch(samples, rng) for layer in group.layers
    ]
    candidates = [
        [draws.materialize(i) for draws in per_op_draws] for i in range(samples)
    ]

    scalar_model = FusedCostModel(arch)
    start = time.perf_counter()
    scalar_results = [scalar_model.evaluate_group(group, c) for c in candidates]
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fused_batch = FusedMappingBatch.from_candidates(group, candidates)
    pack_seconds = time.perf_counter() - start

    batch_model = BatchFusedCostModel(arch)
    start = time.perf_counter()
    for layer in group.layers:
        batch_model.batch_model.kernel_for(layer.problem)
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batch_result = batch_model.evaluate_group(fused_batch)
    batched_seconds = time.perf_counter() - start

    max_rel = 0.0
    mismatches = 0
    for i, cost in enumerate(scalar_results):
        if cost.valid != bool(batch_result.valid[i]):
            mismatches += 1
            continue
        if cost.valid:
            for s, b in (
                (cost.latency, batch_result.latency[i]),
                (cost.energy, batch_result.energy[i]),
                (cost.dram_words, batch_result.dram_words[i]),
                (cost.dram_bytes, batch_result.dram_bytes[i]),
            ):
                rel = abs(s - b) / abs(s) if s else 0.0
                max_rel = max(max_rel, rel)

    return {
        "group": group.name,
        "num_ops": len(group.layers),
        "num_edges": len(group.edges),
        "samples": samples,
        "num_valid": int(batch_result.valid.sum()),
        "scalar_groups_per_sec": samples / scalar_seconds,
        "batched_groups_per_sec": samples / batched_seconds,
        "fused_speedup": scalar_seconds / batched_seconds,
        "pack_seconds": pack_seconds,
        "fused_build_seconds": build_seconds,
        "validity_mismatches": mismatches,
        "max_rel_diff": max_rel,
    }


def fused_bench_report(
    groups,
    samples: int,
    seed: int,
    arch=None,
    label: str = "fusion-presets",
    quick: bool = False,
    progress=None,
) -> dict:
    """Benchmark every fused group and aggregate the cross-group summary."""
    arch = arch or simba_like()
    rows = []
    for group in groups:
        row = bench_fused_group(arch, group, samples, seed)
        rows.append(row)
        if progress is not None:
            progress(row)

    speedups = [row["fused_speedup"] for row in rows]
    return {
        "benchmark": "batched-fused-group-evaluation",
        "network": label,
        "arch": arch.name,
        "quick": quick,
        "samples_per_group": samples,
        "seed": seed,
        "groups": rows,
        "geomean_fused_speedup": _geomean(speedups),
        "min_fused_speedup": min(speedups),
        "max_fused_speedup": max(speedups),
        "fused_build_seconds_total": sum(row["fused_build_seconds"] for row in rows),
        "total_validity_mismatches": sum(r["validity_mismatches"] for r in rows),
        "max_rel_diff": max(r["max_rel_diff"] for r in rows),
    }


def render_fused_row(row: dict) -> str:
    """One fixed-width table line per benchmarked fused group."""
    return (
        f"{row['group']:<32} scalar {row['scalar_groups_per_sec']:>8.0f}/s   "
        f"batched {row['batched_groups_per_sec']:>9.0f}/s ({row['fused_speedup']:5.1f}x)   "
        f"valid {row['num_valid']}/{row['samples']}"
    )


def render_fused_summary(report: dict) -> str:
    """The cross-group summary block printed after the fusion table."""
    return (
        f"geomean fused-eval speedup over scalar: batched "
        f"{report['geomean_fused_speedup']:.1f}x "
        f"(build {report['fused_build_seconds_total'] * 1e3:.1f} ms total) "
        f"over {len(report['groups'])} groups"
    )


def check_fused_report(report: dict, check=None) -> list[str]:
    """Validate a fused-eval report; returns human-readable failure strings.

    Parity failures are always fatal; the optional floor gates the batched
    fused-eval geomean speedup.
    """
    failures = []
    if report["total_validity_mismatches"]:
        failures.append(
            "PARITY FAILURE: batched fused validity disagrees with the scalar oracle"
        )
    if report["max_rel_diff"] > PARITY_TOLERANCE:
        failures.append(
            f"PARITY FAILURE: max relative difference {report['max_rel_diff']:.2e} "
            f"exceeds the {PARITY_TOLERANCE:.0e} tolerance"
        )
    if check is not None and report["geomean_fused_speedup"] < check:
        failures.append(
            "fused speedup check failed: geomean "
            f"{report['geomean_fused_speedup']:.1f}x < {check}x"
        )
    return failures
