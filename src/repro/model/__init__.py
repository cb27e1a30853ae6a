"""Analytical performance and energy model (the Timeloop substitute).

The paper evaluates schedules on two platforms; the first is Timeloop's
analytical model.  This subpackage re-implements the same style of analysis:

* :mod:`repro.model.nest` — tile sizes, buffer occupancy and data-movement
  counts derived from the loop nest (reuse analysis),
* :mod:`repro.model.performance` — latency under the perfect
  double-buffering assumption (max of compute and per-level memory time),
* :mod:`repro.model.energy` — access-count x energy-per-access accounting,
* :mod:`repro.model.cost` — the :class:`CostModel` facade combining the
  above, used by every scheduler and experiment,
* :mod:`repro.model.batch` — the vectorized model: per-(problem, arch)
  kernels cached by content fingerprint, evaluating whole candidate batches
  (every search baseline, local search included, scores through it).
"""

from repro.model.nest import NestAnalysis, BoundaryFlow
from repro.model.performance import PerformanceModel, LatencyBreakdown
from repro.model.energy import EnergyModel, EnergyBreakdown
from repro.model.cost import CostModel, CostResult
from repro.model.batch import (
    BatchCostModel,
    BatchCostResult,
    CompiledKernel,
    MappingBatch,
    clear_kernel_cache,
    kernel_cache_info,
)

__all__ = [
    "NestAnalysis",
    "BoundaryFlow",
    "PerformanceModel",
    "LatencyBreakdown",
    "EnergyModel",
    "EnergyBreakdown",
    "CostModel",
    "CostResult",
    "BatchCostModel",
    "BatchCostResult",
    "MappingBatch",
    "CompiledKernel",
    "kernel_cache_info",
    "clear_kernel_cache",
]
