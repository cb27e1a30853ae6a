"""Former home of the compiled evaluation kernels, kept as plain aliases.

The per-(problem, architecture) kernels now live in
:mod:`repro.model.batch` (:class:`~repro.model.batch.CompiledKernel`, served
through :class:`~repro.model.batch.BatchCostModel`) and the fused path in
:mod:`repro.model.fused_batch`.  The names below resolve to that one
implementation: perfbench (``perfbench/tracing.py`` and
``perfbench/worker.py``) looks them up here by name.
"""

from repro.model.batch import (
    BatchCostModel,
    CompiledKernel,
    clear_kernel_cache,
    kernel_cache_info,
)
from repro.model.fused_batch import BatchFusedCostModel

# Aliases for perfbench's tracing hooks, not second implementations.
CompiledCostModel = BatchCostModel
CompiledFusedKernel = BatchFusedCostModel

__all__ = [
    "CompiledKernel",
    "CompiledCostModel",
    "CompiledFusedKernel",
    "kernel_cache_info",
    "clear_kernel_cache",
]
