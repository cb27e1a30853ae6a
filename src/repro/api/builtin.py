"""Built-in registrations for the experiment axes.

Importing :mod:`repro.api` loads this module once, populating the
registries with everything the repository ships: the four spatial /
GPU architecture presets, the evaluated workloads (the paper's four DNNs
plus the transformer-block presets), the six schedulers (CoSA, the four
search baselines, CoSA-GPU), the two evaluation platforms, the
tensor-problem factories (conv, matmul, depthwise/grouped conv,
attention, softmax, bn-relu) and the fusion-group presets (attention
chains, conv-bn-relu, group-aware transformer blocks).  Heavy
dependencies (scipy via the MIP backend, the NoC simulator) are imported
inside the factories, so ``import repro.api`` stays light.

Plugins follow the same pattern from any module::

    from repro.api import register_scheduler

    @register_scheduler("my-tuner", description="...")
    def _make_my_tuner(accelerator, *, seed=0, **options):
        return MyTuner(accelerator, seed=seed, **options)

Scheduler factories receive the resolved accelerator plus the spec's
options; :func:`repro.api.runner.run` additionally offers the engine-level
search knobs (``seed``, ``eval_batch_size``, ``time_budget_seconds``) to
factories whose signature accepts them.
"""

from __future__ import annotations

from repro.api.registry import (
    architectures,
    fusion_groups,
    platforms,
    problems,
    schedulers,
    workloads,
)

# ----------------------------------------------------------------- schedulers


@schedulers.register("cosa", description="one-shot constrained-optimization (MIP) scheduler")
def _make_cosa(accelerator, *, weights=None, backend=None, capacity_fraction=None):
    from repro.core.scheduler import CoSAScheduler

    return CoSAScheduler(
        accelerator, weights=weights, backend=backend, capacity_fraction=capacity_fraction
    )


@schedulers.register("random", description="best of N random valid mappings (Random 5x baseline)")
def _make_random(accelerator, **options):
    from repro.baselines.random_search import RandomScheduler

    return RandomScheduler(accelerator, **options)


@schedulers.register("hybrid", description="Timeloop-style hybrid random/pruned mapper")
def _make_hybrid(accelerator, **options):
    from repro.baselines.timeloop_hybrid import TimeloopHybridScheduler

    return TimeloopHybridScheduler(accelerator, **options)


@schedulers.register("tvm", description="TVM-like iterative feedback-driven tuner")
def _make_tvm(accelerator, **options):
    from repro.baselines.tvm_like import TVMLikeTuner

    return TVMLikeTuner(accelerator, **options)


@schedulers.register(
    "local-search",
    description="lockstep move-based local search with batched scoring and DDFW-style weights",
)
def _make_local_search(accelerator, **options):
    from repro.baselines.local_search import LocalSearchScheduler

    return LocalSearchScheduler(accelerator, **options)


@schedulers.register(
    "gpu",
    description="CoSA-GPU: the Sec. V-D GPU instantiation (pair with a 'gpu-*' architecture)",
)
def _make_gpu(accelerator, *, weights=None, backend=None):
    # CoSA-GPU derives its target from a GPUSpec (thread blocks as spatial
    # levels, shared memory / registers as buffers), so it builds its own
    # accelerator; run() verifies it matches the spec's architecture pick.
    from repro.core.gpu import CoSAGPUScheduler

    return CoSAGPUScheduler(weights=weights, backend=backend)


# -------------------------------------------------------------- architectures


@architectures.register("baseline-4x4", description="Simba-like baseline of Table V (4x4 PE mesh)")
def _make_baseline():
    from repro.arch.presets import simba_like

    return simba_like()


@architectures.register("pe-8x8", description="Fig. 9a variant: 8x8 PEs, 2x bandwidth")
def _make_pe_8x8():
    from repro.arch.presets import pe_array_8x8

    return pe_array_8x8()


@architectures.register("large-buffers", description="Fig. 9b variant: enlarged buffers")
def _make_large_buffers():
    from repro.arch.presets import large_buffers

    return large_buffers()


@architectures.register("gpu-k80", description="K80-like GPU target of Sec. V-D")
def _make_gpu_k80():
    from repro.arch.presets import gpu_k80

    return gpu_k80()


# ------------------------------------------------------------------ platforms


@platforms.register("timeloop", description="analytical Timeloop-style cost model")
def _make_timeloop_platform(accelerator, metric: str = "latency"):
    from repro.model.cost import CostModel

    model = CostModel(accelerator)

    def evaluate(mapping) -> float:
        if mapping is None:
            return float("inf")
        cost = model.evaluate(mapping)
        if not cost.valid:
            return float("inf")
        if metric == "energy":
            return cost.energy
        if metric == "edp":
            return cost.edp
        return cost.latency

    return evaluate


@platforms.register("noc", description="transaction-level NoC simulator (always reports latency)")
def _make_noc_platform(accelerator, metric: str = "latency"):
    # The simulator models time, not energy: whatever ``metric`` the spec
    # requests (it steers the search baselines), the platform value is the
    # simulated latency — matching the paper's Fig. 10 methodology.
    from repro.model.cost import CostModel
    from repro.noc.simulator import NoCSimulator

    model = CostModel(accelerator)
    simulator = NoCSimulator(accelerator)

    def evaluate(mapping) -> float:
        if mapping is None:
            return float("inf")
        if not model.evaluate(mapping).valid:
            return float("inf")
        return simulator.simulate(mapping).latency

    return evaluate


# ------------------------------------------------------------------ workloads


@workloads.register("alexnet", description="AlexNet (8 unique layers)")
def _make_alexnet(batch: int = 1):
    from repro.workloads.networks import alexnet_layers

    return alexnet_layers(batch)


@workloads.register("resnet50", description="ResNet-50 (23 unique layers)")
def _make_resnet50(batch: int = 1):
    from repro.workloads.networks import resnet50_layers

    return resnet50_layers(batch)


@workloads.register("resnext50", description="ResNeXt-50 32x4d (25 unique layers)")
def _make_resnext50(batch: int = 1):
    from repro.workloads.networks import resnext50_layers

    return resnext50_layers(batch)


@workloads.register("deepbench", description="DeepBench convolution kernels (9 layers)")
def _make_deepbench(batch: int = 1):
    from repro.workloads.networks import deepbench_layers

    return deepbench_layers(batch)


@workloads.register(
    "bert-base-block",
    description="one BERT-base encoder block (matmul + attention problems, seq 128)",
)
def _make_bert_base_block(batch: int = 1):
    from repro.workloads.networks import bert_base_block_layers

    return bert_base_block_layers(batch)


@workloads.register(
    "gpt2-small-block",
    description="one GPT-2-small decoder block (matmul + attention problems, seq 1024)",
)
def _make_gpt2_small_block(batch: int = 1):
    from repro.workloads.networks import gpt2_small_block_layers

    return gpt2_small_block_layers(batch)


# ------------------------------------------------------------------- problems


@problems.register("conv", description="7-D convolution (R/S/P/Q/C/K bounds + stride)")
def _make_conv_problem(
    batch: int = 1,
    *,
    r: int,
    p: int,
    c: int,
    k: int,
    s: int | None = None,
    q: int | None = None,
    stride: int = 1,
    name: str = "",
):
    from repro.workloads.layer import Layer

    return Layer(
        r=r, s=s if s is not None else r,
        p=p, q=q if q is not None else p,
        c=c, k=k, n=batch, stride=stride, name=name,
    )


@problems.register("matmul", description="matrix multiplication C[m,n] = A[m,k] @ B[k,n]")
def _make_matmul_problem(batch: int = 1, *, m: int, n: int, k: int, name: str = ""):
    from repro.workloads.problem import matmul

    return matmul(m=m, n=n, k=k, batch=batch, name=name)


@problems.register("depthwise-conv", description="depthwise convolution (one filter per channel)")
def _make_depthwise_problem(
    batch: int = 1, *, r: int, p: int, c: int, stride: int = 1, name: str = ""
):
    from repro.workloads.problem import depthwise_conv

    return depthwise_conv(r=r, p=p, c=c, stride=stride, n=batch, name=name)


@problems.register("grouped-conv", description="grouped convolution (G independent C-to-K convs)")
def _make_grouped_problem(
    batch: int = 1, *, r: int, p: int, c: int, k: int, groups: int, stride: int = 1, name: str = ""
):
    from repro.workloads.problem import grouped_conv

    return grouped_conv(r=r, p=p, c=c, k=k, groups=groups, stride=stride, n=batch, name=name)


@problems.register("attention-qk", description="attention score contraction S = Q @ K^T")
def _make_attention_qk_problem(
    batch: int = 1, *, seq: int, heads: int, head_dim: int, kv_seq: int | None = None, name: str = ""
):
    from repro.workloads.problem import attention_qk

    return attention_qk(
        seq=seq, heads=heads, head_dim=head_dim, batch=batch, kv_seq=kv_seq, name=name
    )


@problems.register("attention-av", description="attention context contraction O = S @ V")
def _make_attention_av_problem(
    batch: int = 1, *, seq: int, heads: int, head_dim: int, kv_seq: int | None = None, name: str = ""
):
    from repro.workloads.problem import attention_av

    return attention_av(
        seq=seq, heads=heads, head_dim=head_dim, batch=batch, kv_seq=kv_seq, name=name
    )


@problems.register("softmax", description="row-wise softmax-scale over attention scores")
def _make_softmax_problem(
    batch: int = 1, *, seq: int, heads: int, kv_seq: int | None = None, name: str = ""
):
    from repro.workloads.problem import softmax

    return softmax(seq=seq, heads=heads, batch=batch, kv_seq=kv_seq, name=name)


@problems.register("bn-relu", description="fused batch-norm + ReLU over conv activations")
def _make_bn_relu_problem(
    batch: int = 1, *, p: int, k: int, q: int | None = None, name: str = ""
):
    from repro.workloads.problem import bn_relu

    return bn_relu(p=p, k=k, n=batch, q=q, name=name)


# -------------------------------------------------------------- fusion groups


@fusion_groups.register(
    "attention-block",
    description="fused QK -> softmax-scale -> AV chain (score matrices stay on-chip)",
)
def _make_attention_block_group(
    batch: int = 1, *, seq: int, heads: int, head_dim: int, kv_seq: int | None = None
):
    from repro.fusion.presets import attention_block

    return attention_block(
        seq=seq, heads=heads, head_dim=head_dim, batch=batch, kv_seq=kv_seq
    )


@fusion_groups.register(
    "conv-bn-relu",
    description="convolution -> fused batch-norm/ReLU (activations stay on-chip)",
)
def _make_conv_bn_relu_group(
    batch: int = 1, *, r: int, p: int, c: int, k: int, stride: int = 1
):
    from repro.fusion.presets import conv_bn_relu

    return conv_bn_relu(r=r, p=p, c=c, k=k, stride=stride, batch=batch)


@fusion_groups.register(
    "bert-base-block",
    description="group-aware BERT-base block: fused attention chain + singleton matmuls",
)
def _make_bert_base_block_plan(batch: int = 1, *, seq: int = 128):
    from repro.fusion.presets import bert_base_block_plan

    return bert_base_block_plan(batch=batch, seq=seq)


@fusion_groups.register(
    "gpt2-small-block",
    description="group-aware GPT-2-small block: fused attention chain + singleton matmuls",
)
def _make_gpt2_small_block_plan(batch: int = 1, *, seq: int = 1024):
    from repro.fusion.presets import gpt2_small_block_plan

    return gpt2_small_block_plan(batch=batch, seq=seq)
