"""Workload representation used throughout the CoSA reproduction.

The paper targets operators expressible as a nested loop over named
dimensions with per-tensor projections — the tensor-problem IR of
:mod:`repro.workloads.problem`.  The historic 7-D convolution nest
(``R, S, P, Q, C, K, N``) is its :data:`~repro.workloads.problem.CONV7`
instance; matmul, depthwise/grouped convolution and attention are first-class
problems of their own.

This subpackage provides:

* :mod:`~repro.workloads.problem` — the :class:`~repro.workloads.problem.TensorProblem`
  IR (named dimensions, projection tables, sliding-window couplings,
  reduction markers), the generic :class:`~repro.workloads.problem.ProblemLayer`
  operator and constructors for matmul / depthwise / grouped conv / attention.
* :class:`~repro.workloads.layer.Layer` — the conv layer specification plus
  derived quantities (input width/height, MAC counts, tensor volumes).
* :mod:`~repro.workloads.prime` — prime factorisation helpers used by the
  prime-factor-allocation formulation of CoSA.
* :mod:`~repro.workloads.networks` — the exact layer tables used in the
  paper's evaluation (AlexNet, ResNet-50, ResNeXt-50 32x4d, DeepBench) plus
  transformer-block presets built from matmul/attention problems.
"""

from repro.workloads.layer import Layer, TensorKind
from repro.workloads.problem import (
    CONV7,
    ProblemLayer,
    TensorProblem,
    Window,
    attention_av,
    attention_qk,
    available_problems,
    depthwise_conv,
    get_problem,
    grouped_conv,
    matmul,
    register_problem,
)
from repro.workloads.prime import (
    factorize,
    prime_factor_multiset,
    all_factorizations,
    divisors,
)
from repro.workloads.networks import (
    alexnet_layers,
    resnet50_layers,
    resnext50_layers,
    deepbench_layers,
    bert_base_block_layers,
    gpt2_small_block_layers,
    workload_suite,
    layer_from_name,
)

__all__ = [
    "Layer",
    "TensorKind",
    "TensorProblem",
    "ProblemLayer",
    "Window",
    "CONV7",
    "matmul",
    "depthwise_conv",
    "grouped_conv",
    "attention_qk",
    "attention_av",
    "register_problem",
    "get_problem",
    "available_problems",
    "factorize",
    "prime_factor_multiset",
    "all_factorizations",
    "divisors",
    "alexnet_layers",
    "resnet50_layers",
    "resnext50_layers",
    "deepbench_layers",
    "bert_base_block_layers",
    "gpt2_small_block_layers",
    "workload_suite",
    "layer_from_name",
]
