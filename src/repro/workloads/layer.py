"""DNN layer specification (the conv instantiation of the tensor-problem IR).

The CoSA problem space of the paper is the 7-dimensional loop nest

.. code-block:: text

    for r in [0, R): for s in [0, S):          # filter window
      for p in [0, P): for q in [0, Q):        # output spatial
        for c in [0, C):                       # input channels
          for k in [0, K):                     # output channels
            for n in [0, N):                   # batch
              Output[n,k,p,q] += Weight[k,c,r,s] * Input[n,c,p*stride+r,q*stride+s]

A :class:`Layer` captures the bounds plus the stride, and exposes the derived
quantities used by the cost models (input width/height, tensor volumes, MAC
count) and by the scheduler (per-dimension prime factors).

Since the tensor-problem IR landed (:mod:`repro.workloads.problem`) a layer
is one *instance* of the :data:`~repro.workloads.problem.CONV7` problem:
:attr:`Layer.problem` exposes the IR description, and the conv constants in
this module (:data:`DIMENSION_NAMES`, :data:`RELEVANCE`) are retained as the
conv-specific views of it for backward compatibility.  Non-conv operators
(matmul, depthwise/grouped conv, attention) are built directly as
:class:`~repro.workloads.problem.ProblemLayer` objects via the constructors
in :mod:`repro.workloads.problem` and flow through the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from math import prod

from repro.workloads.prime import factorize

#: Canonical ordering of layer dimensions used throughout the code base.
#: This matches the paper's ``R, S, P, Q, C, K, N`` convention.
DIMENSION_NAMES: tuple[str, ...] = ("R", "S", "P", "Q", "C", "K", "N")

#: Number of layer dimensions.
NUM_DIMS: int = len(DIMENSION_NAMES)


class TensorKind(IntEnum):
    """The three data tensors of a convolution/matmul operator.

    The integer values give the column index of the tensor in the constant
    relevance matrix ``A`` (Table IV in the paper).
    """

    WEIGHT = 0
    INPUT = 1
    OUTPUT = 2

    @property
    def short_name(self) -> str:
        """Two/three letter name used in the paper (W, IA, OA)."""
        return {TensorKind.WEIGHT: "W", TensorKind.INPUT: "IA", TensorKind.OUTPUT: "OA"}[self]


#: Dimension -> tensor relevance (matrix ``A`` of the paper, Table IV left).
#: ``RELEVANCE[dim][tensor]`` is 1 when the loop dimension indexes the tensor.
#: Input activations are indexed by P and Q through the sliding window
#: (W = (P-1)*stride + R), so P/Q/R/S are all input-relevant.
RELEVANCE: dict[str, dict[TensorKind, int]] = {
    "R": {TensorKind.WEIGHT: 1, TensorKind.INPUT: 1, TensorKind.OUTPUT: 0},
    "S": {TensorKind.WEIGHT: 1, TensorKind.INPUT: 1, TensorKind.OUTPUT: 0},
    "P": {TensorKind.WEIGHT: 0, TensorKind.INPUT: 1, TensorKind.OUTPUT: 1},
    "Q": {TensorKind.WEIGHT: 0, TensorKind.INPUT: 1, TensorKind.OUTPUT: 1},
    "C": {TensorKind.WEIGHT: 1, TensorKind.INPUT: 1, TensorKind.OUTPUT: 0},
    "K": {TensorKind.WEIGHT: 1, TensorKind.INPUT: 0, TensorKind.OUTPUT: 1},
    "N": {TensorKind.WEIGHT: 0, TensorKind.INPUT: 1, TensorKind.OUTPUT: 1},
}


def dimension_relevant_to(tensor: TensorKind) -> tuple[str, ...]:
    """Return the layer dimensions that index ``tensor``."""
    return tuple(dim for dim in DIMENSION_NAMES if RELEVANCE[dim][tensor])


@dataclass(frozen=True)
class Layer:
    """A single DNN operator (convolution or matrix multiplication).

    Attributes mirror the paper's naming:

    * ``r``/``s`` — filter width and height,
    * ``p``/``q`` — output width and height,
    * ``c`` — input channels,
    * ``k`` — output channels,
    * ``n`` — batch size,
    * ``stride`` — convolution stride (same in both spatial dimensions),
    * ``name`` — optional human-readable identifier.
    """

    r: int = 1
    s: int = 1
    p: int = 1
    q: int = 1
    c: int = 1
    k: int = 1
    n: int = 1
    stride: int = 1
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        for dim in DIMENSION_NAMES:
            value = getattr(self, dim.lower())
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"layer dimension {dim} must be a positive integer, got {value!r}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    # --------------------------------------------------------------- IR view
    @property
    def problem(self):
        """The tensor-problem IR description of a convolution (:data:`CONV7`)."""
        from repro.workloads.problem import CONV7

        return CONV7

    def key_dict(self) -> dict:
        """Content-hash payload for mapping-cache keys and serialization.

        Keeps the historic ``{r, s, p, q, c, k, n, stride}`` shape so cache
        keys and serialized conv mappings are unchanged by the IR refactor.
        """
        return {
            "r": self.r,
            "s": self.s,
            "p": self.p,
            "q": self.q,
            "c": self.c,
            "k": self.k,
            "n": self.n,
            "stride": self.stride,
        }

    # ------------------------------------------------------------------ sizes
    @property
    def bounds(self) -> dict[str, int]:
        """Loop bounds keyed by dimension name (R, S, P, Q, C, K, N)."""
        return {dim: getattr(self, dim.lower()) for dim in DIMENSION_NAMES}

    def bound(self, dim: str) -> int:
        """Loop bound of a single dimension (case-insensitive)."""
        key = dim.upper()
        if key not in DIMENSION_NAMES:
            raise KeyError(f"unknown layer dimension {dim!r}")
        return getattr(self, key.lower())

    @property
    def input_width(self) -> int:
        """Input activation width ``W = (P - 1) * stride + R``."""
        return (self.p - 1) * self.stride + self.r

    @property
    def input_height(self) -> int:
        """Input activation height ``H = (Q - 1) * stride + S``."""
        return (self.q - 1) * self.stride + self.s

    @property
    def macs(self) -> int:
        """Total number of multiply-accumulate operations."""
        return prod(self.bounds.values())

    def tensor_volume(self, tensor: TensorKind) -> int:
        """Number of elements of ``tensor`` touched by the layer.

        Evaluated through the :data:`CONV7` projection tables (integer
        arithmetic, so the values are exactly the historic closed forms:
        ``R*S*C*K`` weights, ``N*C*W*H`` inputs, ``N*K*P*Q`` outputs).
        """
        return int(self.problem.footprint(tensor, self.bounds, self.stride))

    @property
    def total_data_volume(self) -> int:
        """Sum of the three tensor volumes (elements)."""
        return sum(self.tensor_volume(t) for t in TensorKind)

    # ----------------------------------------------------------- factorisation
    def prime_factors(self) -> dict[str, list[int]]:
        """Prime factors of each loop bound, keyed by dimension name."""
        return {dim: factorize(bound) for dim, bound in self.bounds.items()}

    def num_prime_factors(self) -> int:
        """Total number of prime factors across every dimension."""
        return sum(len(v) for v in self.prime_factors().values())

    # ------------------------------------------------------------------ naming
    @property
    def canonical_name(self) -> str:
        """The paper's x-axis naming convention ``R_P_C_K_Stride``.

        The paper uses square layers (``S = R`` and ``Q = P``) for all
        evaluated workloads, so this 5-tuple identifies a layer uniquely.
        """
        return f"{self.r}_{self.p}_{self.c}_{self.k}_{self.stride}"

    @property
    def is_matmul(self) -> bool:
        """True when the layer degenerates to a matrix multiplication.

        Any 1x1, stride-1 convolution is a matmul of the (N*P*Q) x C input
        against the C x K weight matrix.
        """
        return self.r == 1 and self.s == 1 and self.stride == 1

    @property
    def is_fully_connected(self) -> bool:
        """True for 1x1 spatial output layers (FC / projection layers)."""
        return self.r == 1 and self.s == 1 and self.p == 1 and self.q == 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or self.canonical_name
        return (
            f"Layer({label}: R={self.r} S={self.s} P={self.p} Q={self.q} "
            f"C={self.c} K={self.k} N={self.n} stride={self.stride})"
        )


def conv_layer(
    r: int,
    p: int,
    c: int,
    k: int,
    stride: int = 1,
    n: int = 1,
    name: str = "",
) -> Layer:
    """Build a square convolution layer using the paper's ``R_P_C_K_Stride`` shorthand.

    ``S`` is set equal to ``R`` and ``Q`` equal to ``P`` as in every evaluated
    workload of the paper.
    """
    return Layer(r=r, s=r, p=p, q=p, c=c, k=k, n=n, stride=stride, name=name or f"{r}_{p}_{c}_{k}_{stride}")
