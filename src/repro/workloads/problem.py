"""Tensor-problem IR: einsum-style problem descriptions.

The paper's formulation is parameterized by two small constant matrices — the
dimension-to-tensor relevance matrix ``A`` and the level-to-tensor placement
matrix ``B`` (Table IV).  Everything CoSA and the analytical cost models need
to know about a *workload* is therefore:

* an ordered set of **named loop dimensions** with integer bounds,
* per data tensor, a **projection**: which dimensions index the tensor and
  how (a plain dimension, or a sliding-window coupling such as the conv
  input's ``W = (P - 1) * stride + R``),
* which dimensions are **reductions** (they do not index the output, so
  loops over them produce partial sums).

:class:`TensorProblem` captures exactly that.  The historic 7-D convolution
nest is one instance (:data:`CONV7`); matmul, depthwise / grouped
convolution and the two attention contractions are others, and every
subsystem — map-space sampling, the scalar and batched cost models, the CoSA
MIP, the search baselines, the engine and the service API — consumes the IR
instead of hardcoded conv constants.

Conventions
-----------
* Problems have exactly three data tensors, one per
  :class:`~repro.workloads.layer.TensorKind` role (weight-like operand,
  input-like operand, output).  The memory hierarchy binds buffers to those
  roles, so any three-tensor einsum maps onto the existing architectures.
* A projection is an ordered tuple of terms; a term is either a dimension
  name (``"C"``) or a :class:`Window` coupling two dimensions.  The tensor's
  footprint for given per-dimension tile factors is the product of the term
  extents, **in term order with left-associated multiplication** — the exact
  float-expression structure the batched cost model mirrors, which is what
  keeps conv results bit-for-bit identical to the pre-IR code.
* Reduction dimensions default to the dimensions that do not index the
  output tensor (for conv: R, S, C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from repro.workloads.prime import factorize
from repro.workloads.layer import TensorKind

__all__ = [
    "Window",
    "TensorProblem",
    "ProblemLayer",
    "CONV7",
    "MATMUL",
    "DEPTHWISE_CONV",
    "GROUPED_CONV",
    "ATTENTION_QK",
    "ATTENTION_AV",
    "SOFTMAX",
    "BN_RELU",
    "matmul",
    "depthwise_conv",
    "grouped_conv",
    "attention_qk",
    "attention_av",
    "softmax",
    "bn_relu",
    "register_problem",
    "get_problem",
    "available_problems",
]


@dataclass(frozen=True)
class Window:
    """Sliding-window projection term: ``extent = (f[outer] - 1) * stride + f[window]``.

    ``outer`` iterates output positions, ``window`` iterates the filter taps;
    the conv input activation is the canonical user (``W = (P-1)*stride + R``).
    """

    outer: str
    window: str

    def extent(self, f, stride):
        """Evaluate the term for per-dimension factors ``f`` (dict-like)."""
        return (f[self.outer] - 1) * stride + f[self.window]


#: A projection term: a dimension name or a sliding-window coupling.
ProjectionTerm = "str | Window"


@dataclass(frozen=True)
class TensorProblem:
    """An einsum-style tensor-contraction problem shape.

    Attributes
    ----------
    name:
        Stable identifier (registry key, cache keys, serialized mappings).
    dims:
        Ordered loop-dimension names.  The order is canonical: factor
        matrices, RNG draws and MIP variables all follow it.
    projections:
        One ordered term tuple per tensor, indexed by ``int(TensorKind)``
        (weight, input, output).
    reduction_dims:
        Dimensions whose loops produce partial sums.  Defaults to the
        dimensions not indexing the output.
    """

    name: str
    dims: tuple[str, ...]
    projections: tuple[tuple, ...]
    reduction_dims: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("a TensorProblem needs at least one dimension")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate dimension names in {self.dims}")
        if len(self.projections) != len(TensorKind):
            raise ValueError(
                f"expected {len(TensorKind)} projections (one per tensor), "
                f"got {len(self.projections)}"
            )
        known = set(self.dims)
        for tensor in TensorKind:
            terms = self.projections[int(tensor)]
            if not terms:
                raise ValueError(f"tensor {tensor.short_name} has an empty projection")
            for term in terms:
                used = (term.outer, term.window) if isinstance(term, Window) else (term,)
                for dim in used:
                    if dim not in known:
                        raise ValueError(
                            f"projection of {tensor.short_name} references unknown "
                            f"dimension {dim!r} (dims: {self.dims})"
                        )
        orphans = [d for d in self.dims if not any(self.relevance(d, t) for t in TensorKind)]
        if orphans:
            raise ValueError(f"dimension(s) {orphans} index no tensor")
        if not self.reduction_dims:
            object.__setattr__(
                self,
                "reduction_dims",
                tuple(d for d in self.dims if not self.relevance(d, TensorKind.OUTPUT)),
            )

    # -------------------------------------------------------------- relevance
    def projection(self, tensor: TensorKind) -> tuple:
        """The ordered projection terms of ``tensor``."""
        return self.projections[int(tensor)]

    def relevance(self, dim: str, tensor: TensorKind) -> bool:
        """``A[dim, tensor]``: True when ``dim`` indexes ``tensor``."""
        for term in self.projection(tensor):
            if isinstance(term, Window):
                if dim == term.outer or dim == term.window:
                    return True
            elif dim == term:
                return True
        return False

    def relevant_dims(self, tensor: TensorKind) -> tuple[str, ...]:
        """Dimensions indexing ``tensor``, in canonical dimension order."""
        return tuple(d for d in self.dims if self.relevance(d, tensor))

    def dim_index(self, dim: str) -> int:
        """Position of ``dim`` in the canonical dimension order."""
        return self.dims.index(dim)

    @property
    def num_dims(self) -> int:
        return len(self.dims)

    @property
    def uses_sliding_window(self) -> bool:
        """True when any projection couples dimensions through a window."""
        return any(
            isinstance(term, Window)
            for tensor in TensorKind
            for term in self.projection(tensor)
        )

    # -------------------------------------------------------------- footprint
    def footprint(self, tensor: TensorKind, factors, stride=1):
        """Footprint of ``tensor`` for per-dimension tile ``factors``.

        ``factors`` maps dimension name to an int, float or numpy array; the
        terms are multiplied left-associated in projection order so the float
        rounding of the batched model matches the scalar model exactly.
        """
        value = None
        for term in self.projection(tensor):
            extent = term.extent(factors, stride) if isinstance(term, Window) else factors[term]
            value = extent if value is None else value * extent
        return value

    def check_dims(self, names, where: str = "factors") -> None:
        """Raise ``KeyError`` when any of ``names`` is not a problem dimension."""
        unknown = [name for name in names if name not in self.dims]
        if unknown:
            raise KeyError(
                f"unknown {self.name} dimension(s) {', '.join(map(repr, unknown))} "
                f"in {where}; known dimensions: {', '.join(self.dims)}"
            )

    def layer(self, bounds: dict, stride: int = 1, name: str = "") -> "ProblemLayer":
        """Instantiate the problem with concrete loop ``bounds``."""
        self.check_dims(bounds, where="bounds")
        return ProblemLayer(
            problem=self,
            dim_bounds=tuple(int(bounds.get(dim, 1)) for dim in self.dims),
            stride=stride,
            name=name,
        )

    # -------------------------------------------------------------- identity
    def fingerprint(self) -> str:
        """Stable content digest of the problem structure.

        Keys the compiled-kernel cache (:mod:`repro.model.batch`) together
        with the accelerator fingerprint, so two equal problems registered
        under different objects share compiled kernels and a changed
        projection can never be served a stale kernel.  The problem is
        frozen, so the digest is computed once and memoized on the instance.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        from repro.digest import stable_digest

        payload = {
            "name": self.name,
            "dims": list(self.dims),
            "projections": [
                [
                    ["window", term.outer, term.window]
                    if isinstance(term, Window)
                    else term
                    for term in self.projection(tensor)
                ]
                for tensor in TensorKind
            ],
            "reduction_dims": list(self.reduction_dims),
        }
        digest = stable_digest(payload)
        object.__setattr__(self, "_fingerprint", digest)
        return digest


@dataclass(frozen=True)
class ProblemLayer:
    """One schedulable operator: a :class:`TensorProblem` with concrete bounds.

    Implements the same protocol as the historic conv
    :class:`~repro.workloads.layer.Layer` (``bounds``, ``bound``, ``macs``,
    ``tensor_volume``, ``prime_factors``, ``canonical_name``, ``stride``,
    value equality/hash for engine de-duplication), so every subsystem
    schedules it unchanged.
    """

    problem: TensorProblem
    dim_bounds: tuple[int, ...]
    stride: int = 1
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if len(self.dim_bounds) != len(self.problem.dims):
            raise ValueError(
                f"{self.problem.name} has {len(self.problem.dims)} dimensions, "
                f"got {len(self.dim_bounds)} bounds"
            )
        for dim, value in zip(self.problem.dims, self.dim_bounds):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"dimension {dim} must be a positive integer, got {value!r}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    # ------------------------------------------------------------------ sizes
    @property
    def bounds(self) -> dict[str, int]:
        """Loop bounds keyed by dimension name, in canonical order."""
        return dict(zip(self.problem.dims, self.dim_bounds))

    def bound(self, dim: str) -> int:
        """Loop bound of a single dimension (case-insensitive)."""
        key = dim.upper()
        if key not in self.problem.dims:
            raise KeyError(f"unknown {self.problem.name} dimension {dim!r}")
        return self.dim_bounds[self.problem.dims.index(key)]

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations (product of every bound)."""
        return prod(self.dim_bounds)

    def tensor_volume(self, tensor: TensorKind) -> int:
        """Number of elements of ``tensor`` touched by the layer."""
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
        """Stable shape identifier: problem name plus the bound vector."""
        dims = "x".join(str(b) for b in self.dim_bounds)
        suffix = f"_s{self.stride}" if self.stride != 1 else ""
        return f"{self.problem.name}_{dims}{suffix}"

    # -------------------------------------------------------------- identity
    def key_dict(self) -> dict:
        """Content-hash payload for mapping-cache keys and serialization."""
        return {
            "problem": self.problem.name,
            "bounds": {dim: bound for dim, bound in self.bounds.items()},
            "stride": self.stride,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or self.canonical_name
        dims = " ".join(f"{d}={b}" for d, b in self.bounds.items())
        return f"ProblemLayer({label}: {dims} stride={self.stride})"


# --------------------------------------------------------------------------- instances
#: The paper's 7-D convolution nest.  Term order matches the historic scalar
#: footprint formulas (weight R*S*C*K, input W*H*C*N, output P*Q*K*N) so
#: IR-derived results are bit-for-bit identical to the pre-IR code.
CONV7 = TensorProblem(
    name="conv7",
    dims=("R", "S", "P", "Q", "C", "K", "N"),
    projections=(
        ("R", "S", "C", "K"),                                   # weight
        (Window("P", "R"), Window("Q", "S"), "C", "N"),         # input
        ("P", "Q", "K", "N"),                                   # output
    ),
)

#: Matrix multiplication ``C[M, N] = sum_K A[M, K] @ B[K, N]`` with batch B.
MATMUL = TensorProblem(
    name="matmul",
    dims=("M", "N", "K", "B"),
    projections=(
        ("K", "N"),          # weight-like operand B
        ("M", "K", "B"),     # input-like operand A
        ("M", "N", "B"),     # output C
    ),
)

#: Depthwise convolution: one filter per channel, C indexes all three tensors.
DEPTHWISE_CONV = TensorProblem(
    name="depthwise-conv",
    dims=("R", "S", "P", "Q", "C", "N"),
    projections=(
        ("R", "S", "C"),                                        # weight
        (Window("P", "R"), Window("Q", "S"), "C", "N"),         # input
        ("P", "Q", "C", "N"),                                   # output
    ),
)

#: Grouped convolution: G independent C-to-K convolutions.
GROUPED_CONV = TensorProblem(
    name="grouped-conv",
    dims=("R", "S", "P", "Q", "C", "K", "G", "N"),
    projections=(
        ("R", "S", "C", "K", "G"),                              # weight
        (Window("P", "R"), Window("Q", "S"), "C", "G", "N"),    # input
        ("P", "Q", "K", "G", "N"),                              # output
    ),
)

#: Attention scores ``S[B, H, M, N] = sum_D Q[B, H, M, D] * K[B, H, N, D]``.
ATTENTION_QK = TensorProblem(
    name="attention-qk",
    dims=("M", "N", "D", "H", "B"),
    projections=(
        ("N", "D", "H", "B"),    # weight-like operand: keys K
        ("M", "D", "H", "B"),    # input-like operand: queries Q
        ("M", "N", "H", "B"),    # output: score matrix S
    ),
)

#: Attention context ``O[B, H, M, E] = sum_N S[B, H, M, N] * V[B, H, N, E]``.
ATTENTION_AV = TensorProblem(
    name="attention-av",
    dims=("M", "N", "E", "H", "B"),
    projections=(
        ("N", "E", "H", "B"),    # weight-like operand: values V
        ("M", "N", "H", "B"),    # input-like operand: scores S
        ("M", "E", "H", "B"),    # output: context O
    ),
)

#: Softmax-scale over attention scores ``P[B, H, M, N] = softmax_N(S[B, H, M, N])``.
#: Modelled as one op per element with a per-row statistics operand (running
#: max / normalizer, one entry per (M, H, B) row) in the weight-like slot, so
#: the three-tensor memory binding of the hierarchy applies unchanged.
SOFTMAX = TensorProblem(
    name="softmax",
    dims=("M", "N", "H", "B"),
    projections=(
        ("M", "H", "B"),         # weight-like operand: per-row max/sum statistics
        ("M", "N", "H", "B"),    # input: score matrix S
        ("M", "N", "H", "B"),    # output: probability matrix P
    ),
)

#: Fused batch-norm + ReLU ``O[N, K, P, Q] = relu(scale[K] * I[N, K, P, Q] + shift[K])``.
#: The per-channel scale/shift pair is the weight-like operand.
BN_RELU = TensorProblem(
    name="bn-relu",
    dims=("P", "Q", "K", "N"),
    projections=(
        ("K",),                  # weight-like operand: per-channel scale/shift
        ("P", "Q", "K", "N"),    # input activations
        ("P", "Q", "K", "N"),    # output activations
    ),
)


# --------------------------------------------------------------------------- registry
_PROBLEMS: dict[str, TensorProblem] = {}


def register_problem(problem: TensorProblem) -> TensorProblem:
    """Register ``problem`` for name-based lookup (serialization, spec files).

    Re-registering the same object is a no-op; a different problem under an
    existing name raises ``ValueError``.
    """
    existing = _PROBLEMS.get(problem.name)
    if existing is not None and existing != problem:
        raise ValueError(f"a different problem is already registered as {problem.name!r}")
    _PROBLEMS[problem.name] = problem
    return problem


def get_problem(name: str) -> TensorProblem:
    """The registered problem called ``name``."""
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; registered: {sorted(_PROBLEMS)}"
        ) from None


def available_problems() -> tuple[str, ...]:
    """Names of every registered problem, sorted."""
    return tuple(sorted(_PROBLEMS))


for _problem in (
    CONV7,
    MATMUL,
    DEPTHWISE_CONV,
    GROUPED_CONV,
    ATTENTION_QK,
    ATTENTION_AV,
    SOFTMAX,
    BN_RELU,
):
    register_problem(_problem)


# --------------------------------------------------------------------------- constructors
def matmul(m: int, n: int, k: int, batch: int = 1, name: str = "") -> ProblemLayer:
    """``C[m, n] = A[m, k] @ B[k, n]`` as a first-class matmul problem."""
    return MATMUL.layer(
        {"M": m, "N": n, "K": k, "B": batch},
        name=name or f"matmul_{m}x{k}x{n}",
    )


def depthwise_conv(
    r: int, p: int, c: int, stride: int = 1, n: int = 1, name: str = ""
) -> ProblemLayer:
    """Square depthwise convolution (``S = R``, ``Q = P``, one filter per channel)."""
    return DEPTHWISE_CONV.layer(
        {"R": r, "S": r, "P": p, "Q": p, "C": c, "N": n},
        stride=stride,
        name=name or f"dwconv_{r}_{p}_{c}_{stride}",
    )


def grouped_conv(
    r: int,
    p: int,
    c: int,
    k: int,
    groups: int,
    stride: int = 1,
    n: int = 1,
    name: str = "",
) -> ProblemLayer:
    """Square grouped convolution: ``groups`` independent ``c``-to-``k`` convs.

    ``c`` and ``k`` are the *per-group* channel counts (total channels are
    ``c * groups`` / ``k * groups``).
    """
    return GROUPED_CONV.layer(
        {"R": r, "S": r, "P": p, "Q": p, "C": c, "K": k, "G": groups, "N": n},
        stride=stride,
        name=name or f"gconv_{r}_{p}_{c}_{k}_g{groups}_{stride}",
    )


def attention_qk(
    seq: int, heads: int, head_dim: int, batch: int = 1, kv_seq: int | None = None, name: str = ""
) -> ProblemLayer:
    """Attention score contraction ``S = Q @ K^T`` over ``heads`` heads."""
    return ATTENTION_QK.layer(
        {"M": seq, "N": kv_seq or seq, "D": head_dim, "H": heads, "B": batch},
        name=name or f"attn_qk_{seq}x{kv_seq or seq}_h{heads}d{head_dim}",
    )


def attention_av(
    seq: int, heads: int, head_dim: int, batch: int = 1, kv_seq: int | None = None, name: str = ""
) -> ProblemLayer:
    """Attention context contraction ``O = softmax(S) @ V`` over ``heads`` heads."""
    return ATTENTION_AV.layer(
        {"M": seq, "N": kv_seq or seq, "E": head_dim, "H": heads, "B": batch},
        name=name or f"attn_av_{seq}x{kv_seq or seq}_h{heads}d{head_dim}",
    )


def softmax(
    seq: int, heads: int, batch: int = 1, kv_seq: int | None = None, name: str = ""
) -> ProblemLayer:
    """Softmax-scale over the attention score matrix, one op per element."""
    return SOFTMAX.layer(
        {"M": seq, "N": kv_seq or seq, "H": heads, "B": batch},
        name=name or f"softmax_{seq}x{kv_seq or seq}_h{heads}",
    )


def bn_relu(p: int, k: int, n: int = 1, q: int | None = None, name: str = "") -> ProblemLayer:
    """Fused batch-norm + ReLU over a ``[N, K, P, Q]`` activation tensor."""
    return BN_RELU.layer(
        {"P": p, "Q": q or p, "K": k, "N": n},
        name=name or f"bn_relu_{p}x{q or p}_k{k}",
    )
