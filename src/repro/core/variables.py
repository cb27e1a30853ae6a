"""Decision variables of the CoSA MIP.

The scheduling space is encoded as a prime-factor allocation problem
(Sec. III-B of the paper):

* the prime factors of every loop bound are grouped by (dimension, prime):
  each group is one :class:`PrimeFactor` carrying its multiplicity
  ``count`` (64 = 2^6 is one factor with count 6).  The factors of a group
  are interchangeable, so the formulation only decides *how many* of them
  go where,
* the integer matrix ``X`` holds, per factor and per (memory level,
  spatial/temporal) slot, that number ``n`` in ``[0, count]``; spatial
  slots are further capped at ``floor(log fanout / log prime)``.  Every
  CoSA expression is linear in ``log(prime) * n``, exactly as with one 0/1
  variable per prime.  Temporal slots exist at every level up to and
  including the NoC boundary (the global buffer); loops above that boundary
  are equivalent for every cost the models measure, so the redundant DRAM
  temporal slots are dropped to shrink the search space,
* the **permutation** of the NoC-boundary loops is modelled per *dimension*:
  rank binaries ``R[d, z]`` order the dimensions that own at least one
  NoC-boundary temporal factor.  Grouping the factors of one dimension next
  to each other never worsens the traffic objective (moving a factor of a
  dimension down next to that dimension's innermost factor keeps it
  at-or-outside every tensor's innermost relevant loop it was already
  outside of), so the dimension-level permutation is exact while being far
  smaller than a per-factor one,
* the running-OR variables ``Y`` (Eq. 9), the "outside" indicators
  ``G[v, d]`` and the per-(tensor, dimension) traffic contributions
  ``T[v, d]`` linearise the traffic-iteration term of Eq. 10.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.solver.expr import Variable
from repro.solver.model import MIPModel
from repro.workloads.layer import Layer, TensorKind
from repro.workloads.prime import factorize


@dataclass(frozen=True)
class PrimeFactor:
    """One distinct prime of one layer dimension and its multiplicity.

    Attributes
    ----------
    dim:
        Layer dimension name.
    value:
        The prime value.
    count:
        How many times ``value`` divides the dimension's bound.
    index:
        Global index across all factors (used to key variables).
    """

    dim: str
    value: int
    count: int
    index: int

    @property
    def log_value(self) -> float:
        """Natural logarithm of the prime (all CoSA expressions are in log space)."""
        return math.log(self.value)


class CoSAVariables:
    """Creates and indexes every decision variable of the formulation.

    Parameters
    ----------
    model:
        The :class:`~repro.solver.model.MIPModel` the variables are added to.
    layer:
        The layer being scheduled.
    accelerator:
        The target architecture (defines levels, fanouts, the NoC boundary).
    """

    def __init__(self, model: MIPModel, layer: Layer, accelerator: Accelerator):
        self.model = model
        self.layer = layer
        #: The tensor-problem IR the variables are enumerated from: its
        #: dimension order drives factor enumeration and its relevance matrix
        #: drives the traffic variables, so the formulation generalizes to
        #: any registered problem (matmul, depthwise, attention, ...).
        self.problem = layer.problem
        self.accelerator = accelerator
        self.num_levels = accelerator.num_memory_levels
        self.noc_level = accelerator.pe_level_index()
        self.spatial_fanouts: dict[int, int] = {
            i: accelerator.hierarchy[i].spatial_fanout
            for i in accelerator.hierarchy.spatial_levels()
        }
        #: Levels that may receive temporal loops (registers .. NoC boundary).
        self.temporal_levels: list[int] = list(range(self.noc_level + 1))

        self.factors: list[PrimeFactor] = self._enumerate_factors(layer)
        #: Dimensions that actually have factors to place (bound > 1).
        self.active_dims: list[str] = [
            dim for dim in self.problem.dims if layer.bound(dim) > 1
        ]
        #: Permutation rank slots (one per active dimension).
        self.num_ranks = max(len(self.active_dims), 1)
        #: Per-dimension upper bound on the log of its NoC-boundary loop bound.
        self.dim_log_bound: dict[str, float] = {
            dim: math.log(layer.bound(dim)) for dim in self.problem.dims
        }

        # X matrix, split into the temporal and the spatial halves.
        self.x_temporal: dict[tuple[int, int], Variable] = {}
        self.x_spatial: dict[tuple[int, int], Variable] = {}
        # Dimension-level permutation ranks and traffic auxiliaries.
        self.rank: dict[tuple[str, int], Variable] = {}
        self.y: dict[tuple[TensorKind, int], Variable] = {}
        self.outside: dict[tuple[TensorKind, str], Variable] = {}
        self.traffic_term: dict[tuple[TensorKind, str], Variable] = {}

        self._create_assignment_variables()
        self._create_permutation_variables()
        self._create_traffic_variables()

    # ----------------------------------------------------------------- factors
    @staticmethod
    def _enumerate_factors(layer: Layer) -> list[PrimeFactor]:
        factors: list[PrimeFactor] = []
        for dim in layer.problem.dims:
            for prime, count in sorted(Counter(factorize(layer.bound(dim))).items()):
                factors.append(PrimeFactor(dim=dim, value=prime, count=count, index=len(factors)))
        return factors

    @staticmethod
    def _spatial_cap(factor: PrimeFactor, fanout: int) -> int:
        """Most copies of ``factor`` one spatial level of ``fanout`` can hold."""
        cap = 0
        while cap < factor.count and factor.value ** (cap + 1) <= fanout:
            cap += 1
        return cap

    # --------------------------------------------------------------- variables
    def _create_assignment_variables(self) -> None:
        for factor in self.factors:
            for level in self.temporal_levels:
                name = f"X_t[{factor.dim}={factor.value}^{factor.count},L{level}]"
                self.x_temporal[(factor.index, level)] = self.model.add_integer(
                    name, upper=factor.count
                )
            for level, fanout in self.spatial_fanouts.items():
                cap = self._spatial_cap(factor, fanout)
                if cap == 0:
                    continue
                name = f"X_s[{factor.dim}={factor.value}^{factor.count},L{level}]"
                self.x_spatial[(factor.index, level)] = self.model.add_integer(name, upper=cap)

    def _create_permutation_variables(self) -> None:
        for dim in self.active_dims:
            for slot in range(self.num_ranks):
                self.rank[(dim, slot)] = self.model.add_binary(f"rank[{dim},z{slot}]")

    def _create_traffic_variables(self) -> None:
        for tensor in TensorKind:
            for slot in range(self.num_ranks):
                self.y[(tensor, slot)] = self.model.add_continuous(
                    f"Y[{tensor.short_name},z{slot}]", lower=0.0, upper=1.0
                )
            for dim in self.active_dims:
                self.outside[(tensor, dim)] = self.model.add_binary(
                    f"G[{tensor.short_name},{dim}]"
                )
                self.traffic_term[(tensor, dim)] = self.model.add_continuous(
                    f"T[{tensor.short_name},{dim}]",
                    lower=0.0,
                    upper=max(self.dim_log_bound[dim], 1e-9),
                )

    # ----------------------------------------------------------------- queries
    def assignment_vars(self, factor: PrimeFactor) -> list[Variable]:
        """Every (level, kind) multiplicity variable of ``factor``."""
        variables = [self.x_temporal[(factor.index, level)] for level in self.temporal_levels]
        variables += [
            self.x_spatial[(factor.index, level)]
            for level in self.spatial_fanouts
            if (factor.index, level) in self.x_spatial
        ]
        return variables

    def temporal_at(self, factor: PrimeFactor, level: int) -> Variable:
        """How many copies of ``factor`` are temporal loops at ``level``."""
        return self.x_temporal[(factor.index, level)]

    def spatial_at(self, factor: PrimeFactor, level: int) -> Variable | None:
        """How many copies of ``factor`` are spatial at ``level`` (``None`` if none fit)."""
        return self.x_spatial.get((factor.index, level))

    def factors_of_dim(self, dim: str) -> list[PrimeFactor]:
        """The distinct prime factors of layer dimension ``dim``."""
        return [f for f in self.factors if f.dim == dim]

    def outer_log_expression(self, dim: str):
        """Linear expression: log of the NoC-boundary temporal bound of ``dim``."""
        from repro.solver.expr import lin_sum

        return lin_sum(
            factor.log_value * self.temporal_at(factor, self.noc_level)
            for factor in self.factors_of_dim(dim)
        )

    @property
    def num_variables(self) -> int:
        """Total number of decision variables created."""
        return (
            len(self.x_temporal)
            + len(self.x_spatial)
            + len(self.rank)
            + len(self.y)
            + len(self.outside)
            + len(self.traffic_term)
        )
