"""Vectorized (batched) mapping evaluation.

The search baselines burn their budget evaluating candidate mappings one at
a time: every candidate walks the scalar :class:`~repro.model.nest.NestAnalysis`
/ :class:`~repro.model.performance.PerformanceModel` /
:class:`~repro.model.energy.EnergyModel` pipeline, which is dominated by
Python interpreter overhead, not arithmetic.  This module evaluates a whole
**batch** of candidates for one (layer, architecture) pair with numpy array
operations instead:

* :class:`MappingBatch` — a batch of candidate mappings materialized as
  factor matrices (``temporal[B, L, D]``, ``spatial[B, L, D]``) plus the
  flattened, permutation-ordered temporal-loop sequence
  (``loop_level/loop_dim/loop_bound[B, M]``) that the stationarity rules
  need.  Batches are built from :class:`~repro.mapping.space.MappingDraws`
  (no :class:`~repro.mapping.mapping.Mapping` objects are created), from
  existing mappings, or row by row through :class:`BatchRows` (local
  search's moved states), with flat index columns and one fancy-index
  scatter per array.
* :class:`CompiledKernel` — the cost equations specialized once for one
  (tensor problem, architecture) pair: bounds gathers, relevance and
  projection tables, boundary-flow structure and energy coefficients are
  baked in, so an evaluation runs only array arithmetic.  Kernels are cached
  process wide under the ``(problem fingerprint, arch fingerprint)`` key.
* :class:`BatchCostModel` — validates and evaluates every candidate of a
  batch at once through the cached kernel of the batch's problem, producing
  per-candidate ``valid``/``latency``/``energy`` arrays.

Equivalence with the scalar model
---------------------------------
The scalar pipeline stays the **reference oracle**: this module re-states
the same equations over a batch axis and mirrors the scalar code's exact
floating-point expression structure (association order of products, order of
accumulation over boundary flows, tensors and levels) so results agree
bit-for-bit wherever intermediate values are exactly representable, and to
within 1e-9 relative everywhere else.  The one structural change is the
stationarity walk: instead of multiplying one loop position at a time, the
kernel reduces ``where(counted, bound, 1)`` along the loop axis, for every
boundary flow at once; every partial product is an integer below 2^53, so
the result is bit-identical whatever order the reduction takes.
``tests/test_batch_parity.py`` and ``tests/test_kernels.py`` lock the two
paths together; ``docs/cost_model.md`` maps every scalar method to its
vectorized counterpart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.workloads.layer import Layer, TensorKind
from repro.workloads.problem import TensorProblem

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapping.space import MappingDraws

#: Padding sentinel used in the flattened loop arrays.
PAD = -1


class MappingBatch:
    """A batch of candidate mappings of one layer, as factor matrices.

    Attributes
    ----------
    layer:
        The layer every candidate maps (one batch = one layer).
    size:
        Number of candidates ``B``.
    num_levels:
        Memory levels ``L`` covered by every candidate.
    temporal / spatial:
        ``float64[B, L, D]`` per-dimension factor products of the temporal /
        spatial loops at each level (missing dimensions are 1).
    loop_level / loop_dim / loop_bound:
        The flattened temporal-loop sequences, innermost level first and
        within a level in permutation order (innermost loop first), padded
        with :data:`PAD` / bound 1 to the widest candidate.  The stationarity
        rules (re-fetch factors, pending reductions) depend on this order,
        not just on the factor products.  Bound-1 loops are kept: a bound-1
        tensor-relevant loop still ends the stationary region of the walk.
    """

    def __init__(
        self,
        layer: Layer,
        temporal,
        spatial,
        loop_level,
        loop_dim,
        loop_bound,
        source=None,
    ):
        self.layer = layer
        self.temporal = temporal
        self.spatial = spatial
        self.loop_level = loop_level
        self.loop_dim = loop_dim
        self.loop_bound = loop_bound
        self._source = source
        self.size = int(temporal.shape[0])
        self.num_levels = int(temporal.shape[1])

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------ construction
    @classmethod
    def from_draws(cls, draws: "MappingDraws") -> "MappingBatch":
        """Pack sampled factor placements (no ``Mapping`` objects involved)."""
        rows = BatchRows(draws.layer, draws.num_levels)
        rows.add_draws(draws)
        return rows.batch(source=draws)

    @classmethod
    def from_mappings(cls, mappings: Sequence[Mapping]) -> "MappingBatch":
        """Pack existing mappings (all of one layer, with equal level counts)."""
        if not mappings:
            raise ValueError("cannot build a batch from zero mappings")
        layer = mappings[0].layer
        num_levels = mappings[0].num_levels
        rows = BatchRows(layer, num_levels)
        for mapping in mappings:
            if mapping.layer != layer:
                raise ValueError("all mappings of a batch must map the same layer")
            if mapping.num_levels != num_levels:
                raise ValueError("all mappings of a batch must cover the same levels")
            rows.add(
                [[(loop.dim, loop.bound) for loop in level.temporal] for level in mapping.levels],
                [[(loop.dim, loop.bound) for loop in level.spatial] for level in mapping.levels],
            )
        return rows.batch(source=list(mappings), merged=False)

    # ----------------------------------------------------------- materialization
    def mapping_at(self, index: int) -> Mapping:
        """Materialize candidate ``index`` as a full :class:`Mapping` object.

        Only the winning candidates of a search ever need this; the rest of
        the batch lives and dies as matrix rows.
        """
        if self._source is None:
            raise ValueError("this batch was built without a materialization source")
        if isinstance(self._source, list):
            return self._source[index]
        return self._source.materialize(index)


class BatchRows:
    """Candidates of one layer appended row by row as flat loop columns.

    The builder behind every :class:`MappingBatch`: draws, mappings and the
    mutable states of local search append their per-level ``(dim, bound)``
    loop lists one candidate at a time — each loop as a ``(slot, bound)``
    pair with ``slot = level * D + dim id``, in one flat list per loop kind,
    plus the candidate's loop counts; no per-candidate nested copies.
    :meth:`batch` then scatters the columns into the factor matrices and the
    flattened loop arrays with one fancy-index assignment per array.
    """

    __slots__ = ("layer", "num_levels", "_slots", "_temporal", "_spatial", "_counts")

    def __init__(self, layer: Layer, num_levels: int):
        self.layer = layer
        self.num_levels = num_levels
        dims = layer.problem.dims
        self._slots = [
            {dim: level * len(dims) + d for d, dim in enumerate(dims)}
            for level in range(num_levels)
        ]
        self._temporal: list[int] = []
        self._spatial: list[int] = []
        self._counts: list[int] = []  # temporal, spatial loop count per row

    def __len__(self) -> int:
        return len(self._counts) >> 1

    def add(self, temporal, spatial) -> None:
        """Append one candidate: ``temporal[level]`` / ``spatial[level]`` loop lists.

        Temporal loops are listed innermost first (permutation order); that
        order, level-major, becomes the candidate's flattened loop sequence.
        """
        for append, per_level in ((self._temporal.append, temporal), (self._spatial.append, spatial)):
            count = 0
            for slots, loops in zip(self._slots, per_level):
                for dim, bound in loops:
                    append(slots[dim])
                    append(bound)
                count += len(loops)
            self._counts.append(count)

    def add_draws(self, draws: "MappingDraws") -> None:
        """Append every draw of a sampled batch, in order."""
        for temporal, spatial in zip(draws.temporal, draws.spatial):
            self.add(temporal, spatial)

    def batch(self, source=None, merged: bool = True) -> MappingBatch:
        """Scatter the appended rows into a :class:`MappingBatch`.

        ``merged`` candidates hold at most one loop per (level, dimension),
        so the factor matrices take plain assignment; otherwise repeated
        loops are multiplied in order, like the scalar walk.
        """
        B, L, D = len(self), self.num_levels, len(self.layer.problem.dims)
        counts = np.array(self._counts, dtype=np.int64).reshape(B, 2)
        factors = np.ones((2, B, L * D), dtype=np.float64)  # temporal, spatial
        for kind, flat in enumerate((self._temporal, self._spatial)):
            slot, bound = np.array(flat, dtype=np.int64).reshape(-1, 2).T
            rows = np.repeat(np.arange(B), counts[:, kind])
            if merged:
                factors[kind, rows, slot] = bound
            else:
                np.multiply.at(factors[kind], (rows, slot), bound.astype(np.float64))
            if kind == 0:
                loops = rows, slot, bound
        # Rows are appended in order, so a loop's column in the flattened
        # sequence is its offset from the first loop of its row.
        rows, slot, bound = loops
        per_row = counts[:, 0]
        cols = np.arange(len(rows)) - (np.cumsum(per_row) - per_row)[rows]
        width = max(int(per_row.max(initial=0)), 1)
        loop_level = np.full((B, width), PAD, dtype=np.int64)
        loop_dim = loop_level.copy()
        loop_bound = np.ones((B, width), dtype=np.float64)
        loop_level[rows, cols] = slot // D
        loop_dim[rows, cols] = slot % D
        loop_bound[rows, cols] = bound
        tf, sf = factors.reshape(2, B, L, D)
        return MappingBatch(self.layer, tf, sf, loop_level, loop_dim, loop_bound, source=source)


@dataclass
class DramBoundaryFlowBatch:
    """Per-candidate DRAM-boundary flow of one tensor (arrays of length ``B``).

    The batched twin of the :class:`~repro.model.nest.BoundaryFlow` whose
    parent is DRAM: the same post-adjustment word counts the scalar analysis
    reports, per candidate.  ``child_level`` is a pure function of the
    architecture (the outermost on-chip level holding the tensor).
    """

    tensor: TensorKind
    child_level: int
    words_into_child: "np.ndarray"
    words_read_from_parent: "np.ndarray"
    words_written_to_parent: "np.ndarray"


@dataclass
class BatchEvalDetail:
    """A :class:`BatchCostResult` plus the intermediates behind it.

    Every array is a reference to data the evaluation already computed —
    requesting the detail view costs nothing extra.  The fused combiner
    (:class:`~repro.model.fused.FusedCostModel`'s batched twin) and the
    local-search guidance read these fields instead of a scalar
    :class:`~repro.model.nest.NestAnalysis`:

    * ``compute_cycles[B]`` — temporal iterations (latency's compute term),
    * ``words_served[B, L]`` — words served by each level to its children
      (the per-level memory-cycles numerator),
    * ``instances[B, L]`` — active instances per level,
    * ``used_bytes[B, L]`` — buffer occupancy per level (``utilization_bytes``),
    * ``spatial_per_level[B, L]`` — product of the spatial factors per level,
    * ``raw_latency`` / ``raw_energy`` / ``raw_utilization[B]`` — the
      unmasked values: what :class:`~repro.model.performance.PerformanceModel`
      and :class:`~repro.model.energy.EnergyModel` report for the mapping
      even when it is invalid (the masked ``result`` holds ``inf`` there),
    * ``dram_flows`` — the DRAM-bordering boundary flow of each tensor.
    """

    result: BatchCostResult
    compute_cycles: "np.ndarray"
    words_served: "np.ndarray"
    instances: "np.ndarray"
    used_bytes: "np.ndarray"
    spatial_per_level: "np.ndarray"
    raw_latency: "np.ndarray"
    raw_energy: "np.ndarray"
    raw_utilization: "np.ndarray"
    dram_flows: dict


@dataclass
class BatchCostResult:
    """Per-candidate evaluation results (arrays of length ``B``).

    Invalid candidates carry ``inf`` latency and energy so they lose every
    comparison, exactly like the scalar :class:`~repro.model.cost.CostResult`.
    """

    valid: "np.ndarray"
    latency: "np.ndarray"
    energy: "np.ndarray"
    utilization: "np.ndarray"

    @property
    def edp(self) -> "np.ndarray":
        """Energy-delay product per candidate (mirrors ``CostResult.edp``)."""
        return self.energy * self.latency

    def __len__(self) -> int:
        return int(self.valid.shape[0])

    @property
    def num_valid(self) -> int:
        """Number of valid candidates in the batch."""
        return int(self.valid.sum())

    def score(self, metric: str) -> "np.ndarray":
        """Scalar-to-minimise per candidate under ``metric`` (inf when invalid)."""
        if metric == "latency":
            return self.latency
        if metric == "energy":
            return self.energy
        if metric == "edp":
            return self.edp
        raise ValueError(f"unknown metric {metric!r}")


class CompiledKernel:
    """The cost equations of one (problem, architecture) pair.

    Built and cached by :meth:`BatchCostModel.kernel_for` (never directly)
    and immutable after construction: every problem- and
    architecture-dependent constant — bounds gathers, relevance tables,
    boundary-flow structure, energy coefficients — is baked in, so
    :meth:`evaluate` runs only array arithmetic over per-candidate data.
    """

    def __init__(self, problem: TensorProblem, accelerator: Accelerator):
        start = time.perf_counter()
        self.problem = problem
        self.accelerator = accelerator

        hierarchy = accelerator.hierarchy
        self.num_levels = len(hierarchy)
        self.dram_index = hierarchy.dram_index
        self.pe_level = accelerator.pe_level_index()

        # Problem tables: factor-matrix column of each dimension, the
        # bool[D, T] relevance matrix of the projections, the per-tensor
        # irrelevant-dimension masks of the multicast / spatial-reduction
        # factors, and the reduction-dimension mask.
        self.dim_index = {dim: i for i, dim in enumerate(problem.dims)}
        self.num_dims = len(problem.dims)
        rel = np.zeros((self.num_dims, len(TensorKind)), dtype=bool)
        for dim, d in self.dim_index.items():
            for tensor in TensorKind:
                rel[d, int(tensor)] = problem.relevance(dim, tensor)
        self._rel = rel
        self._irrelevant_dims = {tensor: ~rel[:, int(tensor)] for tensor in TensorKind}
        is_reduction = np.zeros(self.num_dims, dtype=bool)
        is_reduction[[self.dim_index[dim] for dim in problem.reduction_dims]] = True
        self._is_reduction_dim = is_reduction

        # Per-level architecture constants.
        self._fanout = np.array([lvl.spatial_fanout for lvl in hierarchy], dtype=np.float64)
        self._capacity = np.array(
            [np.inf if lvl.is_unbounded else float(lvl.capacity_bytes) for lvl in hierarchy],
            dtype=np.float64,
        )
        self._bandwidth = np.array(
            [lvl.bandwidth_words_per_cycle for lvl in hierarchy], dtype=np.float64
        )
        self._bytes = {t: float(accelerator.precision.bytes_for(t)) for t in TensorKind}
        self._holds = {
            t: np.array([lvl.holds(t) for lvl in hierarchy], dtype=bool) for t in TensorKind
        }
        # Boundary-flow structure: (tensor, child, parent) pairs are a pure
        # function of the architecture, in the same order NestAnalysis
        # iterates them (tensors in TensorKind order, levels innermost first).
        self._flow_pairs: list[tuple[TensorKind, int, int]] = []
        for tensor in TensorKind:
            levels = hierarchy.levels_holding(tensor)
            for child, parent in zip(levels, levels[1:]):
                self._flow_pairs.append((tensor, child, parent))
        self._children = sorted({child for _, child, _ in self._flow_pairs})
        # Stationarity-walk tables: one row per boundary flow / flow child.
        self._flow_tensor = np.array([int(t) for t, _, _ in self._flow_pairs], dtype=np.int64)
        self._flow_child = np.array([c for _, c, _ in self._flow_pairs]).reshape(-1, 1, 1)
        self._child_level = np.array(self._children).reshape(-1, 1, 1)
        self._innermost = {t: hierarchy.innermost_level_for(t) for t in TensorKind}
        self._multicast = accelerator.noc.multicast
        table = accelerator.energy
        self._level_energy_pj = [table.access_energy(lvl.name) for lvl in hierarchy]
        self._mac_pj = table.mac_energy_pj
        self._hop_pj = table.noc_hop_energy_pj
        rows, cols = accelerator.pe_array.rows, accelerator.pe_array.cols
        self._average_hops = (rows + cols) / 2.0
        self._total_lanes = accelerator.pe_array.num_pes * accelerator.pe_array.macs_per_pe

        #: Per-layer constants (bounds vector, tensor volumes, macs), cached
        #: because a search evaluates thousands of batches of one layer.
        self._layer_consts: dict = {}
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------ layers
    def _consts(self, layer):
        """Cached per-layer constants: bounds vector, volumes, macs, stride."""
        consts = self._layer_consts.get(layer)
        if consts is None:
            layer_bounds = layer.bounds
            consts = (
                np.array([layer_bounds[d] for d in self.problem.dims], dtype=np.float64),
                {t: float(layer.tensor_volume(t)) for t in TensorKind},
                float(layer.macs),
                float(layer.stride),
            )
            self._layer_consts[layer] = consts
        return consts

    def _tiles(self, footprint, stride: float) -> dict:
        """Per-tensor ``[B, L]`` tile matrices from the projection tables.

        :meth:`TensorProblem.footprint` multiplies the terms left-associated
        in projection order — the exact float expression structure of the
        scalar model, so conv results stay bit-for-bit identical to the
        historic hardcoded formulas.
        """
        f = {dim: footprint[:, :, d] for dim, d in self.dim_index.items()}
        tiles = {}
        for tensor in TensorKind:
            tile = self.problem.footprint(tensor, f, stride)
            if len(self.problem.projection(tensor)) == 1:
                # A single plain-dim term aliases the footprint matrix; the
                # caller mutates tiles in place, so detach the view.
                tile = tile.copy()
            tiles[tensor] = tile
        return tiles

    # ------------------------------------------------------------- stationarity
    def _refetch_and_pending(self, batch: MappingBatch):
        """Per-candidate re-fetch factors and pending-reduction flags.

        Returns ``refetch[(tensor, child)] -> float64[B]`` for every boundary
        flow plus ``pending[child] -> bool[B]`` for the output flows.  The
        walk is the scalar stationarity rule vectorized: within the loop
        sequence restricted to levels ``>= child``, every loop at-or-outside
        the innermost tensor-relevant loop contributes its bound — one masked
        row product per (tensor, child), all flows stacked on a leading axis.
        Every partial product is an integer below 2^53, so the product is
        exact whatever order the reduction takes.
        """
        level = batch.loop_level
        dim = batch.loop_dim
        bound = batch.loop_bound
        present = dim >= 0
        dim_safe = np.where(present, dim, 0)
        rel = self._rel[dim_safe]  # [B, M, T]

        # loops_above(child) per flow, then the walk for all flows at once.
        mask = (level >= self._flow_child) & present  # [F, B, M]
        relevant = rel[:, :, self._flow_tensor].transpose(2, 0, 1) & mask
        seen = np.logical_or.accumulate(relevant, axis=2)
        factors = np.where(seen & mask, bound, 1.0).prod(axis=2)  # [F, B]
        refetch = {
            (tensor, child): factors[f] for f, (tensor, child, _) in enumerate(self._flow_pairs)
        }
        # reduction_pending_above(child): a reduction-dim temporal loop
        # strictly outside the innermost output-relevant loop.
        mask = (level >= self._child_level) & present  # [C, B, M]
        seen = np.logical_or.accumulate(rel[:, :, int(TensorKind.OUTPUT)] & mask, axis=2)
        seen_before = np.zeros_like(seen)
        seen_before[:, :, 1:] = seen[:, :, :-1]
        is_reduction = self._is_reduction_dim[dim_safe] & present
        flags = np.any(seen_before & mask & is_reduction, axis=2)  # [C, B]
        pending = {child: flags[c] for c, child in enumerate(self._children)}
        return refetch, pending

    def _spatial_factor_between(self, sf, child: int, parent: int, tensor: TensorKind):
        """Product of tensor-irrelevant spatial factors at levels ``(child, parent]``."""
        span = sf[:, child + 1 : parent + 1, :][:, :, self._irrelevant_dims[tensor]]
        return span.reshape(span.shape[0], -1).prod(axis=1)

    # ----------------------------------------------------------------- evaluate
    def evaluate(self, batch: MappingBatch) -> BatchCostResult:
        """Validate and evaluate every candidate of ``batch`` at once."""
        result, _ = self._evaluate(batch, want_detail=False)
        return result

    def evaluate_detail(self, batch: MappingBatch) -> BatchEvalDetail:
        """Evaluate ``batch`` and return the :class:`BatchEvalDetail` view.

        The fused-group combiner (:mod:`repro.model.fused_batch`) needs the
        per-level words-served / instances / occupancy intermediates and the
        DRAM-boundary flows in addition to the headline result.
        """
        _, detail = self._evaluate(batch, want_detail=True)
        if detail is None:
            raise ValueError(
                "batch level count does not match the architecture; "
                "detail evaluation requires matching hierarchies"
            )
        return detail

    def _evaluate(self, batch: MappingBatch, want_detail: bool):
        layer = batch.layer
        if layer.problem.name != self.problem.name:
            raise ValueError(
                f"kernel compiled for problem {self.problem.name!r} cannot "
                f"evaluate a {layer.problem.name!r} layer"
            )
        B = batch.size
        tf, sf = batch.temporal, batch.spatial
        L, D = self.num_levels, self.num_dims

        if batch.num_levels != L:
            inf = np.full(B, np.inf)
            result = BatchCostResult(
                valid=np.zeros(B, dtype=bool),
                latency=inf,
                energy=inf.copy(),
                utilization=np.zeros(B),
            )
            return result, None

        bounds, volumes, macs, stride = self._consts(layer)
        total = tf * sf  # per-level per-dim factor products

        # -------------------------------------------------------- validation
        dim_products = total.prod(axis=1)  # [B, D]
        consistent = np.all(dim_products == bounds, axis=1)
        spatial_per_level = sf.prod(axis=2)  # [B, L]
        fanout_ok = np.all(spatial_per_level <= self._fanout, axis=1)

        # ------------------------------------------------------- tile sizes
        # footprint[b, l, d]: product of d-factors below level l plus the
        # spatial factors at l itself (NestAnalysis._dim_footprint_below).
        below = np.ones((B, L, D), dtype=np.float64)
        if L > 1:
            below[:, 1:, :] = np.cumprod(total, axis=1)[:, :-1, :]
        tiles = self._tiles(below * sf, stride)
        for tensor in TensorKind:
            tile = tiles[tensor]
            tile[:, ~self._holds[tensor]] = 0.0
            if self._holds[tensor][self.dram_index]:
                tile[:, self.dram_index] = volumes[tensor]

        # Buffer occupancy (utilization_bytes, summed in TensorKind order).
        used_bytes = np.zeros((B, L), dtype=np.float64)
        for tensor in TensorKind:
            used_bytes = used_bytes + tiles[tensor] * self._bytes[tensor]
        buffers_ok = np.all(used_bytes <= self._capacity, axis=1)

        valid = consistent & fanout_ok & buffers_ok

        # --------------------------------------------------- boundary flows
        refetch, pending = self._refetch_and_pending(batch)
        # active_instances(l): product of spatial factors at levels > l.
        instances = np.ones((B, L), dtype=np.float64)
        if L > 1:
            suffix = np.cumprod(spatial_per_level[:, ::-1], axis=1)[:, ::-1]
            instances[:, :-1] = suffix[:, 1:]

        reads = np.zeros((B, L, len(TensorKind)), dtype=np.float64)
        writes = np.zeros((B, L, len(TensorKind)), dtype=np.float64)
        # Per-parent-level words served downward+upward (performance model)
        # and per-tensor NoC boundary words (energy model), accumulated flow
        # by flow in the scalar iteration order.
        words_served = np.zeros((B, L), dtype=np.float64)
        noc_words = {tensor: np.zeros(B, dtype=np.float64) for tensor in TensorKind}
        dram_flows: dict[TensorKind, DramBoundaryFlowBatch] = {}

        for tensor, child, parent in self._flow_pairs:
            t = int(tensor)
            tile = tiles[tensor][:, child]
            words_into_child = tile * refetch[(tensor, child)] * instances[:, child]
            raw_lanes = self._spatial_factor_between(sf, child, parent, tensor)
            multicast = raw_lanes if self._multicast else np.ones(B, dtype=np.float64)
            words_read_from_parent = words_into_child / np.maximum(multicast, 1.0)
            words_written_to_parent = np.zeros(B, dtype=np.float64)
            words_read_back = np.zeros(B, dtype=np.float64)
            if tensor is TensorKind.OUTPUT:
                reduction_lanes = np.maximum(raw_lanes, 1.0)
                words_written_to_parent = words_into_child / reduction_lanes
                words_read_back = np.where(pending[child], words_written_to_parent, 0.0)
                words_into_child = words_read_back * reduction_lanes
                words_read_from_parent = words_read_back

            if want_detail and parent == self.dram_index:
                dram_flows[tensor] = DramBoundaryFlowBatch(
                    tensor=tensor,
                    child_level=child,
                    words_into_child=words_into_child,
                    words_read_from_parent=words_read_from_parent,
                    words_written_to_parent=words_written_to_parent,
                )

            writes[:, child, t] += words_into_child
            reads[:, parent, t] += words_read_from_parent
            writes[:, parent, t] += words_written_to_parent
            reads[:, child, t] += words_written_to_parent

            words_served[:, parent] = words_served[:, parent] + (
                words_read_from_parent + words_written_to_parent
            )
            if child < self.pe_level <= parent:
                noc_words[tensor] = noc_words[tensor] + (
                    words_into_child + words_written_to_parent + words_read_back
                )

        # Compute-side accesses at the innermost storing level of each tensor.
        for tensor in TensorKind:
            innermost = self._innermost[tensor]
            t = int(tensor)
            reads[:, innermost, t] += macs
            if tensor is TensorKind.OUTPUT:
                writes[:, innermost, t] += macs

        # ------------------------------------------------------------ latency
        # max() is order-invariant and each cycles term is the scalar
        # quotient, so one reduction over levels equals the scalar walk.
        compute_cycles = tf.reshape(B, -1).prod(axis=1)
        cycles = words_served / (self._bandwidth * instances)
        latency = np.maximum(compute_cycles, cycles.max(axis=1))

        # ------------------------------------------------------------- energy
        # accesses[b, l] sums (reads + writes) over the short tensor axis;
        # numpy reduces a length-3 axis sequentially (no pairwise split), so
        # the accumulation order matches the scalar TensorKind walk.
        mac_energy = macs * self._mac_pj
        accesses = (reads + writes).sum(axis=2)
        level_energy_sum = np.zeros(B, dtype=np.float64)
        for index in range(L):
            level_energy_sum = level_energy_sum + accesses[:, index] * self._level_energy_pj[index]
        total_noc_words = np.zeros(B, dtype=np.float64)
        for tensor in TensorKind:
            total_noc_words = total_noc_words + noc_words[tensor]
        noc_energy = total_noc_words * self._average_hops * self._hop_pj
        energy = (mac_energy + noc_energy) + level_energy_sum

        utilization = np.minimum(1.0, sf.reshape(B, -1).prod(axis=1) / self._total_lanes)

        result = BatchCostResult(
            valid=valid,
            latency=np.where(valid, latency, np.inf),
            energy=np.where(valid, energy, np.inf),
            utilization=np.where(valid, utilization, 0.0),
        )
        detail = None
        if want_detail:
            detail = BatchEvalDetail(
                result=result,
                compute_cycles=compute_cycles,
                words_served=words_served,
                instances=instances,
                used_bytes=used_bytes,
                spatial_per_level=spatial_per_level,
                raw_latency=latency,
                raw_energy=energy,
                raw_utilization=utilization,
                dram_flows=dram_flows,
            )
        return result, detail

    def violation_magnitudes(self, detail: BatchEvalDetail):
        """Per-candidate ``(capacity, spatial)`` constraint excess, normalized.

        Each bounded buffer contributes ``(used - capacity) / capacity`` when
        it overflows and each level ``(spatial product - fanout) / fanout``
        when it is over-subscribed; both sums run in level order.  Zero
        means the group is satisfied.
        """
        capacity = np.zeros(detail.used_bytes.shape[0], dtype=np.float64)
        spatial = np.zeros_like(capacity)
        for level in range(self.num_levels):
            limit = self._capacity[level]
            if limit != np.inf:
                capacity = capacity + np.maximum(detail.used_bytes[:, level] - limit, 0.0) / limit
            fanout = self._fanout[level]
            spatial = spatial + np.maximum(detail.spatial_per_level[:, level] - fanout, 0.0) / fanout
        return capacity, spatial


# ---------------------------------------------------------------- kernel cache
#: Process-wide kernel cache keyed by ``(problem fingerprint, arch fingerprint)``.
_KERNEL_CACHE: dict[tuple[str, str], CompiledKernel] = {}
_CACHE_STATS = {"hits": 0, "misses": 0}


def kernel_cache_info() -> dict:
    """Hit/miss counters and entry count of the process-wide kernel cache.

    ``fused_misses`` stays 0: the fused path composes the per-operator
    kernels and compiles nothing of its own.  The key remains because
    perfbench (``perfbench/worker.py``) counts kernel compiles as
    ``misses + fused_misses``.
    """
    return {**_CACHE_STATS, "entries": len(_KERNEL_CACHE), "fused_misses": 0}


def clear_kernel_cache() -> None:
    """Drop every compiled kernel and reset the counters (tests/benchmarks)."""
    _KERNEL_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


class BatchCostModel:
    """Evaluate batches of mappings of one architecture with numpy.

    Each batch runs through the :class:`CompiledKernel` of its layer's
    tensor problem, fetched from (or built into) the process-wide cache.
    """

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator
        self._arch_fingerprint = accelerator.fingerprint()

    def kernel_for(self, problem: TensorProblem) -> CompiledKernel:
        """The cached kernel evaluating ``problem`` layers on this architecture.

        The key costs no digest per call: :meth:`TensorProblem.fingerprint`
        is memoized on the frozen problem.
        """
        key = (problem.fingerprint(), self._arch_fingerprint)
        kernel = _KERNEL_CACHE.get(key)
        if kernel is not None and kernel.problem == problem:
            _CACHE_STATS["hits"] += 1
            return kernel
        _CACHE_STATS["misses"] += 1
        kernel = CompiledKernel(problem, self.accelerator)
        _KERNEL_CACHE[key] = kernel
        return kernel

    def evaluate_batch(self, batch: MappingBatch) -> BatchCostResult:
        """Validate and evaluate every candidate of ``batch`` at once."""
        return self.kernel_for(batch.layer.problem).evaluate(batch)

    def evaluate_detail(self, batch: MappingBatch) -> BatchEvalDetail:
        """Evaluate ``batch`` and return the :class:`BatchEvalDetail` view."""
        return self.kernel_for(batch.layer.problem).evaluate_detail(batch)

    def evaluate_draws(self, draws: "MappingDraws") -> BatchCostResult:
        """Pack sampled draws and evaluate them."""
        return self.kernel_for(draws.layer.problem).evaluate(MappingBatch.from_draws(draws))

    def evaluate_mappings(self, mappings: Sequence[Mapping]) -> BatchCostResult:
        """Convenience: pack ``mappings`` into a batch and evaluate it."""
        return self.evaluate_batch(MappingBatch.from_mappings(list(mappings)))
