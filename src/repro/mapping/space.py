"""Map-space sampling.

The scheduling space of a layer is the set of all valid assignments of its
prime factors to (memory level, spatial/temporal) slots together with a loop
permutation per level.  This module provides uniform random sampling of that
space (used by the Random baseline and by the Fig. 1 histogram experiment)
plus size estimates.

Validity (buffer capacities, spatial fanouts) is checked with the analytical
model from :mod:`repro.model`; the import is done lazily to keep the package
import graph acyclic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.mapping.moves import MappingState, move_slots, propose_move
from repro.workloads.layer import Layer
from repro.workloads.prime import count_factorizations, factorize

#: A drawn loop before materialization: ``(dimension name, bound)``.
DrawnLoop = tuple[str, int]


@dataclass
class MappingDraws:
    """A batch of sampled factor placements, kept as plain tuples.

    The batched evaluation path (:mod:`repro.model.batch`) consumes the
    per-level ``(dim, bound)`` lists directly as factor matrices; a full
    :class:`~repro.mapping.mapping.Mapping` object is only built for the few
    candidates that win a search (:meth:`materialize`).

    Attributes
    ----------
    layer:
        The layer every draw maps.
    num_levels:
        Memory levels per draw.
    temporal / spatial:
        ``temporal[i][level]`` is the list of temporal ``(dim, bound)`` loops
        of draw ``i`` at ``level`` (innermost loop first, permutation order);
        ``spatial`` likewise for spatial loops.
    """

    layer: Layer
    num_levels: int
    temporal: list[list[list[DrawnLoop]]] = field(default_factory=list)
    spatial: list[list[list[DrawnLoop]]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.temporal)

    def materialize(self, index: int) -> Mapping:
        """Build the full :class:`Mapping` for draw ``index``.

        Produces exactly the object :meth:`MapSpace.random_mapping` would
        have returned for the same draw.
        """
        levels = []
        for level in range(self.num_levels):
            levels.append(
                LevelMapping(
                    temporal=[
                        Loop(dim=dim, bound=bound, spatial=False)
                        for dim, bound in self.temporal[index][level]
                    ],
                    spatial=[
                        Loop(dim=dim, bound=bound, spatial=True)
                        for dim, bound in self.spatial[index][level]
                    ],
                )
            )
        return Mapping(self.layer, levels)

    def iter_mappings(self):
        """Materialize every draw in order (scalar fallback path)."""
        for index in range(len(self)):
            yield self.materialize(index)


@dataclass
class SampleStats:
    """Bookkeeping of a sampling run (samples drawn vs. valid mappings kept)."""

    sampled: int = 0
    valid: int = 0

    @property
    def validity_rate(self) -> float:
        """Fraction of drawn samples that satisfied all hardware constraints."""
        if self.sampled == 0:
            return 0.0
        return self.valid / self.sampled


class MapSpace:
    """Random sampler over the scheduling space of ``layer`` on ``accelerator``."""

    def __init__(self, layer: Layer, accelerator: Accelerator):
        self.layer = layer
        self.accelerator = accelerator
        self.num_levels = accelerator.num_memory_levels
        self._spatial_levels = {
            i: accelerator.hierarchy[i].spatial_fanout
            for i in accelerator.hierarchy.spatial_levels()
        }
        self._dims = layer.problem.dims
        self._prime_factors = {dim: factorize(bound) for dim, bound in layer.bounds.items()}
        self._move_slots = move_slots(self.num_levels, self._spatial_levels)

    # ------------------------------------------------------------------- sizes
    def tiling_space_size(self) -> int:
        """Number of ordered per-level factorizations (ignoring permutations).

        Each dimension can be split across ``num_levels`` temporal slots plus
        one spatial slot per spatial level, so the count per dimension is the
        number of ordered splits into that many parts.
        """
        slots = self.num_levels + len(self._spatial_levels)
        total = 1
        for bound in self.layer.bounds.values():
            total *= count_factorizations(bound, slots)
        return total

    def num_prime_factors(self) -> int:
        """Total number of prime factors to place."""
        return sum(len(f) for f in self._prime_factors.values())

    # --------------------------------------------------------------- sampling
    def _draw_loops(self, rng: random.Random) -> tuple[list[list[DrawnLoop]], list[list[DrawnLoop]]]:
        """Draw one random factor placement as per-level ``(dim, bound)`` lists.

        This is the sampling core shared by :meth:`random_mapping` (which
        wraps the result in a :class:`Mapping`) and :meth:`sample_batch`
        (which keeps the tuples for vectorized evaluation).  Both consume the
        RNG identically — ``rng.shuffle`` depends only on list length — so a
        batched and a scalar run of the same seed see the same candidates.
        """
        temporal_loops: list[list[DrawnLoop]] = [[] for _ in range(self.num_levels)]
        spatial_loops: list[list[DrawnLoop]] = [[] for _ in range(self.num_levels)]
        fanout_budget = dict(self._spatial_levels)

        slots: list[tuple[int, bool]] = [(i, False) for i in range(self.num_levels)]
        slots += [(i, True) for i in self._spatial_levels]

        for dim in self._dims:
            for prime in self._prime_factors[dim]:
                placed = False
                for _ in range(8):
                    level, spatial = slots[rng.randrange(len(slots))]
                    if spatial:
                        if fanout_budget.get(level, 1) < prime:
                            continue
                        fanout_budget[level] //= prime
                        spatial_loops[level].append((dim, prime))
                    else:
                        temporal_loops[level].append((dim, prime))
                    placed = True
                    break
                if not placed:
                    # Fall back to a temporal slot at a random level.
                    level = rng.randrange(self.num_levels)
                    temporal_loops[level].append((dim, prime))

        merged_temporal: list[list[DrawnLoop]] = []
        merged_spatial: list[list[DrawnLoop]] = []
        for i in range(self.num_levels):
            merged_t = _merge_drawn(temporal_loops[i])
            rng.shuffle(merged_t)
            merged_temporal.append(merged_t)
            merged_spatial.append(_merge_drawn(spatial_loops[i]))
        return merged_temporal, merged_spatial

    def random_mapping(self, rng: random.Random) -> Mapping:
        """Draw one random (not necessarily valid) mapping.

        Every prime factor is placed into a uniformly random slot; spatial
        placement is only attempted at spatial levels and respects the
        remaining fanout budget of the level.  Temporal loops of each level
        get a random permutation.
        """
        temporal, spatial = self._draw_loops(rng)
        draws = MappingDraws(
            layer=self.layer, num_levels=self.num_levels, temporal=[temporal], spatial=[spatial]
        )
        return draws.materialize(0)

    def sample_batch(self, count: int, rng: random.Random | None = None) -> MappingDraws:
        """Draw ``count`` random candidates as factor placements, not objects.

        The returned :class:`MappingDraws` feeds
        :meth:`repro.model.batch.MappingBatch.from_draws` for vectorized
        evaluation; individual winners are materialized on demand.  Drawing a
        batch of ``n`` then a batch of ``m`` from one RNG yields exactly the
        candidates of a batch of ``n + m`` (and of ``n + m`` scalar
        :meth:`random_mapping` calls), so search outcomes do not depend on
        the batch size.
        """
        rng = rng or random.Random(0)
        draws = MappingDraws(layer=self.layer, num_levels=self.num_levels)
        for _ in range(count):
            temporal, spatial = self._draw_loops(rng)
            draws.temporal.append(temporal)
            draws.spatial.append(spatial)
        return draws

    # ------------------------------------------------------------ local search
    @property
    def spatial_fanouts(self) -> dict[int, int]:
        """Per-level spatial fanout budgets ``{level index: fanout}`` (copy)."""
        return dict(self._spatial_levels)

    def initial_state(self, draws: MappingDraws, index: int) -> MappingState:
        """Seed a mutable :class:`~repro.mapping.moves.MappingState` from a draw."""
        return MappingState.from_draws(draws, index)

    def random_move(self, state: MappingState, rng: random.Random, **kwargs):
        """One random local-search move for ``state`` (``None`` when frozen).

        Thin wrapper over :func:`~repro.mapping.moves.propose_move` that
        supplies this space's fanout budgets and slot list; keyword arguments
        (``swap_probability``, ``overflow_probability``, ...) pass through.
        """
        return propose_move(state, self._spatial_levels, rng, slots=self._move_slots, **kwargs)

    def neighborhood(self, state: MappingState, rng: random.Random, count: int, **kwargs) -> list:
        """Up to ``count`` distinct random moves applicable to ``state``.

        Moves are drawn via :meth:`random_move` and deduplicated (they are
        frozen dataclasses, hence hashable); fewer than ``count`` moves are
        returned when the state is frozen or proposals keep colliding.
        """
        moves: list = []
        seen: set = set()
        for _ in range(4 * count):
            if len(moves) >= count:
                break
            move = self.random_move(state, rng, **kwargs)
            if move is None:
                break
            if move in seen:
                continue
            seen.add(move)
            moves.append(move)
        return moves

    def is_valid(self, mapping: Mapping) -> bool:
        """True when the mapping satisfies the layer bounds, fanouts and buffer capacities."""
        from repro.model.nest import NestAnalysis  # lazy import, avoids a package cycle

        if not mapping.is_consistent():
            return False
        for level_index, fanout in self._spatial_levels.items():
            if mapping.spatial_product_at(level_index) > fanout:
                return False
        for level_index in range(self.num_levels):
            if level_index not in self._spatial_levels and mapping.spatial_product_at(level_index) > 1:
                return False
        analysis = NestAnalysis(mapping, self.accelerator)
        return analysis.fits_buffers()

    def sample(self, count: int, rng: random.Random | None = None) -> tuple[list[Mapping], SampleStats]:
        """Draw ``count`` random mappings and report how many were valid.

        All drawn mappings are returned (valid or not); use
        :meth:`sample_valid` to collect only valid ones.
        """
        rng = rng or random.Random(0)
        stats = SampleStats()
        mappings = []
        for _ in range(count):
            mapping = self.random_mapping(rng)
            stats.sampled += 1
            if self.is_valid(mapping):
                stats.valid += 1
            mappings.append(mapping)
        return mappings, stats

    def sample_valid(
        self,
        count: int,
        rng: random.Random | None = None,
        max_attempts: int | None = None,
    ) -> tuple[list[Mapping], SampleStats]:
        """Draw random mappings until ``count`` valid ones are found.

        ``max_attempts`` bounds the total number of draws (default
        ``200 * count``); fewer than ``count`` mappings are returned if the
        budget is exhausted first.
        """
        rng = rng or random.Random(0)
        max_attempts = max_attempts or 200 * count
        stats = SampleStats()
        valid: list[Mapping] = []
        while len(valid) < count and stats.sampled < max_attempts:
            mapping = self.random_mapping(rng)
            stats.sampled += 1
            if self.is_valid(mapping):
                stats.valid += 1
                valid.append(mapping)
        return valid, stats


def _merge_drawn(loops: list[DrawnLoop]) -> list[DrawnLoop]:
    """Merge drawn loops over the same dimension (product of bounds, order kept)."""
    merged: dict[str, int] = {}
    order: list[str] = []
    for dim, bound in loops:
        if dim not in merged:
            merged[dim] = 1
            order.append(dim)
        merged[dim] *= bound
    return [(dim, merged[dim]) for dim in order if merged[dim] > 1]


def random_mapping(layer: Layer, accelerator: Accelerator, seed: int = 0) -> Mapping:
    """Convenience wrapper: one random mapping of ``layer`` on ``accelerator``."""
    return MapSpace(layer, accelerator).random_mapping(random.Random(seed))


#: Alias matching the name used in project docs/issues.
MappingSpace = MapSpace
