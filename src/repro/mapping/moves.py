"""Mutable mapping state and local-search moves.

Local search walks the map space one *move* at a time instead of redrawing
whole mappings.  This module provides the pieces:

* :class:`MappingState` — a mutable factor placement (per-level temporal and
  spatial ``[dim, bound]`` lists, permutation order significant) that moves
  edit in place and that materializes to the same
  :class:`~repro.mapping.mapping.Mapping` a :class:`~repro.mapping.space.MappingDraws`
  would produce.
* :class:`FactorMove` — relocate one prime factor of a dimension between
  (level, temporal/spatial) slots.  A move with ``src_level == dst_level``
  and flipped spatial flags is a *spatial flip*.
* :class:`PermutationSwap` — exchange two temporal loops of one level.

Moves conserve the per-dimension factor product by construction, so a state
seeded from a consistent draw stays consistent forever; only fanout and
buffer-capacity validity can change, which is exactly what the DDFW-style
constraint weights of the local-search scheduler track.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.workloads.prime import factorize

__all__ = [
    "FactorMove",
    "PermutationSwap",
    "MappingState",
    "move_slots",
    "propose_move",
]


@dataclass(frozen=True)
class FactorMove:
    """Move ``factor`` of dimension ``dim`` between two placement slots.

    The factor is divided out of the entry at ``(src_level, src_spatial)``
    (removing the entry when its bound reaches 1) and multiplied into the
    ``dim`` entry at ``(dst_level, dst_spatial)``, creating it at position
    ``dst_pos`` (``-1`` appends) when absent.  ``factor`` must divide the
    source entry's bound, which :func:`propose_move` guarantees by drawing
    it from the bound's prime factorization.
    """

    dim: str
    factor: int
    src_level: int
    src_spatial: bool
    dst_level: int
    dst_spatial: bool
    dst_pos: int = -1

    @property
    def is_spatial_flip(self) -> bool:
        """True when the move toggles temporal/spatial without changing level."""
        return self.src_level == self.dst_level and self.src_spatial != self.dst_spatial

    @property
    def touches_temporal(self) -> bool:
        return not (self.src_spatial and self.dst_spatial)

    @property
    def touches_spatial(self) -> bool:
        return self.src_spatial or self.dst_spatial


@dataclass(frozen=True)
class PermutationSwap:
    """Exchange the temporal loops at positions ``i`` and ``j`` of ``level``."""

    level: int
    i: int
    j: int


@dataclass
class MappingState:
    """A mutable factor placement edited by moves.

    ``temporal[level]`` / ``spatial[level]`` are lists of mutable
    ``[dim, bound]`` pairs, innermost loop first, at most one entry per
    dimension per list and every bound > 1 — the same invariants
    :func:`~repro.mapping.space._merge_drawn` establishes on sampled draws.
    """

    layer: object
    num_levels: int
    temporal: list = field(default_factory=list)
    spatial: list = field(default_factory=list)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_draws(cls, draws, index: int) -> "MappingState":
        """Seed a state from draw ``index`` of a sampled batch."""
        return cls(
            layer=draws.layer,
            num_levels=draws.num_levels,
            temporal=[[[d, b] for d, b in level] for level in draws.temporal[index]],
            spatial=[[[d, b] for d, b in level] for level in draws.spatial[index]],
        )

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "MappingState":
        """Seed a state from an existing mapping (bound-1 loops dropped)."""
        return cls(
            layer=mapping.layer,
            num_levels=mapping.num_levels,
            temporal=[
                [[loop.dim, loop.bound] for loop in level.temporal if loop.bound > 1]
                for level in mapping.levels
            ],
            spatial=[
                [[loop.dim, loop.bound] for loop in level.spatial if loop.bound > 1]
                for level in mapping.levels
            ],
        )

    def clone(self) -> "MappingState":
        """Deep copy (used to keep the best-so-far state of a search)."""
        return MappingState(
            layer=self.layer,
            num_levels=self.num_levels,
            temporal=[[[d, b] for d, b in level] for level in self.temporal],
            spatial=[[[d, b] for d, b in level] for level in self.spatial],
        )

    # ---------------------------------------------------------------- queries
    def spatial_product_at(self, level: int) -> int:
        product = 1
        for _, bound in self.spatial[level]:
            product *= bound
        return product

    def to_mapping(self) -> Mapping:
        """Materialize the full :class:`Mapping` (winners only, like draws)."""
        levels = []
        for level in range(self.num_levels):
            levels.append(
                LevelMapping(
                    temporal=[
                        Loop(dim=dim, bound=bound, spatial=False)
                        for dim, bound in self.temporal[level]
                    ],
                    spatial=[
                        Loop(dim=dim, bound=bound, spatial=True)
                        for dim, bound in self.spatial[level]
                    ],
                )
            )
        return Mapping(self.layer, levels)

    # ------------------------------------------------------------------ moves
    def _list(self, level: int, spatial: bool) -> list:
        return (self.spatial if spatial else self.temporal)[level]

    def apply(self, move) -> tuple:
        """Apply ``move`` in place; returns an undo record for :meth:`undo`.

        The record snapshots the (at most two) edited lists, so undo restores
        the exact permutation positions.
        """
        if isinstance(move, PermutationSwap):
            loops = self.temporal[move.level]
            record = ((loops, [list(e) for e in loops]),)
            loops[move.i], loops[move.j] = loops[move.j], loops[move.i]
            return record

        src = self._list(move.src_level, move.src_spatial)
        dst = self._list(move.dst_level, move.dst_spatial)
        record = ((src, [list(e) for e in src]),)
        if dst is not src:
            record = record + ((dst, [list(e) for e in dst]),)

        for index, entry in enumerate(src):
            if entry[0] == move.dim:
                if entry[1] % move.factor != 0:
                    raise ValueError(
                        f"factor {move.factor} does not divide the {move.dim} "
                        f"bound {entry[1]} at level {move.src_level}"
                    )
                entry[1] //= move.factor
                if entry[1] == 1:
                    del src[index]
                break
        else:
            raise ValueError(
                f"no {move.dim} entry at level {move.src_level} "
                f"({'spatial' if move.src_spatial else 'temporal'})"
            )

        for entry in dst:
            if entry[0] == move.dim:
                entry[1] *= move.factor
                break
        else:
            pos = move.dst_pos
            if pos < 0 or pos > len(dst):
                pos = len(dst)
            dst.insert(pos, [move.dim, move.factor])
        return record

    def undo(self, record: tuple) -> None:
        """Restore the lists snapshotted by :meth:`apply`."""
        for target, snapshot in record:
            target[:] = snapshot


def move_slots(num_levels: int, fanouts: dict[int, int]) -> tuple:
    """Every ``(level, spatial)`` slot a factor can move to (a map-space constant)."""
    return tuple((lvl, False) for lvl in range(num_levels)) + tuple((lvl, True) for lvl in fanouts)


def propose_move(
    state: MappingState,
    fanouts: dict[int, int],
    rng: random.Random,
    swap_probability: float = 0.25,
    overflow_probability: float = 0.1,
    max_attempts: int = 16,
    slots: tuple | None = None,
):
    """Draw one random move for ``state``, or ``None`` when the state is frozen.

    With probability ``swap_probability`` (when some level has two or more
    temporal loops) a :class:`PermutationSwap` is proposed; otherwise a
    :class:`FactorMove` relocating one prime factor of a random movable
    entry to a random other slot of ``slots`` (default
    :func:`move_slots`).  Spatial destinations normally respect the
    remaining fanout budget, but with ``overflow_probability`` an
    over-subscribing move is allowed through so the search can cross
    infeasible regions — the DDFW weights on the spatial constraint group
    then steer it back out.
    """
    swappable = [
        level for level in range(state.num_levels) if len(state.temporal[level]) >= 2
    ]
    if swappable and rng.random() < swap_probability:
        level = swappable[rng.randrange(len(swappable))]
        loops = state.temporal[level]
        i = rng.randrange(len(loops))
        j = rng.randrange(len(loops) - 1)
        if j >= i:
            j += 1
        return PermutationSwap(level=level, i=i, j=j)

    sources = []
    for level in range(state.num_levels):
        for entry in state.temporal[level]:
            sources.append((level, False, entry))
        for entry in state.spatial[level]:
            sources.append((level, True, entry))
    if not sources:
        return None
    if slots is None:
        slots = move_slots(state.num_levels, fanouts)

    for _ in range(max_attempts):
        level, spatial, entry = sources[rng.randrange(len(sources))]
        dim, bound = entry
        primes = factorize(bound)
        factor = primes[rng.randrange(len(primes))]

        # A uniform pick among the slots other than the source one.
        source = (level, spatial)
        if source in slots:
            pick = rng.randrange(len(slots) - 1)
            if pick >= slots.index(source):
                pick += 1
        else:
            pick = rng.randrange(len(slots))
        dst_level, dst_spatial = slots[pick]
        if dst_spatial:
            budget = fanouts.get(dst_level, 1) // state.spatial_product_at(dst_level)
            if budget < factor and rng.random() >= overflow_probability:
                continue
        dst_pos = rng.randrange(len(state._list(dst_level, dst_spatial)) + 1)
        return FactorMove(
            dim=dim,
            factor=factor,
            src_level=level,
            src_spatial=spatial,
            dst_level=dst_level,
            dst_spatial=dst_spatial,
            dst_pos=dst_pos,
        )
    return None
