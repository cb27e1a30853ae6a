"""Pipelined group scheduling: drive the engine over a fusion plan.

:func:`schedule_fused_network` is the fused twin of
:meth:`~repro.engine.engine.SchedulingEngine.schedule_network`.  Singleton
groups go through the per-operator path untouched; every multi-operator
group is scheduled *as one unit*:

1. **Standalone solves first** — each operator is solved independently by
   the engine (with its normal de-duplication and mapping cache), giving
   the per-operator baseline mappings.
2. **Shared outer tiling** — the contracted dimensions of every fused edge
   are re-tiled to a common DRAM-level factor (the *round* count) so
   producer and consumer stream the intermediate tile-by-tile.  The search
   enumerates the whole divisor *frontier* (every per-class outer-target
   combination, capped by ``fusion_options["max_candidates"]``), re-tiles
   the candidates, prices them in **one batched fused evaluation**
   (:mod:`repro.model.fused_batch`), and keeps the
   fully-pinned candidate with the lowest DRAM traffic (EDP breaks ties).
3. **Group cache** — retiled outcomes are stored under per-group cache keys
   (the plain key extended with the group fingerprint and the operator's
   position), so re-running a fused network hits the cache without
   re-deriving the alignment.
4. **NoC validation** — the savings claimed by the cost model are
   cross-checked against the reuse analysis of the final mappings
   (:func:`repro.noc.traffic.validate_fused_transfers`).

The fused path reports ``"solve"``/``"cache"`` layer sources only: operator
de-duplication is intentionally disabled inside multi-operator groups
because two value-equal operators in different groups can end up with
different (group-aligned) mappings.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from math import gcd

from repro.engine.cache import cache_key_from_parts
from repro.engine.engine import LayerReport, NetworkSchedule
from repro.fusion.group import FusionGroup
from repro.fusion.plan import FusionPlan, plan_for
from repro.model.fused import FusedCostModel, FusedGroupCost

#: Default cap on frontier candidates priced per group alignment (override
#: with ``fusion_options={"max_candidates": ...}``).
DEFAULT_MAX_CANDIDATES = 256

#: Cap on the raw divisor cross-product before per-class down-sampling kicks
#: in (a backstop against pathological highly-composite bounds).
_FRONTIER_ENUM_CAP = 65536


@dataclass
class GroupOutcome:
    """One multi-operator group's fused scheduling result."""

    group: FusionGroup
    indices: tuple[int, ...]
    cost: FusedGroupCost | None = None
    traffic: dict = field(default_factory=dict)
    from_cache: bool = False
    retiled: bool = False

    @property
    def fused(self) -> bool:
        """True when at least one edge's intermediate was pinned on-chip."""
        return self.cost is not None and self.cost.valid and self.cost.num_pinned_edges > 0

    def to_dict(self) -> dict:
        payload = {
            "name": self.group.name,
            "layers": [
                layer.name or layer.canonical_name for layer in self.group.layers
            ],
            "indices": list(self.indices),
            "fused": self.fused,
            "from_cache": self.from_cache,
            "retiled": self.retiled,
            "traffic": dict(self.traffic),
        }
        payload["cost"] = self.cost.to_dict() if self.cost is not None else None
        return payload


def _group_key(engine, layer, group: FusionGroup, position: int) -> str:
    """Cache key of one operator *inside* a fusion group.

    Extends the engine's per-layer key with the group fingerprint and the
    operator's position, so fused mappings never collide with standalone
    mappings of the same layer (the alignment is a group property).
    """
    return cache_key_from_parts(
        layer,
        engine._arch_fingerprint,
        engine.scheduler.name,
        f"{engine._config_fingerprint}|fusion:{group.fingerprint()}#{position}",
    )


def _temporal_factors(mapping) -> tuple[list[dict[str, int]], list[dict[str, int]], list[tuple[str, ...]]]:
    """Per-level ``(temporal, spatial, permutation)`` factor dictionaries."""
    temporal: list[dict[str, int]] = []
    spatial: list[dict[str, int]] = []
    permutations: list[tuple[str, ...]] = []
    for level in mapping.levels:
        t: dict[str, int] = {}
        for loop in level.temporal:
            t[loop.dim] = t.get(loop.dim, 1) * loop.bound
        s: dict[str, int] = {}
        for loop in level.spatial:
            s[loop.dim] = s.get(loop.dim, 1) * loop.bound
        temporal.append(t)
        spatial.append(s)
        permutations.append(tuple(dict.fromkeys(loop.dim for loop in level.temporal)))
    return temporal, spatial, permutations


def _retile_outer(mapping, targets: dict[str, int]):
    """Move temporal factors so each ``targets`` dim has the given DRAM factor.

    The inner levels keep as much of their original factor structure as a
    gcd walk can preserve; whatever cannot stay below moves to the level
    just under DRAM (the global buffer's loops, which do not grow any
    tile).  Returns ``None`` when a target does not divide the dimension's
    total temporal bound.
    """
    from repro.mapping.mapping import Mapping

    temporal, spatial, permutations = _temporal_factors(mapping)
    dram = mapping.num_levels - 1
    for dim, outer in targets.items():
        total = 1
        for level in temporal:
            total *= level.get(dim, 1)
        if outer < 1 or total % outer != 0:
            return None
        remaining = total // outer
        kept: list[int] = []
        for index in range(dram):
            keep = gcd(temporal[index].get(dim, 1), remaining)
            kept.append(keep)
            remaining //= keep
        # Leftover factors live just below DRAM: they only add re-fetch
        # rounds, never tile footprint (a level's tile is set by the loops
        # *below* it).
        kept[dram - 1] *= remaining
        for index in range(dram):
            temporal[index][dim] = kept[index]
        temporal[dram][dim] = outer
        if outer > 1 and dim not in permutations[dram]:
            permutations[dram] = permutations[dram] + (dim,)
    return Mapping.from_factors(mapping.layer, temporal, spatial, permutations)


def _smallest_prime_factor(value: int) -> int:
    if value % 2 == 0:
        return 2
    probe = 3
    while probe * probe <= value:
        if value % probe == 0:
            return probe
        probe += 2
    return value


def _divisors(value: int) -> list[int]:
    small, large = [], []
    probe = 1
    while probe * probe <= value:
        if value % probe == 0:
            small.append(probe)
            if probe != value // probe:
                large.append(value // probe)
        probe += 1
    return small + large[::-1]


class _SharedDims:
    """Union-find over ``(operator, dimension)`` pairs tied by fused edges.

    Every class must end up with one shared DRAM-level temporal factor (the
    round count of the edges it participates in).
    """

    def __init__(self, group: FusionGroup):
        self._parent: dict[tuple[int, str], tuple[int, str]] = {}
        for edge in group.edges:
            for p_dim, c_dim in edge.dim_map:
                self._union((edge.producer, p_dim), (edge.consumer, c_dim))

    def _find(self, node):
        parent = self._parent.setdefault(node, node)
        if parent != node:
            parent = self._parent[node] = self._find(parent)
        return parent

    def _union(self, a, b) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[rb] = ra

    def classes(self) -> list[list[tuple[int, str]]]:
        """The shared-dimension classes, deterministically ordered."""
        by_root: dict[tuple[int, str], list[tuple[int, str]]] = {}
        for node in sorted(self._parent):
            by_root.setdefault(self._find(node), []).append(node)
        return [by_root[root] for root in sorted(by_root)]


def _frontier_combos(caps, starts, max_candidates: int) -> list[tuple[int, ...]]:
    """Outer-target combinations on the divisor frontier, deterministically.

    Per class, the frontier is every divisor of the class cap at or above
    the start point.  The cross product is down-sampled (longest class
    first, even stride keeping the endpoints) until it fits
    :data:`_FRONTIER_ENUM_CAP`, then — sorted by total round count — thinned
    to ``max_candidates`` evenly spaced combos including the first and last.
    """
    per_class: list[list[int]] = []
    for cap, start in zip(caps, starts):
        divisors = [d for d in _divisors(cap) if d >= start]
        per_class.append(divisors or [cap])

    def cross_size() -> int:
        size = 1
        for values in per_class:
            size *= len(values)
        return size

    while cross_size() > _FRONTIER_ENUM_CAP:
        longest = max(range(len(per_class)), key=lambda i: len(per_class[i]))
        values = per_class[longest]
        sampled = values[::2]
        if sampled[-1] != values[-1]:
            sampled.append(values[-1])
        per_class[longest] = sampled

    combos = list(itertools.product(*per_class))

    def rounds(combo) -> int:
        size = 1
        for value in combo:
            size *= value
        return size

    combos.sort(key=lambda combo: (rounds(combo), combo))
    if len(combos) > max_candidates:
        if max_candidates == 1:
            combos = combos[:1]
        else:
            step = (len(combos) - 1) / (max_candidates - 1)
            picked = []
            seen: set[int] = set()
            for i in range(max_candidates):
                index = round(i * step)
                if index not in seen:
                    seen.add(index)
                    picked.append(combos[index])
            combos = picked
    return combos


def _select_candidate(engine, group: FusionGroup, candidates):
    """Index of the best fully-pinned candidate, or ``None``.

    Every candidate group tiling is priced in **one** batched fused
    evaluation, bit-for-bit equal to the scalar oracle.  Candidates are
    ranked by ``(dram_words, edp, index)``.
    """
    from repro.model.fused_batch import BatchFusedCostModel, FusedMappingBatch

    fused_batch = FusedMappingBatch.from_candidates(group, candidates)
    result = BatchFusedCostModel(engine.scheduler.accelerator).evaluate_group(fused_batch)
    eligible = result.valid & result.all_pinned
    words, edp = result.dram_words, result.edp
    best_index = None
    best_key = None
    for index in range(len(candidates)):
        if not eligible[index]:
            continue
        key = (float(words[index]), float(edp[index]))
        if best_key is None or key < best_key:
            best_key, best_index = key, index
    return best_index


def _align_group(
    engine,
    group: FusionGroup,
    base_mappings,
    fused_model: FusedCostModel,
    options=None,
):
    """Batched frontier search for the shared outer tiling of ``group``.

    Enumerates the divisor frontier of every shared-dimension class (capped
    by ``options["max_candidates"]``), re-tiles each combination, prices
    all of them in one batched fused evaluation, and keeps the fully-pinned
    candidate with the lowest DRAM traffic.  Returns ``(mappings, cost,
    retiled)``: the final per-operator mappings (the originals when no
    candidate pinned everything), the group cost under those mappings, and
    whether any operator was re-tiled.
    """
    options = dict(options or {})
    max_candidates = max(int(options.get("max_candidates", DEFAULT_MAX_CANDIDATES)), 1)
    dram = base_mappings[0].num_levels - 1
    shared = _SharedDims(group)
    classes = shared.classes()

    # Per class: the gcd of the members' total temporal bounds caps the
    # shared outer factor; the frontier starts at the largest DRAM factor
    # any member already has (rounded up to a divisor), so the base point
    # and every greedy walk's step are members of the candidate set.
    caps: list[int] = []
    starts: list[int] = []
    for members in classes:
        totals = [
            base_mappings[op].dim_product(dim, include_spatial=False)
            for op, dim in members
        ]
        cap = 0
        for total in totals:
            cap = gcd(cap, total)
        cap = max(cap, 1)
        current = max(
            base_mappings[op].levels[dram].factor(dim, include_spatial=False)
            for op, dim in members
        )
        start = next((d for d in _divisors(cap) if d >= current), cap)
        caps.append(cap)
        starts.append(start)

    best = (list(base_mappings), fused_model.evaluate_group(group, base_mappings), False)
    if best[1].valid and best[1].num_pinned_edges == len(group.edges):
        return best

    # Re-tile the whole frontier (deduping identical per-operator targets —
    # many combos disturb only one class, so most operators are shared).
    retile_memo: dict[tuple[int, tuple], object] = {}
    candidates: list[list] = []
    for combo in _frontier_combos(caps, starts, max_candidates):
        targets_per_op: list[dict[str, int]] = [{} for _ in group.layers]
        for members, outer in zip(classes, combo):
            for op, dim in members:
                targets_per_op[op][dim] = outer
        mappings = []
        for op, targets in enumerate(targets_per_op):
            if not targets:
                mappings.append(base_mappings[op])
                continue
            memo_key = (op, tuple(sorted(targets.items())))
            if memo_key not in retile_memo:
                retile_memo[memo_key] = _retile_outer(base_mappings[op], targets)
            retiled = retile_memo[memo_key]
            if retiled is None:
                mappings = None
                break
            mappings.append(retiled)
        if mappings is not None:
            candidates.append(mappings)
    if not candidates:
        return best

    winner = _select_candidate(engine, group, candidates)
    if winner is None:
        return best
    mappings = candidates[winner]
    cost = fused_model.evaluate_group(group, mappings)
    retiled = any(
        new.summary() != old.summary() for new, old in zip(mappings, base_mappings)
    )
    return mappings, cost, retiled


def schedule_fused_network(
    engine,
    layers,
    fusion,
    jobs: int = 1,
    executor: str = "thread",
    label: str = "",
    observer=None,
    fusion_options=None,
) -> NetworkSchedule:
    """Schedule ``layers`` under a fusion plan (see module docstring).

    ``fusion`` is anything :func:`~repro.fusion.plan.plan_for` accepts:
    ``"auto"``, a :class:`~repro.fusion.plan.FusionPlan` or a single
    :class:`~repro.fusion.group.FusionGroup`.  ``fusion_options`` tunes the
    alignment search (``max_candidates``); it is an execution knob and never
    part of cache keys or result fingerprints.
    """
    from repro.noc.traffic import validate_fused_transfers

    layers = list(layers)
    plan = plan_for(layers, fusion)
    start = time.perf_counter()

    base = engine.schedule_network(
        layers, jobs=jobs, executor=executor, label=label, observer=None
    )
    outcomes = list(base.outcomes)
    stats = base.stats
    fused_model = FusedCostModel(engine.scheduler.accelerator)
    groups: list[GroupOutcome] = []

    position = 0
    for group in plan.groups:
        indices = tuple(range(position, position + len(group)))
        position += len(group)
        if group.is_singleton:
            continue
        group_outcomes = [outcomes[i] for i in indices]
        if any(outcome.mapping is None for outcome in group_outcomes):
            groups.append(
                GroupOutcome(
                    group=group,
                    indices=indices,
                    cost=FusedGroupCost(
                        valid=False,
                        violations=[
                            f"operator {i} has no mapping"
                            for i, outcome in zip(indices, group_outcomes)
                            if outcome.mapping is None
                        ],
                    ),
                )
            )
            continue

        keys = [
            _group_key(engine, layer, group, pos)
            for pos, layer in enumerate(group.layers)
        ]
        cached: list = []
        if engine.cache is not None:
            for key, layer in zip(keys, group.layers):
                hit = engine.cache.get(key, layer)
                if hit is None:
                    cached = []
                    break
                cached.append(hit)
        if cached:
            stats.cache_hits += len(cached)
            for offset, outcome in enumerate(cached):
                engine._attach_metrics(outcome)
                outcomes[indices[offset]] = outcome
            mappings = [outcome.mapping for outcome in cached]
            cost = fused_model.evaluate_group(group, mappings)
            retiled = any(
                a.summary() != b.summary()
                for a, b in zip(mappings, (o.mapping for o in group_outcomes))
            )
            groups.append(
                GroupOutcome(
                    group=group,
                    indices=indices,
                    cost=cost,
                    traffic=validate_fused_transfers(
                        engine.scheduler.accelerator, group, mappings, cost
                    ),
                    from_cache=True,
                    retiled=retiled,
                )
            )
            continue

        base_mappings = [outcome.mapping for outcome in group_outcomes]
        mappings, cost, retiled = _align_group(
            engine, group, base_mappings, fused_model, options=fusion_options
        )
        for offset, mapping in enumerate(mappings):
            outcome = group_outcomes[offset]
            if mapping is not outcome.mapping:
                scalar = fused_model.scalar.evaluate(mapping)
                metrics = (
                    {"latency": scalar.latency, "energy": scalar.energy, "edp": scalar.edp}
                    if scalar.valid
                    else {}
                )
                outcome = dataclasses.replace(outcome, mapping=mapping, metrics=metrics)
                outcomes[indices[offset]] = outcome
            if engine.cache is not None:
                engine.cache.put(keys[offset], outcome)
        groups.append(
            GroupOutcome(
                group=group,
                indices=indices,
                cost=cost,
                traffic=validate_fused_transfers(
                    engine.scheduler.accelerator, group, mappings, cost
                ),
                retiled=retiled,
            )
        )

    if observer is not None:
        for index, layer in enumerate(layers):
            observer(
                LayerReport(
                    network=label,
                    index=index,
                    layer=layer,
                    outcome=outcomes[index],
                    source="cache" if outcomes[index].from_cache else "solve",
                )
            )
    stats.wall_time_seconds = time.perf_counter() - start
    return NetworkSchedule(label=label, outcomes=outcomes, stats=stats, groups=groups)
