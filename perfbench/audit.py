"""Correctness audit of every returned schedule.

The structural checks read the mapping from the envelope's loop summary
(``L0: s[K64] t[P2 C3] | L1: ...``) and check it against the layer bounds
and the architecture's fanouts with the benchmark's own arithmetic, not
the program's validators:

* per dimension, the product of all spatial and temporal factors equals
  the layer bound;
* per level, the product of the spatial factors fits the level's fanout.

Each returned mapping is then re-evaluated with a fresh scalar
``CostModel`` (the program's reference model), which must call it valid
and reproduce the envelope's latency and energy exactly.  Fused groups
must report ``traffic["consistent"]`` and a valid group cost.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass, field

_LEVEL = re.compile(r"L(\d+): s\[(.*)\] t\[(.*)\]")
_LOOP = re.compile(r"([A-Za-z_]+)(\d+)")


def parse_summary(text: str) -> list[tuple[list, list]]:
    """``[(spatial, temporal), ...]`` per level, each a list of ``(dim, factor)``."""
    levels = []
    for index, part in enumerate(text.split(" | ")):
        match = _LEVEL.fullmatch(part)
        if match is None or int(match.group(1)) != index:
            raise ValueError(f"unreadable level {index}: {part!r}")
        levels.append(tuple(_loops(group) for group in match.group(2, 3)))
    return levels


def _loops(text: str) -> list[tuple[str, int]]:
    if text == "-":
        return []
    loops = []
    for token in text.split():
        match = _LOOP.fullmatch(token)
        if match is None:
            raise ValueError(f"unreadable loop {token!r}")
        loops.append((match.group(1), int(match.group(2))))
    return loops


def check_mapping(text: str, bounds: dict[str, int], fanouts: list[int]) -> list[str]:
    """Problems of one mapping summary against the layer bounds and fanouts."""
    try:
        levels = parse_summary(text)
    except ValueError as error:
        return [str(error)]
    problems = []
    if len(levels) != len(fanouts):
        problems.append(f"{len(levels)} levels, architecture has {len(fanouts)}")
    products: dict[str, int] = defaultdict(lambda: 1)
    for index, (spatial, temporal) in enumerate(levels):
        for dim, factor in spatial + temporal:
            products[dim] *= factor
        fanout = math.prod(factor for _, factor in spatial)
        if index < len(fanouts) and fanout > fanouts[index]:
            problems.append(f"L{index}: spatial fanout {fanout} > {fanouts[index]}")
    for dim in sorted(set(bounds) | set(products)):
        if products.get(dim, 1) != bounds.get(dim):
            problems.append(f"{dim}: factors multiply to {products.get(dim, 1)}, bound {bounds.get(dim)}")
    return problems


@dataclass
class Audit:
    """Audit outcome and simulated quality of one executed ``schedule`` result."""

    ops: int = 0
    #: Indices of outcomes that failed, and why.
    failures: dict[int, list[str]] = field(default_factory=dict)
    #: ``(latency cycles, energy pJ)`` of every successfully audited outcome.
    pairs: list[tuple[float, float]] = field(default_factory=list)
    dram_words: float = 0.0
    #: ``{(layer, scheduler): latency}`` of every outcome, for known-bad notes.
    latencies: dict[tuple[str, str], float] = field(default_factory=dict)

    def fail(self, index: int, message: str) -> None:
        self.failures.setdefault(index, []).append(message)


def audit_schedule(result) -> Audit:
    """Audit a freshly executed ``kind="schedule"`` result (artifacts attached)."""
    from repro.model.cost import CostModel
    from repro.model.fused import dram_boundary_traffic
    from repro.model.nest import NestAnalysis

    accelerator = result.artifacts["accelerator"]
    outcomes = result.artifacts["network"].outcomes
    entries = result.data["outcomes"]
    fanouts = [level.spatial_fanout for level in accelerator.hierarchy]
    model = CostModel(accelerator)
    audit = Audit(ops=len(entries))
    if len(entries) != len(outcomes):
        for index in range(len(entries)):
            audit.fail(index, "envelope and returned outcomes differ in length")
        return audit

    words: dict = {}
    for index, (entry, outcome) in enumerate(zip(entries, outcomes)):
        latency = (entry.get("metrics") or {}).get("latency")
        audit.latencies[(entry["layer"], entry["scheduler"])] = latency
        if not entry["succeeded"] or outcome.mapping is None:
            audit.fail(index, "no valid mapping")
            continue
        if entry["mapping"] != outcome.mapping.summary():
            audit.fail(index, "envelope mapping differs from the returned mapping")
        for problem in check_mapping(entry["mapping"], outcome.layer.bounds, fanouts):
            audit.fail(index, problem)
        cost = model.evaluate(outcome.mapping)
        if not cost.valid:
            audit.fail(index, f"scalar cost model rejects it: {cost.violations}")
        elif (cost.latency, cost.energy) != (latency, entry["metrics"].get("energy")):
            audit.fail(index, "envelope metrics differ from the scalar re-evaluation")
        if index not in audit.failures:
            audit.pairs.append((cost.latency, cost.energy))
            words[index] = dram_boundary_traffic(NestAnalysis(outcome.mapping, accelerator))[0]

    for group in (result.data.get("fusion") or {}).get("groups", []):
        cost = group.get("cost") or {}
        problems = []
        if not (group.get("traffic") or {}).get("consistent"):
            problems.append("fused group traffic is not consistent")
        if not cost.get("valid"):
            problems.append("fused group cost is invalid")
        for index in group["indices"]:
            for problem in problems:
                audit.fail(index, f"{group['name']}: {problem}")
            words.pop(index, None)
        if not problems:
            words[group["name"], tuple(group["indices"])] = cost["dram_words"]
    audit.dram_words = float(sum(words.values()))
    return audit
