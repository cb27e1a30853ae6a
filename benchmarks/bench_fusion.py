#!/usr/bin/env python
"""Benchmark: fused vs unfused DRAM traffic on the transformer-block presets.

For each group-aware transformer block preset the engine schedules the
block's nine operators under the preset fusion plan (the attention chain
QK -> softmax -> AV as one group, the matmuls as singletons) and the fused
cost model reports, per multi-operator group, the DRAM traffic with the
intermediates pinned on-chip versus the plain per-operator sum.  The
per-group numbers and block aggregates are printed as a table and written
(atomically) to ``BENCH_fusion.json`` (default under ``benchmarks/results/``)
so the fusion savings are tracked across PRs::

    python benchmarks/bench_fusion.py            # bert + gpt2 blocks
    python benchmarks/bench_fusion.py --quick    # bert block only
    python benchmarks/bench_fusion.py --check    # exit 1 unless every fused
                                                 # group strictly beats unfused
    python benchmarks/bench_fusion.py --check-fused 8
                                                 # also time batched fused
                                                 # evaluation and exit 1
                                                 # below an 8x geomean floor

``--check-fused`` (and plain runs, which time but do not gate) appends the
``repro bench fusion`` throughput report under the ``fused_eval`` key of
``BENCH_fusion.json``: scalar vs batched fused-group evaluation over
identical candidates, with the same parity audits.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import architectures
from repro.benchmarking import (
    check_fused_report,
    fused_bench_report,
    fusion_bench_groups,
    render_fused_row,
    render_fused_summary,
)
from repro.engine.cache import MappingCache
from repro.engine.engine import SchedulingEngine
from repro.fusion import bert_base_block_plan, gpt2_small_block_plan
from repro.io_utils import atomic_write_json

DEFAULT_OUT = Path(__file__).resolve().parent / "results" / "BENCH_fusion.json"

#: Block presets benchmarked: name -> plan factory.  The quick subset (CI)
#: keeps the BERT block; the GPT-2 block (seq 1024) rides in full runs.
BLOCKS = {
    "bert-base-block": bert_base_block_plan,
    "gpt2-small-block": gpt2_small_block_plan,
}
QUICK_BLOCKS = ("bert-base-block",)

#: Blocks the --check gate requires to fuse AND strictly beat unfused DRAM
#: traffic.  The GPT-2 block reports but does not gate: its seq-1024 score
#: matrices (37.8 MB) are capacity-bound on the 128 KB baseline buffer, so
#: the honest result there is "not fused" with the capacity reason.
REQUIRED_FUSED = ("bert-base-block",)


def bench_block(name: str, plan, arch) -> dict:
    """Schedule one block under its fusion plan and summarize the groups."""
    from repro.core.scheduler import CoSAScheduler

    engine = SchedulingEngine(CoSAScheduler(arch), cache=MappingCache())
    start = time.perf_counter()
    network = engine.schedule_network(plan.layers, fusion=plan, label=name)
    wall = time.perf_counter() - start

    groups = []
    fused_total = unfused_total = 0.0
    for outcome in network.groups:
        cost = outcome.cost
        entry = {
            "name": outcome.group.name,
            "num_layers": len(outcome.group),
            "fused": outcome.fused,
            "retiled": outcome.retiled,
            "pinned_edges": cost.num_pinned_edges if cost is not None else 0,
            "pipeline_rounds": cost.pipeline_rounds if cost is not None else 1,
            "dram_words": cost.dram_words if cost is not None else None,
            "unfused_dram_words": cost.unfused_dram_words if cost is not None else None,
            "noc_consistent": bool(outcome.traffic.get("consistent", False)),
        }
        if outcome.fused:
            entry["dram_reduction"] = 1.0 - cost.dram_words / cost.unfused_dram_words
            fused_total += cost.dram_words
            unfused_total += cost.unfused_dram_words
        elif cost is not None:
            entry["reason"] = next(
                (e.reason for e in cost.edges if not e.pinned and e.reason), None
            )
        groups.append(entry)

    return {
        "block": name,
        "num_layers": len(plan.layers),
        "num_groups": len(network.groups),
        "scheduled": network.num_succeeded,
        "wall_time_seconds": wall,
        "groups": groups,
        "fused_dram_words": fused_total,
        "unfused_dram_words": unfused_total,
        "dram_reduction": (1.0 - fused_total / unfused_total) if unfused_total else 0.0,
    }


def check_report(report: dict) -> list[str]:
    """The CI gate: required blocks must fuse; any fused group must win."""
    failures = []
    for block in report["blocks"]:
        fused = [g for g in block["groups"] if g["fused"]]
        if block["block"] in REQUIRED_FUSED and not fused:
            failures.append(f"{block['block']}: no group was fused")
            continue
        for group in fused:
            if not group["dram_words"] < group["unfused_dram_words"]:
                failures.append(
                    f"{block['block']}/{group['name']}: fused DRAM traffic "
                    f"{group['dram_words']} is not below unfused "
                    f"{group['unfused_dram_words']}"
                )
            if not group["noc_consistent"]:
                failures.append(
                    f"{block['block']}/{group['name']}: NoC reuse analysis "
                    "disagrees with the claimed fusion savings"
                )
    return failures


def render_block(block: dict) -> str:
    lines = [
        f"[{block['block']}] {block['scheduled']}/{block['num_layers']} scheduled "
        f"in {block['wall_time_seconds']:.1f}s"
    ]
    for group in block["groups"]:
        if group["fused"]:
            lines.append(
                f"  {group['name']:<24} dram {group['unfused_dram_words']:>12.0f}"
                f" -> {group['dram_words']:>12.0f} words "
                f"(-{100 * group['dram_reduction']:.1f}%, "
                f"{group['pipeline_rounds']} rounds, "
                f"{group['pinned_edges']} pinned edges)"
            )
        else:
            reason = group.get("reason") or "no pinnable edge"
            lines.append(f"  {group['name']:<24} not fused ({reason})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="bert block only")
    parser.add_argument("--batch", type=int, default=1, help="batch size N")
    parser.add_argument(
        "--arch", default="baseline-4x4", choices=sorted(architectures.available())
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON report path")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every block fuses and strictly lowers DRAM traffic",
    )
    parser.add_argument(
        "--check-fused", type=float, default=None, metavar="FLOOR",
        help="exit 1 unless the batched fused-eval geomean speedup reaches FLOOR",
    )
    parser.add_argument(
        "--fused-samples", type=int, default=128,
        help="candidate group tilings per group in the fused-eval timing",
    )
    args = parser.parse_args(argv)

    arch = architectures.create(args.arch)
    names = QUICK_BLOCKS if args.quick else tuple(BLOCKS)
    blocks = []
    for name in names:
        plan = BLOCKS[name](batch=args.batch)
        block = bench_block(name, plan, arch)
        print(render_block(block))
        blocks.append(block)

    report = {
        "benchmark": "fusion",
        "arch": args.arch,
        "batch": args.batch,
        "quick": args.quick,
        "blocks": blocks,
    }

    print()
    fused_eval = fused_bench_report(
        fusion_bench_groups(quick=args.quick),
        args.fused_samples,
        seed=0,
        arch=arch,
        quick=args.quick,
        progress=lambda row: print(render_fused_row(row)),
    )
    print(render_fused_summary(fused_eval))
    report["fused_eval"] = fused_eval
    fused_failures = check_fused_report(fused_eval, check=args.check_fused)

    atomic_write_json(args.out, report)
    print(f"\nreport written to {args.out}")

    failures = (check_report(report) if args.check else []) + fused_failures
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
