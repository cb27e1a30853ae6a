"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass so every pass pays what a user
pays on every ``repro run``: a cold interpreter, cold imports and cold
process-wide caches.  It prints one JSON object on stdout::

    python3 perfbench/worker.py --workload cosa-resnet50 --seed 1 --trace 0 \\
        --spawned-at "$(date +%s.%N)"

``--setup-only`` stops after set-up, so ``run.py`` can take more set-up
samples without repeating the workload.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
for path in (str(SRC), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from audit import audit_schedule  # noqa: E402
from tracing import DETERMINISTIC_COUNTS, Tracer, install, layer_metrics  # noqa: E402
from workloads import ARCH, KNOWN_BAD, WORKLOADS  # noqa: E402


def setup(workload, seed: int, smoke: bool = False) -> list:
    """Import the stacks the workload uses and resolve its specs."""
    import repro.api.runner  # noqa: F401
    import repro.engine.engine  # noqa: F401
    import repro.model.cost  # noqa: F401
    from repro.api import RunSpec, architectures, schedulers

    accelerator = architectures.create(ARCH)
    for name in workload.schedulers:
        schedulers.create(name, accelerator)
    if workload.fusion:
        import repro.fusion.schedule  # noqa: F401
        import repro.noc.traffic  # noqa: F401
    return [RunSpec.from_dict(dict(spec, arch=ARCH)) for spec in workload.specs(seed, smoke)]


def _kernel_compiles() -> int:
    kernels = sys.modules.get("repro.model.kernels")
    if kernels is None:
        return 0
    info = kernels.kernel_cache_info()
    return info["misses"] + info["fused_misses"]


def _execute(specs, tracer: Tracer):
    """Run the op stream as a closed loop; returns ``(wall_s, outputs)``."""
    from repro.api import runner

    outputs = []
    start = time.perf_counter()
    for index, spec in enumerate(specs):
        tracer.run_id = index
        try:
            outputs.append(runner.run(spec))
        except Exception as error:  # a failed op is counted, not fatal
            outputs.append(error)
    return time.perf_counter() - start, outputs


def _geomean(values) -> float:
    return math.exp(math.fsum(math.log(value) for value in values) / len(values)) if values else 0.0


def _audit(outputs) -> tuple[dict, dict]:
    """Audit every op; returns the summary and ``{(layer, scheduler): latency}``."""
    attempted = failed = 0
    messages: list[str] = []
    pairs: list[tuple[float, float]] = []
    dram_words = 0.0
    layer_latency: dict = {}
    for result in outputs:
        if isinstance(result, BaseException):
            attempted += 1
            failed += 1
            messages.append(f"op failed: {type(result).__name__}: {result}")
            continue
        audit = audit_schedule(result)
        messages.extend(
            f"{result.data['label']}[{index}]: {problem}"
            for index, problems in sorted(audit.failures.items())
            for problem in problems
        )
        layer_latency.update(audit.latencies)
        attempted += audit.ops
        failed += len(audit.failures)
        pairs.extend(audit.pairs)
        dram_words += audit.dram_words
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:20],
        "quality": {
            "latency_cycles_geomean": _geomean([latency for latency, _ in pairs]),
            "energy_pj_geomean": _geomean([energy for _, energy in pairs]),
            "dram_words": dram_words,
        },
    }
    return summary, layer_latency


def run_pass(workload, specs, trace: bool = False, spans_path: Path | None = None) -> dict:
    """Execute, then audit, one pass over ``specs``; see the module docstring."""
    tracer = Tracer()
    compiles_before = _kernel_compiles()
    with install(tracer, timed=trace):
        wall, outputs = _execute(specs, tracer)
    tracer.counts["model.kernel.compiles"] = _kernel_compiles() - compiles_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    audited, layer_latency = _audit(outputs)
    report = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        **audited,
        "counts": {name: tracer.counts.get(name, 0) for name in DETERMINISTIC_COUNTS},
        "known_bad": [
            {"layer": layer, "scheduler": scheduler, "latency_cycles": latency, "note": note}
            for name, bad_layer, note in KNOWN_BAD
            if name == workload.name
            for (layer, scheduler), latency in sorted(layer_latency.items())
            if layer == bad_layer
        ],
    }
    if trace:
        report["layers"] = layer_metrics(tracer)
        if spans_path is not None:
            tracer.write(spans_path)
    return report


def environment() -> dict:
    """Library versions of this interpreter (``run.py`` adds CPU and commit)."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    specs = setup(workload, args.seed)
    report = {"setup_s": time.time() - args.spawned_at}
    if not args.setup_only:
        spans_path = None
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        report.update(run_pass(workload, specs, trace=bool(args.trace), spans_path=spans_path))
        report["env"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
