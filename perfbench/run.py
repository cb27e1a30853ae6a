"""End-to-end scheduling benchmark: time-to-solution and schedule quality.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cosa-resnet50 --seed 1 --seconds 35 --trace 0

Each pass of the workload runs in a fresh interpreter (``worker.py``), so
it pays what a user pays on every ``repro run``.  With ``--trace 0`` the
command repeats passes while another one still fits in ``--seconds``
(always at least one), takes extra set-up-only samples up to
``SETUP_SAMPLES``, and reports medians of the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one, plus the tracing overhead.

Every returned schedule is audited (``audit.py``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it restate each metric with its unit, the
deterministic counts, the known bad cases and the environment stamp.  The
command exits non-zero when an audit fails or the program source is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per run (passes count as samples too).
SETUP_SAMPLES = 3
#: Hard cap on one worker process, well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_cycles_geomean", "cycles"),
    ("energy_pj_geomean", "pJ"),
    ("dram_words", "words"),
    ("peak_rss_mb", "MB"),
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def spawn(workload: str, seed: int, trace: int = 0, setup_only: bool = False) -> dict:
    """Run one ``worker.py`` process and return its JSON report."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.time())]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with {done.returncode}: {' '.join(command)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stamp() -> dict:
    """CPU count, commit and a digest of the program source."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "git_commit": commit, "source_sha256": digest.hexdigest()}


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    quality = passes[0]["quality"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(report["wall_s"] for report in passes),
        "latency_cycles_geomean": quality["latency_cycles_geomean"],
        "energy_pj_geomean": quality["energy_pj_geomean"],
        "dram_words": quality["dram_words"],
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in passes),
    }


def repeat_problems(passes: list[dict]) -> list[str]:
    """Simulated metrics and deterministic counts must repeat exactly."""
    return [
        f"{key} differ between passes of one seed"
        for report in passes[1:]
        for key in ("quality", "counts")
        if report[key] != passes[0][key]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        untraced = spawn(args.workload, args.seed)
        traced = spawn(args.workload, args.seed, trace=1)
        passes = [untraced, traced]
        layers = {**traced["layers"], "trace.overhead_s": traced["wall_s"] - untraced["wall_s"]}
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
        summary = f"traced wall_s {traced['wall_s']:.4f} s, untraced {untraced['wall_s']:.4f} s"
    else:
        start = time.monotonic()
        passes = []
        while True:
            began = time.monotonic()
            passes.append(spawn(args.workload, args.seed))
            took = time.monotonic() - began
            if time.monotonic() - start + took > args.seconds:
                break
        setups = [report["setup_s"] for report in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, setup_only=True)["setup_s"])
        values = end_to_end(passes, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        summary = f"set-up median of {len(setups)} samples"

    attempted = sum(report["attempted"] for report in passes)
    failed = sum(report["failed"] for report in passes)
    problems = [message for report in passes for message in report["failures"]]
    problems += repeat_problems(passes)
    correct = failed == 0 and not problems
    env = {**stamp(), **passes[-1]["env"]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(summary)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"counts {json.dumps(passes[0]['counts'], sort_keys=True)}")
    for case in passes[0]["known_bad"]:
        print(
            f"known bad: {case['layer']} ({case['scheduler']}) "
            f"latency {case['latency_cycles']:.6g} cycles; {case['note']}"
        )
    print(f"failed_frac = {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for message in problems[:20]:
        print(f"AUDIT FAILURE: {message}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "env": env, "passes": passes,
              "metrics": metrics}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
