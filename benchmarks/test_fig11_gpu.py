"""Fig. 11: CoSA-GPU vs a TVM-like iterative tuner on ResNet-50."""

from bench_utils import full_evaluation, save_report

from repro.experiments.figures import fig11_gpu_comparison
from repro.experiments.reporting import format_table


def test_fig11_gpu_comparison(benchmark):
    num_layers = None if full_evaluation() else 4
    comparison = benchmark.pedantic(
        fig11_gpu_comparison,
        kwargs={"num_layers": num_layers, "tvm_trials": 50 if full_evaluation() else 25},
        rounds=1,
        iterations=1,
    )

    # The tracked report keeps only deterministic columns; wall-clock
    # seconds go to stdout so a test run leaves the tree clean.
    rows = [[r.layer, r.tvm_latency, r.cosa_latency, r.speedup] for r in comparison.rows]
    report = format_table(
        ["layer", "TVM-like latency", "CoSA latency", "CoSA speedup"],
        rows,
        title="Fig. 11 - GPU scheduling (ResNet-50, K80-like model)",
    )
    report += f"\n\nGeomean speedup: {comparison.geomean_speedup:.2f}"
    save_report("fig11_gpu", report)
    print(
        format_table(
            ["layer", "TVM time [s]", "CoSA time [s]"],
            [[r.layer, r.tvm_time_seconds, r.cosa_time_seconds] for r in comparison.rows],
            title="Fig. 11 - time to solution",
        )
    )
    print(f"time-to-solution ratio (TVM / CoSA): {comparison.time_to_solution_ratio:.1f}x")

    # Paper shape: CoSA is at least competitive with the iterative tuner
    # (1.10x geomean there) while producing its schedule in one shot.
    assert comparison.geomean_speedup > 0.7
    assert all(r.cosa_latency < float("inf") for r in comparison.rows)
