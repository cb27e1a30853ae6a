"""Fig. 10: per-network speedup over Random search on the NoC simulator."""

from bench_utils import layers_per_network, save_report

from repro.experiments.figures import fig10_noc_speedup
from repro.api import geometric_mean
from repro.experiments.reporting import format_speedup_rows, format_table


def test_fig10_noc_speedup(benchmark):
    summaries = benchmark.pedantic(
        fig10_noc_speedup,
        kwargs={"layers_per_network": layers_per_network(3)},
        rounds=1,
        iterations=1,
    )

    per_layer_rows = [
        [s.label, c.layer, c.hybrid_speedup, c.cosa_speedup]
        for s in summaries
        for c in s.comparisons
    ]
    overall_cosa = geometric_mean(s.cosa_geomean for s in summaries)
    overall_hybrid = geometric_mean(s.hybrid_geomean for s in summaries)
    report = format_speedup_rows(summaries, title="Fig. 10 - speedup vs Random (NoC simulator)")
    report += "\n\n" + format_table(
        ["network", "layer", "Timeloop Hybrid", "CoSA"], per_layer_rows, title="Per-layer speedups"
    )
    report += f"\n\nOVERALL geomean: Random=1.00  Hybrid={overall_hybrid:.2f}  CoSA={overall_cosa:.2f}"
    save_report("fig10_noc_speedup", report)

    # Paper shape: on the communication-sensitive platform CoSA keeps a clear
    # advantage over Random search (3.3x there).  The CoSA-vs-Hybrid ordering
    # is reported but not asserted: on the quick layer subset the two trade
    # places on the DeepBench layers, where the log-space traffic objective
    # cannot distinguish unicasting a large tensor from unicasting a small one.
    assert overall_cosa > 1.0
    assert any(s.cosa_geomean >= s.hybrid_geomean for s in summaries)
