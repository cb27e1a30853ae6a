"""Table VI: time-to-solution comparison of CoSA and the search baselines."""

from bench_utils import full_evaluation, layers_per_network, save_report

from repro.experiments.reporting import format_table
from repro.experiments.tables import table6_time_to_solution


def test_table6_time_to_solution(benchmark):
    kwargs = {"layers_per_network": layers_per_network(2)}
    if full_evaluation():
        kwargs.update(hybrid_threads=8, hybrid_termination=256, hybrid_max_evaluations=8000)
    table = benchmark.pedantic(table6_time_to_solution, kwargs=kwargs, rounds=1, iterations=1)

    # The tracked report keeps only deterministic columns; wall-clock
    # seconds go to stdout so a test run leaves the tree clean.
    save_report(
        "table6_time_to_solution",
        format_table(
            ["scheduler", "avg samples / layer", "avg evaluations / layer"],
            [[row.scheduler, row.avg_samples, row.avg_evaluations] for row in table.rows],
            title=f"Table VI - time to solution ({table.num_layers} layers)",
        ),
    )
    runtimes = [[row.scheduler, row.avg_runtime_seconds] for row in table.rows]
    runtimes.append(["Hybrid runtime / CoSA runtime", table.cosa_advantage_over_hybrid])
    print(format_table(["scheduler", "avg runtime / layer [s]"], runtimes, title="Table VI - runtime"))

    # Shape checks: CoSA evaluates exactly one schedule per layer while the
    # search baselines sample many; the hybrid mapper evaluates far more
    # valid mappings than Random's five.
    assert table.row("CoSA").avg_evaluations == 1.0
    assert table.row("Timeloop Hybrid").avg_evaluations > table.row("Random").avg_evaluations
    assert table.row("Timeloop Hybrid").avg_samples > 10
