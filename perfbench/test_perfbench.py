"""Tests of the benchmark itself: tiny smoke inputs and the span arithmetic.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from audit import check_mapping, parse_summary  # noqa: E402
from tracing import Tracer, install, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10] has two overlapping children (parallel threads) covering
    # [1, 6] and one child that outlives it, clipped to [8, 10].
    spans = [
        ["root", None, 0.0, 10.0, 0],
        ["a", 0, 1.0, 4.0, 0],
        ["b", 0, 3.0, 6.0, 0],
        ["c", 0, 8.0, 12.0, 0],
        ["leaf", 1, 2.0, 3.0, 0],
        ["b", None, 20.0, 20.5, 1],
    ]
    totals = self_times(spans)
    assert totals["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["a"] == pytest.approx(3.0 - 1.0)
    assert totals["b"] == pytest.approx(3.0 + 0.5)
    assert totals["c"] == pytest.approx(4.0)
    assert totals["leaf"] == pytest.approx(1.0)


def test_spans_nest_per_thread_and_inherit_from_the_client():
    import threading

    tracer = Tracer()
    with tracer.span("op") as op:
        with tracer.span("child") as child:
            pass
        seen = {}

        def work():
            with tracer.span("worker") as span:
                seen["worker"] = span

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert tracer.spans[child][1] == op
    assert tracer.spans[seen["worker"]][1] == op


def test_install_restores_every_wrapped_attribute():
    from concurrent.futures import ThreadPoolExecutor

    from repro.api import runner
    from repro.model.cost import CostModel

    before = (runner.run, CostModel.evaluate, ThreadPoolExecutor.submit)
    with install(Tracer()):
        assert runner.run is not before[0]
    assert (runner.run, CostModel.evaluate, ThreadPoolExecutor.submit) == before


def test_audit_rejects_wrong_factors_and_fanout_overflow():
    bounds = {"K": 64, "C": 8}
    good = "L0: s[K16] t[C8] | L1: s[-] t[K4]"
    assert parse_summary(good)[0] == ([("K", 16)], [("C", 8)])
    assert check_mapping(good, bounds, [16, 1]) == []
    assert any("K: factors multiply" in p for p in check_mapping(good, {"K": 32, "C": 8}, [16, 1]))
    assert any("spatial fanout 16 > 8" in p for p in check_mapping(good, bounds, [8, 1]))
    assert check_mapping("L0: s[K16]", bounds, [16]) == ["unreadable level 0: 'L0: s[K16]'"]


def test_benchmark_json_workloads_exist_with_their_reasons():
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_audit_counts_each_tampered_schedule_as_failed(monkeypatch):
    import copy
    import dataclasses

    from repro.api import runner
    from repro.model.cost import CostModel

    workload = WORKLOADS["cosa-transformer"]
    (spec,) = worker.setup(workload, seed=3, smoke=True)
    result = runner.run(spec)
    clean, _ = worker._audit([result])
    assert clean["attempted"] >= 2 and clean["failed"] == 0, clean["failures"]

    def tampered(edit):
        copied = dataclasses.replace(result, data=copy.deepcopy(result.data))
        edit(copied.data)
        return copied

    def wrong_latency(data):
        data["outcomes"][0]["metrics"]["latency"] += 1

    def inconsistent(data):
        data["fusion"]["groups"][0]["traffic"]["consistent"] = False

    group_size = len(result.data["fusion"]["groups"][0]["indices"])
    summary, _ = worker._audit([tampered(wrong_latency), tampered(inconsistent), result])
    assert summary["failed"] == 1 + group_size
    assert summary["attempted"] == 3 * clean["attempted"]
    assert any("differ from the scalar re-evaluation" in m for m in summary["failures"])
    assert any("traffic is not consistent" in m for m in summary["failures"])

    evaluate = CostModel.evaluate

    def rejecting(self, mapping):
        return dataclasses.replace(evaluate(self, mapping), valid=False)

    monkeypatch.setattr(CostModel, "evaluate", rejecting)
    summary, _ = worker._audit([result])
    assert summary["failed"] == clean["attempted"]
    assert all("scalar cost model rejects it" in m for m in summary["failures"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_reports_every_metric_with_its_unit(name):
    workload = WORKLOADS[name]
    specs = worker.setup(workload, seed=3, smoke=True)
    report = worker.run_pass(workload, specs)
    assert report["attempted"] >= 1 and report["failed"] == 0, report["failures"]

    values = run.end_to_end([report], [0.5])
    declared = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert declared == set(run.END_TO_END)
    assert set(values) == {metric for metric, _ in run.END_TO_END}
    assert all(values[metric] > 0 for metric in values), values

    traced = worker.run_pass(workload, specs, trace=True)
    assert traced["quality"] == report["quality"]
    assert traced["counts"] == report["counts"]
    reported = {metric: run.layer_unit(metric) for metric in traced["layers"]}
    reported["trace.overhead_s"] = run.layer_unit("trace.overhead_s")
    assert reported == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_run_refuses_to_measure_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "cosa-resnet50", "--seed", "1", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
