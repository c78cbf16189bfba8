"""Tests of the benchmark's own logic: span arithmetic, the percentile rule
and failure counting.  Run from the repository root with

    python3 -m pytest -q perfbench
"""

import copy
import json
import os

import run
import tracing
import workloads


def span(name, start, end, parent=None, **counters):
    return {"name": name, "op": 0, "parent": parent, "start": start, "end": end,
            "counters": counters}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),      # overlaps a: counted once
        span("a.inner", 2.0, 3.0, parent=1),
        span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0]


def test_op_metrics_derive_record_time_and_prefilter_ratio():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("geometry.is_inside_tube", 0.5, 1.0, parent=0, points=100),
        span("geometry.nearest_parameter_batch", 0.6, 0.9, parent=1, points=25),
        span("geometry.nearest_parameter_batch", 1.0, 1.5, parent=0, points=40),
        span("sim.run", 2.0, 9.0, parent=0, records=3),
        span("sim.factorize", 2.0, 3.0, parent=4),
        span("sim.step", 3.0, 4.0, parent=4),
        span("sim.step", 4.5, 5.5, parent=4),
        span("sim.energy_ledger", 8.0, 8.5, parent=4),
    ]
    m, steps = tracing.op_metrics(spans, wall_s=11.0)
    assert m["geometry.prefilter_hit_ratio"] == 0.25
    assert m["geometry.nearest_parameter_batch.points"] == 65
    assert m["geometry.is_inside_tube.temp_bytes"] == 100 * 256 * 3 * 8
    assert m["sim.step.count"] == 2 and m["sim.step.s"] == 2.0
    assert m["sim.record.s"] == 7.0 - 1.0 - 2.0 - 0.5
    assert m["sim.record.count"] == 3
    assert m["trace.uncovered_s"] == 1.0
    assert steps == [1.0, 1.0]


def test_percentile_needs_ten_samples_beyond_it():
    assert tracing.percentile_supported(200, 95.0)
    assert not tracing.percentile_supported(199, 95.0)
    assert tracing.tail_percentile(19) is None
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(200) == 95.0
    assert tracing.tail_percentile(15000) == 99.9
    values = [float(v) for v in range(1, 101)]
    assert tracing.percentile(values, 50.0) == 50.0
    assert tracing.percentile(values, 95.0) == 95.0


def test_run_metrics_report_every_layer_metric():
    spans = [span("cli.main", 0.0, 1.0)]
    out = tracing.run_metrics([(spans, 1.5)], untraced_walls=[1.25])
    assert set(out) == set(tracing.LAYER_METRICS)
    assert out["trace.overhead_s"] == 0.25
    assert out["sim.step.ms_p95"] == 0.0 and out["sim.step.tail_pct"] == 0.0


def test_rejected_scenario_counts_as_failed_op(tmp_path, monkeypatch, capsys):
    name = "single_n1152_longrun"
    bad = copy.deepcopy(workloads.WORKLOADS[name]["config"])
    bad["sim"]["T"] = bad["sim"]["dt"] / 2     # the CLI exits 2: T < dt
    monkeypatch.setattr(workloads, "scenario_for", lambda *args: copy.deepcopy(bad))
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "pair_s3_certify", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.LAYER_METRICS
