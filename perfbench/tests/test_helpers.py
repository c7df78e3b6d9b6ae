"""Tests of the benchmark's own helpers: span arithmetic, statistics, names, gate.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer  # noqa: E402

# root [0, 100] > a [10, 40] > a.inner [15, 25];  root > b [50, 90]
NESTED = [
    ("root", 0, 100, -1),
    ("a", 10, 40, 0),
    ("inner", 15, 25, 1),
    ("b", 50, 90, 0),
    ("later", 120, 130, -1),
]


def test_self_times_subtract_direct_children_only():
    assert stats.self_times(NESTED) == [30, 20, 10, 40, 10]


def test_layer_totals_sum_calls_total_and_self():
    spans = NESTED + [("b", 95, 99, 0)]
    totals = stats.layer_totals(spans)
    assert totals["b"] == {"calls": 2, "total_ns": 44, "self_ns": 44}
    assert totals["root"] == {"calls": 1, "total_ns": 100, "self_ns": 26}


def test_time_under_counts_outermost_named_spans_below_root():
    inside, root = stats.time_under(NESTED, {"a", "inner", "later"}, "root")
    assert (inside, root) == (30, 100)  # "inner" sits in "a"; "later" is outside root
    assert stats.time_under(NESTED, {"a"}, "missing") == (0, 0)


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)), count=lambda c, a, k, r: c.update(result=r))
    assert outer(1) == 3
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert stats.self_times(tracer.spans) == [5 - 2 * 1, 1, 1]
    assert tracer.counters == {"result": 3}


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer(clock=iter(range(10)).__next__)

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans == [["boom", 0, 1, -1]]
    assert tracer.wrap("after", lambda: None)() is None
    assert tracer.spans[1][3] == -1


@pytest.mark.parametrize("name", ["setup_s", "cli.import_ms", "qsim.SpectralObservable.__post_init__.self_ms", "a-b.c_9"])
def test_metric_name_pattern_accepts(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "slash/name", "x" * 65, "semi;colon"])
def test_metric_name_pattern_rejects(name):
    assert not stats.valid_metric_name(name)


def test_every_declared_metric_name_is_valid_and_unique():
    names = [m["name"] for m in layers.per_layer_metrics()]
    names += ["setup_s", "wall_s", "runs_per_s", "cpu_s", "peak_rss_mb"]
    assert len(names) == len(set(names)) <= 128 + 16
    assert all(stats.valid_metric_name(n) for n in names)


def test_benchmark_json_matches_the_benchmark():
    import run

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert declared["per_layer"] == layers.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == run.WORKLOADS
    assert max(m["bound"] for m in declared["end_to_end"]) == next(
        m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize(
    "count, tail",
    [(1, None), (10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, tail):
    assert stats.tail_percentile(count) == tail


def test_summarize_reports_median_count_and_supported_tail():
    assert stats.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "count": 3}
    summary = stats.summarize(range(101))
    assert summary == {"median": 50, "count": 101, "p90": 90.0}


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([1, 2, 3, 4], 75) == 3.25
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# --------------------------------------------------------------------------
# Correctness gate on real reports from the CLI, then tampered copies.


def _cli(tmp_path, call: gate.Call, *argv) -> tuple[str, str]:
    from wignerlab import cli

    out = tmp_path / f"report.{call.fmt}"
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main([*argv, "--format", call.fmt, "--out", str(out)]) == 0
    return buffer.getvalue(), out.read_text()


def test_gate_accepts_then_rejects_tampered_hardy(tmp_path):
    call = gate.Call("hardy", "structured")
    stdout, report = _cli(tmp_path, call, "--scenario", "hardy")
    assert gate.check(call, stdout, report) == []
    doc = json.loads(report)
    doc["joint"]["distribution"]["--"] = 1 / 12 + 1e-9
    assert any("1/12" in p for p in gate.check(call, stdout, json.dumps(doc)))
    doc = json.loads(report)
    doc["contradiction"] = False
    assert gate.check(call, stdout, json.dumps(doc))
    assert gate.check(call, stdout.replace("(= 1/12)", ""), report)


def test_gate_rejects_flipped_contradiction_in_sweep(tmp_path):
    call = gate.Call("pm-sweep", "structured", runs=3, seed=7)
    stdout, report = _cli(tmp_path, call, "--scenario", "pm-sweep", "--runs", "3", "--seed", "7")
    assert gate.check(call, stdout, report) == []
    doc = json.loads(report)
    doc["runs"][1]["contradiction"] = False
    assert gate.check(call, stdout, json.dumps(doc)) == ["pm-sweep run 1: contradiction is False"]
    doc = json.loads(report)
    doc["runs"][2]["square_constraints"]["colC"] = 1.0
    assert gate.check(call, stdout, json.dumps(doc)) == ["pm-sweep run 2: colC = 1.0, target -1"]
    assert gate.check(call, stdout.replace("3/3", "2/3"), report)


def test_gate_reads_text_reports(tmp_path):
    call = gate.Call("peres-mermin", "text", "projective", state=((0.6, 0.0), (0.0, 0.0), (0.0, 0.0), (0.8, 0.0)))
    stdout, report = _cli(tmp_path, call, "--scenario", "peres-mermin", "--state", "[0.6, 0, 0, 0.8]")
    assert gate.check(call, stdout, report) == []
    tampered = report.replace("contradiction: true", "contradiction: false", 1)
    assert gate.check(call, stdout, tampered)
    assert gate.check(gate.Call("peres-mermin", "text", "projective", state="phi-"), stdout, report)


def test_text_parser_inverts_the_renderer():
    from wignerlab.cli import emit_report

    doc = {"a": {"--": 0.25, "+-": -1, "flag": True, "none": None}, "items": [{"x": 1}, {"x": 2}], "pairs": [[0.5, 0.0]]}
    assert gate.parse_text_report(emit_report(doc, "text")) == doc
