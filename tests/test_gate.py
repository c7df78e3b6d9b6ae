"""The benchmark's correctness gate over in-process CLI runs.

`perfbench/gate.py` is loaded by path, read-only, and applied to the summary
and report of the invocations the benchmark makes (the cold-start mix and
short sweeps), so a change that would make the benchmark count failed
operations fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wignerlab import cli

GATE = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"

AMPLITUDES = ((0.5, 0.5), (0.0, 0.5), (0.5, 0.0), (0.0, 0.0))


def load_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


gate = load_gate()


def calls():
    out = [
        gate.Call("hardy", "structured"),
        gate.Call("hardy", "text"),
        gate.Call("hardy", "structured", state=AMPLITUDES),
        gate.Call("hardy", "text", state=AMPLITUDES),
    ]
    for state in ("psi-", AMPLITUDES):
        for mode in ("projective", "expectation"):
            for fmt in ("structured", "text"):
                out.append(gate.Call("peres-mermin", fmt, mode, state))
    out.append(gate.Call("peres-mermin", "structured", "expectation", AMPLITUDES, via_config=True))
    for mode in ("projective", "expectation"):
        for fmt in ("structured", "text"):
            out.append(gate.Call("pm-sweep", fmt, mode, runs=5, seed=13))
    return out


def argv(call, report: Path) -> list[str]:
    """The command line for `call`, spelled as the benchmark spells it."""
    options = {"scenario": call.scenario, "format": call.fmt, "out": str(report)}
    if call.scenario != "hardy":
        options["mode"] = call.mode
    if isinstance(call.state, str):
        options["state"] = call.state
    elif call.state is not None:
        options["state"] = [list(pair) for pair in call.state]
    if call.scenario == "pm-sweep":
        options.update(runs=call.runs, seed=call.seed)
    if call.via_config:
        config = report.with_suffix(".config.json")
        config.write_text(json.dumps({"schema": "wignerlab-config/1", **options}))
        return ["--config", str(config)]
    out = []
    for key, value in options.items():
        out += [f"--{key}", value if isinstance(value, str) else json.dumps(value)]
    return out


def call_id(call) -> str:
    state = call.state if isinstance(call.state, str) else "amplitudes" if call.state else "default"
    parts = [call.scenario, call.fmt, state if call.scenario != "pm-sweep" else f"runs{call.runs}"]
    if call.scenario != "hardy":
        parts.insert(1, call.mode)
    return "-".join(parts + (["config"] if call.via_config else []))


@pytest.mark.parametrize("call", calls(), ids=call_id)
def test_benchmark_invocation_passes_the_gate(call, tmp_path, capsys):
    report = tmp_path / "report"
    assert cli.main(argv(call, report)) == 0
    stdout = capsys.readouterr().out
    assert gate.check(call, stdout, report.read_text()) == []


def test_gate_sees_a_broken_report(tmp_path, capsys):
    call = gate.Call("hardy", "structured")
    report = tmp_path / "report"
    assert cli.main(argv(call, report)) == 0
    doc = json.loads(report.read_text())
    doc["contradiction"] = False
    assert gate.check(call, capsys.readouterr().out, json.dumps(doc))
