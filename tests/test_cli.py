"""Command-line behavior: flags, config files, exit codes, report emission."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from wignerlab import cli, contextuality, scenarios
from wignerlab.cli import ConfigError, emit_report, parse_state
from wignerlab.qsim import InvariantError


def run_main(argv):
    return cli.main(argv)


class TestStateParsing:
    def test_bell_names(self):
        state = parse_state("psi-")
        assert np.allclose(state.amplitudes, np.array([0, 1, -1, 0]) / np.sqrt(2))

    def test_basis_bits(self):
        state = parse_state("10")
        assert np.allclose(state.amplitudes, [0, 0, 1, 0])

    def test_amplitude_list(self):
        state = parse_state("[0.5, 0.5, 0.5, 0.5]")
        assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5])

    def test_complex_pairs(self):
        state = parse_state([[0, 0.70710678118654752], [0.70710678118654752, 0], [0, 0], [0, 0]])
        assert np.allclose(state.amplitudes, [0.70710678118654752j, 0.70710678118654752, 0, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigError, match="length 4"):
            parse_state("[1, 0]")

    def test_norm_too_far_rejected(self):
        # 1e-6 off is inside a 1e-3 bound but outside the documented 1e-8 one.
        for spec in ("[1, 1, 0, 0]", "[0.999999, 0, 0, 0]"):
            with pytest.raises(ConfigError, match="deviates"):
                parse_state(spec)

    def test_small_deviation_renormalized_with_warning(self):
        warnings = []
        state = parse_state("[1.000000004, 0, 0, 0]", warn=warnings.append)
        assert warnings and "renormalizing" in warnings[0]
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError, match="not a Bell name"):
            parse_state("sideways")

    @pytest.mark.parametrize(
        "spec", ["[NaN, 0, 0, 1]", "[Infinity, 0, 0, 0]", [[1, float("nan")], 0, 0, 0]]
    )
    def test_non_finite_rejected(self, spec):
        with pytest.raises(ConfigError, match="finite"):
            parse_state(spec)

    @pytest.mark.parametrize(
        "spec",
        ['[["a", 0], 0, 0, 0]', "[[null, 0], 0, 0, 0]", "[true, 0, 0, 0]", [[0, False], 0, 0, 0]],
    )
    def test_non_real_parts_rejected(self, spec):
        with pytest.raises(ConfigError, match="real numbers"):
            parse_state(spec)

    @pytest.mark.parametrize(
        "spec",
        ["[1e200, 1e200, 0, 0]", "[[0.8, 0.8], 0, 0, 0]", "[" + "9" * 400 + ", 0, 0, 0]"],
        ids=["overflowing-pair", "pair-above-one", "long-integer"],
    )
    def test_entry_modulus_above_one_rejected(self, spec):
        with pytest.raises(ConfigError, match="modulus above"):
            parse_state(spec)


class TestHardyCommand:
    def test_summary_and_report(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        status = run_main(
            ["--scenario", "hardy", "--format", "structured", "--out", str(out)]
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert "P(A=-1,B=-1) = 0.0833333333" in printed
        assert "(= 1/12)" in printed
        assert "CONTRADICTION" in printed
        doc = json.loads(out.read_text())
        assert doc["kind"] == "hardy"
        assert doc["joint"]["distribution"]["--"] == pytest.approx(1 / 12, abs=1e-14)
        assert doc["epistemic"]["violation"]["step"] == 1

    def test_non_hardy_state_is_consistent(self, tmp_path, capsys):
        status = run_main(
            ["--scenario", "hardy", "--state", "00", "--out", str(tmp_path / "h.txt")]
        )
        assert status == 0
        assert "consistent" in capsys.readouterr().out


class TestPMCommand:
    def test_paper_facing_summary_line(self, tmp_path, capsys):
        status = run_main(
            ["--scenario", "peres-mermin", "--state", "phi+", "--out", str(tmp_path / "pm.txt")]
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert (
            "C constraint: c1*c2*c3 = -1; A parity: even; "
            "retrodicted A parity: odd; CONTRADICTION" in printed
        )

    @pytest.mark.parametrize(
        "parities,expected", [((+1,), "even"), ((-1,), "odd"), ((+1, -1), "mixed")]
    )
    def test_summary_derives_the_retrodicted_parity(self, parities, expected):
        report = scenarios.run_pm_protocol(scenarios.build_pm_scenario(scenarios.bell_state("phi+")))
        branch = report.c_branches[0]
        branches = tuple(
            replace(branch, retrodiction=replace(branch.retrodiction, required_a_parity=p))
            for p in parities
        )
        expectations = {**report.expectations, "C1*C2*C3": 1.0}
        out = io.StringIO()
        cli._pm_run_summary(replace(report, c_branches=branches, expectations=expectations), out)
        line = next(s for s in out.getvalue().splitlines() if s.startswith("C constraint:"))
        assert line.startswith("C constraint: c1*c2*c3 = +1; A parity: even; ")
        assert f"retrodicted A parity: {expected};" in line
        if expected != "odd":
            assert "odd" not in line

    def test_text_report_contains_six_constraints(self, tmp_path):
        out = tmp_path / "pm.txt"
        run_main(["--scenario", "peres-mermin", "--out", str(out)])
        text = out.read_text()
        for line in ("row1", "row2", "row3", "colA", "colB", "colC"):
            assert line in text

    def test_expectation_mode(self, tmp_path, capsys):
        status = run_main(
            [
                "--scenario",
                "peres-mermin",
                "--mode",
                "expectation",
                "--out",
                str(tmp_path / "pm.txt"),
            ]
        )
        assert status == 0
        assert "expectation-only" in capsys.readouterr().out


class TestSweepCommand:
    def test_contradiction_count(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        status = run_main(
            [
                "--scenario", "pm-sweep", "--runs", "5", "--seed", "3",
                "--format", "structured", "--out", str(out),
            ]
        )
        assert status == 0
        assert "contradictions: 5/5" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["contradictions"] == 5
        assert len(doc["runs"]) == 5

    def test_default_sweep_is_twenty_runs(self, tmp_path, capsys):
        status = run_main(["--scenario", "pm-sweep", "--out", str(tmp_path / "s.txt")])
        assert status == 0
        assert "contradictions: 20/20" in capsys.readouterr().out

    def test_empty_sweep_header_only(self, tmp_path, capsys):
        out = tmp_path / "sweep.txt"
        status = run_main(["--scenario", "pm-sweep", "--runs", "0", "--out", str(out)])
        assert status == 0
        assert "contradictions: 0/0" in capsys.readouterr().out
        doc_text = out.read_text()
        assert "kind: pm-sweep" in doc_text
        assert "- [0]" not in doc_text  # no run items

    @pytest.mark.parametrize("format", cli.FORMATS)
    @pytest.mark.parametrize(
        "flags",
        [
            ["--scenario", "hardy"],
            ["--scenario", "peres-mermin", "--state", "[[0.5,0.5],0,[0,-0.5],0.5]"],
            ["--scenario", "peres-mermin", "--state", "[[0.5,0.5],0,[0,-0.5],0.5]", "--mode", "expectation"],
            ["--scenario", "pm-sweep", "--runs", "3", "--seed", "77"],
        ],
        ids=["hardy", "peres-mermin-projective", "peres-mermin-expectation", "pm-sweep"],
    )
    def test_determinism_byte_identical(self, fresh_frames, tmp_path, capsys, flags, format):
        # The first run builds the frame, the second reads the cached one.
        reports, summaries = [], []
        for path in (tmp_path / "a", tmp_path / "b"):
            assert run_main(flags + ["--format", format, "--out", str(path)]) == 0
            reports.append(path.read_bytes())
            summaries.append(capsys.readouterr().out.replace(str(path), "<out>"))
        assert reports[0] == reports[1]
        assert summaries[0] == summaries[1]


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "schema": "wignerlab-config/1",
                    "scenario": "pm-sweep",
                    "runs": 2,
                    "seed": 5,
                    "out": str(tmp_path / "from_config.txt"),
                }
            )
        )
        status = run_main(["--config", str(config), "--runs", "4"])
        assert status == 0
        assert "contradictions: 4/4" in capsys.readouterr().out

    def test_malformed_json_line_anchored(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{\n  "scenario": "hardy",\n  oops\n}\n')
        status = run_main(["--config", str(config)])
        assert status == 2
        err = capsys.readouterr().err
        assert "broken.json:3:3" in err

    def test_unknown_keys_rejected(self, tmp_path):
        config = tmp_path / "extra.json"
        config.write_text(json.dumps({"scenario": "hardy", "shots": 3}))
        assert run_main(["--config", str(config)]) == 2

    def test_missing_scenario(self):
        assert run_main([]) == 2

    def test_bad_mode_flag_exits_2(self):
        with pytest.raises(SystemExit) as exit_info:
            run_main(["--scenario", "hardy", "--mode", "noisy"])
        assert exit_info.value.code == 2

    def test_bad_mode_in_config(self, tmp_path):
        config = tmp_path / "mode.json"
        config.write_text(json.dumps({"scenario": "hardy", "mode": "noisy"}))
        assert run_main(["--config", str(config)]) == 2


class TestExitCodes:
    def test_invariant_breach_maps_to_3(self, monkeypatch, tmp_path, capsys):
        def explode(scenario):
            raise InvariantError("synthetic breach")

        monkeypatch.setattr(scenarios, "run_pm_protocol", explode)
        monkeypatch.setattr(cli.scenarios, "run_pm_protocol", explode)
        status = run_main(["--scenario", "peres-mermin", "--out", str(tmp_path / "x.txt")])
        assert status == 3
        assert "invariant breach" in capsys.readouterr().err

    def test_square_line_off_identity_exits_3(self, monkeypatch, fresh_frames, tmp_path, capsys):
        # The real frame build proves the square: a line whose product is not
        # +/-1 times its support is a breach, not a verdict.
        original = contextuality.verify_square_constraints

        def off_identity(square):
            report = original(square)
            lines = [replace(ln, deviation=0.5) if ln.line == "colB" else ln for ln in report.lines]
            return replace(report, lines=tuple(lines))

        monkeypatch.setattr(contextuality, "verify_square_constraints", off_identity)
        out = tmp_path / "x.txt"
        status = run_main(["--scenario", "peres-mermin", "--out", str(out)])
        assert status == 3
        err = capsys.readouterr().err
        assert "internal invariant breach" in err and "'colB': 0.5" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--seed", "-1"], {}),
            ([], {"runs": "3"}),
            ([], {"runs": True}),
            ([], {"seed": 2.5}),
            ([], {"out": 7}),
            ([], {"out": ""}),
            (["--out", ""], {}),
            (["--scenario", "peres-mermin", "--state", "[NaN, 0, 0, 1]"], {}),
            (["--out", "{blocker}/sweep.txt"], {}),
            (["--scenario", "peres-mermin", "--state", '[["a", 0], 0, 0, 0]'], {}),
            (["--scenario", "peres-mermin", "--state", "[[null, 0], 0, 0, 0]"], {}),
            (["--scenario", "hardy", "--state", "[true, 0, 0, 0]"], {}),
            (["--scenario", "peres-mermin", "--state", "[1e200, 1e200, 0, 0]"], {}),
            (["--scenario", "hardy", "--state", "[" + "9" * 5000 + ", 0, 0, 0]"], {}),
            # Raw config members: json.dumps cannot print an integer this long.
            ([], '"seed": ' + "7" * 5000),
            ([], {"scenario": "hardy", "state": ""}),
            ([], {"scenario": "peres-mermin", "state": []}),
            ([], {"scenario": "hardy", "state": 0}),
            ([], {"scenario": "peres-mermin", "state": False}),
            (["--scenario", "hardy", "--state", ""], {}),
            (["--scenario", "peres-mermin", "--state", ""], {}),
            (["--scenario", "hardy", "--state", "[" * 50000], {}),
            ([], '"state": ' + "[" * 50000),
            ([], {"out": "a\u0000b"}),
        ],
        ids=[
            "negative-seed", "string-runs", "bool-runs", "float-seed", "int-out", "empty-out-config",
            "empty-out-flag", "nan-state",
            "out-under-file", "string-part-state", "null-part-state", "bool-state",
            "overflow-state", "too-many-digits-state", "too-many-digits-config",
            "empty-string-state", "empty-list-state", "zero-state", "false-state",
            "empty-state-flag-hardy", "empty-state-flag-pm", "nested-state-flag", "nested-config",
            "nul-out",
        ],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, flags, config):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        path = tmp_path / "run.json"
        doc = {"scenario": "pm-sweep", "runs": 1, "out": str(tmp_path / "r.txt")}
        if isinstance(config, str):
            path.write_text(json.dumps(doc)[:-1] + f", {config}}}")
        else:
            path.write_text(json.dumps({**doc, **config}))
        argv = ["--config", str(path)] + [f.replace("{blocker}", str(blocker)) for f in flags]
        assert run_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--state", "[" * 50000], {}),
            (["--state", "x" * 50000], {}),
            (["--state", "[" + "9" * 5000 + ", 0, 0, 0]"], {}),
            (["--state", "[" + "0, " * 20000 + "1]"], {}),
            ([], {"state": "y" * 50000}),
            ([], {"scenario": "z" * 50000}),
            ([], {"schema": "s" * 50000}),
            ([], {"k" * 50000: 1}),
            (["--config", "c" * 5301], {}),
            (["--out", "o" * 5301], {}),
        ],
        ids=[
            "nested", "word", "long-integer", "long-list", "config-state", "config-scenario", "schema", "key",
            "config-path", "out-path",
        ],
    )
    def test_rejected_input_echo_is_bounded(self, tmp_path, capsys, flags, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": "hardy", "out": str(tmp_path / "r.txt"), **config}))
        assert run_main(["--config", str(path)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 300, err

    @pytest.mark.parametrize("flag", ["--seed", "--runs", "--scenario", "--mode", "--format"])
    def test_rejected_flag_echo_is_bounded(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            run_main([flag, "9" * 50000])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err
        assert len(err.encode()) < 600, err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "latin1.json"
        config.write_bytes(b'{"scenario": "hardy", "out": "r\xe9sultat.txt"}')
        assert run_main(["--config", str(config)]) == 2
        assert "latin1.json" in capsys.readouterr().err

    def test_output_dir_env(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        status = run_main(["--scenario", "hardy"])
        assert status == 0
        assert (tmp_path / "hardy.report.txt").exists()


class TestEmission:
    def test_structured_roundtrip_is_exact(self, tmp_path):
        report = scenarios.run_pm_protocol(
            scenarios.build_pm_scenario(scenarios.bell_state("phi-"))
        )
        doc = scenarios.report_to_dict(report)
        text = emit_report(doc, "structured")
        assert json.loads(text) == doc

    def test_roundtrip_preserves_float_bits(self):
        report = scenarios.run_fr_protocol(scenarios.build_hardy_scenario())
        doc = scenarios.report_to_dict(report)
        recovered = json.loads(emit_report(doc, "structured"))
        original = doc["joint"]["amplitudes"]["--"]
        parsed = recovered["joint"]["amplitudes"]["--"]
        assert parsed[0] == original[0] and parsed[1] == original[1]

    def test_text_is_line_oriented_and_stable(self):
        doc = {"schema": "wignerlab-report/1", "kind": "demo", "values": [1.5, 2.5]}
        assert emit_report(doc, "text") == emit_report(doc, "text")
        assert emit_report(doc, "text").splitlines()[0] == "schema: wignerlab-report/1"
