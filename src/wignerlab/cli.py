"""Command-line front end: run protocols, audit them, persist reports.

Configuration comes from a JSON config file (schema "wignerlab-config/1"),
from command-line flags, or both (flags win).  Exit status is 0 for a
successful run, 2 for configuration/validation errors, 3 when an internal
invariant check trips.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import epistemic, scenarios
from .qsim import InvariantError, StateVector, basis_state, normalized_state

CONFIG_SCHEMA = "wignerlab-config/1"
OUTPUT_DIR_ENV = "WIGNERLAB_OUTPUT_DIR"

SCENARIOS = ("hardy", "peres-mermin", "pm-sweep")
MODES = ("projective", "expectation")
FORMATS = ("text", "structured")

# Explicit amplitude lists must normalize within this; smaller deviations are
# renormalized (with a warning when they exceed double-precision noise).
STATE_NORM_TOL = 1e-8
STATE_NORM_QUIET = 1e-12

# An error message echoes at most this many characters of a rejected input.
ECHO_CHARS = 60


class ConfigError(Exception):
    pass


def _echo(value) -> str:
    """The repr of a rejected input, cut to ECHO_CHARS characters plus its full length."""
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def _echo_path(path) -> str:
    """A path as given, or its length and last ECHO_CHARS characters, which end where `:line:column` follows."""
    text = str(path)
    return text if len(text) <= ECHO_CHARS else f"{len(text)}-character path ...{text[-ECHO_CHARS:]}"


@dataclass
class RunConfig:
    scenario: str
    state: str | None = None
    mode: str = "projective"
    seed: int = scenarios.SWEEP_SEED
    runs: int = 20
    format: str = "text"
    out: str | None = None

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {_echo(self.scenario)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {_echo(self.mode)}")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {_echo(self.format)}")
        for key in ("seed", "runs"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ConfigError(f"{key} must be a non-negative integer, got {_echo(value)}")
        if self.out is not None and not (isinstance(self.out, str) and self.out and "\0" not in self.out):
            raise ConfigError(f"out must be a non-empty path string without NUL, got {_echo(self.out)}")

    @property
    def c_mode(self) -> str:
        """The square protocol's C-stage mode for `mode`."""
        return "projective" if self.mode == "projective" else "expectation-only"


CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _int_flag(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}") from None


def _choice_flag(choices: tuple[str, ...]):
    """An argparse type for `choices` that echoes a rejected value through `_echo`."""

    def check(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(f"invalid choice: {_echo(text)} (choose from {listed})")
        return text

    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Run nested-observer protocols and consistency audits.",
    )
    parser.add_argument("--config", help="JSON config file (schema wignerlab-config/1)")
    parser.add_argument("--scenario", choices=SCENARIOS, type=_choice_flag(SCENARIOS))
    parser.add_argument(
        "--state",
        help="initial 2-qubit state: Bell name (phi+/phi-/psi+/psi-), "
        "basis bits (e.g. 01), or a JSON list of 4 amplitudes",
    )
    parser.add_argument("--mode", choices=MODES, type=_choice_flag(MODES), help="final-stage mode for the square protocol")
    parser.add_argument("--seed", type=_int_flag, help="random seed for pm-sweep")
    parser.add_argument("--runs", type=_int_flag, help="number of random states in pm-sweep")
    parser.add_argument("--format", choices=FORMATS, type=_choice_flag(FORMATS))
    parser.add_argument("--out", help="report file path (default: scenario name in "
                        f"${OUTPUT_DIR_ENV} or the working directory)")
    return parser


def load_config(path: str) -> dict:
    where = _echo_path(path)
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{where}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, a too-long integer, or nesting too deep
        raise ConfigError(f"{where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}:1:1: config must be a JSON object")
    schema = doc.pop("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigError(f"{where}: unsupported schema {_echo(schema)}, expected {CONFIG_SCHEMA!r}")
    unknown = set(doc) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{where}: unknown config keys {_echo(sorted(unknown))}")
    return doc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(load_config(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if "scenario" not in values or values["scenario"] is None:
        raise ConfigError("a scenario is required (--scenario or config file)")
    config = RunConfig(**values)
    config.validate()
    return config


def parse_state(spec, warn=lambda msg: print(msg, file=sys.stderr)) -> StateVector:
    """Parse a 2-qubit state spec: Bell name, basis bits, or amplitude list."""
    register = scenarios.PM_SYSTEM
    if isinstance(spec, str):
        if spec in scenarios.BELL_AMPLITUDES:
            return scenarios.bell_state(spec)
        if len(spec) == 2 and set(spec) <= {"0", "1"}:
            return basis_state(register, spec)
        try:
            listed = json.loads(spec)
        except (ValueError, RecursionError):  # malformed JSON, a too-long integer, or nesting too deep
            raise ConfigError(
                f"state {_echo(spec)} is not a Bell name, basis bits, or amplitude list"
            ) from None
    else:
        listed = spec
    if not isinstance(listed, list) or len(listed) != 4:
        raise ConfigError(f"explicit amplitude lists must have length 4, got {_echo(listed)}")
    bound = 1.0 + STATE_NORM_TOL
    amps = []
    for entry in listed:
        parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
            raise ConfigError(f"amplitude entries must be real numbers or [re, im] pairs, got {_echo(entry)}")
        if not all(isinstance(p, int) or math.isfinite(p) for p in parts):
            raise ConfigError(f"amplitudes must be finite, got {_echo(listed)}")
        # Exact comparisons first, so huge integers never reach a float conversion.
        if any(abs(p) > bound for p in parts) or math.hypot(*parts) > bound:
            raise ConfigError(f"amplitude {_echo(entry)} has modulus above {bound!r}")
        amps.append(complex(*parts))
    norm = float(np.linalg.norm(amps))
    deviation = abs(norm - 1.0)
    if deviation > STATE_NORM_TOL:
        raise ConfigError(f"amplitude list norm {norm!r} deviates from 1 beyond {STATE_NORM_TOL}")
    if deviation > STATE_NORM_QUIET:
        warn(f"warning: renormalizing state (norm deviation {deviation:.3e})")
    return normalized_state(register, amps)


def as_rational(x: float) -> str | None:
    frac = Fraction(x).limit_denominator(144)
    if abs(float(frac) - x) < 1e-9:
        return f"{frac.numerator}/{frac.denominator}" if frac.denominator != 1 else str(frac.numerator)
    return None


def _decimal_and_rational(x: float) -> str:
    rational = as_rational(x)
    base = f"{x:.10f}"
    return f"{base} (= {rational})" if rational else base


# --------------------------------------------------------------------------
# Report rendering.


def emit_report(doc: dict, format: str) -> str:
    """Render a report tree: deterministic JSON or stable line-oriented text."""
    if format == "structured":
        return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    if format == "text":
        lines: list[str] = []
        _render_text(doc, lines, 0)
        return "\n".join(lines) + "\n"
    raise ConfigError(f"format must be one of {FORMATS}, got {format!r}")


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_text(node, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                _render_text(value, lines, depth + 1)
            elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
                lines.append(f"{pad}{key}:")
                for i, item in enumerate(value):
                    lines.append(f"{pad}  - [{i}]")
                    _render_text(item, lines, depth + 2)
            elif isinstance(value, list):
                lines.append(f"{pad}{key}: {' '.join(_render_scalar(v) for v in value)}")
            else:
                lines.append(f"{pad}{key}: {_render_scalar(value)}")
    elif isinstance(node, list):
        for item in node:
            lines.append(f"{pad}- {_render_scalar(item)}")
    else:
        lines.append(f"{pad}{_render_scalar(node)}")


# --------------------------------------------------------------------------
# Command execution.


def _run_hardy(config: RunConfig, out):
    system = parse_state(config.state) if config.state is not None else None
    scenario = scenarios.build_hardy_scenario(system)
    report = scenarios.run_fr_protocol(scenario)
    doc = scenarios.report_to_dict(report)
    doc["epistemic"] = _hardy_epistemic_audit(report)
    p_mm = report.joint_distribution.get((-1, -1), 0.0)
    print("scenario: hardy", file=out)
    print(f"P(A=-1,B=-1) = {_decimal_and_rational(p_mm)}", file=out)
    if report.chain.conclusions:
        steps = ", ".join(f"{lbl}={val:+d}" for lbl, val in report.chain.conclusions)
        print(f"chain from A=-1: {steps}", file=out)
    else:
        print("chain from A=-1: no implication fires", file=out)
    print("CONTRADICTION" if report.contradiction else "consistent", file=out)
    return doc


def _hardy_epistemic_audit(report) -> dict:
    """Replay the inference chain at the two-bit budget and report the violation."""
    if not report.chain.steps:
        return {"clean": True, "note": "no chain to audit"}
    steps = epistemic.steps_from_implications(report.chain.steps, report.chain.seed, "conditional")
    audit = epistemic.audit_inference_chain(2, steps)
    doc: dict = {"capacity": 2, "clean": audit.clean}
    if audit.violation is not None:
        doc["violation"] = {
            "step": audit.violation.step_index,
            "kind": audit.violation.kind,
            "entry": str(audit.violation.entry),
        }
    return doc


PARITY_NAMES = {+1: "even", -1: "odd"}


def _pm_run_summary(report, out):
    cs = ", ".join(
        f"{line}={value:+.0f}" for line, value in sorted(report.square_constraints.items())
    )
    print(f"square constraints: {cs}", file=out)
    for outcome, prob in sorted(report.joint_distribution.items()):
        print(f"P(C={scenarios._outcome_key(outcome)}) = {_decimal_and_rational(prob)}", file=out)
    product = report.expectations["C1*C2*C3"]
    parity = "even" if report.a_parity_even else "odd"
    names = {PARITY_NAMES.get(b.retrodiction.required_a_parity, "mixed") for b in report.c_branches}
    retrodicted = names.pop() if len(names) == 1 else "mixed"
    verdict = "CONTRADICTION" if report.contradiction else "consistent"
    print(
        f"C constraint: c1*c2*c3 = {product:+.0f}; A parity: {parity}; "
        f"retrodicted A parity: {retrodicted}; {verdict}",
        file=out,
    )
    print(f"factorization: Schmidt rank {report.factorization.schmidt_rank}", file=out)


def _run_pm(config: RunConfig, out):
    state = parse_state(config.state) if config.state is not None else scenarios.bell_state("phi+")
    scenario = scenarios.build_pm_scenario(state, c_mode=config.c_mode)
    report = scenarios.run_pm_protocol(scenario)
    doc = scenarios.report_to_dict(report)
    doc["epistemic"] = [
        {
            "outcome": scenarios._outcome_key(branch.outcome),
            "required_a_parity": branch.audit.required_a_parity,
            "parity_derivable": branch.audit.parity_derivable,
            "bindings_refused": branch.audit.all_bindings_refused,
        }
        for branch in report.c_branches
    ]
    print(f"scenario: peres-mermin (C stage: {config.c_mode})", file=out)
    _pm_run_summary(report, out)
    return doc


def _run_sweep(config: RunConfig, out):
    reports = scenarios.pm_random_sweep(count=config.runs, seed=config.seed, c_mode=config.c_mode)
    contradictions = sum(1 for r in reports if r.contradiction)
    rank_one = sum(1 for r in reports if r.factorization.schmidt_rank == 1)
    doc = {
        "schema": scenarios.REPORT_SCHEMA,
        "kind": "pm-sweep",
        "seed": config.seed,
        "count": config.runs,
        "c_mode": config.c_mode,
        "contradictions": contradictions,
        "factorization_rank_one": rank_one,
        "runs": [scenarios.report_to_dict(r) for r in reports],
    }
    print(f"scenario: pm-sweep ({config.runs} runs, seed {config.seed})", file=out)
    print(f"contradictions: {contradictions}/{config.runs}", file=out)
    print(f"factorization rank 1: {rank_one}/{config.runs}", file=out)
    return doc


def _output_path(config: RunConfig) -> Path:
    if config.out is not None:
        return Path(config.out)
    base = os.environ.get(OUTPUT_DIR_ENV) or "."
    ext = "json" if config.format == "structured" else "txt"
    return Path(base) / f"{config.scenario}.report.{ext}"


def run_command(config: RunConfig, out=None) -> int:
    """Execute a validated config: run, audit, persist, summarize."""
    out = out if out is not None else sys.stdout
    config.validate()
    runner = {"hardy": _run_hardy, "peres-mermin": _run_pm, "pm-sweep": _run_sweep}[config.scenario]
    try:
        doc = runner(config, out)
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    path = _output_path(config)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(emit_report(doc, config.format))
    except OSError as exc:
        raise ConfigError(f"cannot write report {_echo_path(path)}: {exc.strerror or exc}") from None
    print(f"report: {path}", file=out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return run_command(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
