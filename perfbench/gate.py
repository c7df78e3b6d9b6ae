"""Correctness gate: what every wignerlab invocation of the benchmark must report.

The gate reads only the documented outputs: the summary lines on stdout and
the report file (`wignerlab-report/1`, JSON for `--format structured`, the
line-oriented text tree for `--format text`).  `check` returns the list of
problems found; an empty list means the invocation passed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

TOL = 1e-9
EXACT_TOL = 1e-12  # P(A=-1,B=-1) of the default Hardy state, and requested amplitudes
HARDY_P_MINUS_MINUS = 1.0 / 12.0

SQUARE_TARGETS = {"row1": 1.0, "row2": 1.0, "row3": 1.0, "colA": 1.0, "colB": 1.0, "colC": -1.0}
SQUARE_LINE = "square constraints: colA=+1, colB=+1, colC=-1, row1=+1, row2=+1, row3=+1"

_R2, _R3 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)
BELL = {
    "phi+": (_R2, 0.0, 0.0, _R2),
    "phi-": (_R2, 0.0, 0.0, -_R2),
    "psi+": (0.0, _R2, _R2, 0.0),
    "psi-": (0.0, _R2, -_R2, 0.0),
}
HARDY_DEFAULT = (_R3, _R3, _R3, 0.0)


@dataclass(frozen=True)
class Call:
    """One CLI invocation as the benchmark asks for it."""

    scenario: str  # "hardy" | "peres-mermin" | "pm-sweep"
    fmt: str = "structured"
    mode: str = "projective"
    state: str | tuple = None  # Bell name, or four (re, im) amplitude pairs
    runs: int = 1
    seed: int | None = None
    via_config: bool = False

    @property
    def protocol_runs(self) -> int:
        return self.runs if self.scenario == "pm-sweep" else 1


def expected_amplitudes(call: Call) -> tuple[complex, ...] | None:
    if call.scenario == "pm-sweep":
        return None
    if call.state is None:
        return tuple(complex(a) for a in (HARDY_DEFAULT if call.scenario == "hardy" else BELL["phi+"]))
    if isinstance(call.state, str):
        return tuple(complex(a) for a in BELL[call.state])
    amps = [complex(re_, im) for re_, im in call.state]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return tuple(a / norm for a in amps)


# --------------------------------------------------------------------------
# The text report tree (inverse of wignerlab's line-oriented rendering).


def _scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text == "none":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_text_report(text: str):
    """Nested dicts and lists from a text report; a scalar list stays one string."""
    lines = [(len(line) - len(line.lstrip(" ")), line.strip()) for line in text.splitlines() if line.strip()]
    pos = 0

    def block(indent: int):
        nonlocal pos
        if pos < len(lines) and lines[pos][1].startswith("- "):
            items = []
            while pos < len(lines) and lines[pos][0] == indent and lines[pos][1].startswith("- "):
                body = lines[pos][1][2:]
                pos += 1
                items.append(block(indent + 2) if re.fullmatch(r"\[\d+\]", body) else _scalar(body))
            return items
        node = {}
        while pos < len(lines) and lines[pos][0] == indent:
            key, _, rest = lines[pos][1].partition(":")
            rest = rest.strip()
            pos += 1
            if rest:
                node[key] = _scalar(rest)
            elif pos < len(lines) and lines[pos][0] > indent:
                node[key] = block(lines[pos][0])
            else:
                node[key] = None
        return node

    tree = block(0)
    if pos != len(lines):
        raise ValueError(f"unparsed text report line {pos + 1}: {lines[pos][1]!r}")
    return tree


# --------------------------------------------------------------------------
# Checks.


def _close(value, target, tol) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value - target) <= tol


def _check_amplitudes(doc, call: Call, where: str) -> list[str]:
    expected = expected_amplitudes(call)
    got = doc.get("initial_state")
    if expected is None:
        return []
    if not isinstance(got, list) or len(got) != 4:
        return [f"{where}: initial_state missing"]
    for i, (pair, want) in enumerate(zip(got, expected)):
        if not (isinstance(pair, list) and len(pair) == 2
                and _close(pair[0], want.real, EXACT_TOL) and _close(pair[1], want.imag, EXACT_TOL)):
            return [f"{where}: initial_state[{i}] = {pair!r}, asked for {want!r}"]
    return []


def check_pm_run(doc, mode: str, where: str) -> list[str]:
    """One peres-mermin run report: square constraints, contradiction, distribution."""
    if not isinstance(doc, dict) or doc.get("kind") != "peres-mermin":
        return [f"{where}: not a peres-mermin report"]
    problems = []
    constraints = doc.get("square_constraints")
    if not isinstance(constraints, dict) or set(constraints) != set(SQUARE_TARGETS):
        problems.append(f"{where}: square_constraints {constraints!r}")
    else:
        for line, target in SQUARE_TARGETS.items():
            if not _close(constraints[line], target, TOL):
                problems.append(f"{where}: {line} = {constraints[line]!r}, target {target:+.0f}")
    if doc.get("contradiction") is not True:
        problems.append(f"{where}: contradiction is {doc.get('contradiction')!r}")
    wanted_mode = "projective" if mode == "projective" else "expectation-only"
    if doc.get("c_mode") != wanted_mode:
        problems.append(f"{where}: c_mode {doc.get('c_mode')!r}, asked for {wanted_mode!r}")
    if mode == "projective":
        dist = (doc.get("joint") or {}).get("distribution")
        values = list(dist.values()) if isinstance(dist, dict) else []
        if not values or not _close(sum(values), 1.0, TOL):
            problems.append(f"{where}: C distribution {dist!r} does not sum to 1")
    else:
        parity = (doc.get("expectations") or {}).get("C1*C2*C3")
        if not _close(parity, -1.0, TOL):
            problems.append(f"{where}: <C1*C2*C3> = {parity!r}, expected -1")
    return problems


def check_hardy(doc, call: Call, where: str) -> list[str]:
    if not isinstance(doc, dict) or doc.get("kind") != "hardy":
        return [f"{where}: not a hardy report"]
    problems = []
    dist = (doc.get("joint") or {}).get("distribution")
    values = list(dist.values()) if isinstance(dist, dict) else []
    if not values or not _close(sum(values), 1.0, TOL):
        problems.append(f"{where}: joint distribution {dist!r} does not sum to 1")
    if call.state is None:
        p = dist.get("--") if isinstance(dist, dict) else None
        if not _close(p, HARDY_P_MINUS_MINUS, EXACT_TOL):
            problems.append(f"{where}: P(A=-1,B=-1) = {p!r}, expected 1/12")
        if doc.get("contradiction") is not True:
            problems.append(f"{where}: default Hardy state lost the contradiction")
    return problems


def check_sweep(doc, call: Call, where: str) -> list[str]:
    if not isinstance(doc, dict) or doc.get("kind") != "pm-sweep":
        return [f"{where}: not a pm-sweep report"]
    problems = []
    count = doc.get("count")
    if count != call.runs or doc.get("seed") != call.seed:
        problems.append(f"{where}: count {count!r} seed {doc.get('seed')!r}, asked for {call.runs} and {call.seed}")
    for key in ("contradictions", "factorization_rank_one"):
        if doc.get(key) != count:
            problems.append(f"{where}: {key} = {doc.get(key)!r}, count {count!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or len(runs) != call.runs:
        return problems + [f"{where}: {len(runs) if isinstance(runs, list) else 'no'} runs listed"]
    for i, run in enumerate(runs):
        problems += check_pm_run(run, call.mode, f"{where} run {i}")
    return problems


def check_summary(stdout: str, call: Call) -> list[str]:
    """The summary lines printed on stdout."""
    lines = stdout.splitlines()
    wanted: list[str] = []
    if call.scenario == "pm-sweep":
        wanted = [f"contradictions: {call.runs}/{call.runs}", f"factorization rank 1: {call.runs}/{call.runs}"]
    elif call.scenario == "peres-mermin":
        wanted = [SQUARE_LINE, "factorization: Schmidt rank 1"]
        if not any(line.endswith("; CONTRADICTION") for line in lines):
            wanted.append("...; CONTRADICTION")
    elif call.state is None:
        wanted = ["P(A=-1,B=-1) = 0.0833333333 (= 1/12)", "CONTRADICTION"]
    return [f"stdout lacks {line!r}" for line in wanted if line not in lines]


def check(call: Call, stdout: str, report: str) -> list[str]:
    """All problems with one invocation's summary and report."""
    problems = check_summary(stdout, call)
    try:
        doc = json.loads(report) if call.fmt == "structured" else parse_text_report(report)
    except ValueError as exc:
        return problems + [f"report does not parse: {exc}"]
    where = call.scenario
    if call.scenario == "pm-sweep":
        problems += check_sweep(doc, call, where)
    elif call.scenario == "peres-mermin":
        problems += check_pm_run(doc, call.mode, where) + _check_amplitudes(doc, call, where)
    else:
        problems += check_hardy(doc, call, where) + _check_amplitudes(doc, call, where)
    return problems
