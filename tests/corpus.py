"""Golden CLI corpus: capture, compare and regenerate.

Each case is one CLI invocation in one report format.  Its capture is the
stdout, stderr, exit status and report file, stored under `tests/golden/` in
a directory named after the case.  `MANIFEST.json` records the Python, numpy
and BLAS the corpus was made with.

`tests/test_corpus.py` compares a fresh capture with the corpus twice: every
number within TOL and everything else equal (everywhere), and byte for byte
(only where the environment matches the manifest).  To rewrite the corpus
after a change that moves report floats, run from the repository root:

    PYTHONPATH=src python tests/corpus.py

It prints each moved field and its largest change before it writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"
PARTS = ("stdout", "stderr", "status", "report")
TOL = 1e-12

CASES = {
    "hardy-default": ["--scenario", "hardy"],
    "hardy-real": ["--scenario", "hardy", "--state", "[0.6,0,0,0.8]"],
    "hardy-psi-": ["--scenario", "hardy", "--state", "psi-"],
    "pm-phi+": ["--scenario", "peres-mermin", "--state", "phi+"],
    "pm-01-expectation": ["--scenario", "peres-mermin", "--state", "01", "--mode", "expectation"],
    "pm-complex-projective": ["--scenario", "peres-mermin", "--state", "[[0.5,0.5],0,[0,-0.5],0.5]"],
    "pm-complex-expectation": [
        "--scenario", "peres-mermin", "--state", "[[0.5,0.5],0,[0,-0.5],0.5]", "--mode", "expectation",
    ],
    "sweep-projective": ["--scenario", "pm-sweep", "--runs", "5"],
    "sweep-expectation": ["--scenario", "pm-sweep", "--runs", "5", "--mode", "expectation"],
    "norm-error": ["--scenario", "hardy", "--state", "[1,1,0,0]"],
    "unknown-state": ["--scenario", "peres-mermin", "--state", "bogus"],
}
FORMATS = {"text": "txt", "structured": "json"}


def case_names() -> list[str]:
    return [f"{case}.{fmt}" for case in CASES for fmt in FORMATS]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
    }


def capture(name: str) -> dict[str, bytes]:
    """Run one case in process, in a scratch directory, with a relative report path."""
    from wignerlab import cli

    case, fmt = name.rsplit(".", 1)
    out = f"report.{FORMATS[fmt]}"
    argv = CASES[case] + ["--format", fmt, "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = cli.main(argv)
            report = Path(out).read_bytes() if Path(out).exists() else None
        finally:
            os.chdir(cwd)
    parts = {"stdout": stdout.getvalue().encode(), "stderr": stderr.getvalue().encode()}
    parts["status"] = f"{status}\n".encode()
    if report is not None:
        parts["report"] = report
    return parts


def load(name: str) -> dict[str, bytes]:
    folder = GOLDEN / name
    return {part: (folder / part).read_bytes() for part in PARTS if (folder / part).exists()}


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _tokens(data: bytes) -> tuple[list[bytes], list[bytes]]:
    """The text between numbers (the structure) and the numbers, in order."""
    return _NUMBER.split(data), _NUMBER.findall(data)


def _is_float(number: bytes) -> bool:
    return any(char in number for char in b".eE")


def _field(data: bytes, offset: int) -> str:
    """The key a number belongs to: the nearest `"key":` or `key:` before it on its line, or above it."""
    head = data[:offset].decode()
    for line in reversed(head.splitlines()):
        match = re.findall(r'"?([\w*+\-]+)"?:', line)
        if match:
            return match[-1]
    return "?"


def differences(got: bytes, want: bytes) -> tuple[str | None, list[tuple[str, float]]]:
    """A structure mismatch (or None), and (field, |change|) for each number that moved.

    Integers (no point, no exponent) must be equal; any other number may move
    by TOL.  Everything between numbers must be byte-equal.
    """
    got_text, got_numbers = _tokens(got)
    want_text, want_numbers = _tokens(want)
    if got_text != want_text:
        first = next(i for i, (g, w) in enumerate(zip(got_text + [b""], want_text + [b""])) if g != w)
        return f"text differs near {want_text[first][:60]!r} (got {got_text[first][:60]!r})", []
    moved = []
    offset = 0
    for text, g, w in zip(want_text, got_numbers, want_numbers):
        offset += len(text)
        if g != w:
            change = abs(float(g) - float(w))
            if not (_is_float(g) and _is_float(w) and change <= TOL):
                return f"{_field(want, offset)}: {g.decode()} against {w.decode()}", []
            moved.append((_field(want, offset), change))
        offset += len(w)
    return None, moved


def compare(name: str, got: dict[str, bytes], want: dict[str, bytes]) -> tuple[list[str], list[tuple[str, float]]]:
    """Problems with `got` against `want` (within TOL), and the fields that moved."""
    if set(got) != set(want):
        return [f"{name}: parts {sorted(got)} against {sorted(want)}"], []
    problems, moved = [], []
    for part in PARTS:
        if part in want:
            problem, fields = differences(got[part], want[part])
            if problem:
                problems.append(f"{name}/{part}: {problem}")
            moved += [(f"{part}.{field}", change) for field, change in fields]
    return problems, moved


def regenerate() -> int:
    """Rewrite the corpus; print each moved field with its largest change."""
    largest: dict[str, tuple[float, int]] = {}
    changed = []
    for name in case_names():
        got = capture(name)
        want = load(name)
        if got == want:
            continue
        changed.append(name)
        if not want:
            print(f"new capture: {name}")
        problems, moved = compare(name, got, want) if want else ([], [])
        for problem in problems:
            print(f"NOT WITHIN {TOL}: {problem}")
        for field, change in moved:
            worst, count = largest.get(field, (0.0, 0))
            largest[field] = (max(worst, change), count + 1)
        folder = GOLDEN / name
        folder.mkdir(parents=True, exist_ok=True)
        for part in PARTS:
            path = folder / part
            if part in got:
                path.write_bytes(got[part])
            else:
                path.unlink(missing_ok=True)
    MANIFEST.write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")
    print(f"{len(changed)} of {len(case_names())} captures changed")
    for field, (worst, count) in sorted(largest.items()):
        print(f"  {field}: {count} values moved, largest {worst:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
