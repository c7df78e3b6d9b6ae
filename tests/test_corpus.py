"""The CLI against the golden corpus in tests/golden (see tests/corpus.py)."""

import json
import math

import pytest

import corpus

NAMES = corpus.case_names()


def test_corpus_lists_every_case():
    assert sorted(path.name for path in corpus.GOLDEN.iterdir() if path.is_dir()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_capture_matches_corpus_within_tolerance(name):
    problems, _ = corpus.compare(name, corpus.capture(name), corpus.load(name))
    assert problems == []


@pytest.mark.parametrize("name", NAMES)
def test_capture_matches_corpus_bytes(name):
    manifest = json.loads(corpus.MANIFEST.read_text())
    if manifest != corpus.environment():
        pytest.skip(f"corpus made with {manifest}, not this environment")
    assert corpus.capture(name) == corpus.load(name)


def _with_p_minus_minus(want, value):
    doc = json.loads(want["report"])
    doc["joint"]["distribution"]["--"] = value
    return dict(want, report=(json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n").encode())


def test_one_ulp_moves_the_bytes_but_stays_within_tolerance():
    name = "hardy-default.structured"
    want = corpus.load(name)
    value = json.loads(want["report"])["joint"]["distribution"]["--"]
    got = _with_p_minus_minus(want, math.nextafter(value, 1.0))
    assert got != want
    assert corpus.compare(name, got, want) == ([], [("report.--", math.ulp(value))])
    # A float moved beyond the tolerance, or a changed integer, is a problem.
    assert corpus.compare(name, _with_p_minus_minus(want, value + 1e-9), want)[0]
    assert corpus.compare(name, dict(want, status=b"3\n"), want)[0]
