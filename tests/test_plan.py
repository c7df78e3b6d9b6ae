"""The compiled square-protocol frame against a dense per-state reference.

`dense_reference` recomputes a run from scratch for one state: fresh friend
unitaries, dense joint projectors for every stage, the C1*C2*C3 operator
product, square verification, retrodiction audits and a 128x128 lifted
operator for the factorization check.  Beyond the frame's observables it
shares only `friend_unitary`, the state kernel (`apply_operator`,
`tensor_product`) and the `contextuality` audits with the compiled path.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wignerlab import contextuality, friendify, qsim, scenarios
from wignerlab.friendify import friend_unitary
from wignerlab.qsim import QubitRegister, StateVector, apply_operator, basis_state, tensor_product
from wignerlab.scenarios import PM_SYSTEM, SCHMIDT_TOL, SWEEP_SEED

MODES = ("projective", "expectation-only")
TOL = 1e-12


def _phase_fixed(vec):
    ref = next(c for c in vec if abs(c) > qsim.PHASE_REF_TOL)
    return vec * (ref.conjugate() / abs(ref))


def _dense_branches(state, observables):
    """(records, amplitude, vector) per kept joint eigenspace, in product order.

    A rank-1 space contributes its canonical eigenvector; a degenerate one the
    normalized projection of the state.
    """
    out = []
    for combo in itertools.product(*(obs.branches for obs in observables)):
        projector = np.eye(state.dim, dtype=complex)
        for _, proj in combo:
            projector = projector @ proj
        rank = round(np.trace(projector).real)
        if rank == 0:
            continue
        if rank == 1:
            col = int(np.argmax(np.abs(np.diagonal(projector))))
            vector = _phase_fixed(projector[:, col] / np.linalg.norm(projector[:, col]))
        else:
            component = projector @ state.amplitudes
            if np.linalg.norm(component) < qsim.BRANCH_AMP_TOL:
                continue
            vector = _phase_fixed(component / np.linalg.norm(component))
        amplitude = complex(np.vdot(vector, state.amplitudes))
        if abs(amplitude) >= qsim.BRANCH_AMP_TOL:
            records = {obs.name: eig for obs, (eig, _) in zip(observables, combo)}
            out.append((records, amplitude, vector))
    return out


def _pair(z):
    return [float(z.real), float(z.imag)]


def _key(outcome):
    return "".join("+" if v > 0 else "-" for v in outcome)


def _stage_doc(state, readouts, derived):
    register = state.register
    covered = {label for obs in readouts for label in obs.register.labels}
    fills = [
        qsim.pauli_observable("Z", label, f"fill:{label}").embedded(register)
        for label in register.labels
        if label not in covered
    ]
    records = []
    for recs, amplitude, _ in _dense_branches(state, list(readouts) + fills):
        outcomes = {obs.name: recs[obs.name] for obs in readouts}
        outcomes[derived[0]] = outcomes[derived[1]] * outcomes[derived[2]]
        records.append(
            {
                "outcomes": dict(sorted(outcomes.items())),
                "amplitude": _pair(amplitude),
                "probability": abs(amplitude) ** 2,
            }
        )
    return records


def dense_factorization(state, projectors, flags):
    dim = state.dim
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    lifted = np.zeros((2 * dim, 2 * dim), dtype=complex)
    covered = np.zeros((dim, dim), dtype=complex)
    for projector, flag in zip(projectors, flags):
        lifted += np.kron(projector, flip if flag else np.eye(2))
        covered += projector
    lifted += np.kron(np.eye(dim) - covered, np.eye(2))
    combined = lifted @ np.kron(state.amplitudes, [1, 0])
    return np.linalg.svd(combined.reshape(dim, 2), compute_uv=False)


def dense_reference(initial: StateVector, c_mode: str) -> tuple[dict, StateVector, list]:
    """The report_to_dict tree of one run, recomputed densely for this state alone."""
    frame = scenarios.build_pm_frame()
    system = StateVector(PM_SYSTEM, initial.amplitudes)
    state = tensor_product([system, basis_state(QubitRegister(("a1", "a2", "b1", "b2")), "0000")])
    for label in ("a1", "a2"):
        state = apply_operator(state, friend_unitary(frame.mems[label]), frame.mems[label].targets)
    a_records = _stage_doc(state, (frame.readouts["A1"], frame.readouts["A2"]), ("A3", "A1", "A2"))
    for label in ("b2", "b1"):
        state = apply_operator(state, friend_unitary(frame.mems[label]), frame.mems[label].targets)
    b_records = _stage_doc(state, (frame.readouts["B1"], frame.readouts["B2"]), ("B3", "B1", "B2"))

    psi = state.amplitudes
    mats = [obs.matrix() for obs in frame.c_observables]
    expectations = {f"C{i + 1}": float(np.vdot(psi, m @ psi).real) for i, m in enumerate(mats)}
    expectations["C1*C2*C3"] = float(np.vdot(psi, mats[0] @ mats[1] @ mats[2] @ psi).real)

    c_rows, projectors, distribution, amplitudes = [], [], {}, {}
    if c_mode == "projective":
        for recs, amplitude, vector in _dense_branches(state, frame.c_observables):
            outcome = (recs["C1"], recs["C2"], recs["C3"])
            distribution[outcome] = abs(amplitude) ** 2
            amplitudes[outcome] = _pair(amplitude)
            c_rows.append((outcome, abs(amplitude) ** 2))
            projectors.append(np.outer(vector, vector.conj()))
    else:
        for outcome in contextuality.valid_c_triples():
            projector = np.eye(state.dim, dtype=complex)
            for obs, value in zip(frame.c_observables, outcome):
                projector = projector @ obs.projector(value)
            c_rows.append((outcome, None))
            projectors.append(projector)
    c_branches = [
        {
            "outcome": _key(outcome),
            "probability": probability,
            "required_a_parity": contextuality.retrodict_from_c(outcome).required_a_parity,
            "contradiction": not contextuality.c_outcome_consistent(outcome),
        }
        for outcome, probability in c_rows
    ]
    a_even = all(np.prod([r["outcomes"][k] for k in ("A1", "A2", "A3")]) == 1 for r in a_records)
    contradiction = bool(c_branches) and all(b["contradiction"] for b in c_branches) and a_even
    square_lines = contextuality.verify_square_constraints(frame.square).lines
    square = {line.line: line.value for line in square_lines}
    singular = dense_factorization(state, projectors, [b["contradiction"] for b in c_branches])
    rank = int(np.sum(singular > SCHMIDT_TOL))
    doc = {
        "schema": "wignerlab-report/1",
        "kind": "peres-mermin",
        "register": list(scenarios.PM_REGISTER.labels),
        "initial_state": [_pair(z) for z in system.amplitudes],
        "stages": {"A": a_records, "B": b_records},
        "joint": {
            "labels": ["C1", "C2", "C3"],
            "distribution": {_key(k): v for k, v in sorted(distribution.items())},
            "amplitudes": {_key(k): v for k, v in sorted(amplitudes.items())},
        },
        "contradiction": contradiction,
        "c_mode": c_mode,
        "expectations": dict(sorted(expectations.items())),
        "square_constraints": dict(sorted(square.items())),
        "c_branches": c_branches,
        "a_parity_even": a_even,
        "signalling": {
            "observed": ["A", "B", "C"] if c_mode == "projective" else ["A", "B"],
            "contradiction": contradiction,
        },
        "factorization": {
            "schmidt_rank": rank,
            "singular_values": [float(s) for s in singular],
            "factorizes": rank == 1,
        },
    }
    return doc, state, projectors


def assert_tree_close(got, want, path="report"):
    """Numbers within TOL, everything else (keys, order, flags, labels) equal."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_tree_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_tree_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= TOL, (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def check_against_reference(initial, c_mode, report):
    want, state, projectors = dense_reference(initial, c_mode)
    assert_tree_close(scenarios.report_to_dict(report), want)
    assert np.max(np.abs(report.final_state.amplitudes - state.amplitudes)) <= TOL
    # A corrupted record (first branch unflagged) must match the dense lift too.
    flags = [False] + [True] * (len(projectors) - 1)
    verdict = scenarios.signalling_factorization_check(report, flags=flags)
    want_singular = dense_factorization(state, projectors, flags)
    assert np.allclose(verdict.singular_values, want_singular, rtol=0, atol=TOL)


amplitude = st.floats(min_value=-1, max_value=1, allow_nan=False)
system_states = (
    st.lists(st.tuples(amplitude, amplitude), min_size=4, max_size=4)
    .map(lambda pairs: np.array([complex(re, im) for re, im in pairs]))
    .filter(lambda amps: np.linalg.norm(amps) > 0.1)
    .map(lambda amps: qsim.normalized_state(PM_SYSTEM, amps))
)


@pytest.mark.parametrize("c_mode", MODES)
# No shrink phase: each example costs a dense reference run, and shrinking a
# failure would take minutes without making a 4-amplitude state any clearer.
@settings(max_examples=25, derandomize=True, deadline=None, phases=[Phase.generate])
@given(initial=system_states)
def test_plan_matches_dense_reference_on_generated_states(c_mode, initial):
    report = scenarios.run_pm_protocol(scenarios.build_pm_scenario(initial, c_mode))
    check_against_reference(initial, c_mode, report)


@pytest.mark.parametrize("c_mode", MODES)
def test_plan_matches_dense_reference_on_sweep_seed(c_mode):
    rng = np.random.default_rng(SWEEP_SEED)
    states = [qsim.random_state(PM_SYSTEM, rng) for _ in range(20)]
    reports = scenarios.pm_random_sweep(count=20, seed=SWEEP_SEED, c_mode=c_mode)
    for initial, report in zip(states, reports):
        check_against_reference(initial, c_mode, report)


@pytest.fixture
def fresh_frames():
    scenarios.build_pm_frame.cache_clear()
    scenarios.build_hardy_frame.cache_clear()
    yield
    scenarios.build_pm_frame.cache_clear()
    scenarios.build_hardy_frame.cache_clear()


def count_calls(monkeypatch, calls: dict, function) -> None:
    """Count `function`'s calls in `calls`, through every package module that binds it."""
    name = function.__name__
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    for module in (contextuality, friendify, qsim, scenarios):
        if getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, wrapper)


def test_sweep_compiles_frame_work_once(monkeypatch, fresh_frames):
    calls = {}
    for function in (
        contextuality.verify_square_constraints,
        qsim.product_observable,
        qsim.expectation,
        friend_unitary,
    ):
        count_calls(monkeypatch, calls, function)
    for c_mode in MODES:
        reports = scenarios.pm_random_sweep(count=20, seed=SWEEP_SEED, c_mode=c_mode)
        assert all(report.contradiction for report in reports)
    frame_memories = len(scenarios.build_pm_frame().mems)
    # The expectations are read off each run's C projection, not from C operators.
    assert calls == {
        "verify_square_constraints": 1,
        "product_observable": 0,
        "expectation": 0,
        "friend_unitary": frame_memories,
    }

    calls["friend_unitary"] = 0
    for _ in range(2):
        assert scenarios.run_fr_protocol(scenarios.build_hardy_scenario()).contradiction
    assert calls["friend_unitary"] == 2  # one per Hardy memory, fA and fB


@pytest.mark.parametrize("c_mode", MODES)
def test_c_branches_share_the_plan_vectors(c_mode):
    frame = scenarios.build_pm_frame()
    frame_vectors = {id(space.vector) for space in frame.c_basis.spaces}
    for report in scenarios.pm_random_sweep(count=3, seed=SWEEP_SEED, c_mode=c_mode):
        assert {id(branch.vector) for branch in report.c_branches} <= frame_vectors
        assert all(branch is frame.c_branches[branch.outcome] for branch in report.c_branches)


@pytest.mark.parametrize("c_mode", MODES)
def test_a_parity_is_the_col_a_line(monkeypatch, fresh_frames, c_mode):
    original = contextuality.verify_square_constraints

    def col_a_fails(square):
        report = original(square)
        lines = [replace(line, ok=False) if line.line == "colA" else line for line in report.lines]
        return replace(report, lines=tuple(lines))

    monkeypatch.setattr(contextuality, "verify_square_constraints", col_a_fails)
    report = scenarios.run_pm_protocol(
        scenarios.build_pm_scenario(scenarios.bell_state("phi+"), c_mode)
    )
    assert report.a_parity_even is False
    assert report.contradiction is False
    assert all(branch.contradiction for branch in report.c_branches)


def test_hardy_frame_compiles_its_implication_contexts():
    frame = scenarios.build_hardy_frame()
    names = [tuple(basis.spaces[0].records) for basis in frame.contexts]
    assert names == [("A", "FB"), ("FA", "B")]
    # (FA, FB) is read off the friend stage's records, in the middle of the implications.
    report = scenarios.run_fr_protocol(scenarios.build_hardy_scenario())
    contexts = list(dict.fromkeys(imp.context for imp in report.implications))
    assert contexts == [("A", "FB"), ("FA", "FB"), ("FA", "B")]
    friend_branches = qsim.project_branches(report.final_state, frame.friends.basis)
    read_off = [imp for imp in report.implications if imp.context == ("FA", "FB")]
    assert read_off == scenarios.extract_implications(friend_branches)


def test_hardy_runs_build_no_eigenbasis(monkeypatch):
    assert scenarios.run_fr_protocol(scenarios.build_hardy_scenario()).contradiction  # compiles
    calls = []
    original = qsim.joint_eigenbasis

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qsim, "joint_eigenbasis", counted)
    monkeypatch.setattr(scenarios, "joint_eigenbasis", counted)
    for _ in range(2):
        assert scenarios.run_fr_protocol(scenarios.build_hardy_scenario()).contradiction
    assert calls == []


def test_warm_hardy_runs_project_each_basis_once(monkeypatch):
    assert scenarios.run_fr_protocol(scenarios.build_hardy_scenario()).contradiction  # compiles
    calls = {}
    count_calls(monkeypatch, calls, qsim.project_branches)
    for _ in range(2):
        assert scenarios.run_fr_protocol(scenarios.build_hardy_scenario()).contradiction
    # Per run: the friend records, the Wigner pair and the two mixed contexts.
    assert calls == {"project_branches": 8}
