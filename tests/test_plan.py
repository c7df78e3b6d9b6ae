"""The compiled protocol frames against dense per-state references.

`dense_reference` recomputes a square-protocol run from scratch for one
state: fresh friend unitaries, dense joint projectors for every stage, the
C1*C2*C3 operator product, square verification, retrodiction audits and a
128x128 lifted operator for the factorization check.  Beyond the frame's
observables it shares only `friend_unitary`, the state kernel
(`apply_operator`, `tensor_product`) and `verify_square_constraints` with the
compiled path.  Its C-branch verdicts come from the hand-written
`c_outcome_consistent` oracle and the C triple's own parity, not from the
constraint table.  `dense_hardy_reference` does the same for a two-Wigner
run: records, joint outcomes, implications, chain and contradiction.
"""

import io
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wignerlab import cli, contextuality, epistemic, friendify, qsim, scenarios
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


def _stage_doc(state, readouts, derived=None):
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
        if derived:
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
        for outcome in (c for c in itertools.product((+1, -1), repeat=3) if np.prod(c) == -1):
            projector = np.eye(state.dim, dtype=complex)
            for obs, value in zip(frame.c_observables, outcome):
                projector = projector @ obs.projector(value)
            c_rows.append((outcome, None))
            projectors.append(projector)
    c_branches = [
        {
            "outcome": _key(outcome),
            "probability": probability,
            # The rows with B even force parity(A) = parity(C).
            "required_a_parity": int(np.prod(outcome)),
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


def dense_hardy_reference(initial: StateVector) -> tuple[dict, StateVector]:
    """The report_to_dict tree of one two-Wigner run, recomputed densely for this state alone."""
    frame = scenarios.build_hardy_frame()
    system = StateVector(scenarios.HARDY_SYSTEM, initial.amplitudes)
    state = tensor_product([system, basis_state(QubitRegister(("fA", "fB")), "00")])
    for mem in (frame.mem_a, frame.mem_b):
        state = apply_operator(state, friend_unitary(mem), mem.targets)
    distribution, amplitudes = {}, {}
    for recs, amplitude, _ in _dense_branches(state, (frame.wigner_a, frame.wigner_b)):
        distribution[(recs["A"], recs["B"])] = abs(amplitude) ** 2
        amplitudes[(recs["A"], recs["B"])] = _pair(amplitude)
    implications = []
    for pair in ((frame.wigner_a, frame.friend_b), (frame.friend_a, frame.friend_b), (frame.friend_a, frame.wigner_b)):
        branches = [recs for recs, _, _ in _dense_branches(state, pair)]
        context = [obs.name for obs in pair]
        for first, second in itertools.permutations(context, 2):
            for value in (+1, -1):
                seen = {recs[second] for recs in branches if recs[first] == value}
                if len(seen) == 1:
                    implications.append({"if": [first, value], "then": [second, seen.pop()], "context": context})
    known, conclusions, frontier = {"A"}, [], [["A", -1]]
    while frontier:
        current = frontier.pop(0)
        for imp in implications:
            if imp["if"] == current and imp["then"][0] not in known:
                known.add(imp["then"][0])
                conclusions.append(imp["then"])
                frontier.append(imp["then"])
    contradiction = ["B", +1] in conclusions and distribution.get((-1, -1), 0.0) > qsim.PROBABILITY_TOL
    doc = {
        "schema": "wignerlab-report/1",
        "kind": "hardy",
        "register": list(scenarios.HARDY_REGISTER.labels),
        "initial_state": [_pair(z) for z in system.amplitudes],
        "stages": {"friends": _stage_doc(state, (frame.friend_a, frame.friend_b))},
        "joint": {
            "labels": ["A", "B"],
            "distribution": {_key(k): v for k, v in sorted(distribution.items())},
            "amplitudes": {_key(k): v for k, v in sorted(amplitudes.items())},
        },
        "contradiction": contradiction,
    }
    if implications:
        doc["implications"] = implications
    doc["chain"] = {"seed": ["A", -1], "conclusions": conclusions}
    doc["signalling"] = {"observed": ["FA", "FB", "A", "B"], "contradiction": contradiction}
    return doc, state


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


def check_hardy_against_reference(initial):
    report = scenarios.run_fr_protocol(scenarios.build_hardy_scenario(initial))
    want, state = dense_hardy_reference(initial)
    assert_tree_close(scenarios.report_to_dict(report), want)
    assert np.max(np.abs(report.final_state.amplitudes - state.amplitudes)) <= TOL


@settings(max_examples=25, derandomize=True, deadline=None, phases=[Phase.generate])
@given(initial=system_states)
def test_hardy_matches_dense_reference_on_generated_states(initial):
    check_hardy_against_reference(initial)


@pytest.mark.parametrize("initial", [scenarios.hardy_state(), scenarios.bell_state("psi-")], ids=["default", "psi-"])
def test_hardy_matches_dense_reference(initial):
    check_hardy_against_reference(initial)


def count_calls(monkeypatch, calls: dict, function) -> None:
    """Count `function`'s calls in `calls`, through every package module that binds it."""
    name = function.__name__
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    for module in (contextuality, epistemic, friendify, qsim, scenarios):
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


def test_the_frame_proves_each_observable_once_on_the_plain_square(monkeypatch, fresh_frames):
    """A PM build proves every lifted readout and square cell once, and all else on 2-qubit registers."""
    proved, grids, registers = [], [], []
    pull_back, eigenbasis = scenarios._pull_back, scenarios.joint_eigenbasis
    verify = contextuality.verify_square_constraints

    def counted_pull_back(reach, pairs):
        proved.extend(pairs)
        pull_back(reach, pairs)

    def counted_verify(grid):
        grids.append(grid)
        return verify(grid)

    def counted_eigenbasis(register, observables):
        registers.append(register)
        return eigenbasis(register, observables)

    monkeypatch.setattr(scenarios, "_pull_back", counted_pull_back)
    monkeypatch.setattr(contextuality, "verify_square_constraints", counted_verify)
    monkeypatch.setattr(scenarios, "joint_eigenbasis", counted_eigenbasis)
    frame = scenarios.build_pm_frame()
    lifted = [*frame.readouts.values(), *itertools.chain.from_iterable(frame.square)]
    assert sorted(id(observable) for observable, _ in proved) == sorted(map(id, lifted))
    assert all(plain.register == PM_SYSTEM for _, plain in proved)
    assert [observable.name for observable, _ in proved] == [plain.name for _, plain in proved]
    (grid,) = grids
    assert all(cell.register == PM_SYSTEM for row in grid for cell in row)
    assert registers == [PM_SYSTEM] * 3


def test_frame_compiles_each_epistemic_audit_once(monkeypatch, fresh_frames, tmp_path):
    calls = {}
    count_calls(monkeypatch, calls, epistemic.pm_epistemic_audit)
    frame = scenarios.build_pm_frame()
    assert len(frame.c_branches) == 4
    assert calls == {"pm_epistemic_audit": 4}  # one per C branch
    for mode in cli.MODES:
        for fmt in cli.FORMATS:
            out = tmp_path / f"{mode}.{fmt}"
            config = cli.RunConfig("peres-mermin", mode=mode, format=fmt, out=str(out))
            assert cli.run_command(config, out=io.StringIO()) == 0
    assert calls == {"pm_epistemic_audit": 4}


@pytest.mark.parametrize("c_mode", MODES)
def test_c_branches_share_the_plan_vectors(c_mode):
    frame = scenarios.build_pm_frame()
    assert [scenarios._c_outcome(records) for records in frame.c_map.records] == list(frame.c_branches)
    # Each C map row, read back through the frame's U E, is a joint eigenvector of the lifted C triple.
    for row, records in zip(frame.c_map.rows, frame.c_map.records):
        vector = frame.c_map.reach @ row.conj()
        assert abs(np.linalg.norm(vector) - 1) <= TOL
        for observable in frame.c_observables:
            assert np.max(np.abs(observable.matrix() @ vector - records[observable.name] * vector)) <= TOL
    for report in scenarios.pm_random_sweep(count=3, seed=SWEEP_SEED, c_mode=c_mode):
        assert all(branch is frame.c_branches[branch.outcome] for branch in report.c_branches)


@pytest.mark.parametrize("c_mode", MODES)
@pytest.mark.parametrize("flipped", ["row1", "row2", "row3", "colA", "colB", "colC", "colA+colB"])
def test_a_flipped_square_line_changes_the_verdict(monkeypatch, fresh_frames, tmp_path, flipped, c_mode):
    """Each of the six measured line values drives the frame and its epistemic audits: none is assumed."""
    original = contextuality.verify_square_constraints

    def flip(square):
        report = original(square)
        lines = [
            replace(line, value=-line.value, sign=-line.sign) if line.line in flipped.split("+") else line
            for line in report.lines
        ]
        return replace(report, lines=tuple(lines))

    monkeypatch.setattr(contextuality, "verify_square_constraints", flip)
    if flipped == "colC":
        # The C eigenspaces carry c1*c2*c3 = -1, which a +1 colC line rules out.
        with pytest.raises(qsim.InvariantError, match="C stage eigenspaces"):
            scenarios.build_pm_frame()
        return
    initial = scenarios.bell_state("phi+")
    report = scenarios.run_pm_protocol(scenarios.build_pm_scenario(initial, c_mode))
    assert report.c_branches
    if flipped == "colA+colB":
        # No assignment meets both flipped columns, so every C branch is flagged; the verdict
        # still needs even A records, which the flipped colA target denies.
        assert all(branch.contradiction for branch in report.c_branches)
    else:
        # With one line flipped the targets are satisfiable, so every C branch has an explanation.
        assert not any(branch.contradiction for branch in report.c_branches)
    assert report.contradiction is False
    assert report.a_parity_even is ("colA" not in flipped)
    for branch in report.c_branches:
        assert branch.audit.required_a_parity == branch.retrodiction.required_a_parity
    # The CLI's epistemic block agrees with the C branches it reports.
    out = tmp_path / "report.json"
    mode = "projective" if c_mode == "projective" else "expectation"
    config = cli.RunConfig("peres-mermin", mode=mode, format="structured", out=str(out))
    assert cli.run_command(config, out=io.StringIO()) == 0
    doc = json.loads(out.read_text())
    assert [e["outcome"] for e in doc["epistemic"]] == [b["outcome"] for b in doc["c_branches"]]
    for audit, branch in zip(doc["epistemic"], doc["c_branches"]):
        assert audit["required_a_parity"] == branch["required_a_parity"]


def test_hardy_frame_compiles_its_implication_contexts():
    frame = scenarios.build_hardy_frame()
    names = [tuple(context.records[0]) for context in frame.contexts]
    assert names == [("A", "FB"), ("FA", "B")]
    # (FA, FB) is read off the friend stage's records, in the middle of the implications.
    report = scenarios.run_fr_protocol(scenarios.build_hardy_scenario())
    contexts = list(dict.fromkeys(imp.context for imp in report.implications))
    assert contexts == [("A", "FB"), ("FA", "FB"), ("FA", "B")]
    friend_branches = qsim.branch_decompose(report.final_state, (frame.friend_a, frame.friend_b))
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


def test_warm_runs_make_no_kernel_calls(monkeypatch):
    scenarios.build_pm_frame()
    scenarios.build_hardy_frame()
    calls = {}
    for function in (qsim.apply_operator, qsim.project_branches, qsim.joint_eigenbasis):
        count_calls(monkeypatch, calls, function)
    svd, validate = np.linalg.svd, qsim.StateVector.__post_init__
    counts = {"svd": 0, "states": 0}

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_validate(self):
        counts["states"] += 1
        validate(self)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(qsim.StateVector, "__post_init__", counted_validate)
    for c_mode in MODES:
        assert all(report.contradiction for report in scenarios.pm_random_sweep(20, SWEEP_SEED, c_mode))
    # The factorization comes from the C weights, and each run builds only its random system state.
    assert counts == {"svd": 0, "states": len(MODES) * 20}
    for _ in range(2):
        assert scenarios.run_fr_protocol(scenarios.build_hardy_scenario()).contradiction
    assert calls == {"apply_operator": 0, "project_branches": 0, "joint_eigenbasis": 0}


@pytest.mark.parametrize("c_mode", MODES)
def test_a_sweep_run_is_the_single_run_of_its_state(monkeypatch, c_mode):
    frame = scenarios.build_pm_frame()
    batches = []
    execute = scenarios._execute

    def counted(stage, system):
        batches.append(system.shape[1])
        return execute(stage, system)

    monkeypatch.setattr(scenarios, "_execute", counted)
    reports = scenarios.pm_random_sweep(count=20, seed=SWEEP_SEED, c_mode=c_mode)
    # One batch per stage map, whatever the count.
    assert batches == [20] * (len(frame.stages) + 1)
    rng = np.random.default_rng(SWEEP_SEED)
    for report in reports:
        single = scenarios.run_pm_protocol(scenarios.build_pm_scenario(qsim.random_state(PM_SYSTEM, rng), c_mode))
        assert scenarios.report_to_dict(report) == scenarios.report_to_dict(single)
    assert batches[len(frame.stages) + 1 :] == [1] * 20 * (len(frame.stages) + 1)


def test_branch_map_arrays_are_read_only():
    stage = scenarios.build_pm_frame().c_map
    for name in ("rows", "reach"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(stage, name)[0, 0] = 0


def _swap_a_friend_unitary(monkeypatch):
    """Record X instead of Z in the first memory of each protocol: another unitary on the same qubits."""
    original = friend_unitary

    def swapped(mem):
        if mem.memory in ("a1", "fA"):
            label = mem.recorded.register.labels[0]
            return original(friendify.MemoryAssignment(mem.memory, qsim.pauli_observable("X", label)))
        return original(mem)

    monkeypatch.setattr(scenarios, "friend_unitary", swapped)


def _perturb_a_c_vector(monkeypatch):
    original = scenarios.joint_eigenbasis

    def perturbed(register, observables):
        basis = original(register, observables)
        if [obs.name for obs in observables] != ["C1", "C2", "C3"]:
            return basis
        first, second = (space.vector.amplitudes for space in basis.spaces[:2])
        vector = qsim.normalized_state(register, first + 1e-6 * second)
        spaces = (replace(basis.spaces[0], vector=vector),) + basis.spaces[1:]
        return replace(basis, spaces=spaces)

    monkeypatch.setattr(scenarios, "joint_eigenbasis", perturbed)


def _nan_map_row(monkeypatch):
    """A NaN in each branch's image w_k, and so in every row of the map."""
    original = scenarios._phase_fixed

    def with_nan(vector):
        fixed = original(vector)
        fixed[0] = np.nan
        return fixed

    monkeypatch.setattr(scenarios, "_phase_fixed", with_nan)


@pytest.mark.parametrize(
    "corrupt, scenario, message",
    [
        (_swap_a_friend_unitary, "peres-mermin", "readout 'A1' does not act on the reachable states as the Pauli 'A1'"),
        (_swap_a_friend_unitary, "hardy", r"readout 'FA' .* Pauli 'Z\[sA\]'"),
        (_perturb_a_c_vector, "peres-mermin", "not an isometry"),
        (_nan_map_row, "peres-mermin", "not an isometry"),
        (_nan_map_row, "hardy", "not an isometry"),
    ],
    ids=["friend-unitary-pm", "friend-unitary-hardy", "c-vector", "nan-row-pm", "nan-row-hardy"],
)
def test_a_corrupted_frame_fails_its_compile(monkeypatch, fresh_frames, tmp_path, capsys, corrupt, scenario, message):
    corrupt(monkeypatch)
    build = scenarios.build_pm_frame if scenario == "peres-mermin" else scenarios.build_hardy_frame
    with pytest.raises(qsim.InvariantError, match=message):
        build()
    out = tmp_path / "report.txt"
    assert cli.run_command(cli.RunConfig(scenario, out=str(out)), out=io.StringIO()) == 3
    assert "internal invariant breach" in capsys.readouterr().err
    assert not out.exists()


def test_a_readout_must_pull_back_to_its_pauli():
    register, system = QubitRegister(("a", "b", "m")), QubitRegister(("a", "b"))
    mem = friendify.MemoryAssignment("m", qsim.pauli_observable("Z", "a"))
    record = friendify.record_observable(mem, "M").embedded(register)
    zb = qsim.pauli_observable("Z", "b").embedded(register)
    za_plain, zb_plain, xa_plain = (qsim.pauli_observable(p, q).embedded(system) for p, q in ("Za", "Zb", "Xa"))

    def compile_stage(*pairs, derived=None):
        return next(scenarios._compile_stages(register, [((mem,), pairs, derived or {})]))

    # The memory copies Z[a], so its record acts on the reachable states as Z[a] acts on (a, b).
    stage = compile_stage((record, za_plain), (zb, zb_plain), derived={"ab": ("M", "Z[b]")})
    assert np.max(np.abs(stage.rows - np.eye(4))) <= TOL
    assert [records["ab"] for records in stage.records] == [+1, -1, -1, +1]
    wrong = r"^readout 'M' does not act on the reachable states as the Pauli 'X\[a\]'"
    with pytest.raises(qsim.InvariantError, match=wrong):
        compile_stage((record, xa_plain), (zb, zb_plain))
    # Z[a] alone splits the system into two planes, not four branches.
    with pytest.raises(qsim.InvariantError, match="degenerate"):
        compile_stage((record, za_plain))
    reach = np.array(stage.reach)
    reach[0, 0] = np.nan
    with pytest.raises(qsim.InvariantError, match=r"readout 'M' .* 'Z\[a\]' on the system \(deviation nan\)"):
        scenarios._pull_back(reach, [(record, za_plain)])


@pytest.mark.parametrize("scale", [2.0, np.nan], ids=["unnormalized", "nan"])
def test_the_weight_check_names_the_failing_run(scale):
    system = np.tile(scenarios.bell_state("phi+").amplitudes[:, None], (1, 3))
    system[:, 1] *= scale
    with pytest.raises(qsim.InvariantError, match=r"^run 1: branches carry total weight"):
        scenarios._execute(scenarios.build_pm_frame().c_map, system)
