"""The protocol reports against a plain oracle: two-qubit Paulis and the system state s alone.

A friend's record embeds the system isometrically, so every observable a run
reads acts on the reachable states as a plain Pauli acts on s.  `plain_report`
builds each report tree from those Paulis, written out here as 4x4 matrices,
and from s, with no friend, memory, lift or frame: its branch vectors are the
Paulis' joint eigenvectors, the square's line targets are the signs of the
Pauli products, and each C verdict is a search over the 512 sign assignments.
Records, probabilities, expectations, verdicts and singular values must match
within TOL.  A compiled branch fixes its vector's phase on the reachable
states, so an amplitude may differ from the oracle's by one unit phase per
branch; that phase is measured once, on a basis state, and must then hold for
every state.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from test_plan import MODES, TOL, assert_tree_close, system_states

from wignerlab import qsim, scenarios

PAULIS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}
SIGNS = (+1, -1)

# The plain Peres-Mermin square on (s1, s2), row-major, columns A, B, C.
SQUARE = (("ZI", "IZ", "ZZ"), ("IX", "XI", "XX"), ("ZX", "XZ", "YY"))
LINES = {
    **{f"row{i + 1}": [(i, 0), (i, 1), (i, 2)] for i in range(3)},
    **{f"col{'ABC'[j]}": [(0, j), (1, j), (2, j)] for j in range(3)},
}


def pauli(word: str) -> np.ndarray:
    return np.kron(PAULIS[word[0]], PAULIS[word[1]]).astype(complex)


def joint_branches(s, named) -> list[tuple[dict, complex]]:
    """(records, amplitude) on each joint eigenvector of commuting named Paulis, +1 before -1."""
    out = []
    for signs in itertools.product(SIGNS, repeat=len(named)):
        projector = np.eye(4, dtype=complex)
        for (_, word), sign in zip(named, signs):
            projector = projector @ (np.eye(4) + sign * pauli(word)) / 2
        rank = np.trace(projector).real
        if abs(rank) <= TOL:
            continue
        assert abs(rank - 1) <= TOL, (named, signs)
        vector = projector[:, np.argmax(np.abs(np.diagonal(projector)))]
        amplitude = complex(np.vdot(vector / np.linalg.norm(vector), s))
        out.append((dict(zip((name for name, _ in named), signs)), amplitude))
    return out


def kept(branches):
    return [(records, amplitude) for records, amplitude in branches if abs(amplitude) >= qsim.BRANCH_AMP_TOL]


def pair(z):
    return [float(z.real), float(z.imag)]


def key(outcome):
    return "".join("+" if v > 0 else "-" for v in outcome)


def stage_doc(branches, derived=None):
    docs = []
    for records, amplitude in kept(branches):
        if derived:
            records = {**records, derived: math.prod(records.values())}
        outcomes = dict(sorted(records.items()))
        docs.append({"outcomes": outcomes, "amplitude": pair(amplitude), "probability": abs(amplitude) ** 2})
    return docs


@functools.cache
def square_verdicts():
    """The six line values, and per valid C column its required A parity and whether it contradicts the square."""
    grid = [[pauli(word) for word in row] for row in SQUARE]
    products = {name: np.linalg.multi_dot([grid[i][j] for i, j in cells]) for name, cells in LINES.items()}
    values = {name: float(np.trace(product).real) / 4 for name, product in products.items()}
    targets = {name: 1 if value >= 0 else -1 for name, value in values.items()}

    def meets(assignment, names):
        return all(math.prod(assignment[i][j] for i, j in LINES[name]) == targets[name] for name in names)

    assignments = [tuple(zip(*[iter(signs)] * 3)) for signs in itertools.product(SIGNS, repeat=9)]
    verdicts = {}
    for c in itertools.product(SIGNS, repeat=3):
        with_c = [a for a in assignments if tuple(row[2] for row in a) == c]
        free_a = [a for a in with_c if meets(a, set(LINES) - {"colA"})]
        if not free_a:
            continue
        parities = {math.prod(row[0] for row in a) for a in free_a}
        required = parities.pop() if len(parities) == 1 else 0
        verdicts[c] = (required, not any(meets(a, LINES) for a in with_c))
    return values, targets, verdicts


def plain_pm_report(s, c_mode):
    values, targets, verdicts = square_verdicts()
    column = [("C1", "ZZ"), ("C2", "XX"), ("C3", "YY")]
    c_all = joint_branches(s, column)
    joint = [(tuple(r.values()), a) for r, a in kept(c_all)] if c_mode == "projective" else []
    outcomes = [c for c, _ in joint] if c_mode == "projective" else [tuple(r.values()) for r, _ in c_all]
    probabilities = dict((c, abs(a) ** 2) for c, a in joint)
    c_branches = [
        {"outcome": key(c), "probability": probabilities.get(c), "required_a_parity": required, "contradiction": flag}
        for c in outcomes
        for required, flag in [verdicts[c]]
    ]
    a_even = targets["colA"] == +1
    contradiction = bool(c_branches) and all(b["contradiction"] for b in c_branches) and a_even
    operators = [pauli(word) for _, word in column]
    expectations = {name: float(np.vdot(s, op @ s).real) for (name, _), op in zip(column, operators)}
    expectations["C1*C2*C3"] = float(np.vdot(s, operators[0] @ operators[1] @ operators[2] @ s).real)
    flagged = {c for c in outcomes if verdicts[c][1]}
    parts = [0.0, 0.0]
    for records, amplitude in c_all:
        parts[tuple(records.values()) in flagged] += abs(amplitude) ** 2
    singular = sorted(map(math.sqrt, parts), reverse=True)
    rank = sum(value > scenarios.SCHMIDT_TOL for value in singular)
    return {
        "schema": "wignerlab-report/1",
        "kind": "peres-mermin",
        "register": ["s1", "s2", "a1", "a2", "b1", "b2"],
        "initial_state": [pair(z) for z in s],
        "stages": {
            "A": stage_doc(joint_branches(s, [("A1", "ZI"), ("A2", "IX")]), "A3"),
            "B": stage_doc(joint_branches(s, [("B1", "IZ"), ("B2", "XI")]), "B3"),
        },
        "joint": {
            "labels": ["C1", "C2", "C3"],
            "distribution": {key(c): abs(a) ** 2 for c, a in sorted(joint)},
            "amplitudes": {key(c): pair(a) for c, a in sorted(joint)},
        },
        "contradiction": contradiction,
        "c_mode": c_mode,
        "expectations": dict(sorted(expectations.items())),
        "square_constraints": dict(sorted(values.items())),
        "c_branches": c_branches,
        "a_parity_even": a_even,
        "signalling": {
            "observed": ["A", "B", "C"] if c_mode == "projective" else ["A", "B"],
            "contradiction": contradiction,
        },
        "factorization": {"schmidt_rank": rank, "singular_values": singular, "factorizes": rank == 1},
    }


def plain_hardy_report(s):
    """Friends' records read Z and the Wigners' lifts X on (sA, sB)."""
    wigner = kept(joint_branches(s, [("A", "XI"), ("B", "IX")]))
    friends = kept(joint_branches(s, [("FA", "ZI"), ("FB", "IZ")]))
    contexts = [kept(joint_branches(s, [("A", "XI"), ("FB", "IZ")])), friends]
    contexts.append(kept(joint_branches(s, [("FA", "ZI"), ("B", "IX")])))
    implications = []
    for branches in contexts:
        context = list(branches[0][0])
        for first, second in itertools.permutations(context, 2):
            for value in SIGNS:
                seen = {records[second] for records, _ in branches if records[first] == value}
                if len(seen) == 1:
                    implications.append({"if": [first, value], "then": [second, seen.pop()], "context": context})
    known, conclusions, frontier = {"A"}, [], [["A", -1]]
    while frontier:
        current = frontier.pop(0)
        for implication in implications:
            if implication["if"] == current and implication["then"][0] not in known:
                known.add(implication["then"][0])
                conclusions.append(implication["then"])
                frontier.append(implication["then"])
    distribution = {tuple(r.values()): abs(a) ** 2 for r, a in wigner}
    contradiction = ["B", +1] in conclusions and distribution.get((-1, -1), 0.0) > qsim.PROBABILITY_TOL
    doc = {
        "schema": "wignerlab-report/1",
        "kind": "hardy",
        "register": ["sA", "sB", "fA", "fB"],
        "initial_state": [pair(z) for z in s],
        "stages": {"friends": stage_doc(friends)},
        "joint": {
            "labels": ["A", "B"],
            "distribution": {key(c): p for c, p in sorted(distribution.items())},
            "amplitudes": {key(c): pair(a) for c, a in sorted((tuple(r.values()), a) for r, a in wigner)},
        },
        "contradiction": contradiction,
    }
    if implications:
        doc["implications"] = implications
    doc["chain"] = {"seed": ["A", -1], "conclusions": conclusions}
    doc["signalling"] = {"observed": ["FA", "FB", "A", "B"], "contradiction": contradiction}
    return doc


def plain_report(kind, s, c_mode=None):
    return plain_hardy_report(s) if kind == "hardy" else plain_pm_report(s, c_mode)


def run(kind, s, c_mode=None):
    state = qsim.StateVector(scenarios.PM_SYSTEM, s)
    if kind == "hardy":
        return scenarios.report_to_dict(scenarios.run_fr_protocol(scenarios.build_hardy_scenario(state)))
    return scenarios.report_to_dict(scenarios.run_pm_protocol(scenarios.build_pm_scenario(state, c_mode)))


def split_amplitudes(doc):
    """The tree without its amplitudes, and the amplitudes keyed by stage and branch records."""
    rest = {**doc, "stages": {}, "joint": {k: v for k, v in doc["joint"].items() if k != "amplitudes"}}
    amplitudes = {("joint", k): complex(*v) for k, v in doc["joint"]["amplitudes"].items()}
    for agent, branches in doc["stages"].items():
        rest["stages"][agent] = [{k: v for k, v in b.items() if k != "amplitude"} for b in branches]
        amplitudes.update({(agent, key(b["outcomes"].values())): complex(*b["amplitude"]) for b in branches})
    return rest, amplitudes


@functools.cache
def branch_phases(kind, c_mode=None):
    """Each branch's unit phase, report over oracle, read on a basis state where it has weight 1/4 or more."""
    phases = {}
    for s in np.eye(4, dtype=complex):
        _, got = split_amplitudes(run(kind, s, c_mode))
        for branch, amplitude in split_amplitudes(plain_report(kind, s, c_mode))[1].items():
            if abs(amplitude) >= 0.5 - TOL:
                phases.setdefault(branch, got[branch] / amplitude)
    return phases


def check_against_plain_oracle(kind, s, c_mode, doc):
    got, got_amplitudes = split_amplitudes(doc)
    want, want_amplitudes = split_amplitudes(plain_report(kind, s, c_mode))
    assert_tree_close(got, want)
    assert list(got_amplitudes) == list(want_amplitudes)
    phases = branch_phases(kind, c_mode)
    for branch, amplitude in want_amplitudes.items():
        assert abs(abs(phases[branch]) - 1) <= TOL, branch
        assert abs(got_amplitudes[branch] - phases[branch] * amplitude) <= TOL, (branch, s)


CASES = [("hardy", None)] + [("peres-mermin", c_mode) for c_mode in MODES]
IDS = ["hardy", *MODES]


@pytest.mark.parametrize("kind, c_mode", CASES, ids=IDS)
@settings(max_examples=25, derandomize=True, deadline=None, phases=[Phase.generate])
@given(initial=system_states)
def test_reports_match_the_plain_oracle_on_generated_states(kind, c_mode, initial):
    check_against_plain_oracle(kind, initial.amplitudes, c_mode, run(kind, initial.amplitudes, c_mode))


@pytest.mark.parametrize("kind, c_mode", CASES, ids=IDS)
def test_reports_match_the_plain_oracle_on_sweep_seed(kind, c_mode):
    rng = np.random.default_rng(scenarios.SWEEP_SEED)
    states = [qsim.random_state(scenarios.PM_SYSTEM, rng).amplitudes for _ in range(20)]
    if kind == "hardy":
        docs = [run(kind, s) for s in states]
    else:
        reports = scenarios.pm_random_sweep(count=20, seed=scenarios.SWEEP_SEED, c_mode=c_mode)
        docs = map(scenarios.report_to_dict, reports)
    for s, doc in zip(states, docs):
        check_against_plain_oracle(kind, s, c_mode, doc)


def test_every_branch_phase_is_pinned():
    """Each branch of each stage has a basis state carrying a quarter of its weight or more."""
    assert len(branch_phases("hardy")) == 4 + 4
    assert len(branch_phases("peres-mermin", "projective")) == 4 + 4 + 4
    assert len(branch_phases("peres-mermin", "expectation-only")) == 4 + 4
