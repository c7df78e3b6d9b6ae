"""End-to-end nested-observer protocols.

Two scenarios are provided: the two-Wigner Hardy-state protocol (probabilistic
contradiction via an implication chain) and the three-agent Peres-Mermin
protocol (deterministic, state-independent contradiction).  Friend
measurements are modeled unitarily; agent records are recovered by
branch-decomposing against record-readout observables, so a run produces the
full multi-branch narrative rather than a single sampled outcome.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import contextuality
from .friendify import (
    DoubleLift,
    MemoryAssignment,
    double_lift_basis,
    friend_unitary,
    lift_observable,
    record_observable,
)
from .qsim import (
    PROBABILITY_TOL,
    InvariantError,
    JointEigenbasis,
    QubitRegister,
    SpectralObservable,
    StateVector,
    apply_operator,
    basis_state,
    joint_eigenbasis,
    normalized_state,
    pauli_observable,
    project_branches,
    random_state,
    tensor_product,
)

# Seed for the reproducible random-state sweeps.
SWEEP_SEED = 20260810

# Singular values above this count toward the Schmidt rank.
SCHMIDT_TOL = 1e-8

REPORT_SCHEMA = "wignerlab-report/1"


@dataclass(frozen=True)
class Implication:
    """If antecedent holds then consequent holds, witnessed in the given basis."""

    antecedent: tuple[str, int]
    consequent: tuple[str, int]
    context: tuple[str, ...]


@dataclass(frozen=True)
class BranchRecord:
    records: dict[str, int]
    amplitude: complex
    probability: float


@dataclass(frozen=True)
class FriendStage:
    """One agent's friend measurements, compiled once with the frame.

    `unitaries` are the (targets, friend unitary) pairs in the order they are
    applied; the records are read off the joint eigenbasis of the agent's
    record readouts, and `derived` maps an extra record name to the pair of
    record names whose product defines it.
    """

    agent: str
    unitaries: tuple[tuple[tuple[str, ...], np.ndarray], ...]
    derived: dict[str, tuple[str, str]]
    basis: JointEigenbasis

    def run(self, state: StateVector) -> tuple[StateVector, tuple[BranchRecord, ...]]:
        """Apply the friend unitaries, then read every branch's records."""
        for targets, unitary in self.unitaries:
            state = apply_operator(state, unitary, targets)
        records = []
        for branch in project_branches(state, self.basis):
            outcomes = dict(branch.records)
            for extra, (left, right) in self.derived.items():
                outcomes[extra] = outcomes[left] * outcomes[right]
            records.append(BranchRecord(outcomes, branch.amplitude, branch.probability))
        return state, tuple(records)


def friend_stage(agent: str, register: QubitRegister, mems, readouts, derived=None) -> FriendStage:
    """Compile an agent's memories (in application order) and their record readouts."""
    return FriendStage(
        agent,
        tuple((mem.targets, friend_unitary(mem)) for mem in mems),
        dict(derived or {}),
        joint_eigenbasis(register, readouts),
    )


@dataclass(frozen=True)
class HardyFrame:
    register: QubitRegister
    mem_a: MemoryAssignment
    mem_b: MemoryAssignment
    wigner_a: SpectralObservable
    wigner_b: SpectralObservable
    friend_a: SpectralObservable
    friend_b: SpectralObservable
    friends: FriendStage
    wigner_basis: JointEigenbasis
    # Mixed implication contexts (A, FB), (FA, B); (FA, FB) is read off the friend records.
    contexts: tuple[JointEigenbasis, JointEigenbasis]


@dataclass(frozen=True)
class PMFrame:
    """The square protocol's operators and everything a run reads that depends only on them.

    Besides the observables, the frame holds the A and B friend stages, the C
    stage's joint eigenbasis (four rank-1 spaces, shared by both C modes), the
    square-constraint report with the A parity it proves, and each valid C
    triple's audited branch, keyed by outcome.
    """

    register: QubitRegister
    mems: dict
    readouts: dict
    c_observables: tuple[SpectralObservable, ...]
    square: tuple[tuple[SpectralObservable, ...], ...]
    double1: DoubleLift
    double2: DoubleLift
    stages: tuple[FriendStage, ...]
    c_basis: JointEigenbasis
    square_report: contextuality.SquareReport
    a_parity_even: bool
    c_branches: dict[tuple[int, int, int], CBranch]


@dataclass(frozen=True)
class Scenario:
    kind: str
    system_state: StateVector
    initial_state: StateVector
    frame: HardyFrame | PMFrame
    c_mode: str | None = None


@dataclass(frozen=True)
class CBranch:
    """An audited C outcome; `vector` spans its rank-1 eigenspace and is shared by every run."""

    outcome: tuple[int, int, int]
    vector: StateVector
    retrodiction: contextuality.RetrodictionVerdict
    contradiction: bool


@dataclass(frozen=True)
class ChainResult:
    seed: tuple[str, int]
    conclusions: tuple[tuple[str, int], ...]
    steps: tuple[Implication, ...]


@dataclass(frozen=True)
class FactorizationVerdict:
    schmidt_rank: int
    singular_values: tuple[float, ...]
    factorizes: bool


@dataclass(frozen=True)
class HardyReport:
    """One two-Wigner run: friend records, joint Wigner outcomes, implications and chain."""

    kind = "hardy"
    joint_labels = ("A", "B")

    initial_amplitudes: tuple[complex, ...]
    stage_records: dict[str, tuple[BranchRecord, ...]]
    joint_distribution: dict[tuple[int, int], float]
    joint_amplitudes: dict[tuple[int, int], complex]
    implications: tuple[Implication, ...]
    chain: ChainResult
    contradiction: bool
    final_state: StateVector


@dataclass(frozen=True)
class PMReport:
    """One square-protocol run; expectation-only mode reports no joint C outcomes or probabilities."""

    kind = "peres-mermin"
    joint_labels = ("C1", "C2", "C3")

    initial_amplitudes: tuple[complex, ...]
    stage_records: dict[str, tuple[BranchRecord, ...]]
    joint_distribution: dict[tuple[int, int, int], float]
    joint_amplitudes: dict[tuple[int, int, int], complex]
    c_mode: str
    expectations: dict[str, float]
    square_constraints: dict[str, float]
    c_branches: tuple[CBranch, ...]
    a_parity_even: bool
    contradiction: bool
    factorization: FactorizationVerdict
    final_state: StateVector


# --------------------------------------------------------------------------
# Hardy / two-Wigner scenario.

HARDY_SYSTEM = QubitRegister(("sA", "sB"))
HARDY_REGISTER = QubitRegister(("sA", "sB", "fA", "fB"))


def hardy_state() -> StateVector:
    """(|z+z+> + |z+z-> + |z-z+>)/sqrt(3): no |z-z-> component."""
    return normalized_state(HARDY_SYSTEM, [1.0, 1.0, 1.0, 0.0])


@functools.cache
def build_hardy_frame() -> HardyFrame:
    mem_a = MemoryAssignment("fA", pauli_observable("Z", "sA", "ZA"))
    mem_b = MemoryAssignment("fB", pauli_observable("Z", "sB", "ZB"))
    wigner_a = lift_observable(mem_a, name="A")[0].embedded(HARDY_REGISTER)
    wigner_b = lift_observable(mem_b, name="B")[0].embedded(HARDY_REGISTER)
    friend_a = record_observable(mem_a, "FA").embedded(HARDY_REGISTER)
    friend_b = record_observable(mem_b, "FB").embedded(HARDY_REGISTER)
    friends = friend_stage("friends", HARDY_REGISTER, (mem_a, mem_b), (friend_a, friend_b))
    return HardyFrame(
        register=HARDY_REGISTER,
        mem_a=mem_a,
        mem_b=mem_b,
        wigner_a=wigner_a,
        wigner_b=wigner_b,
        friend_a=friend_a,
        friend_b=friend_b,
        friends=friends,
        wigner_basis=joint_eigenbasis(HARDY_REGISTER, (wigner_a, wigner_b)),
        contexts=(
            joint_eigenbasis(HARDY_REGISTER, (wigner_a, friend_b)),
            joint_eigenbasis(HARDY_REGISTER, (friend_a, wigner_b)),
        ),
    )


def build_hardy_scenario(system_state: StateVector | None = None) -> Scenario:
    """Hardy state shared by two friends measuring Z, lifted X measured by the Wigners.

    A different 2-qubit system state may be injected to probe the protocol on
    non-Hardy inputs (the implication chain then changes or collapses).
    """
    frame = build_hardy_frame()
    system = system_state if system_state is not None else hardy_state()
    if system.register.size != 2:
        raise ValueError("Hardy scenario needs a 2-qubit system state")
    system = StateVector(HARDY_SYSTEM, system.amplitudes)
    initial = tensor_product([system, basis_state(QubitRegister(("fA", "fB")), "00")])
    return Scenario("hardy", system, initial, frame)


def extract_implications(branches) -> list[Implication]:
    """Value implications read off the branches of one joint decomposition.

    The context is the branches' record names, in the order of the commuting
    observables they were decomposed over.  For every ordered pair of them, an
    implication (O_i = v) => (O_j = w) is emitted whenever every branch
    carrying O_i = v agrees on O_j = w.
    """
    context = tuple(branches[0].records) if branches else ()
    implications = []
    for name_i, name_j in itertools.permutations(context, 2):
        for v in (+1, -1):
            consequents = {b.records[name_j] for b in branches if b.records[name_i] == v}
            if len(consequents) == 1:
                implications.append(
                    Implication((name_i, v), (name_j, consequents.pop()), context)
                )
    return implications


def chain_inferences(implications, seed: tuple[str, int]) -> ChainResult:
    """Transitive closure of implications from a seed value, without repetition.

    This deliberately treats every established value as freely reusable (the
    budget-blind absoluteness-of-reality reading); the epistemic module audits
    the same chains under an information budget.
    """
    implications = list(implications)
    known: dict[str, int] = {seed[0]: seed[1]}
    conclusions: list[tuple[str, int]] = []
    steps: list[Implication] = []
    frontier = [tuple(seed)]
    while frontier:
        current = frontier.pop(0)
        for imp in implications:
            if tuple(imp.antecedent) != current:
                continue
            label, value = imp.consequent
            if label in known:
                continue
            known[label] = value
            conclusions.append((label, value))
            steps.append(imp)
            frontier.append((label, value))
    return ChainResult(tuple(seed), tuple(conclusions), tuple(steps))


def run_fr_protocol(scenario: Scenario) -> HardyReport:
    """Run the two-Wigner protocol and assemble the narrative report.

    The report carries the joint lifted-X distribution, the implications the
    state supports in each mixed basis, the inference chain seeded by the
    Wigner A = -1 outcome, and the contradiction flag (chain forces B = +1
    while the joint (-1, -1) probability is nonzero).
    """
    if scenario.kind != "hardy":
        raise ValueError(f"expected a hardy scenario, got {scenario.kind!r}")
    frame: HardyFrame = scenario.frame
    post_friends, friend_records = frame.friends.run(scenario.initial_state)
    distribution: dict[tuple[int, int], float] = {}
    amplitudes: dict[tuple[int, int], complex] = {}
    for branch in project_branches(post_friends, frame.wigner_basis):
        key = (branch.records["A"], branch.records["B"])
        distribution[key] = branch.probability
        amplitudes[key] = branch.amplitude

    a_fb, fa_b = (project_branches(post_friends, basis) for basis in frame.contexts)
    implications = []
    for branches in (a_fb, friend_records, fa_b):
        implications += extract_implications(branches)

    chain = chain_inferences(implications, ("A", -1))
    p_both_minus = distribution.get((-1, -1), 0.0)
    contradiction = (("B", +1) in chain.conclusions) and p_both_minus > PROBABILITY_TOL

    return HardyReport(
        initial_amplitudes=tuple(scenario.system_state.amplitudes),
        stage_records={frame.friends.agent: friend_records},
        joint_distribution=distribution,
        joint_amplitudes=amplitudes,
        implications=tuple(implications),
        chain=chain,
        contradiction=contradiction,
        final_state=post_friends,
    )


# --------------------------------------------------------------------------
# Peres-Mermin / three-agent scenario.

PM_SYSTEM = QubitRegister(("s1", "s2"))
PM_REGISTER = QubitRegister(("s1", "s2", "a1", "a2", "b1", "b2"))

BELL_AMPLITUDES = {
    "phi+": (1, 0, 0, 1),
    "phi-": (1, 0, 0, -1),
    "psi+": (0, 1, 1, 0),
    "psi-": (0, 1, -1, 0),
}


def bell_state(name: str) -> StateVector:
    try:
        amps = BELL_AMPLITUDES[name]
    except KeyError:
        raise ValueError(f"unknown Bell state {name!r}; pick from {sorted(BELL_AMPLITUDES)}") from None
    return normalized_state(PM_SYSTEM, amps)


@functools.cache
def build_pm_frame() -> PMFrame:
    """All operators of the three-level square on the (s1,s2,a1,a2,b1,b2) register.

    The level-1 agent records Z1 and X2; the level-2 agent records the two
    conjugate lifts; the level-3 agent's observables are logical two-qubit
    Paulis on the doubly lifted subspaces.  The square grid holds every
    agent's observables transported to the final space via record readouts, so
    the six product constraints become operator identities on the reachable
    subspace.
    """
    register = PM_REGISTER
    z1 = pauli_observable("Z", "s1", "Z1")
    x2 = pauli_observable("X", "s2", "X2")
    mem_a1 = MemoryAssignment("a1", z1)
    mem_a2 = MemoryAssignment("a2", x2)
    xbar1, sub1 = lift_observable(mem_a1, name="Xbar1")
    zbar2, sub2 = lift_observable(mem_a2, name="Zbar2")
    mem_b1 = MemoryAssignment("b1", xbar1)
    mem_b2 = MemoryAssignment("b2", zbar2)
    double1 = double_lift_basis(sub1, mem_b1, anchor="X", name_prefix="q1.")
    double2 = double_lift_basis(sub2, mem_b2, anchor="Z", name_prefix="q2.")

    def pair(first, second, name):
        return tensor_product([first[0], second[0]]).renamed(name).embedded(register)

    c1 = pair(double1.z, double2.z, "C1")
    c2 = pair(double1.x, double2.x, "C2")
    c3 = pair(double1.y, double2.y, "C3")
    square = (
        (double1.z[0].renamed("A1").embedded(register), double2.z[0].renamed("B1").embedded(register), c1),
        (double2.x[0].renamed("A2").embedded(register), double1.x[0].renamed("B2").embedded(register), c2),
        (pair(double1.z, double2.x, "A3"), pair(double1.x, double2.z, "B3"), c3),
    )
    readouts = {
        "A1": record_observable(mem_a1, "A1").embedded(register),
        "A2": record_observable(mem_a2, "A2").embedded(register),
        "B1": record_observable(mem_b2, "B1").embedded(register),
        "B2": record_observable(mem_b1, "B2").embedded(register),
    }
    # The C stage must split into exactly the four valid C triples, each a
    # rank-1 joint eigenspace; both C modes then audit the same fixed vectors.
    c_basis = joint_eigenbasis(register, (c1, c2, c3))
    outcomes = [_c_outcome(space.records) for space in c_basis.spaces]
    rank_one = all(space.vector is not None for space in c_basis.spaces)
    if outcomes != contextuality.valid_c_triples() or not rank_one:
        raise InvariantError(f"C stage eigenspaces {outcomes} are not the four rank-1 valid triples")
    square_report = contextuality.verify_square_constraints(square)
    c_branches = {}
    for outcome, space in zip(outcomes, c_basis.spaces):
        verdict = contextuality.retrodict_from_c(outcome)
        contradiction = not verdict.satisfiable_with_even_a
        c_branches[outcome] = CBranch(outcome, space.vector, verdict, contradiction)
    return PMFrame(
        register=register,
        mems={"a1": mem_a1, "a2": mem_a2, "b1": mem_b1, "b2": mem_b2},
        readouts=readouts,
        c_observables=(c1, c2, c3),
        square=square,
        double1=double1,
        double2=double2,
        stages=(
            friend_stage(
                "A", register, (mem_a1, mem_a2), (readouts["A1"], readouts["A2"]), {"A3": ("A1", "A2")}
            ),
            friend_stage(
                "B", register, (mem_b2, mem_b1), (readouts["B1"], readouts["B2"]), {"B3": ("B1", "B2")}
            ),
        ),
        c_basis=c_basis,
        square_report=square_report,
        # The A stage records A3 as A1*A2, which the colA identity A1*A2*A3 = +1
        # licenses: the A records carry even parity exactly when that line holds.
        a_parity_even=any(line.line == "colA" and line.ok for line in square_report.lines),
        c_branches=c_branches,
    )


def build_pm_scenario(initial: StateVector, c_mode: str = "projective") -> Scenario:
    """Three-agent square protocol on an arbitrary 2-qubit system state."""
    if c_mode not in ("projective", "expectation-only"):
        raise ValueError(f"c_mode must be 'projective' or 'expectation-only', got {c_mode!r}")
    if initial.register.size != 2:
        raise ValueError("the square protocol needs a 2-qubit initial state")
    system = StateVector(PM_SYSTEM, initial.amplitudes)
    memories = basis_state(QubitRegister(("a1", "a2", "b1", "b2")), "0000")
    full = tensor_product([system, memories])
    return Scenario("peres-mermin", system, full, build_pm_frame(), c_mode)


def run_pm_protocol(scenario: Scenario) -> PMReport:
    """Execute the three stages and audit every branch of the resulting narrative.

    The level-3 agent's outcomes always satisfy c1*c2*c3 = -1 and retrodict an
    odd number of -1 outcomes for the innermost agent, whose own records
    always carry an even number: the contradiction flag is set per branch by
    exhaustive assignment search and holds on every run.  Everything that
    depends only on the operators comes precompiled with `scenario.frame`, and
    the expectations are read off the run's one C projection.
    """
    if scenario.kind != "peres-mermin":
        raise ValueError(f"expected a peres-mermin scenario, got {scenario.kind!r}")
    frame: PMFrame = scenario.frame
    state = scenario.initial_state
    stage_records = {}
    for stage in frame.stages:
        state, stage_records[stage.agent] = stage.run(state)

    c_projection = project_branches(state, frame.c_basis)
    expectations = {
        "C1": sum(b.records["C1"] * b.probability for b in c_projection),
        "C2": sum(b.records["C2"] * b.probability for b in c_projection),
        "C3": sum(b.records["C3"] * b.probability for b in c_projection),
        "C1*C2*C3": sum(math.prod(b.records.values()) * b.probability for b in c_projection),
    }

    if scenario.c_mode == "projective":
        distribution = {_c_outcome(b.records): b.probability for b in c_projection}
        amplitudes = {_c_outcome(b.records): b.amplitude for b in c_projection}
        c_branches = tuple(frame.c_branches[outcome] for outcome in distribution)
    else:
        # No collapse anywhere: audit every jointly possible outcome, whose
        # eigenspaces are state-independent.
        distribution, amplitudes = {}, {}
        c_branches = tuple(frame.c_branches.values())

    flags = [branch.contradiction for branch in c_branches]
    return PMReport(
        initial_amplitudes=tuple(scenario.system_state.amplitudes),
        stage_records=stage_records,
        joint_distribution=distribution,
        joint_amplitudes=amplitudes,
        c_mode=scenario.c_mode,
        expectations=expectations,
        square_constraints={line.line: line.value for line in frame.square_report.lines},
        c_branches=c_branches,
        a_parity_even=frame.a_parity_even,
        contradiction=bool(c_branches) and all(flags) and frame.a_parity_even,
        factorization=_factorization(state, c_branches, flags),
        final_state=state,
    )


def _c_outcome(records: dict[str, int]) -> tuple[int, int, int]:
    return (records["C1"], records["C2"], records["C3"])


def signalling_factorization_check(report: PMReport, flags=None) -> FactorizationVerdict:
    """Check that the contradiction record stays in a product state with the lab.

    A fresh record qubit is appended and flipped inside each audited branch
    whose flag is set; the Schmidt spectrum across (record | everything else)
    then decides whether the record factorizes.  The two Schmidt columns are
    the unflipped part psi - F psi and the flipped part F psi, where F is the
    sum of the flagged branches' rank-1 projectors.  Passing explicit flags
    allows probing corrupted (branch-dependent) records.
    """
    if flags is None:
        flags = [branch.contradiction for branch in report.c_branches]
    return _factorization(report.final_state, report.c_branches, flags)


def _factorization(state: StateVector, c_branches, flags) -> FactorizationVerdict:
    if len(flags) != len(c_branches):
        raise ValueError("one flag per audited branch required")
    psi = state.amplitudes
    flipped = np.zeros_like(psi)
    for branch, flag in zip(c_branches, flags):
        if flag:
            vector = branch.vector.amplitudes
            flipped += vector * np.vdot(vector, psi)
    combined = np.column_stack((psi - flipped, flipped))
    singular = np.linalg.svd(combined, compute_uv=False)
    rank = int(np.sum(singular > SCHMIDT_TOL))
    return FactorizationVerdict(rank, tuple(float(s) for s in singular), rank == 1)


def pm_random_sweep(count: int = 20, seed: int = SWEEP_SEED, c_mode: str = "projective"):
    """Run the square protocol on `count` seeded random initial states."""
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(count):
        scenario = build_pm_scenario(random_state(PM_SYSTEM, rng), c_mode=c_mode)
        reports.append(run_pm_protocol(scenario))
    return reports


# --------------------------------------------------------------------------
# Report serialization (structured key-value tree; amplitudes as [re, im]).


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _outcome_key(outcome) -> str:
    return "".join("+" if v > 0 else "-" for v in outcome)


def report_to_dict(report: HardyReport | PMReport) -> dict:
    """Serializable tree for a run report; lossless for all numeric content."""
    doc: dict = {
        "schema": REPORT_SCHEMA,
        "kind": report.kind,
        "register": list(report.final_state.register.labels),
        "initial_state": [_complex_pair(z) for z in report.initial_amplitudes],
        "stages": {
            agent: [
                {
                    "outcomes": dict(sorted(rec.records.items())),
                    "amplitude": _complex_pair(rec.amplitude),
                    "probability": float(rec.probability),
                }
                for rec in records
            ]
            for agent, records in sorted(report.stage_records.items())
        },
        "joint": {
            "labels": list(report.joint_labels),
            "distribution": {
                _outcome_key(k): float(v) for k, v in sorted(report.joint_distribution.items())
            },
            "amplitudes": {
                _outcome_key(k): _complex_pair(v) for k, v in sorted(report.joint_amplitudes.items())
            },
        },
        "contradiction": report.contradiction,
    }
    if isinstance(report, HardyReport):
        if report.implications:
            doc["implications"] = [
                {
                    "if": [imp.antecedent[0], imp.antecedent[1]],
                    "then": [imp.consequent[0], imp.consequent[1]],
                    "context": list(imp.context),
                }
                for imp in report.implications
            ]
        doc["chain"] = {
            "seed": [report.chain.seed[0], report.chain.seed[1]],
            "conclusions": [[lbl, val] for lbl, val in report.chain.conclusions],
        }
        doc["signalling"] = {"observed": ["FA", "FB", "A", "B"], "contradiction": report.contradiction}
        return doc
    doc["c_mode"] = report.c_mode
    doc["expectations"] = {k: float(v) for k, v in sorted(report.expectations.items())}
    doc["square_constraints"] = {k: float(v) for k, v in sorted(report.square_constraints.items())}
    doc["c_branches"] = [
        {
            "outcome": _outcome_key(b.outcome),
            "probability": report.joint_distribution.get(b.outcome),
            "required_a_parity": b.retrodiction.required_a_parity,
            "contradiction": b.contradiction,
        }
        for b in report.c_branches
    ]
    doc["a_parity_even"] = report.a_parity_even
    observed = ["A", "B", "C"] if report.c_mode == "projective" else ["A", "B"]
    doc["signalling"] = {"observed": observed, "contradiction": report.contradiction}
    doc["factorization"] = {
        "schmidt_rank": report.factorization.schmidt_rank,
        "singular_values": [float(s) for s in report.factorization.singular_values],
        "factorizes": report.factorization.factorizes,
    }
    return doc
