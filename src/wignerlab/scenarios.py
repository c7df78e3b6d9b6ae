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
from dataclasses import dataclass, field, replace

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
    branch_decompose,
    expectation,
    joint_eigenbasis,
    normalized_state,
    pauli_observable,
    product_observable,
    project_branches,
    random_state,
    tensor_product,
)

# Seed for the reproducible random-state sweeps.
SWEEP_SEED = 20260810

# Singular values above this count toward the Schmidt rank.
SCHMIDT_TOL = 1e-8


@dataclass(frozen=True)
class Implication:
    """If antecedent holds then consequent holds, witnessed in the given basis."""

    antecedent: tuple[str, int]
    consequent: tuple[str, int]
    context: tuple[str, ...]


@dataclass(frozen=True)
class Recording:
    """A friend measurement: which observable goes into which memory qubit."""

    name: str
    mem: MemoryAssignment
    readout: SpectralObservable


@dataclass(frozen=True)
class Stage:
    agent: str
    mode: str  # "unitary-friend" | "projective" | "expectation-only"
    recordings: tuple[Recording, ...] = ()
    observables: tuple[SpectralObservable, ...] = ()


@dataclass(frozen=True)
class HardyFrame:
    register: QubitRegister
    mem_a: MemoryAssignment
    mem_b: MemoryAssignment
    wigner_a: SpectralObservable
    wigner_b: SpectralObservable
    friend_a: SpectralObservable
    friend_b: SpectralObservable


@dataclass(frozen=True)
class PMFrame:
    register: QubitRegister
    mems: dict
    readouts: dict
    c_observables: tuple[SpectralObservable, ...]
    square: tuple[tuple[SpectralObservable, ...], ...]
    double1: DoubleLift
    double2: DoubleLift


@dataclass(frozen=True)
class Scenario:
    kind: str
    register: QubitRegister
    system_state: StateVector
    initial_state: StateVector
    stages: tuple[Stage, ...]
    frame: object
    plan: PMPlan | None = None


@dataclass(frozen=True)
class BranchRecord:
    outcomes: dict[str, int]
    amplitude: complex
    probability: float


@dataclass(frozen=True)
class CBranch:
    """An audited C outcome; `vector` spans its rank-1 eigenspace and is shared by every run."""

    outcome: tuple[int, int, int]
    probability: float | None
    vector: StateVector
    retrodiction: contextuality.RetrodictionVerdict
    contradiction: bool


@dataclass(frozen=True)
class StageReadout:
    """Joint eigenbasis of a stage's record readouts, compiled once.

    Qubits no readout touches are resolved in Z.  `derived` maps an extra
    record name to the pair of record names whose product defines it.
    """

    names: tuple[str, ...]
    derived: dict[str, tuple[str, str]]
    basis: JointEigenbasis

    def records(self, state: StateVector) -> list[BranchRecord]:
        records = []
        for branch in project_branches(state, self.basis):
            outcomes = {name: branch.records[name] for name in self.names}
            for extra, (left, right) in self.derived.items():
                outcomes[extra] = outcomes[left] * outcomes[right]
            records.append(BranchRecord(outcomes, branch.amplitude, branch.probability))
        return records


@dataclass(frozen=True)
class PMPlan:
    """Everything a square-protocol run reads that depends only on the frame.

    Compiled once with the frame: the friend unitaries (keyed by memory
    label), the joint eigenbases of the A, B and C stages, the C1*C2*C3
    product observable, the square-constraint report, and the retrodiction
    verdict and contradiction flag of each valid C triple.  The B and C
    eigenspaces are rank 1; the A readouts leave the B memories free, so
    their four eigenspaces are rank 4 and each state is projected onto them.
    """

    unitaries: dict[str, np.ndarray]
    a_readout: StageReadout
    b_readout: StageReadout
    c_basis: JointEigenbasis
    c_product: SpectralObservable
    square: contextuality.SquareReport
    c_audits: dict[tuple[int, int, int], tuple[contextuality.RetrodictionVerdict, bool]]


@dataclass(frozen=True)
class ChainResult:
    seed: tuple[str, int]
    conclusions: tuple[tuple[str, int], ...]
    steps: tuple[Implication, ...]


@dataclass(frozen=True)
class Signalling:
    """Which agents reported some definite observation, and the contradiction flag."""

    observed: tuple[str, ...]
    contradiction: bool


@dataclass(frozen=True)
class FactorizationVerdict:
    schmidt_rank: int
    singular_values: tuple[float, ...]
    factorizes: bool
    tolerance: float = SCHMIDT_TOL


@dataclass(frozen=True)
class RunReport:
    kind: str
    c_mode: str | None
    register_labels: tuple[str, ...]
    initial_amplitudes: tuple[complex, ...]
    stage_records: dict[str, tuple[BranchRecord, ...]]
    joint_labels: tuple[str, ...]
    joint_distribution: dict[tuple[int, ...], float]
    joint_amplitudes: dict[tuple[int, ...], complex]
    implications: tuple[Implication, ...] = ()
    chain: ChainResult | None = None
    expectations: dict[str, float] = field(default_factory=dict)
    square_constraints: dict[str, float] = field(default_factory=dict)
    c_branches: tuple[CBranch, ...] = ()
    a_parity_even: bool | None = None
    contradiction: bool = False
    signalling: Signalling | None = None
    factorization: FactorizationVerdict | None = None
    final_state: StateVector | None = None


# --------------------------------------------------------------------------
# Hardy / two-Wigner scenario.

HARDY_SYSTEM = QubitRegister(("sA", "sB"))
HARDY_REGISTER = QubitRegister(("sA", "sB", "fA", "fB"))


def hardy_state(register: QubitRegister = HARDY_SYSTEM) -> StateVector:
    """(|z+z+> + |z+z-> + |z-z+>)/sqrt(3): no |z-z-> component."""
    return normalized_state(register, [1.0, 1.0, 1.0, 0.0])


@functools.cache
def build_hardy_frame() -> HardyFrame:
    mem_a = MemoryAssignment("fA", pauli_observable("Z", "sA", "ZA"))
    mem_b = MemoryAssignment("fB", pauli_observable("Z", "sB", "ZB"))
    wigner_a, _ = lift_observable(mem_a, name="A")
    wigner_b, _ = lift_observable(mem_b, name="B")
    return HardyFrame(
        register=HARDY_REGISTER,
        mem_a=mem_a,
        mem_b=mem_b,
        wigner_a=wigner_a.embedded(HARDY_REGISTER),
        wigner_b=wigner_b.embedded(HARDY_REGISTER),
        friend_a=record_observable(mem_a, "FA").embedded(HARDY_REGISTER),
        friend_b=record_observable(mem_b, "FB").embedded(HARDY_REGISTER),
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
    stages = (
        Stage(
            "friends",
            "unitary-friend",
            recordings=(
                Recording("FA", frame.mem_a, frame.friend_a),
                Recording("FB", frame.mem_b, frame.friend_b),
            ),
        ),
        Stage("wigners", "projective", observables=(frame.wigner_a, frame.wigner_b)),
    )
    return Scenario("hardy", HARDY_REGISTER, system, initial, stages, frame)


def extract_implications(state: StateVector, observables) -> list[Implication]:
    """Value implications read off a joint branch decomposition.

    For every ordered pair of observables in the commuting family, an
    implication (O_i = v) => (O_j = w) is emitted whenever every branch
    carrying O_i = v agrees on O_j = w.
    """
    branches = branch_decompose(state, observables)
    names = [obs.name for obs in observables]
    context = tuple(names)
    implications = []
    for name_i, name_j in itertools.permutations(names, 2):
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


def _apply_friend_stage(state: StateVector, stage: Stage, unitaries: dict) -> StateVector:
    """Apply each recording's friend unitary, looked up by memory label."""
    for recording in stage.recordings:
        state = apply_operator(state, unitaries[recording.mem.memory], recording.mem.targets)
    return state


def stage_readout(register: QubitRegister, readouts, derived: dict | None = None) -> StageReadout:
    """Compile a stage's record readouts into a joint eigenbasis on `register`."""
    covered = set()
    for obs in readouts:
        covered.update(obs.register.labels)
    fills = [
        pauli_observable("Z", label, f"fill:{label}").embedded(register)
        for label in register.labels
        if label not in covered
    ]
    names = tuple(obs.name for obs in readouts)
    basis = joint_eigenbasis(register, list(readouts) + fills)
    return StageReadout(names, dict(derived or {}), basis)


def run_fr_protocol(scenario: Scenario) -> RunReport:
    """Run the two-Wigner protocol and assemble the narrative report.

    The report carries the joint lifted-X distribution, the implications the
    state supports in each mixed basis, the inference chain seeded by the
    Wigner A = -1 outcome, and the contradiction flag (chain forces B = +1
    while the joint (-1, -1) probability is nonzero).
    """
    if scenario.kind != "hardy":
        raise ValueError(f"expected a hardy scenario, got {scenario.kind!r}")
    frame: HardyFrame = scenario.frame
    friends = scenario.stages[0]
    unitaries = {rec.mem.memory: friend_unitary(rec.mem) for rec in friends.recordings}
    post_friends = _apply_friend_stage(scenario.initial_state, friends, unitaries)

    readout = stage_readout(post_friends.register, (frame.friend_a, frame.friend_b))
    friend_records = readout.records(post_friends)
    wigner_branches = branch_decompose(post_friends, (frame.wigner_a, frame.wigner_b))
    joint_labels = ("A", "B")
    distribution: dict[tuple[int, int], float] = {}
    amplitudes: dict[tuple[int, int], complex] = {}
    for branch in wigner_branches:
        key = (branch.records["A"], branch.records["B"])
        distribution[key] = branch.probability
        amplitudes[key] = branch.amplitude

    implications = []
    implications += extract_implications(post_friends, (frame.wigner_a, frame.friend_b))
    implications += extract_implications(post_friends, (frame.friend_a, frame.friend_b))
    implications += extract_implications(post_friends, (frame.friend_a, frame.wigner_b))

    chain = chain_inferences(implications, ("A", -1))
    p_both_minus = distribution.get((-1, -1), 0.0)
    contradiction = (("B", +1) in chain.conclusions) and p_both_minus > PROBABILITY_TOL

    return RunReport(
        kind="hardy",
        c_mode=None,
        register_labels=scenario.register.labels,
        initial_amplitudes=tuple(scenario.system_state.amplitudes),
        stage_records={"friends": tuple(friend_records)},
        joint_labels=joint_labels,
        joint_distribution=distribution,
        joint_amplitudes=amplitudes,
        implications=tuple(implications),
        chain=chain,
        contradiction=contradiction,
        signalling=Signalling(("FA", "FB", "A", "B"), contradiction),
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


def bell_state(name: str, register: QubitRegister = PM_SYSTEM) -> StateVector:
    try:
        amps = BELL_AMPLITUDES[name]
    except KeyError:
        raise ValueError(f"unknown Bell state {name!r}; pick from {sorted(BELL_AMPLITUDES)}") from None
    return normalized_state(register, amps)


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
    return PMFrame(
        register=register,
        mems={"a1": mem_a1, "a2": mem_a2, "b1": mem_b1, "b2": mem_b2},
        readouts=readouts,
        c_observables=(c1, c2, c3),
        square=square,
        double1=double1,
        double2=double2,
    )


@functools.cache
def build_pm_plan() -> PMPlan:
    """Compile the state-independent part of every square-protocol run.

    The C stage must split into exactly the four valid C triples, each a
    rank-1 joint eigenspace; both C modes then audit the same fixed vectors.
    """
    frame = build_pm_frame()
    register, readouts = frame.register, frame.readouts
    c_basis = joint_eigenbasis(register, frame.c_observables)
    outcomes = [_c_outcome(space.records) for space in c_basis.spaces]
    rank_one = all(space.vector is not None for space in c_basis.spaces)
    if outcomes != contextuality.valid_c_triples() or not rank_one:
        raise InvariantError(f"C stage eigenspaces {outcomes} are not the four rank-1 valid triples")
    return PMPlan(
        unitaries={label: friend_unitary(mem) for label, mem in frame.mems.items()},
        a_readout=stage_readout(register, (readouts["A1"], readouts["A2"]), {"A3": ("A1", "A2")}),
        b_readout=stage_readout(register, (readouts["B1"], readouts["B2"]), {"B3": ("B1", "B2")}),
        c_basis=c_basis,
        c_product=product_observable(frame.c_observables, "C1*C2*C3"),
        square=contextuality.verify_square_constraints(frame.square),
        c_audits={
            c: (contextuality.retrodict_from_c(c), not contextuality.c_outcome_consistent(c))
            for c in outcomes
        },
    )


def build_pm_scenario(initial: StateVector, c_mode: str = "projective") -> Scenario:
    """Three-agent square protocol on an arbitrary 2-qubit system state."""
    if c_mode not in ("projective", "expectation-only"):
        raise ValueError(f"c_mode must be 'projective' or 'expectation-only', got {c_mode!r}")
    if initial.register.size != 2:
        raise ValueError("the square protocol needs a 2-qubit initial state")
    frame = build_pm_frame()
    system = StateVector(PM_SYSTEM, initial.amplitudes)
    memories = basis_state(QubitRegister(("a1", "a2", "b1", "b2")), "0000")
    full = tensor_product([system, memories])
    stages = (
        Stage(
            "A",
            "unitary-friend",
            recordings=(
                Recording("A1", frame.mems["a1"], frame.readouts["A1"]),
                Recording("A2", frame.mems["a2"], frame.readouts["A2"]),
            ),
        ),
        Stage(
            "B",
            "unitary-friend",
            recordings=(
                Recording("B1", frame.mems["b2"], frame.readouts["B1"]),
                Recording("B2", frame.mems["b1"], frame.readouts["B2"]),
            ),
        ),
        Stage("C", c_mode, observables=frame.c_observables),
    )
    return Scenario("peres-mermin", PM_REGISTER, system, full, stages, frame, build_pm_plan())


def run_pm_protocol(scenario: Scenario) -> RunReport:
    """Execute the three stages and audit every branch of the resulting narrative.

    The level-3 agent's outcomes always satisfy c1*c2*c3 = -1 and retrodict an
    odd number of -1 outcomes for the innermost agent, whose own records
    always carry an even number: the contradiction flag is set per branch by
    exhaustive assignment search and holds on every run.  Everything that
    depends only on the frame comes precompiled from `scenario.plan`.
    """
    if scenario.kind != "peres-mermin":
        raise ValueError(f"expected a peres-mermin scenario, got {scenario.kind!r}")
    frame: PMFrame = scenario.frame
    plan = scenario.plan
    stage_a, stage_b, stage_c = scenario.stages

    post_a = _apply_friend_stage(scenario.initial_state, stage_a, plan.unitaries)
    a_records = plan.a_readout.records(post_a)
    post_b = _apply_friend_stage(post_a, stage_b, plan.unitaries)
    b_records = plan.b_readout.records(post_b)

    c1, c2, c3 = frame.c_observables
    expectations = {
        "C1": expectation(post_b, c1),
        "C2": expectation(post_b, c2),
        "C3": expectation(post_b, c3),
        "C1*C2*C3": expectation(post_b, plan.c_product),
    }

    c_branches = []
    distribution: dict[tuple[int, ...], float] = {}
    amplitudes: dict[tuple[int, ...], complex] = {}
    if stage_c.mode == "projective":
        for branch in project_branches(post_b, plan.c_basis):
            outcome = _c_outcome(branch.records)
            distribution[outcome] = branch.probability
            amplitudes[outcome] = branch.amplitude
            c_branches.append(_audited_c_branch(plan, outcome, branch.probability, branch.vector))
    else:
        # No collapse anywhere: audit every jointly possible outcome, whose
        # eigenspaces are state-independent.
        for space in plan.c_basis.spaces:
            c_branches.append(_audited_c_branch(plan, _c_outcome(space.records), None, space.vector))

    a_parity_even = all(
        record.outcomes["A1"] * record.outcomes["A2"] * record.outcomes["A3"] == +1
        for record in a_records
    )
    contradiction = bool(c_branches) and all(b.contradiction for b in c_branches) and a_parity_even

    square_constraints = {line.line: line.value for line in plan.square.lines}

    observed = ("A", "B", "C") if stage_c.mode == "projective" else ("A", "B")
    report = RunReport(
        kind="peres-mermin",
        c_mode=stage_c.mode,
        register_labels=scenario.register.labels,
        initial_amplitudes=tuple(scenario.system_state.amplitudes),
        stage_records={"A": tuple(a_records), "B": tuple(b_records)},
        joint_labels=("C1", "C2", "C3"),
        joint_distribution=distribution,
        joint_amplitudes=amplitudes,
        expectations=expectations,
        square_constraints=square_constraints,
        c_branches=tuple(c_branches),
        a_parity_even=a_parity_even,
        contradiction=contradiction,
        signalling=Signalling(observed, contradiction),
        final_state=post_b,
    )
    return replace(report, factorization=signalling_factorization_check(report))


def _c_outcome(records: dict[str, int]) -> tuple[int, int, int]:
    return (records["C1"], records["C2"], records["C3"])


def _audited_c_branch(plan: PMPlan, outcome, probability, vector) -> CBranch:
    verdict, contradiction = plan.c_audits[outcome]
    return CBranch(outcome, probability, vector, verdict, contradiction)


def signalling_factorization_check(report: RunReport, flags=None) -> FactorizationVerdict:
    """Check that the contradiction record stays in a product state with the lab.

    A fresh record qubit is appended and flipped inside each audited branch
    whose flag is set; the Schmidt spectrum across (record | everything else)
    then decides whether the record factorizes.  The two Schmidt columns are
    the unflipped part psi - F psi and the flipped part F psi, where F is the
    sum of the flagged branches' rank-1 projectors.  Passing explicit flags
    allows probing corrupted (branch-dependent) records.
    """
    if report.final_state is None or not report.c_branches:
        raise ValueError("factorization check needs a completed square-protocol report")
    psi = report.final_state.amplitudes
    if flags is None:
        flags = [branch.contradiction for branch in report.c_branches]
    if len(flags) != len(report.c_branches):
        raise ValueError("one flag per audited branch required")
    flipped = np.zeros_like(psi)
    for branch, flag in zip(report.c_branches, flags):
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


def report_to_dict(report: RunReport) -> dict:
    """Serializable tree for a run report; lossless for all numeric content."""
    doc: dict = {
        "schema": "wignerlab-report/1",
        "kind": report.kind,
        "register": list(report.register_labels),
        "initial_state": [_complex_pair(z) for z in report.initial_amplitudes],
        "stages": {
            agent: [
                {
                    "outcomes": dict(sorted(rec.outcomes.items())),
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
    if report.c_mode is not None:
        doc["c_mode"] = report.c_mode
    if report.implications:
        doc["implications"] = [
            {
                "if": [imp.antecedent[0], imp.antecedent[1]],
                "then": [imp.consequent[0], imp.consequent[1]],
                "context": list(imp.context),
            }
            for imp in report.implications
        ]
    if report.chain is not None:
        doc["chain"] = {
            "seed": [report.chain.seed[0], report.chain.seed[1]],
            "conclusions": [[lbl, val] for lbl, val in report.chain.conclusions],
        }
    if report.expectations:
        doc["expectations"] = {k: float(v) for k, v in sorted(report.expectations.items())}
    if report.square_constraints:
        doc["square_constraints"] = {
            k: float(v) for k, v in sorted(report.square_constraints.items())
        }
    if report.c_branches:
        doc["c_branches"] = [
            {
                "outcome": _outcome_key(b.outcome),
                "probability": None if b.probability is None else float(b.probability),
                "required_a_parity": b.retrodiction.required_a_parity,
                "contradiction": b.contradiction,
            }
            for b in report.c_branches
        ]
    if report.a_parity_even is not None:
        doc["a_parity_even"] = report.a_parity_even
    if report.signalling is not None:
        doc["signalling"] = {
            "observed": list(report.signalling.observed),
            "contradiction": report.signalling.contradiction,
        }
    if report.factorization is not None:
        doc["factorization"] = {
            "schmidt_rank": report.factorization.schmidt_rank,
            "singular_values": [float(s) for s in report.factorization.singular_values],
            "factorizes": report.factorization.factorizes,
        }
    return doc


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "schema": "wignerlab-scenario/1",
        "kind": scenario.kind,
        "register": list(scenario.register.labels),
        "system_state": [_complex_pair(z) for z in scenario.system_state.amplitudes],
        "stages": [
            {
                "agent": stage.agent,
                "mode": stage.mode,
                "measurements": [rec.name for rec in stage.recordings]
                or [obs.name for obs in stage.observables],
            }
            for stage in scenario.stages
        ],
    }
