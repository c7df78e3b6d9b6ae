"""End-to-end nested-observer protocols.

Two scenarios are provided: the two-Wigner Hardy-state protocol (probabilistic
contradiction via an implication chain) and the three-agent Peres-Mermin
protocol (deterministic, state-independent contradiction).  Friend
measurements are modeled unitarily, and each stage compiles once into a fixed
map from the four system amplitudes to its branch amplitudes, so a run yields
the full multi-branch narrative rather than a single sampled outcome.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import contextuality, epistemic
from .friendify import (
    DoubleLift,
    MemoryAssignment,
    double_lift_basis,
    friend_unitary,
    lift_observable,
    record_observable,
)
from .qsim import (
    BRANCH_AMP_TOL,
    PROBABILITY_TOL,
    STRUCT_TOL,
    SUPPORT_LEAK_TOL,
    InvariantError,
    QubitRegister,
    SpectralObservable,
    StateVector,
    _phase_fixed,
    _readonly,
    apply_operator,
    joint_eigenbasis,
    normalized_state,
    pauli_observable,
    random_state,
    tensor_product,
)

# Seed for the reproducible random-state sweeps.
SWEEP_SEED = 20260810

# Singular values above this count toward the Schmidt rank.
SCHMIDT_TOL = 1e-8

REPORT_SCHEMA = "wignerlab-report/1"

C_MODES = ("projective", "expectation-only")

HARDY_SYSTEM = QubitRegister(("sA", "sB"))
HARDY_REGISTER = QubitRegister(("sA", "sB", "fA", "fB"))


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
class BranchMap:
    """A stage compiled with its frame: branch k has `records[k]` and amplitude `rows[k] @ s`.

    s holds the four system amplitudes, `reach` is U E (E adds every memory in |0>, U applies the
    friend unitaries so far) and row k is w_k^H U E, with w_k the phase-fixed image under U E of the
    stage's plain joint eigenvector v_k.  The rows must form an isometry, so every state's branches
    carry all of its weight.  Every run shares both arrays, so they are read-only copies.
    """

    records: tuple[dict[str, int], ...]
    rows: np.ndarray
    reach: np.ndarray

    def __post_init__(self):
        for name in ("rows", "reach"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        deviation = float(np.max(np.abs(self.rows.conj().T @ self.rows - np.eye(4))))
        if not deviation <= STRUCT_TOL:
            raise InvariantError(f"stage map is not an isometry on the system state (deviation {deviation!r})")


def _pull_back(reach: np.ndarray, pairs) -> None:
    """Prove O R = R P for each (lifted readout O, plain Pauli P): on the reachable set R, O acts as P on s."""
    for lifted, plain in pairs:
        deviation = float(np.max(np.abs(lifted.matrix() @ reach - reach @ plain.matrix())))
        if not deviation <= STRUCT_TOL:
            raise InvariantError(f"readout {lifted.name!r} does not act on the reachable states as the Pauli "
                                 f"{plain.name!r} on the system (deviation {deviation!r})")


def _compile_stages(register: QubitRegister, stages) -> Iterator[BranchMap]:
    """Branch maps of stages: (memories recorded first, (lifted readout, plain Pauli) pairs[, derived records]).

    Once every readout pulls back to its Pauli, branch k is the Paulis' joint eigenvector v_k read
    through the reachable set: w_k = U E v_k, phase-fixed, and row k = w_k^H U E.
    """
    columns = [StateVector(register, unit) for unit in np.eye(register.dim)[:: register.dim // 4]]
    for mems, pairs, *derived in stages:
        for mem in mems:
            unitary = friend_unitary(mem)
            columns = [apply_operator(column, unitary, mem.targets) for column in columns]
        reach = np.column_stack([column.amplitudes for column in columns])
        _pull_back(reach, pairs)
        plains = [plain for _, plain in pairs]
        records, rows = [], []
        for space in joint_eigenbasis(plains[0].register, plains).spaces:
            if space.vector is None:
                raise InvariantError(f"the stage's Paulis leave their joint eigenspace {space.records} degenerate")
            outcome = dict(zip((lifted.name for lifted, _ in pairs), space.records.values()))
            for extra, (left, right) in (derived[0] if derived else {}).items():
                outcome[extra] = outcome[left] * outcome[right]
            records.append(outcome)
            rows.append(_phase_fixed(reach @ space.vector.amplitudes).conj() @ reach)
        yield BranchMap(tuple(records), np.array(rows), reach)


def _execute(stage: BranchMap, system: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """Each run's kept branches, weights and kept mask (K x N) for a 4 x N batch: both protocols' executor.

    Amplitudes sum the system components in a fixed order, so no run depends on the batch width.
    """
    rows = stage.rows
    amplitudes = rows[:, :1] * system[0] + rows[:, 1:2] * system[1] + rows[:, 2:3] * system[2] + rows[:, 3:] * system[3]
    moduli = np.abs(amplitudes)
    kept, weights = moduli >= BRANCH_AMP_TOL, moduli**2
    total = sum(np.where(kept, weights, 0.0))
    failing = np.flatnonzero(~(np.abs(total - 1.0) <= SUPPORT_LEAK_TOL))
    if failing.size:
        raise InvariantError(f"run {failing[0]}: branches carry total weight {float(total[failing[0]])!r}, not 1")
    columns = zip(*(array.T.tolist() for array in (amplitudes, weights, kept)))
    runs = [tuple(BranchRecord(dict(r), a, p) for r, a, p, k in zip(stage.records, *run) if k) for run in columns]
    return runs, weights, kept


@dataclass(frozen=True)
class HardyFrame:
    register = HARDY_REGISTER
    mem_a: MemoryAssignment
    mem_b: MemoryAssignment
    wigner_a: SpectralObservable
    wigner_b: SpectralObservable
    friend_a: SpectralObservable
    friend_b: SpectralObservable
    friends: BranchMap
    wigner: BranchMap
    # Mixed implication contexts (A, FB), (FA, B); (FA, FB) is read off the friend records.
    contexts: tuple[BranchMap, BranchMap]


@dataclass(frozen=True)
class PMFrame:
    """The square protocol's operators and everything a run reads that depends only on them.

    Besides the observables, the frame holds the branch maps of the A and B friend stages (keyed
    by agent) and of the C stage (shared by both C modes), the square-constraint report, whose
    proved square gives the A parity and every C verdict, and each valid C triple's audited branch, keyed by outcome.
    """

    register: QubitRegister
    mems: dict
    readouts: dict
    c_observables: tuple[SpectralObservable, ...]
    square: tuple[tuple[SpectralObservable, ...], ...]
    double1: DoubleLift
    double2: DoubleLift
    stages: dict[str, BranchMap]
    c_map: BranchMap
    square_report: contextuality.SquareReport
    a_parity_even: bool
    c_branches: dict[tuple[int, int, int], CBranch]


@dataclass(frozen=True)
class Scenario:
    """A run's input: the system state, its compiled frame and, for the square protocol, the C mode."""

    kind: str
    system_state: StateVector
    frame: HardyFrame | PMFrame
    c_mode: str | None = None

    @property
    def initial_state(self) -> StateVector:
        """The system state on the frame's register with every memory in |0>, built when read."""
        memories = np.eye(1, self.frame.register.dim // 4)[0]
        return StateVector(self.frame.register, np.kron(self.system_state.amplitudes, memories))


@dataclass(frozen=True)
class CBranch:
    """An audited C outcome, shared by every run."""

    outcome: tuple[int, int, int]
    retrodiction: contextuality.RetrodictionVerdict
    audit: epistemic.PMEpistemicReport
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

    frame: HardyFrame
    initial_amplitudes: tuple[complex, ...]
    stage_records: dict[str, tuple[BranchRecord, ...]]
    joint_distribution: dict[tuple[int, int], float]
    joint_amplitudes: dict[tuple[int, int], complex]
    implications: tuple[Implication, ...]
    chain: ChainResult
    contradiction: bool

    @property
    def final_state(self) -> StateVector:
        """The register state after the friend stage, built when read."""
        return StateVector(self.frame.register, self.frame.friends.reach @ np.array(self.initial_amplitudes))


@dataclass(frozen=True)
class PMReport:
    """One square-protocol run; expectation-only mode reports no joint C outcomes or probabilities."""

    kind = "peres-mermin"
    joint_labels = ("C1", "C2", "C3")

    frame: PMFrame
    initial_amplitudes: tuple[complex, ...]
    stage_records: dict[str, tuple[BranchRecord, ...]]
    joint_distribution: dict[tuple[int, int, int], float]
    joint_amplitudes: dict[tuple[int, int, int], complex]
    c_mode: str
    expectations: dict[str, float]
    square_constraints: dict[str, float]
    c_branches: tuple[CBranch, ...]
    c_weights: tuple[float, ...]  # on each of the frame's C outcomes, dropped branches included
    a_parity_even: bool
    contradiction: bool
    factorization: FactorizationVerdict

    @property
    def final_state(self) -> StateVector:
        """The register state after every friend stage, built when read."""
        return StateVector(self.frame.register, self.frame.c_map.reach @ np.array(self.initial_amplitudes))


# --------------------------------------------------------------------------
# Hardy / two-Wigner scenario.


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
    # On the reachable states the friends' records act as Z and the Wigners' lifts as X on (sA, sB).
    za, zb, xa, xb = (pauli_observable(axis, label).embedded(HARDY_SYSTEM) for axis in "ZX" for label in ("sA", "sB"))
    friends, wigner, a_fb, fa_b = _compile_stages(
        HARDY_REGISTER,
        [
            ((mem_a, mem_b), ((friend_a, za), (friend_b, zb))),
            ((), ((wigner_a, xa), (wigner_b, xb))),
            ((), ((wigner_a, xa), (friend_b, zb))),
            ((), ((friend_a, za), (wigner_b, xb))),
        ],
    )
    return HardyFrame(mem_a, mem_b, wigner_a, wigner_b, friend_a, friend_b, friends, wigner, (a_fb, fa_b))


def build_hardy_scenario(system_state: StateVector | None = None) -> Scenario:
    """Hardy state shared by two friends measuring Z, lifted X measured by the Wigners.

    A different 2-qubit system state may be injected to probe the protocol on
    non-Hardy inputs (the implication chain then changes or collapses).
    """
    frame = build_hardy_frame()
    system = system_state if system_state is not None else hardy_state()
    if system.register.size != 2:
        raise ValueError("Hardy scenario needs a 2-qubit system state")
    return Scenario("hardy", StateVector(HARDY_SYSTEM, system.amplitudes), frame)


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
                implications.append(Implication((name_i, v), (name_j, consequents.pop()), context))
    return implications


def chain_inferences(implications, seed: tuple[str, int]) -> ChainResult:
    """Transitive closure of implications from a seed value, without repetition.

    This deliberately treats every established value as freely reusable (the
    budget-blind absoluteness-of-reality reading); the epistemic module audits
    the same chains under an information budget.
    """
    implications = list(implications)
    known, steps, frontier = {seed[0]}, [], [tuple(seed)]
    while frontier:
        current = frontier.pop(0)
        for imp in implications:
            if tuple(imp.antecedent) == current and imp.consequent[0] not in known:
                known.add(imp.consequent[0])
                steps.append(imp)
                frontier.append(tuple(imp.consequent))
    return ChainResult(tuple(seed), tuple(tuple(imp.consequent) for imp in steps), tuple(steps))


def run_fr_protocol(scenario: Scenario) -> HardyReport:
    """Run the two-Wigner protocol, as a batch of one, and assemble the narrative report.

    The report carries the joint lifted-X distribution, the implications the state supports in each
    mixed basis, the inference chain seeded by the Wigner A = -1 outcome, and the contradiction flag
    (chain forces B = +1 while the joint (-1, -1) probability is nonzero).
    """
    if scenario.kind != "hardy":
        raise ValueError(f"expected a hardy scenario, got {scenario.kind!r}")
    frame, system = scenario.frame, scenario.system_state.amplitudes[:, None]
    maps = (frame.friends, frame.wigner, *frame.contexts)
    (friend_records,), (wigner,), (a_fb,), (fa_b,) = (_execute(stage, system)[0] for stage in maps)
    distribution = {(b.records["A"], b.records["B"]): b.probability for b in wigner}
    amplitudes = {(b.records["A"], b.records["B"]): b.amplitude for b in wigner}

    implications = [imp for branches in (a_fb, friend_records, fa_b) for imp in extract_implications(branches)]

    chain = chain_inferences(implications, ("A", -1))
    p_both_minus = distribution.get((-1, -1), 0.0)
    contradiction = (("B", +1) in chain.conclusions) and p_both_minus > PROBABILITY_TOL

    return HardyReport(
        frame=frame,
        initial_amplitudes=tuple(scenario.system_state.amplitudes.tolist()),
        stage_records={"friends": friend_records},
        joint_distribution=distribution,
        joint_amplitudes=amplitudes,
        implications=tuple(implications),
        chain=chain,
        contradiction=contradiction,
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
    agent's observables transported to the final space via record readouts.
    Each of them is proved to act on the reachable states as its entry of the
    plain two-qubit square acts on the system, so the six product constraints
    are proved on that 4x4 grid.
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
    plain = contextuality.unbarred_square()
    a_map, b_map, c_map = _compile_stages(
        register,
        [
            ((mem_a1, mem_a2), ((readouts["A1"], plain[0][0]), (readouts["A2"], plain[1][0])), {"A3": ("A1", "A2")}),
            ((mem_b2, mem_b1), ((readouts["B1"], plain[0][1]), (readouts["B2"], plain[1][1])), {"B3": ("B1", "B2")}),
            ((), tuple(zip((c1, c2, c3), (row[2] for row in plain)))),
        ],
    )
    # The C stage proved the C column; the A and B columns pull back on the same reachable set.
    _pull_back(c_map.reach, [(square[i][j], plain[i][j]) for i in range(3) for j in range(2)])
    # Every verdict below reads the square the plain grid proves.  The C stage must split
    # into exactly its C triples; both C modes then audit the same fixed vectors.
    square_report = contextuality.verify_square_constraints(plain)
    proved = square_report.proved()
    outcomes = [_c_outcome(records) for records in c_map.records]
    if outcomes != contextuality.valid_c_triples(proved):
        raise InvariantError(f"C stage eigenspaces {outcomes} are not the proved C triples")
    # A branch contradicts the square when no assignment satisfying it has that C column.
    explained = {assignment.col(2) for assignment in contextuality.enumerate_assignments(proved)}
    c_branches = {}
    for outcome in outcomes:
        verdict = contextuality.retrodict_from_c(outcome, proved)
        audit = epistemic.pm_epistemic_audit(outcome, proved)
        c_branches[outcome] = CBranch(outcome, verdict, audit, outcome not in explained)
    mems = {"a1": mem_a1, "a2": mem_a2, "b1": mem_b1, "b2": mem_b2}
    # The A stage records A3 as A1*A2, which the colA identity licenses: the
    # A records carry even parity exactly when its proved target is +1.
    a_parity_even = proved.col_targets[0] == +1
    return PMFrame(
        register, mems, readouts, (c1, c2, c3), square, double1, double2,
        {"A": a_map, "B": b_map}, c_map, square_report, a_parity_even, c_branches,
    )


def build_pm_scenario(initial: StateVector, c_mode: str = "projective") -> Scenario:
    """Three-agent square protocol on an arbitrary 2-qubit system state."""
    if c_mode not in C_MODES:
        raise ValueError(f"c_mode must be one of {C_MODES}, got {c_mode!r}")
    if initial.register.size != 2:
        raise ValueError("the square protocol needs a 2-qubit initial state")
    return Scenario("peres-mermin", StateVector(PM_SYSTEM, initial.amplitudes), build_pm_frame(), c_mode)


def run_pm_protocol(scenario: Scenario) -> PMReport:
    """Execute the three stages and audit every branch of the resulting narrative, as a batch of one.

    The level-3 agent's outcomes always satisfy c1*c2*c3 = -1 and retrodict an odd number of -1
    outcomes for the innermost agent, whose own records always carry an even number: the
    contradiction flag is set per branch by exhaustive assignment search and holds on every run.
    """
    if scenario.kind != "peres-mermin":
        raise ValueError(f"expected a peres-mermin scenario, got {scenario.kind!r}")
    return _run_pm(scenario.frame, scenario.system_state.amplitudes[:, None], scenario.c_mode)[0]


def pm_random_sweep(count: int = 20, seed: int = SWEEP_SEED, c_mode: str = "projective") -> list[PMReport]:
    """Run the square protocol on `count` seeded random initial states, as one batch."""
    if c_mode not in C_MODES:
        raise ValueError(f"c_mode must be one of {C_MODES}, got {c_mode!r}")
    rng = np.random.default_rng(seed)
    states = [random_state(PM_SYSTEM, rng).amplitudes for _ in range(count)]
    return _run_pm(build_pm_frame(), np.array(states, dtype=complex).reshape(count, 4).T, c_mode)


def _run_pm(frame: PMFrame, system: np.ndarray, c_mode: str) -> list[PMReport]:
    """The square protocol on a 4 x N batch of system states, one report per column."""
    a_runs, b_runs = (_execute(stage, system)[0] for stage in frame.stages.values())
    c_runs, weights, kept = _execute(frame.c_map, system)
    # The expectations are sign-weighted sums of the kept C branches' weights.
    signs = [[r["C1"], r["C2"], r["C3"], math.prod(r.values())] for r in frame.c_map.records]
    expectations = sum(np.array(s)[:, None] * w for s, w in zip(signs, np.where(kept, weights, 0.0)))
    reports = []
    for j, (initial, c_weights, values) in enumerate(zip(*(a.T.tolist() for a in (system, weights, expectations)))):
        # Projective mode audits the kept C branches, expectation-only mode (no collapse anywhere) every outcome.
        if c_mode == "projective":
            joint = {_c_outcome(b.records): b for b in c_runs[j]}
            c_branches = tuple(frame.c_branches[outcome] for outcome in joint)
        else:
            joint, c_branches = {}, tuple(frame.c_branches.values())
        reports.append(
            PMReport(
                frame=frame,
                initial_amplitudes=tuple(initial),
                stage_records={"A": a_runs[j], "B": b_runs[j]},
                joint_distribution={outcome: b.probability for outcome, b in joint.items()},
                joint_amplitudes={outcome: b.amplitude for outcome, b in joint.items()},
                c_mode=c_mode,
                expectations=dict(zip(("C1", "C2", "C3", "C1*C2*C3"), values)),
                square_constraints={line.line: line.value for line in frame.square_report.lines},
                c_branches=c_branches,
                c_weights=tuple(c_weights),
                a_parity_even=frame.a_parity_even,
                contradiction=bool(c_branches) and all(b.contradiction for b in c_branches) and frame.a_parity_even,
                factorization=_factorization(frame, c_weights, {b.outcome for b in c_branches if b.contradiction}),
            )
        )
    return reports


def _c_outcome(records: dict[str, int]) -> tuple[int, int, int]:
    return (records["C1"], records["C2"], records["C3"])


def signalling_factorization_check(report: PMReport, flags=None) -> FactorizationVerdict:
    """Check that the contradiction record stays in a product state with the lab.

    A fresh record qubit is appended and flipped inside each audited branch
    whose flag is set; the Schmidt spectrum across (record | everything else)
    then decides whether the record factorizes.  Passing explicit flags
    allows probing corrupted (branch-dependent) records.
    """
    if flags is None:
        flags = [branch.contradiction for branch in report.c_branches]
    if len(flags) != len(report.c_branches):
        raise ValueError("one flag per audited branch required")
    flagged = {branch.outcome for branch, flag in zip(report.c_branches, flags) if flag}
    return _factorization(report.frame, report.c_weights, flagged)


def _factorization(frame: PMFrame, weights, flagged: set) -> FactorizationVerdict:
    """The Schmidt verdict of a run with these weights on the frame's C outcomes.

    The columns psi - F psi and F psi (F sums the flagged outcomes' projectors) are orthogonal, so the
    singular values are the roots of the unflagged weight, dropped branches included, and the flagged one.
    """
    parts = [0.0, 0.0]
    for outcome, weight in zip(frame.c_branches, weights):
        parts[outcome in flagged] += weight
    singular = sorted(map(math.sqrt, parts), reverse=True)
    rank = sum(s > SCHMIDT_TOL for s in singular)
    return FactorizationVerdict(rank, tuple(singular), rank == 1)


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
        "register": list(report.frame.register.labels),
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
            "distribution": {_outcome_key(k): float(v) for k, v in sorted(report.joint_distribution.items())},
            "amplitudes": {_outcome_key(k): _complex_pair(v) for k, v in sorted(report.joint_amplitudes.items())},
        },
        "contradiction": report.contradiction,
    }
    if isinstance(report, HardyReport):
        if report.implications:
            doc["implications"] = [
                {"if": list(imp.antecedent), "then": list(imp.consequent), "context": list(imp.context)}
                for imp in report.implications
            ]
        doc["chain"] = {"seed": list(report.chain.seed), "conclusions": [list(c) for c in report.chain.conclusions]}
        doc["signalling"] = {"observed": ["FA", "FB", "A", "B"], "contradiction": report.contradiction}
        return doc
    doc["c_mode"] = report.c_mode
    doc["expectations"] = {k: float(v) for k, v in sorted(report.expectations.items())}
    doc["square_constraints"] = {k: float(v) for k, v in sorted(report.square_constraints.items())}
    doc["c_branches"] = [
        {"outcome": _outcome_key(b.outcome), "probability": report.joint_distribution.get(b.outcome),
         "required_a_parity": b.retrodiction.required_a_parity, "contradiction": b.contradiction}
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
