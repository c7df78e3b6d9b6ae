"""Dense complex state-vector kernel for small labeled qubit registers.

Everything is plain numpy in double precision.  Registers name their qubits,
and every operation addresses qubits by label, so callers never juggle raw
tensor indices.  Observables are spectral: a list of (eigenvalue, projector)
pairs with eigenvalues in {+1, -1}.  Projectors may sum to less than the
identity; such rank-deficient observables carry their support explicitly, and
evaluating them on states leaking outside the support is an error rather than
a silent truncation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Structural checks (projectors, unitarity, commutation).
STRUCT_TOL = 1e-10
# State norms.
NORM_TOL = 1e-12
# Weight a state may carry outside an observable's support.
SUPPORT_LEAK_TOL = 1e-8
# Branches with amplitude modulus below this are dropped.
BRANCH_AMP_TOL = 1e-10
# A probability above this counts as an observed (nonzero) outcome.
PROBABILITY_TOL = 1e-12
# Joint projector traces must lie this close to an integer rank.
RANK_TOL = 1e-6
# A vector's global phase is fixed on its first component with modulus above this.
PHASE_REF_TOL = 1e-8

MAX_QUBITS = 8


class InvariantError(Exception):
    """A structural invariant of the kernel was violated."""


class OutOfSupportError(InvariantError):
    """State has non-negligible weight outside an observable's support."""

    def __init__(self, leaked_weight: float):
        self.leaked_weight = float(leaked_weight)
        super().__init__(
            f"state carries weight {self.leaked_weight:.3e} outside the observable support"
        )


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QubitRegister:
    """Ordered, uniquely labeled qubit collection; label 0 is the most significant bit."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate qubit labels in {self.labels}")
        if len(self.labels) > MAX_QUBITS:
            raise ValueError(f"register size {len(self.labels)} exceeds {MAX_QUBITS}")
        if not self.labels:
            raise ValueError("register must contain at least one qubit")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown qubit label {label!r}; register has {self.labels}") from None

    def axes(self, labels) -> tuple[int, ...]:
        return tuple(self.axis(lbl) for lbl in labels)

    def __add__(self, other: "QubitRegister") -> "QubitRegister":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"registers share labels {sorted(overlap)}")
        return QubitRegister(self.labels + other.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector over a register, index order = label order."""

    register: QubitRegister
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _readonly(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.register.dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, register needs {self.register.dim}"
            )
        if not np.isfinite(amps).all():
            raise InvariantError("state amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise InvariantError(f"state squared-norm {norm_sq!r} deviates from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.register.dim

    def overlap(self, other: "StateVector") -> complex:
        if other.register.labels != self.register.labels:
            other = other.reordered(self.register)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2

    def reordered(self, register: QubitRegister) -> "StateVector":
        """Same state expressed on a register with the same labels in another order."""
        if set(register.labels) != set(self.register.labels):
            raise ValueError("reordered register must carry exactly the same labels")
        perm = self.register.axes(register.labels)
        tensor = self.amplitudes.reshape([2] * self.register.size)
        return StateVector(register, tensor.transpose(perm).reshape(-1))


def normalized_state(register: QubitRegister, amplitudes) -> StateVector:
    """Build a StateVector from an unnormalized amplitude list."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(amps)
    if norm < 1e-15:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(register, amps / norm)


def basis_state(register: QubitRegister, bits: str) -> StateVector:
    """Computational basis state; bits[i] in '01' belongs to register.labels[i]."""
    if len(bits) != register.size or any(b not in "01" for b in bits):
        raise ValueError(f"bits {bits!r} do not match register of size {register.size}")
    amps = np.zeros(register.dim, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(register, amps)


def random_state(register: QubitRegister, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state (normalized complex Gaussian vector)."""
    raw = rng.normal(size=register.dim) + 1j * rng.normal(size=register.dim)
    return normalized_state(register, raw)


PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SQ2 = np.sqrt(2.0)
PAULI_EIGENVECTORS = {
    "X": (np.array([1, 1], dtype=complex) / _SQ2, np.array([1, -1], dtype=complex) / _SQ2),
    "Y": (np.array([1, 1j], dtype=complex) / _SQ2, np.array([1, -1j], dtype=complex) / _SQ2),
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
}


@dataclass(frozen=True)
class SpectralObservable:
    """A +/-1-valued observable given as orthogonal (eigenvalue, projector) pairs.

    The projector sum (the support) may be a strict subspace of the register's
    space; lifted observables are rank-deficient by construction.
    """

    register: QubitRegister
    branches: tuple[tuple[int, np.ndarray], ...]
    name: str = ""

    def __post_init__(self):
        dim = self.register.dim
        cleaned = []
        seen = set()
        for eigenvalue, projector in self.branches:
            if eigenvalue not in (+1, -1):
                raise ValueError(f"eigenvalue must be +1 or -1, got {eigenvalue}")
            if eigenvalue in seen:
                raise ValueError("duplicate eigenvalue branch")
            seen.add(eigenvalue)
            proj = _readonly(np.asarray(projector, dtype=complex))
            if proj.shape != (dim, dim):
                raise ValueError(f"projector shape {proj.shape} does not match dim {dim}")
            if not np.isfinite(proj).all():
                raise InvariantError(f"projector for eigenvalue {eigenvalue} is not finite")
            if np.max(np.abs(proj - proj.conj().T)) > STRUCT_TOL:
                raise InvariantError(f"projector for eigenvalue {eigenvalue} is not Hermitian")
            if np.max(np.abs(proj @ proj - proj)) > STRUCT_TOL:
                raise InvariantError(f"projector for eigenvalue {eigenvalue} is not idempotent")
            cleaned.append((int(eigenvalue), proj))
        for (_, p), (_, q) in itertools.combinations(cleaned, 2):
            if np.max(np.abs(p @ q)) > STRUCT_TOL:
                raise InvariantError("projectors of distinct eigenvalues are not orthogonal")
        object.__setattr__(self, "branches", tuple(cleaned))

    @property
    def support(self) -> np.ndarray:
        return sum(proj for _, proj in self.branches)

    def matrix(self) -> np.ndarray:
        return sum(eig * proj for eig, proj in self.branches)

    def projector(self, eigenvalue: int) -> np.ndarray:
        for eig, proj in self.branches:
            if eig == eigenvalue:
                return proj
        raise KeyError(f"observable {self.name!r} has no eigenvalue {eigenvalue}")

    @property
    def eigenvalues(self) -> tuple[int, ...]:
        return tuple(eig for eig, _ in self.branches)

    def renamed(self, name: str) -> "SpectralObservable":
        return SpectralObservable(self.register, self.branches, name)

    def embedded(self, register: QubitRegister) -> "SpectralObservable":
        """Same observable on a larger register (identity on the extra qubits)."""
        if register.labels == self.register.labels:
            return self
        missing = [lbl for lbl in self.register.labels if lbl not in register]
        if missing:
            raise ValueError(f"target register lacks labels {missing}")
        branches = tuple(
            (eig, _embed_matrix(proj, self.register.labels, register))
            for eig, proj in self.branches
        )
        return SpectralObservable(register, branches, self.name)


def _embed_matrix(mat: np.ndarray, source_labels: tuple[str, ...], register: QubitRegister) -> np.ndarray:
    extra = [lbl for lbl in register.labels if lbl not in source_labels]
    full = np.kron(mat, np.eye(2 ** len(extra), dtype=complex))
    order = list(source_labels) + extra
    perm = [order.index(lbl) for lbl in register.labels]
    n = register.size
    tensor = full.reshape([2] * (2 * n))
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return tensor.reshape(register.dim, register.dim)


def observable_from_eigenvectors(
    register: QubitRegister, plus, minus, name: str = ""
) -> SpectralObservable:
    """Dichotomic rank-1 observable with the given +1 / -1 eigenvectors."""
    plus = np.asarray(plus, dtype=complex).reshape(-1)
    minus = np.asarray(minus, dtype=complex).reshape(-1)
    for vec in (plus, minus):
        if abs(np.linalg.norm(vec) - 1.0) > STRUCT_TOL:
            raise ValueError("eigenvectors must be unit norm")
    if abs(np.vdot(plus, minus)) > STRUCT_TOL:
        raise ValueError("eigenvectors must be orthogonal")
    return SpectralObservable(
        register,
        ((+1, np.outer(plus, plus.conj())), (-1, np.outer(minus, minus.conj()))),
        name,
    )


def identity_observable(register: QubitRegister, name: str = "1") -> SpectralObservable:
    return SpectralObservable(register, ((+1, np.eye(register.dim, dtype=complex)),), name)


def pauli_observable(axis: str, label: str, name: str = "") -> SpectralObservable:
    plus, minus = PAULI_EIGENVECTORS[axis]
    return observable_from_eigenvectors(QubitRegister((label,)), plus, minus, name or f"{axis}[{label}]")


def rank1_eigenstates(obs: SpectralObservable) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (+1, -1) eigenvectors of a dichotomic observable with rank-1 projectors."""
    if set(obs.eigenvalues) != {+1, -1}:
        raise ValueError(f"observable {obs.name!r} is not dichotomic")
    vectors = {}
    for eig, proj in obs.branches:
        rank = round(float(np.trace(proj).real))
        if rank != 1:
            raise ValueError(f"observable {obs.name!r} has rank-{rank} projector, need rank 1")
        vectors[eig] = _extract_unit_vector(proj)
    return vectors[+1], vectors[-1]


def conjugate_observable(obs: SpectralObservable, name: str = "") -> SpectralObservable:
    """Observable whose eigenvectors are the sum/difference combinations of obs's pair."""
    plus, minus = rank1_eigenstates(obs)
    return observable_from_eigenvectors(
        obs.register, (plus + minus) / _SQ2, (plus - minus) / _SQ2, name
    )


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    """Multiply by a global phase so the first component above tolerance is real positive."""
    for comp in vec:
        if abs(comp) > PHASE_REF_TOL:
            return vec * (comp.conjugate() / abs(comp))
    raise InvariantError("cannot phase-fix a numerically zero vector")


def _extract_unit_vector(projector: np.ndarray) -> np.ndarray:
    """Canonical unit vector spanning a rank-1 projector."""
    col = int(np.argmax(np.abs(np.diagonal(projector))))
    vec = projector[:, col]
    return _phase_fixed(vec / np.linalg.norm(vec))


def tensor_product(parts):
    """Kronecker product of StateVectors or of SpectralObservables on disjoint registers."""
    parts = list(parts)
    if not parts:
        raise ValueError("tensor_product needs at least one factor")
    if all(isinstance(p, StateVector) for p in parts):
        return _tensor_states(parts)
    if all(isinstance(p, SpectralObservable) for p in parts):
        return _tensor_observables(parts)
    raise TypeError("tensor_product factors must be all states or all observables")


def _concat_registers(parts) -> QubitRegister:
    register = parts[0].register
    for part in parts[1:]:
        register = register + part.register
    return register


def _tensor_states(parts) -> StateVector:
    register = _concat_registers(parts)
    amps = parts[0].amplitudes
    for part in parts[1:]:
        amps = np.kron(amps, part.amplitudes)
    return StateVector(register, amps)


def _tensor_observables(parts) -> SpectralObservable:
    register = _concat_registers(parts)
    combos = itertools.product(*(p.branches for p in parts))
    branches = _summed_by_product(
        (tuple(eig for eig, _ in combo), functools.reduce(np.kron, (proj for _, proj in combo)))
        for combo in combos
    )
    name = "*".join(p.name for p in parts if p.name)
    return SpectralObservable(register, branches, name)


def _summed_by_product(pairs) -> tuple[tuple[int, np.ndarray], ...]:
    """Spectral branches from (eigenvalues, projector) pairs, summed by eigenvalue product."""
    accumulated: dict[int, np.ndarray] = {}
    for eigenvalues, projector in pairs:
        eigenvalue = math.prod(eigenvalues)
        if eigenvalue in accumulated:
            accumulated[eigenvalue] = accumulated[eigenvalue] + projector
        else:
            accumulated[eigenvalue] = projector
    return tuple((eig, accumulated[eig]) for eig in (+1, -1) if eig in accumulated)


def product_observable(observables, name: str = "") -> SpectralObservable:
    """Operator product of pairwise commuting observables on one register."""
    observables = list(observables)
    register = observables[0].register
    pairs = ((eigs, proj) for eigs, proj, _ in _joint_spaces(register, observables))
    return SpectralObservable(register, _summed_by_product(pairs), name)


def apply_operator(state: StateVector, op: np.ndarray, targets) -> StateVector:
    """Apply a unitary to the named target qubits; rejects non-unitary matrices."""
    targets = list(targets)
    op = np.asarray(op, dtype=complex)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not fit {k} target qubits")
    if not np.isfinite(op).all():
        raise ValueError("operator entries must be finite")
    deviation = np.max(np.abs(op.conj().T @ op - np.eye(2**k)))
    if deviation > STRUCT_TOL:
        raise ValueError(f"operator is not unitary (deviation {deviation:.3e})")
    axes = state.register.axes(targets)
    n = state.register.size
    psi = state.amplitudes.reshape([2] * n)
    psi = np.moveaxis(psi, axes, range(k))
    psi = (op @ psi.reshape(2**k, -1)).reshape([2] * n)
    psi = np.moveaxis(psi, range(k), axes)
    return StateVector(state.register, psi.reshape(-1))


def expectation(state: StateVector, obs: SpectralObservable) -> float:
    """Sum of eigenvalue * Born probability over its branches; errors on out-of-support states."""
    return sum(b.records[obs.name] * b.probability for b in branch_decompose(state, [obs]))


@dataclass(frozen=True)
class Branch:
    """One record-path of a jointly measured commuting family."""

    records: dict[str, int]
    amplitude: complex
    vector: StateVector

    @property
    def probability(self) -> float:
        return abs(self.amplitude) ** 2


def max_commutator(matrices) -> tuple[float, int, int]:
    """Largest entry of any pairwise commutator of a matrix family, with the pair (i, j) behind it."""
    worst = (0.0, 0, 0)
    for (i, a), (j, b) in itertools.combinations(enumerate(matrices), 2):
        worst = max(worst, (float(np.max(np.abs(a @ b - b @ a))), i, j))
    return worst


def _joint_spaces(register: QubitRegister, observables):
    """Yield (eigenvalues, projector, rank) for each nonzero joint eigenspace of a commuting family."""
    for obs in observables:
        if obs.register.labels != register.labels:
            raise ValueError(f"observable {obs.name!r} is not on register {register.labels}")
    deviation, i, j = max_commutator([obs.matrix() for obs in observables])
    if deviation > STRUCT_TOL:
        raise ValueError(
            f"observables {observables[i].name!r} and {observables[j].name!r} "
            f"do not commute (deviation {deviation:.3e})"
        )
    identity = np.eye(register.dim, dtype=complex)
    for combo in itertools.product(*(o.branches for o in observables)):
        projector = functools.reduce(np.matmul, (proj for _, proj in combo), identity)
        trace = float(np.trace(projector).real)
        rank = round(trace)
        if abs(trace - rank) > RANK_TOL:
            raise InvariantError(f"joint projector trace {trace!r} is not near an integer")
        if rank:
            yield tuple(eig for eig, _ in combo), projector, rank


@dataclass(frozen=True)
class JointEigenspace:
    """One nonzero joint eigenspace of a commuting family.

    A rank-1 space carries its canonical phase-fixed eigenvector; a degenerate
    one carries its projector, and each state is projected onto it.
    """

    records: dict[str, int]
    vector: StateVector | None
    projector: np.ndarray | None


@dataclass(frozen=True)
class JointEigenbasis:
    """The nonzero joint eigenspaces of a commuting family on one register."""

    register: QubitRegister
    spaces: tuple[JointEigenspace, ...]


def joint_eigenbasis(register: QubitRegister, observables) -> JointEigenbasis:
    """State-independent half of a branch decomposition over a commuting family."""
    observables = [obs.embedded(register) for obs in observables]
    names = [obs.name for obs in observables]
    if len(set(names)) != len(names):
        raise ValueError(f"observables must carry distinct names, got {names}")
    spaces = []
    for eigenvalues, projector, rank in _joint_spaces(register, observables):
        records = dict(zip(names, eigenvalues))
        if rank == 1:
            vector = StateVector(register, _extract_unit_vector(projector))
            spaces.append(JointEigenspace(records, vector, None))
        else:
            spaces.append(JointEigenspace(records, None, _readonly(projector)))
    return JointEigenbasis(register, tuple(spaces))


def project_branches(state: StateVector, basis: JointEigenbasis) -> list[Branch]:
    """State-dependent half of a branch decomposition: amplitudes on fixed eigenspaces."""
    if state.register.labels != basis.register.labels:
        raise ValueError(
            f"state register {state.register.labels} differs from the eigenbasis "
            f"register {basis.register.labels}"
        )
    branches = []
    total_weight = 0.0
    for space in basis.spaces:
        if space.vector is not None:
            vector = space.vector
        else:
            component = space.projector @ state.amplitudes
            norm = np.linalg.norm(component)
            if norm < BRANCH_AMP_TOL:
                continue
            vector = StateVector(state.register, _phase_fixed(component / norm))
        amplitude = complex(np.vdot(vector.amplitudes, state.amplitudes))
        if abs(amplitude) < BRANCH_AMP_TOL:
            continue
        total_weight += abs(amplitude) ** 2
        branches.append(Branch(dict(space.records), amplitude, vector))
    if 1.0 - total_weight > SUPPORT_LEAK_TOL:
        raise OutOfSupportError(1.0 - total_weight)
    if total_weight - 1.0 > SUPPORT_LEAK_TOL:
        raise InvariantError(f"branches carry total weight {total_weight!r}, above 1")
    return branches


def branch_decompose(state: StateVector, observables) -> list[Branch]:
    """Decompose a state over the joint eigenspaces of a commuting observable family.

    Rank-1 joint eigenspaces get a canonical phase-fixed eigenvector and a signed
    complex amplitude; degenerate eigenspaces carry the projected component with a
    phase-fixed vector.  Either way the branches reconstruct the state as
    sum(amplitude * vector).
    """
    return project_branches(state, joint_eigenbasis(state.register, observables))
