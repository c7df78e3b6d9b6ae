"""Friend-measurement unitaries and lifted (friendified) observables.

A friend measuring a dichotomic observable and recording the outcome in a
memory qubit is modeled as a controlled record-flip unitary.  Lifting an
observable through such a record produces the conjugate observable on the
joint (memory x system) space, whose eigenvectors are the sum/difference
combinations of the record-tagged eigenstates.  Lifting twice yields a full
logical Pauli triple on a two-dimensional subspace of the nested-lab space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import (
    PAULI_MATRICES,
    STRUCT_TOL,
    InvariantError,
    QubitRegister,
    SpectralObservable,
    StateVector,
    observable_from_eigenvectors,
    rank1_eigenstates,
)

_SQ2 = np.sqrt(2.0)

_KET0 = np.array([1, 0], dtype=complex)
_KET1 = np.array([0, 1], dtype=complex)


def _anchor_pair(plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The record-tagged pair |0>|plus>, |1>|minus> (memory qubit first)."""
    return np.kron(_KET0, plus), np.kron(_KET1, minus)


@dataclass(frozen=True)
class MemoryAssignment:
    """Binding of a dichotomic observable to the memory qubit that records it.

    The memory starts in |0>; a friend measurement flips it to |1> exactly on
    the -1 eigenspace of the recorded observable.
    """

    memory: str
    recorded: SpectralObservable

    def __post_init__(self):
        if self.memory in self.recorded.register:
            raise ValueError(
                f"memory label {self.memory!r} collides with the recorded observable's register"
            )
        if set(self.recorded.eigenvalues) != {+1, -1}:
            raise ValueError(f"recorded observable {self.recorded.name!r} is not dichotomic")

    @property
    def register(self) -> QubitRegister:
        """Joint register the friend unitary acts on: memory qubit first."""
        return QubitRegister((self.memory,)) + self.recorded.register

    @property
    def targets(self) -> tuple[str, ...]:
        return self.register.labels


def friend_unitary(mem: MemoryAssignment) -> np.ndarray:
    """Unitary copying the recorded observable's eigenbasis tag into the memory qubit.

    Acts on mem.register (memory first).  On the +1 eigenspace the memory is
    untouched, on the -1 eigenspace the record is flipped by Pauli X; outside
    the recorded observable's support the memory is untouched, which keeps the
    matrix unitary for rank-deficient recorded observables.
    """
    plus_proj = mem.recorded.projector(+1)
    minus_proj = mem.recorded.projector(-1)
    complement = np.eye(mem.recorded.register.dim, dtype=complex) - plus_proj - minus_proj
    eye2, flip = PAULI_MATRICES["I"], PAULI_MATRICES["X"]
    unitary = (
        np.kron(eye2, plus_proj) + np.kron(flip, minus_proj) + np.kron(eye2, complement)
    )
    deviation = np.max(np.abs(unitary.conj().T @ unitary - np.eye(unitary.shape[0])))
    if deviation > STRUCT_TOL:
        raise InvariantError(f"friend unitary failed the unitarity check ({deviation:.3e})")
    return unitary


def record_observable(mem: MemoryAssignment, name: str = "") -> SpectralObservable:
    """Readout observable whose +/-1 eigenstates are the record-tagged eigenstates.

    Measuring it on the post-friend state deterministically reproduces the
    friend's recorded outcome.
    """
    anchor_plus, anchor_minus = _anchor_pair(*rank1_eigenstates(mem.recorded))
    return observable_from_eigenvectors(mem.register, anchor_plus, anchor_minus, name)


@dataclass(frozen=True)
class LogicalSubspace:
    """Two orthonormal states spanning the logical qubit carried by a lift."""

    basis_plus: StateVector
    basis_minus: StateVector

    def __post_init__(self):
        if self.basis_plus.register.labels != self.basis_minus.register.labels:
            raise ValueError("subspace basis states must share a register")
        if abs(self.basis_plus.overlap(self.basis_minus)) > STRUCT_TOL:
            raise ValueError("subspace basis states must be orthogonal")

    @property
    def register(self) -> QubitRegister:
        return self.basis_plus.register


def _logical_pair(register, plus, minus, name: str) -> tuple[SpectralObservable, LogicalSubspace]:
    """The observable with eigenvectors plus/minus, and the logical subspace they span."""
    obs = observable_from_eigenvectors(register, plus, minus, name)
    return obs, LogicalSubspace(StateVector(register, plus), StateVector(register, minus))


def lift_observable(mem: MemoryAssignment, name: str = "") -> tuple[SpectralObservable, LogicalSubspace]:
    """Lift the recorded observable through its memory record.

    Returns the conjugate barred observable, with eigenvectors
    (|0 e+> +/- |1 e->)/sqrt(2), together with the logical subspace those two
    vectors span.  The lift of a Z-type observable is therefore an X-type one,
    and vice versa.
    """
    anchor_plus, anchor_minus = _anchor_pair(*rank1_eigenstates(mem.recorded))
    basis_plus = (anchor_plus + anchor_minus) / _SQ2
    basis_minus = (anchor_plus - anchor_minus) / _SQ2
    return _logical_pair(mem.register, basis_plus, basis_minus, name)


@dataclass(frozen=True)
class DoubleLift:
    """Logical Pauli triple obtained by lifting a lifted observable once more.

    chain_y_phase records which phase relation the raw textbook chain
    (anchor pair, then sum/difference pair, then +/- i pair) satisfies on this
    logical qubit: Z.X = chain_y_phase * Y_raw.  The returned Y is always
    re-oriented so that Z.X = -i Y holds.
    """

    x: tuple[SpectralObservable, LogicalSubspace]
    y: tuple[SpectralObservable, LogicalSubspace]
    z: tuple[SpectralObservable, LogicalSubspace]
    chain_y_phase: complex


def double_lift_basis(
    lifted: LogicalSubspace,
    mem: MemoryAssignment,
    anchor: str,
    name_prefix: str = "",
) -> DoubleLift:
    """Lift a logical subspace through a further memory record.

    The anchor states |0 lifted+>, |1 lifted-> become the eigenvectors of the doubly
    lifted observable named by `anchor` ("X" or "Z"); the conjugate pair
    (anchor+ +/- anchor-)/sqrt(2) names the other one, and the third pair
    (conj+ +/- i conj-)/sqrt(2) is the Y candidate.  The Y orientation is then
    fixed numerically so that Z.X = -iY; the raw chain satisfies this for a
    Z anchor but comes out with the opposite phase for an X anchor, and the
    observed raw phase is reported in chain_y_phase.
    """
    if anchor not in ("X", "Z"):
        raise ValueError(f"anchor must be 'X' or 'Z', got {anchor!r}")
    register = QubitRegister((mem.memory,)) + lifted.register  # rejects a colliding memory label
    anchor_plus, anchor_minus = _anchor_pair(
        lifted.basis_plus.amplitudes, lifted.basis_minus.amplitudes
    )
    conj_plus = (anchor_plus + anchor_minus) / _SQ2
    conj_minus = (anchor_plus - anchor_minus) / _SQ2
    raw_y_plus = (conj_plus + 1j * conj_minus) / _SQ2
    raw_y_minus = (conj_plus - 1j * conj_minus) / _SQ2

    def _pair(tag: str, plus: np.ndarray, minus: np.ndarray):
        return _logical_pair(register, plus, minus, f"{name_prefix}{tag}")

    if anchor == "X":
        x_pair = _pair("X", anchor_plus, anchor_minus)
        z_pair = _pair("Z", conj_plus, conj_minus)
    else:
        z_pair = _pair("Z", anchor_plus, anchor_minus)
        x_pair = _pair("X", conj_plus, conj_minus)

    zx = z_pair[0].matrix() @ x_pair[0].matrix()
    raw_y = observable_from_eigenvectors(register, raw_y_plus, raw_y_minus, "Yraw").matrix()
    if np.max(np.abs(zx + 1j * raw_y)) <= STRUCT_TOL:
        chain_phase = -1j
        y_pair = _pair("Y", raw_y_plus, raw_y_minus)
    elif np.max(np.abs(zx - 1j * raw_y)) <= STRUCT_TOL:
        chain_phase = 1j
        y_pair = _pair("Y", raw_y_minus, raw_y_plus)
    else:
        raise InvariantError("double lift produced no consistent Y phase relation")

    check = np.max(np.abs(zx + 1j * y_pair[0].matrix()))
    if check > STRUCT_TOL:
        raise InvariantError(f"Z.X = -iY failed after orientation fix ({check:.3e})")
    return DoubleLift(x=x_pair, y=y_pair, z=z_pair, chain_y_phase=chain_phase)
