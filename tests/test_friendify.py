"""Friend unitaries, lifted observables, double lifts, and the lifted square."""

import dataclasses
import itertools

import numpy as np
import pytest

from wignerlab import qsim, scenarios
from wignerlab.friendify import (
    MemoryAssignment,
    double_lift_basis,
    friend_unitary,
    lift_observable,
    record_observable,
)
from wignerlab.qsim import (
    QubitRegister,
    StateVector,
    apply_operator,
    basis_state,
    branch_decompose,
    normalized_state,
    pauli_observable,
    random_state,
    tensor_product,
)

SEED = 4119

SQ2 = np.sqrt(2.0)


def z_mem(system_label="s", memory_label="f") -> MemoryAssignment:
    return MemoryAssignment(memory_label, pauli_observable("Z", system_label))


def lifted_input(mem: MemoryAssignment, system: StateVector) -> StateVector:
    """Memory in |0>, system arbitrary, ordered as mem.register."""
    memory = basis_state(QubitRegister((mem.memory,)), "0")
    return tensor_product([memory, system]).reordered(mem.register)


class TestFriendUnitary:
    def test_equal_superposition_entangles_record(self):
        mem = z_mem()
        state = lifted_input(mem, normalized_state(QubitRegister(("s",)), [1, 1]))
        out = apply_operator(state, friend_unitary(mem), mem.targets)
        assert np.allclose(out.amplitudes, [1 / SQ2, 0, 0, 1 / SQ2])

    def test_eigenstate_input_stays_product(self):
        mem = z_mem()
        state = lifted_input(mem, basis_state(QubitRegister(("s",)), "0"))
        out = apply_operator(state, friend_unitary(mem), mem.targets)
        assert np.allclose(out.amplitudes, basis_state(mem.register, "00").amplitudes)

    def test_unitarity(self):
        mem = z_mem("s1", "a1")
        unitary = friend_unitary(mem)
        # oracle: explicit matrix product
        assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(4))) < 1e-12

    def test_label_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            MemoryAssignment("s", pauli_observable("Z", "s"))

    def test_records_are_the_fixed_basis_states(self):
        assert [field.name for field in dataclasses.fields(MemoryAssignment)] == ["memory", "recorded"]
        plus, minus = qsim.rank1_eigenstates(record_observable(z_mem()))
        assert np.allclose(plus, [1, 0, 0, 0])  # |0>|z+>
        assert np.allclose(minus, [0, 0, 0, 1])  # |1>|z->

    def test_rank_deficient_recorded_observable_still_unitary(self):
        mem = z_mem("s", "a")
        lifted, _ = lift_observable(mem, name="lift")
        outer = MemoryAssignment("b", lifted)
        unitary = friend_unitary(outer)
        assert np.max(np.abs(unitary @ unitary.conj().T - np.eye(8))) < 1e-12


class TestLiftObservable:
    def test_lift_of_z_gives_conjugate_pair(self):
        mem = z_mem("s1", "a1")
        lifted, subspace = lift_observable(mem, name="Xbar1")
        # eigenstates (|a+ z+> +/- |a- z->)/sqrt(2) on (a1, s1)
        assert np.allclose(subspace.basis_plus.amplitudes, [1 / SQ2, 0, 0, 1 / SQ2])
        assert np.allclose(subspace.basis_minus.amplitudes, [1 / SQ2, 0, 0, -1 / SQ2])

    def test_lift_of_x_gives_conjugate_pair(self):
        mem = MemoryAssignment("a2", pauli_observable("X", "s2"))
        lifted, subspace = lift_observable(mem, name="Zbar2")
        # (|a+ x+> +/- |a- x->)/sqrt(2) with x+- = (|0> +- |1>)/sqrt(2)
        plus = np.array([1, 1, 1, -1]) / 2.0
        minus = np.array([1, 1, -1, 1]) / 2.0
        assert np.allclose(subspace.basis_plus.amplitudes, plus)
        assert np.allclose(subspace.basis_minus.amplitudes, minus)

    def test_statistics_equivalence_200_cases(self):
        # lifted-observable statistics after the friend unitary match the bare
        # conjugate observable's statistics on the raw system state
        rng = np.random.default_rng(SEED)
        for case in range(200):
            axis = ("Z", "X")[case % 2]
            mem = MemoryAssignment("f", pauli_observable(axis, "s"))
            lifted, _ = lift_observable(mem, name="lifted")
            bare_conjugate = qsim.conjugate_observable(mem.recorded, "conj")
            system = random_state(QubitRegister(("s",)), rng)
            evolved = apply_operator(
                lifted_input(mem, system), friend_unitary(mem), mem.targets
            )
            for (eig, _), bare in zip(lifted.branches, bare_conjugate.branches):
                lifted_prob = np.vdot(
                    evolved.amplitudes, lifted.projector(eig) @ evolved.amplitudes
                ).real
                bare_prob = np.vdot(
                    system.amplitudes, bare_conjugate.projector(eig) @ system.amplitudes
                ).real
                assert abs(lifted_prob - bare_prob) < 1e-10

    def test_record_readout_reproduces_friend_outcome(self):
        rng = np.random.default_rng(SEED)
        mem = z_mem()
        readout = record_observable(mem, "readout")
        for _ in range(50):
            system = random_state(QubitRegister(("s",)), rng)
            evolved = apply_operator(
                lifted_input(mem, system), friend_unitary(mem), mem.targets
            )
            for eig, _ in readout.branches:
                readout_prob = np.vdot(
                    evolved.amplitudes, readout.projector(eig) @ evolved.amplitudes
                ).real
                bare_prob = np.vdot(
                    system.amplitudes, mem.recorded.projector(eig) @ system.amplitudes
                ).real
                assert abs(readout_prob - bare_prob) < 1e-10


class TestDoubleLift:
    def build(self, anchor):
        if anchor == "X":
            mem = z_mem("s1", "a1")
        else:
            mem = MemoryAssignment("a2", pauli_observable("X", "s2"))
        lifted, sub = lift_observable(mem)
        outer_label = "b1" if anchor == "X" else "b2"
        outer = MemoryAssignment(outer_label, lifted)
        return double_lift_basis(sub, outer, anchor=anchor), sub, outer

    def test_memory_label_collision_rejected(self):
        _, sub = lift_observable(z_mem("s1", "a1"))
        outer = MemoryAssignment("a1", pauli_observable("Z", "t"))
        with pytest.raises(ValueError, match=r"share labels \['a1'\]"):
            double_lift_basis(sub, outer, anchor="X")

    def test_anchor_states_are_record_tagged(self):
        double, sub, outer = self.build("X")
        expected_plus = np.kron([1, 0], sub.basis_plus.amplitudes)
        expected_minus = np.kron([0, 1], sub.basis_minus.amplitudes)
        assert np.allclose(double.x[1].basis_plus.amplitudes, expected_plus)
        assert np.allclose(double.x[1].basis_minus.amplitudes, expected_minus)

    def test_conjugate_pair_from_anchors(self):
        double, _, _ = self.build("X")
        anchors_plus = double.x[1].basis_plus.amplitudes
        anchors_minus = double.x[1].basis_minus.amplitudes
        assert np.allclose(
            double.z[1].basis_plus.amplitudes, (anchors_plus + anchors_minus) / SQ2
        )
        assert np.allclose(
            double.z[1].basis_minus.amplitudes, (anchors_plus - anchors_minus) / SQ2
        )

    @pytest.mark.parametrize("anchor,raw_phase", [("X", 1j), ("Z", -1j)])
    def test_raw_chain_phase_reported(self, anchor, raw_phase):
        # The plain chain construction obeys Z.X = -iY only for a Z anchor;
        # the X-anchored chain comes out with the opposite sign and is
        # re-oriented.  Both raw relations are surfaced, not assumed.
        double, _, _ = self.build(anchor)
        assert double.chain_y_phase == raw_phase

    @pytest.mark.parametrize("anchor", ["X", "Z"])
    def test_zx_equals_minus_iy_after_orientation(self, anchor):
        double, _, _ = self.build(anchor)
        zx = double.z[0].matrix() @ double.x[0].matrix()
        assert np.max(np.abs(zx + 1j * double.y[0].matrix())) < 1e-10

    def test_c_observables_mutually_commute(self):
        frame = scenarios.build_pm_frame()
        mats = [obs.matrix() for obs in frame.c_observables]
        for a, b in itertools.combinations(mats, 2):
            assert np.max(np.abs(a @ b - b @ a)) < 1e-10


class TestLiftedSquare:
    def test_six_constraints_on_reachable_subspace(self):
        from wignerlab.contextuality import standard_square, verify_square_constraints

        frame = scenarios.build_pm_frame()
        report = verify_square_constraints(frame.square)
        assert report.proved() == standard_square()
        targets = {"row1": 1, "row2": 1, "row3": 1, "colA": 1, "colB": 1, "colC": -1}
        for line in report.lines:
            assert line.value == pytest.approx(targets[line.line], abs=1e-10)

    def test_bell_transport_gives_simultaneous_eigenstate(self):
        frame = scenarios.build_pm_frame()
        scenario = scenarios.build_pm_scenario(scenarios.bell_state("phi+"))
        report = scenarios.run_pm_protocol(scenario)
        for name in ("C1", "C2", "C3"):
            assert abs(abs(report.expectations[name]) - 1.0) < 1e-10

    def test_coo_operator_level(self):
        # every product eigenstate of (Z1, X2) survives both friend stages as
        # a single branch of the doubly lifted (Z, X) pair with the same values
        frame = scenarios.build_pm_frame()
        z_states = {+1: [1, 0], -1: [0, 1]}
        x_states = {+1: [1, 1], -1: [1, -1]}
        readout_z = frame.square[0][0]  # doubly lifted Z on chain 1
        readout_x = frame.square[1][0]  # doubly lifted X on chain 2
        for sz, sx in itertools.product((+1, -1), repeat=2):
            system = tensor_product(
                [
                    normalized_state(QubitRegister(("s1",)), z_states[sz]),
                    normalized_state(QubitRegister(("s2",)), x_states[sx]),
                ]
            )
            scenario = scenarios.build_pm_scenario(system)
            state = scenario.initial_state
            for label in ("a1", "a2", "b2", "b1"):
                mem = frame.mems[label]
                state = apply_operator(state, friend_unitary(mem), mem.targets)
            branches = branch_decompose(state, [readout_z, readout_x])
            assert len(branches) == 1
            assert branches[0].records == {"A1": sz, "A2": sx}
            assert abs(abs(branches[0].amplitude) - 1.0) < 1e-10
