"""Kernel tests: registers, states, observables, measurement, branching."""

import numpy as np
import pytest

from wignerlab import qsim
from wignerlab.qsim import (
    QubitRegister,
    SpectralObservable,
    StateVector,
    apply_operator,
    basis_state,
    branch_decompose,
    expectation,
    identity_observable,
    joint_eigenbasis,
    measure_projective,
    normalized_state,
    pauli_observable,
    product_observable,
    project_branches,
    random_state,
    tensor_product,
)

NAN, INF = float("nan"), float("inf")

SEED = 1207


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


class TestRegister:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            QubitRegister(("a", "a"))

    def test_size_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            QubitRegister(tuple(f"q{i}" for i in range(9)))

    def test_unknown_label(self):
        reg = QubitRegister(("a", "b"))
        with pytest.raises(ValueError, match="unknown qubit label"):
            reg.axis("c")

    def test_concat_rejects_shared_labels(self):
        with pytest.raises(ValueError, match="share"):
            QubitRegister(("a",)) + QubitRegister(("a",))


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(qsim.InvariantError):
            StateVector(QubitRegister(("a",)), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[NAN, 0, 0, 0], [INF, 0, 0, 0], [1, 0, 0, complex(0, NAN)]])
    def test_non_finite_rejected(self, amps):
        with pytest.raises(qsim.InvariantError, match="finite"):
            StateVector(QubitRegister(("a", "b")), np.array(amps, dtype=complex))

    def test_reorder_roundtrip(self):
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b", "c"))
        state = random_state(reg, rng)
        flipped = state.reordered(QubitRegister(("c", "a", "b")))
        back = flipped.reordered(reg)
        assert np.allclose(back.amplitudes, state.amplitudes)

    def test_basis_state_index_convention(self):
        reg = QubitRegister(("a", "b"))
        state = basis_state(reg, "10")
        assert state.amplitudes[2] == 1.0


class TestTensorProduct:
    def test_computational_pair(self):
        # |z+> (x) |z+> is the 4-dim basis vector (1, 0, 0, 0)
        plus = basis_state(QubitRegister(("a",)), "0")
        other = basis_state(QubitRegister(("b",)), "0")
        combined = tensor_product([plus, other])
        assert np.allclose(combined.amplitudes, [1, 0, 0, 0])

    def test_observable_with_identity_factor(self):
        # Z (x) 1 on (s1, s2): the first cell of the two-qubit square
        obs = tensor_product(
            [pauli_observable("Z", "s1"), identity_observable(QubitRegister(("s2",)))]
        )
        expected = np.kron(qsim.PAULI_MATRICES["Z"], np.eye(2))
        assert np.allclose(obs.matrix(), expected)
        assert np.allclose(obs.support, np.eye(4))

    def test_three_random_factors_have_unit_norm(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            parts = [
                random_state(QubitRegister((lbl,)), rng) for lbl in ("a", "b", "c")
            ]
            combined = tensor_product(parts)
            # oracle: direct norm computation
            assert abs(np.linalg.norm(combined.amplitudes) - 1.0) < 1e-12

    def test_duplicate_label_rejected(self):
        a = basis_state(QubitRegister(("a",)), "0")
        with pytest.raises(ValueError, match="share"):
            tensor_product([a, a])

    def test_mixed_kinds_rejected(self):
        a = basis_state(QubitRegister(("a",)), "0")
        with pytest.raises(TypeError):
            tensor_product([a, pauli_observable("Z", "b")])


class TestApplyOperator:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b"))
        state = random_state(reg, rng)
        out = apply_operator(state, np.eye(2), ["b"])
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_rejects_non_unitary(self):
        state = basis_state(QubitRegister(("a",)), "0")
        with pytest.raises(ValueError, match="not unitary"):
            apply_operator(state, np.array([[1, 0], [0, 2.0]]), ["a"])

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_rejects_non_finite(self, value):
        state = basis_state(QubitRegister(("a",)), "0")
        with pytest.raises(ValueError, match="finite"):
            apply_operator(state, np.full((2, 2), value), ["a"])

    def test_rejects_unknown_target(self):
        state = basis_state(QubitRegister(("a",)), "0")
        with pytest.raises(ValueError, match="unknown qubit label"):
            apply_operator(state, np.eye(2), ["z"])

    def test_norm_preserved_200_random_cases(self):
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b", "c"))
        for _ in range(200):
            state = random_state(reg, rng)
            targets = list(rng.permutation(reg.labels)[: rng.integers(1, 4)])
            op = random_unitary(2 ** len(targets), rng)
            out = apply_operator(state, op, targets)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_single_qubit_on_middle_wire(self):
        # X on b of |000> gives |010>
        reg = QubitRegister(("a", "b", "c"))
        state = basis_state(reg, "000")
        out = apply_operator(state, qsim.PAULI_MATRICES["X"], ["b"])
        assert np.allclose(out.amplitudes, basis_state(reg, "010").amplitudes)


class TestExpectation:
    def test_eigenstate(self):
        state = basis_state(QubitRegister(("a",)), "0")
        assert expectation(state, pauli_observable("Z", "a")) == pytest.approx(1.0, abs=1e-12)

    def test_product_triple_is_identity(self):
        # oracle: the operator product of the first square column is the identity
        from wignerlab.contextuality import unbarred_square

        grid = unbarred_square(("a", "b"))
        col_a = [grid[i][0] for i in range(3)]
        matrix = col_a[0].matrix() @ col_a[1].matrix() @ col_a[2].matrix()
        assert np.allclose(matrix, np.eye(4), atol=1e-12)
        triple = product_observable(col_a, "A1*A2*A3")
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b"))
        for _ in range(20):
            state = random_state(reg, rng)
            assert expectation(state, triple) == pytest.approx(1.0, abs=1e-10)

    def test_out_of_support_signal(self):
        # rank-2 observable on a 2-qubit register, state fully outside
        reg = QubitRegister(("m", "s"))
        plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
        minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
        obs = qsim.observable_from_eigenvectors(reg, plus, minus, "lifted")
        outside = basis_state(reg, "01")
        with pytest.raises(qsim.OutOfSupportError) as err:
            expectation(outside, obs)
        assert err.value.leaked_weight == pytest.approx(1.0, abs=1e-10)


class TestMeasureProjective:
    def test_eigenstate_outcomes(self):
        state = basis_state(QubitRegister(("a",)), "0")
        outcomes = measure_projective(state, pauli_observable("Z", "a"))
        assert outcomes[0].eigenvalue == +1
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)
        assert outcomes[1].probability == 0.0
        assert outcomes[1].post_state is None

    def test_probability_completeness_random(self):
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b"))
        obs = tensor_product([pauli_observable("Z", "a"), pauli_observable("X", "b")])
        for _ in range(50):
            state = random_state(reg, rng)
            outcomes = measure_projective(state, obs)
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)
            for o in outcomes:
                if o.post_state is not None:
                    assert abs(np.linalg.norm(o.post_state.amplitudes) - 1.0) < 1e-12


class TestBranchDecompose:
    def test_own_basis_single_branch(self):
        reg = QubitRegister(("a", "b"))
        state = basis_state(reg, "01")
        branches = branch_decompose(
            state, [pauli_observable("Z", "a"), pauli_observable("Z", "b")]
        )
        assert len(branches) == 1
        assert branches[0].records == {"Z[a]": +1, "Z[b]": -1}
        assert branches[0].amplitude == pytest.approx(1.0)

    def test_non_commuting_rejected_with_names(self):
        state = basis_state(QubitRegister(("a",)), "0")
        with pytest.raises(ValueError, match=r"'Z\[a\]' and 'X\[a\]'"):
            branch_decompose(state, [pauli_observable("Z", "a"), pauli_observable("X", "a")])

    def test_duplicate_names_rejected(self):
        state = basis_state(QubitRegister(("a", "b")), "00")
        with pytest.raises(ValueError, match="distinct names"):
            branch_decompose(
                state, [pauli_observable("Z", "a", "Z"), pauli_observable("Z", "b", "Z")]
            )

    def test_reconstruction_200_random_cases(self):
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b", "c"))
        axes = ["X", "Y", "Z"]
        for _ in range(200):
            state = random_state(reg, rng)
            chosen = [axes[rng.integers(3)] for _ in range(3)]
            observables = [pauli_observable(ax, lbl) for ax, lbl in zip(chosen, reg.labels)]
            branches = branch_decompose(state, observables)
            rebuilt = sum(b.amplitude * b.vector.amplitudes for b in branches)
            assert np.max(np.abs(rebuilt - state.amplitudes)) < 1e-10
            assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_joint_eigenspaces_reconstruct(self):
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b"))
        for _ in range(50):
            state = random_state(reg, rng)
            branches = branch_decompose(state, [pauli_observable("Z", "a")])
            rebuilt = sum(b.amplitude * b.vector.amplitudes for b in branches)
            assert np.max(np.abs(rebuilt - state.amplitudes)) < 1e-10

    def test_zero_amplitude_branches_omitted(self):
        reg = QubitRegister(("a", "b"))
        state = normalized_state(reg, [1, 1, 1, 0])
        branches = branch_decompose(
            state, [pauli_observable("Z", "a"), pauli_observable("Z", "b")]
        )
        keys = {tuple(b.records.values()) for b in branches}
        assert (-1, -1) not in keys
        assert len(branches) == 3
        for b in branches:
            assert abs(b.amplitude - 1 / np.sqrt(3)) < 1e-12

    def test_fixed_eigenbasis_matches_fresh_decomposition(self):
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b", "c"))
        family = [pauli_observable("X", "a"), pauli_observable("Z", "c")]  # b degenerate
        basis = joint_eigenbasis(reg, family)
        assert [space.vector is None for space in basis.spaces] == [True] * 4
        for _ in range(50):
            state = random_state(reg, rng)
            fresh = branch_decompose(state, family)
            reused = project_branches(state, basis)
            assert [b.records for b in reused] == [b.records for b in fresh]
            assert [b.amplitude for b in reused] == [b.amplitude for b in fresh]

    def test_eigenbasis_register_must_match_state(self):
        basis = joint_eigenbasis(QubitRegister(("a", "b")), [pauli_observable("Z", "a")])
        state = basis_state(QubitRegister(("b", "a")), "00")
        with pytest.raises(ValueError, match="eigenbasis register"):
            project_branches(state, basis)


class TestSpectralObservable:
    def test_spectral_resolution(self):
        obs = pauli_observable("Y", "a")
        support = obs.support
        assert np.allclose(sum(p for _, p in obs.branches), support)
        assert np.max(np.abs(support @ support - support)) < 1e-10

    def test_non_orthogonal_projectors_rejected(self):
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(qsim.InvariantError, match="orthogonal"):
            SpectralObservable(QubitRegister(("a",)), ((+1, proj), (-1, proj)))

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_projector_rejected(self, value):
        proj = np.array([[1, 0], [0, value]], dtype=complex)
        with pytest.raises(qsim.InvariantError, match="not finite"):
            SpectralObservable(QubitRegister(("a",)), ((+1, proj),))

    def test_embedding_preserves_action(self):
        rng = np.random.default_rng(SEED)
        reg = QubitRegister(("a", "b", "c"))
        obs = pauli_observable("X", "b").embedded(reg)
        expected = np.kron(np.eye(2), np.kron(qsim.PAULI_MATRICES["X"], np.eye(2)))
        assert np.allclose(obs.matrix(), expected)
