"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a [PASS] line on success (run with -s or -v to see them);
a failing criterion surfaces as an ordinary pytest failure.
"""

import itertools

import numpy as np
import pytest

from wignerlab import contextuality as ctx
from wignerlab import epistemic as ep
from wignerlab import qsim, scenarios
from wignerlab.friendify import friend_unitary, lift_observable, MemoryAssignment
from wignerlab.qsim import (
    QubitRegister,
    apply_operator,
    branch_decompose,
    normalized_state,
    pauli_observable,
    random_state,
    tensor_product,
)

ACCEPTANCE_SEED = scenarios.SWEEP_SEED  # 20260810, used for every random sweep here
PROPERTY_SEED = 515151


@pytest.fixture(scope="module")
def hardy_report():
    return scenarios.run_fr_protocol(scenarios.build_hardy_scenario())


@pytest.fixture(scope="module")
def pm_frame():
    return scenarios.build_pm_frame()


@pytest.fixture(scope="module")
def pm_reports():
    """Four Bell inputs plus 20 seeded random inputs, run once for criteria 7 and 9."""
    reports = [
        scenarios.run_pm_protocol(scenarios.build_pm_scenario(scenarios.bell_state(name)))
        for name in ("phi+", "phi-", "psi+", "psi-")
    ]
    reports += scenarios.pm_random_sweep(count=20, seed=ACCEPTANCE_SEED)
    return reports


def test_criterion_01_hardy_probability(hardy_report):
    p = hardy_report.joint_distribution[(-1, -1)]
    assert abs(p - 1 / 12) <= 1e-12
    print("[PASS] criterion 1: P(A=-1, B=-1) = 1/12 within 1e-12")


def test_criterion_02_basis_change_fidelity():
    scenario = scenarios.build_hardy_scenario()
    frame = scenario.frame
    state = scenario.initial_state
    for mem in (frame.mem_a, frame.mem_b):
        state = apply_operator(state, friend_unitary(mem), mem.targets)

    def amps(pair):
        return {
            tuple(b.records[o.name] for o in pair): b.amplitude
            for b in branch_decompose(state, pair)
        }

    lifted_z_basis = amps((frame.wigner_a, frame.friend_b))
    expected_xz = {(1, 1): np.sqrt(2 / 3), (1, -1): np.sqrt(1 / 6), (-1, -1): np.sqrt(1 / 6)}
    assert lifted_z_basis.keys() == expected_xz.keys()
    for key, value in expected_xz.items():
        assert abs(lifted_z_basis[key] - value) <= 1e-12

    zx = amps((frame.friend_a, frame.wigner_b))
    expected_zx = {(1, 1): np.sqrt(2 / 3), (-1, 1): np.sqrt(1 / 6), (-1, -1): np.sqrt(1 / 6)}
    assert zx.keys() == expected_zx.keys()
    for key, value in expected_zx.items():
        assert abs(zx[key] - value) <= 1e-12

    xx = amps((frame.wigner_a, frame.wigner_b))
    expected_xx = {
        (1, 1): 3 / np.sqrt(12),
        (1, -1): 1 / np.sqrt(12),
        (-1, 1): 1 / np.sqrt(12),
        (-1, -1): -1 / np.sqrt(12),
    }
    for key, value in expected_xx.items():
        assert abs(xx[key] - value) <= 1e-12
    print("[PASS] criterion 2: Hardy coefficients in all three mixed bases within 1e-12")


def test_criterion_03_fr_chain(hardy_report):
    chain = hardy_report.chain
    assert chain.seed == ("A", -1)
    assert chain.conclusions == (("FB", -1), ("FA", +1), ("B", +1))
    assert hardy_report.contradiction
    print("[PASS] criterion 3: chain A=-1 => FB=-1 => FA=+1 => B=+1, contradiction flagged")


def test_criterion_04_square_validity(pm_frame):
    plain = ctx.verify_square_constraints(ctx.unbarred_square(), tol=1e-10)
    assert plain.commutation_ok and plain.proved() == ctx.standard_square()
    lifted = ctx.verify_square_constraints(pm_frame.square, tol=1e-10)
    assert lifted.commutation_ok and lifted.proved() == ctx.standard_square()
    for report in (plain, lifted):
        values = {line.line: line.value for line in report.lines}
        assert values["colC"] == pytest.approx(-1.0, abs=1e-10)
        for name in ("row1", "row2", "row3", "colA", "colB"):
            assert values[name] == pytest.approx(+1.0, abs=1e-10)
    print("[PASS] criterion 4: six product constraints + commutation, plain and lifted squares")


def test_criterion_05_ks_nonexistence():
    assert len(ctx.enumerate_assignments(ctx.standard_square())) == 0
    assert len(ctx.enumerate_assignments(ctx.rows_only_square())) == 64
    print("[PASS] criterion 5: 0/512 assignments under full constraints, 64 rows-only")


def test_criterion_06_coo_reproduction(pm_frame):
    z_states = {+1: [1, 0], -1: [0, 1]}
    x_states = {+1: [1, 1], -1: [1, -1]}
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
            mem = pm_frame.mems[label]
            state = apply_operator(state, friend_unitary(mem), mem.targets)
        z_sub = pm_frame.double1.z[1]
        x_sub = pm_frame.double2.x[1]
        target = tensor_product(
            [
                z_sub.basis_plus if sz == +1 else z_sub.basis_minus,
                x_sub.basis_plus if sx == +1 else x_sub.basis_minus,
            ]
        ).reordered(pm_frame.register)
        assert abs(state.fidelity(target) - 1.0) <= 1e-10
    print("[PASS] criterion 6: post-level-2 state recapitulates the level-1 outcomes, fidelity 1")


def test_criterion_07_state_independence(pm_reports):
    assert len(pm_reports) == 24
    for report in pm_reports:
        assert report.contradiction
        assert report.a_parity_even
        for branch in report.c_branches:
            assert branch.retrodiction.required_a_parity == -1
    print("[PASS] criterion 7: contradiction on 4 Bell states and 20 random states (24/24)")


def test_criterion_08_pauli_relations(pm_frame):
    for double in (pm_frame.double1, pm_frame.double2):
        zx = double.z[0].matrix() @ double.x[0].matrix()
        assert np.max(np.abs(zx + 1j * double.y[0].matrix())) <= 1e-10
    mats = [obs.matrix() for obs in pm_frame.c_observables]
    for a, b in itertools.combinations(mats, 2):
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-10
    print("[PASS] criterion 8: Z.X = -iY on both logical qubits; C row mutually commutes")


def test_criterion_09_factorization(pm_reports):
    for report in pm_reports:
        assert report.factorization.schmidt_rank == 1
        assert report.factorization.factorizes
        tail = [s for s in report.factorization.singular_values[1:]]
        assert all(s <= 1e-8 for s in tail)
    print("[PASS] criterion 9: signalling record factorizes (Schmidt rank 1) on every run")


def test_criterion_10_epistemic_audit(hardy_report):
    steps = ep.steps_from_implications(
        hardy_report.chain.steps, hardy_report.chain.seed, "conditional"
    )
    audit = ep.audit_inference_chain(2, steps)
    assert not audit.clean
    assert audit.violation.kind == "purge-demand"
    assert audit.violation.entry == ep.Fact("FA", +1, condition=("FB", -1))
    for c in ctx.valid_c_triples():
        report = ep.pm_epistemic_audit(c, ctx.standard_square())
        assert report.parity_derivable and report.required_a_parity == -1
        assert len(report.bindings) == 12 and report.all_bindings_refused
    print("[PASS] criterion 10: budget audit blocks the chain; 4 parities derived, 12 bindings refused")


class TestCriterion11PropertySuites:
    def test_norm_preservation_200(self):
        rng = np.random.default_rng(PROPERTY_SEED)
        reg = QubitRegister(("a", "b", "c"))
        for _ in range(200):
            state = random_state(reg, rng)
            k = int(rng.integers(1, 4))
            targets = list(rng.permutation(reg.labels)[:k])
            raw = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            q, r = np.linalg.qr(raw)
            unitary = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            out = apply_operator(state, unitary, targets)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12
        print("[PASS] criterion 11a: norm preservation, 200 cases, seed 515151")

    def test_branch_reconstruction_200(self):
        rng = np.random.default_rng(PROPERTY_SEED)
        reg = QubitRegister(("a", "b", "c"))
        axes = ("X", "Y", "Z")
        for _ in range(200):
            state = random_state(reg, rng)
            observables = [
                pauli_observable(axes[rng.integers(3)], lbl) for lbl in reg.labels
            ]
            branches = branch_decompose(state, observables)
            rebuilt = sum(b.amplitude * b.vector.amplitudes for b in branches)
            assert np.max(np.abs(rebuilt - state.amplitudes)) <= 1e-10
        print("[PASS] criterion 11b: branch reconstruction, 200 cases, seed 515151")

    def test_ledger_budget_invariant_200(self):
        rng = np.random.default_rng(PROPERTY_SEED)
        labels = ["p", "q", "r", "s"]
        for _ in range(200):
            capacity = int(rng.integers(0, 5))
            ledger = ep.KnowledgeLedger(capacity)
            for _ in range(int(rng.integers(0, 40))):
                fact = ep.Fact(labels[int(rng.integers(4))], +1 if rng.integers(2) else -1)
                if rng.integers(2):
                    ledger.record(fact)
                elif ledger.holds(fact):
                    ledger.purge(fact)
                assert len(ledger) <= capacity
        print("[PASS] criterion 11c: ledger budget invariant, 200 cases, seed 515151")

    def test_lift_statistics_equivalence_200(self):
        rng = np.random.default_rng(PROPERTY_SEED)
        for case in range(200):
            axis = ("Z", "X")[case % 2]
            mem = MemoryAssignment("f", pauli_observable(axis, "s"))
            lifted, _ = lift_observable(mem, name="lifted")
            conjugate = qsim.conjugate_observable(mem.recorded, "conj")
            system = random_state(QubitRegister(("s",)), rng)
            memory = qsim.basis_state(QubitRegister(("f",)), "0")
            evolved = apply_operator(
                tensor_product([memory, system]).reordered(mem.register),
                friend_unitary(mem),
                mem.targets,
            )
            for eig in (+1, -1):
                lifted_prob = np.vdot(
                    evolved.amplitudes, lifted.projector(eig) @ evolved.amplitudes
                ).real
                bare_prob = np.vdot(
                    system.amplitudes, conjugate.projector(eig) @ system.amplitudes
                ).real
                assert abs(lifted_prob - bare_prob) <= 1e-10
        print("[PASS] criterion 11d: lift statistics equivalence, 200 cases, seed 515151")
