"""Protocol-level tests: Hardy/two-Wigner runs and the three-agent square runs."""

import itertools

import numpy as np
import pytest

from wignerlab import qsim, scenarios
from wignerlab.friendify import friend_unitary, record_observable
from wignerlab.qsim import (
    QubitRegister,
    apply_operator,
    basis_state,
    branch_decompose,
    normalized_state,
    random_state,
    tensor_product,
)
from wignerlab.scenarios import (
    PM_SYSTEM,
    bell_state,
    build_hardy_scenario,
    build_pm_scenario,
    chain_inferences,
    extract_implications,
    hardy_state,
    pm_random_sweep,
    report_to_dict,
    run_fr_protocol,
    run_pm_protocol,
    signalling_factorization_check,
)

SEED = 90217

# No implication fires on this Hardy input, so its report has no `implications` key.
GENERIC_HARDY_INPUT = normalized_state(
    PM_SYSTEM,
    [
        0.30151134457776363,
        0.20100756305184242 + 0.502518907629606j,
        0.40201512610368484 - 0.30151134457776363j,
        0.6030226891555273,
    ],
)
REPORT_HEAD = ["schema", "kind", "register", "initial_state", "stages", "joint", "contradiction"]
PM_REPORT_TAIL = [
    "c_mode", "expectations", "square_constraints", "c_branches", "a_parity_even", "signalling", "factorization",
]


def records_of(branches):
    return {tuple(sorted(b.records.items())) for b in branches}


def friend_order(scenario):
    """The memories each friend stage records, in protocol order, spelled from the frame."""
    frame = scenario.frame
    if scenario.kind == "hardy":
        return [(frame.mem_a, frame.mem_b)]
    mems = frame.mems
    return [(mems["a1"], mems["a2"]), (mems["b2"], mems["b1"])]


def measure(psi, obs, eigenvalue):
    """Born probability of `eigenvalue` and the normalized post-measurement vector (dense oracle)."""
    component = obs.projector(eigenvalue) @ psi
    probability = float(np.vdot(component, component).real)
    return probability, component / np.sqrt(probability)


def run_stages(scenario, count):
    state = scenario.initial_state
    for stage in friend_order(scenario)[:count]:
        for mem in stage:
            state = apply_operator(state, friend_unitary(mem), mem.targets)
    return state


class TestHardyScenario:
    def test_initial_amplitudes(self):
        state = hardy_state()
        expected = np.array([1, 1, 1, 0]) / np.sqrt(3)
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_mixed_basis_coefficients(self):
        # coefficients of the shared state in the three mixed bases
        scenario = build_hardy_scenario()
        frame = scenario.frame
        post = run_stages(scenario, 1)

        def amplitudes(obs_pair):
            branches = branch_decompose(post, obs_pair)
            return {
                tuple(b.records[o.name] for o in obs_pair): b.amplitude for b in branches
            }

        lifted_z = amplitudes((frame.wigner_a, frame.friend_b))
        assert lifted_z.keys() == {(+1, +1), (+1, -1), (-1, -1)}
        assert lifted_z[(+1, +1)] == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        assert lifted_z[(+1, -1)] == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert lifted_z[(-1, -1)] == pytest.approx(1 / np.sqrt(6), abs=1e-12)

        z_lifted = amplitudes((frame.friend_a, frame.wigner_b))
        assert z_lifted.keys() == {(+1, +1), (-1, +1), (-1, -1)}
        assert z_lifted[(+1, +1)] == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
        assert z_lifted[(-1, +1)] == pytest.approx(1 / np.sqrt(6), abs=1e-12)
        assert z_lifted[(-1, -1)] == pytest.approx(1 / np.sqrt(6), abs=1e-12)

        both_lifted = amplitudes((frame.wigner_a, frame.wigner_b))
        root12 = np.sqrt(12)
        assert both_lifted[(+1, +1)] == pytest.approx(3 / root12, abs=1e-12)
        assert both_lifted[(+1, -1)] == pytest.approx(1 / root12, abs=1e-12)
        assert both_lifted[(-1, +1)] == pytest.approx(1 / root12, abs=1e-12)
        assert both_lifted[(-1, -1)] == pytest.approx(-1 / root12, abs=1e-12)

    def test_sequential_projective_measurement_gives_one_twelfth(self):
        scenario = build_hardy_scenario()
        frame = scenario.frame
        post = run_stages(scenario, 1)
        p_minus, post_minus = measure(post.amplitudes, frame.wigner_a, -1)
        assert p_minus == pytest.approx(2 / 12, abs=1e-12)
        p_minus_minus, _ = measure(post_minus, frame.wigner_b, -1)
        assert p_minus * p_minus_minus == pytest.approx(1 / 12, abs=1e-12)
        p_plus, post_plus = measure(post.amplitudes, frame.wigner_a, +1)
        p_plus_plus, _ = measure(post_plus, frame.wigner_b, +1)
        assert p_plus * p_plus_plus == pytest.approx(9 / 12, abs=1e-12)


class TestRunFRProtocol:
    def test_joint_probability_and_chain(self):
        report = run_fr_protocol(build_hardy_scenario())
        assert report.joint_distribution[(-1, -1)] == pytest.approx(1 / 12, abs=1e-12)
        assert report.chain.conclusions == (("FB", -1), ("FA", +1), ("B", +1))
        assert report.contradiction
        assert report_to_dict(report)["signalling"]["observed"] == ["FA", "FB", "A", "B"]

    def test_friend_records_match_state_support(self):
        report = run_fr_protocol(build_hardy_scenario())
        keys = records_of(report.stage_records["friends"])
        assert keys == {
            (("FA", 1), ("FB", 1)),
            (("FA", 1), ("FB", -1)),
            (("FA", -1), ("FB", 1)),
        }

    def test_product_state_has_no_contradiction(self):
        separable = basis_state(QubitRegister(("sA", "sB")), "00")
        report = run_fr_protocol(build_hardy_scenario(separable))
        assert not report.contradiction
        # the implication that fires the chain in the Hardy case is absent
        assert scenarios.Implication(("A", -1), ("FB", -1), ("A", "FB")) not in report.implications
        assert ("B", +1) not in report.chain.conclusions

    def test_wrong_scenario_kind_rejected(self):
        pm = build_pm_scenario(bell_state("phi+"))
        with pytest.raises(ValueError, match="hardy"):
            run_fr_protocol(pm)


class TestImplications:
    def test_hardy_lifted_z_implication(self):
        scenario = build_hardy_scenario()
        frame = scenario.frame
        post = run_stages(scenario, 1)
        implications = extract_implications(branch_decompose(post, (frame.wigner_a, frame.friend_b)))
        assert scenarios.Implication(("A", -1), ("FB", -1), ("A", "FB")) in implications

    def test_hardy_zz_implications(self):
        scenario = build_hardy_scenario()
        frame = scenario.frame
        post = run_stages(scenario, 1)
        implications = extract_implications(branch_decompose(post, (frame.friend_a, frame.friend_b)))
        assert scenarios.Implication(("FA", -1), ("FB", +1), ("FA", "FB")) in implications
        assert scenarios.Implication(("FB", -1), ("FA", +1), ("FA", "FB")) in implications

    def test_eigenstate_implies_everything(self):
        state = basis_state(QubitRegister(("a", "b")), "01")
        implications = extract_implications(
            branch_decompose(state, (qsim.pauli_observable("Z", "a"), qsim.pauli_observable("Z", "b")))
        )
        # single branch: each observed value implies the other
        pairs = {(i.antecedent, i.consequent) for i in implications}
        assert ((("Z[a]", +1)), ("Z[b]", -1)) in pairs
        assert ((("Z[b]", -1)), ("Z[a]", +1)) in pairs


class TestChainInferences:
    IMPLICATIONS = [
        scenarios.Implication(("A", -1), ("FB", -1), ("A", "FB")),
        scenarios.Implication(("FB", -1), ("FA", +1), ("FA", "FB")),
        scenarios.Implication(("FA", +1), ("B", +1), ("FA", "B")),
    ]

    def test_seed_minus_one_chains_to_b(self):
        chain = chain_inferences(self.IMPLICATIONS, ("A", -1))
        assert chain.conclusions == (("FB", -1), ("FA", +1), ("B", +1))
        assert [s.antecedent for s in chain.steps] == [("A", -1), ("FB", -1), ("FA", +1)]

    def test_empty_implications(self):
        assert chain_inferences([], ("A", -1)).conclusions == ()

    def test_seed_plus_one_fires_nothing(self):
        assert chain_inferences(self.IMPLICATIONS, ("A", +1)).conclusions == ()

    def test_cycles_close_without_repetition(self):
        loop = [
            scenarios.Implication(("p", 1), ("q", 1), ("p", "q")),
            scenarios.Implication(("q", 1), ("p", 1), ("p", "q")),
        ]
        chain = chain_inferences(loop, ("p", 1))
        assert chain.conclusions == (("q", 1),)


def product_state(sz: int, sx: int):
    z_states = {+1: [1, 0], -1: [0, 1]}
    x_states = {+1: [1, 1], -1: [1, -1]}
    return tensor_product(
        [
            normalized_state(QubitRegister(("s1",)), z_states[sz]),
            normalized_state(QubitRegister(("s2",)), x_states[sx]),
        ]
    )


class TestPMScenario:
    def test_post_a_state_is_tagged_product(self):
        scenario = build_pm_scenario(product_state(+1, -1))
        post_a = run_stages(scenario, 1)
        # |z1+ x2->: memory a1 stays +, a2 flips to -
        expected = tensor_product(
            [
                product_state(+1, -1),
                basis_state(QubitRegister(("a1", "a2")), "01"),
                basis_state(QubitRegister(("b1", "b2")), "00"),
            ]
        ).reordered(scenario.frame.register)
        assert post_a.fidelity(expected) == pytest.approx(1.0, abs=1e-10)

    def test_bbase_branch_amplitudes(self):
        # the tagged product state against the level-2 basis: (1/2, -1/2, 1/2, -1/2)
        frame = scenarios.build_pm_frame()
        xbar1 = frame.mems["b1"].recorded
        zbar2 = frame.mems["b2"].recorded
        state = tensor_product(
            [
                basis_state(QubitRegister(("a1",)), "0"),
                basis_state(QubitRegister(("a2",)), "1"),
                product_state(+1, -1),
            ]
        )
        branches = branch_decompose(state, (xbar1, zbar2))
        amps = {
            (b.records[xbar1.name], b.records[zbar2.name]): b.amplitude for b in branches
        }
        assert amps[(+1, +1)] == pytest.approx(+0.5, abs=1e-12)
        assert amps[(+1, -1)] == pytest.approx(-0.5, abs=1e-12)
        assert amps[(-1, +1)] == pytest.approx(+0.5, abs=1e-12)
        assert amps[(-1, -1)] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("sz,sx", list(itertools.product((+1, -1), repeat=2)))
    def test_coo_end_to_end(self, sz, sx):
        frame = scenarios.build_pm_frame()
        scenario = build_pm_scenario(product_state(sz, sx))
        post_b = run_stages(scenario, 2)
        z_sub = frame.double1.z[1]
        x_sub = frame.double2.x[1]
        target = tensor_product(
            [
                z_sub.basis_plus if sz == +1 else z_sub.basis_minus,
                x_sub.basis_plus if sx == +1 else x_sub.basis_minus,
            ]
        ).reordered(scenario.frame.register)
        assert post_b.fidelity(target) == pytest.approx(1.0, abs=1e-10)

    def test_bell_state_transports_to_lifted_bell(self):
        frame = scenarios.build_pm_frame()
        scenario = build_pm_scenario(bell_state("phi+"))
        post_b = run_stages(scenario, 2)
        plus = tensor_product([frame.double1.z[1].basis_plus, frame.double2.z[1].basis_plus])
        minus = tensor_product([frame.double1.z[1].basis_minus, frame.double2.z[1].basis_minus])
        target = qsim.StateVector(
            plus.register, (plus.amplitudes + minus.amplitudes) / np.sqrt(2)
        ).reordered(scenario.frame.register)
        assert post_b.fidelity(target) == pytest.approx(1.0, abs=1e-10)

    def test_friend_stage_does_not_disturb_compatible_lifts(self):
        # recording the chain-1 lift leaves both lifted distributions alone
        frame = scenarios.build_pm_frame()
        rng = np.random.default_rng(SEED)
        xbar1 = frame.mems["b1"].recorded.embedded(scenarios.PM_REGISTER)
        zbar2 = frame.mems["b2"].recorded.embedded(scenarios.PM_REGISTER)
        mem = frame.mems["b1"]  # B2: chain-1 record
        assert list(frame.stages["B"].records[0])[:2] == ["B1", "B2"]
        readout = record_observable(mem, "B2").embedded(scenarios.PM_REGISTER)
        assert np.array_equal(readout.matrix(), frame.readouts["B2"].matrix())
        for _ in range(10):
            scenario = build_pm_scenario(random_state(PM_SYSTEM, rng))
            post_a = run_stages(scenario, 1)
            evolved = apply_operator(post_a, friend_unitary(mem), mem.targets)
            for obs in (xbar1, zbar2):
                before = [measure(post_a.amplitudes, obs, eig)[0] for eig in obs.eigenvalues]
                after = [measure(evolved.amplitudes, obs, eig)[0] for eig in obs.eigenvalues]
                assert np.allclose(before, after, atol=1e-10)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="c_mode"):
            build_pm_scenario(bell_state("phi+"), c_mode="sampled")


class TestRunPMProtocol:
    def test_worked_example_records(self):
        report = run_pm_protocol(build_pm_scenario(product_state(+1, -1)))
        assert records_of(report.stage_records["A"]) == {
            (("A1", 1), ("A2", -1), ("A3", -1))
        }
        # a logical product state spreads uniformly over the four valid C tuples
        assert set(report.joint_distribution) == {
            (1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1)
        }
        for prob in report.joint_distribution.values():
            assert prob == pytest.approx(0.25, abs=1e-10)

    def test_a_branches_always_even_parity(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            report = run_pm_protocol(build_pm_scenario(random_state(PM_SYSTEM, rng)))
            for record in report.stage_records["A"]:
                values = [record.records[k] for k in ("A1", "A2", "A3")]
                assert values.count(-1) % 2 == 0
            assert report.a_parity_even

    def test_c_outcomes_satisfy_column_constraint(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            report = run_pm_protocol(build_pm_scenario(random_state(PM_SYSTEM, rng)))
            for outcome, prob in report.joint_distribution.items():
                assert outcome[0] * outcome[1] * outcome[2] == -1
                assert prob > 0
            assert report.expectations["C1*C2*C3"] == pytest.approx(-1.0, abs=1e-10)

    def test_contradiction_for_bell_and_random_states(self):
        for name in ("phi+", "phi-", "psi+", "psi-"):
            report = run_pm_protocol(build_pm_scenario(bell_state(name)))
            assert report.contradiction
        for report in pm_random_sweep(count=5, seed=SEED):
            assert report.contradiction

    def test_retrodicted_parity_odd_in_every_branch(self):
        report = run_pm_protocol(build_pm_scenario(bell_state("psi-")))
        for branch in report.c_branches:
            assert branch.retrodiction.required_a_parity == -1
            assert branch.contradiction

    def test_expectation_only_mode(self):
        report = run_pm_protocol(
            build_pm_scenario(bell_state("phi+"), c_mode="expectation-only")
        )
        assert report.joint_distribution == {}
        assert len(report.c_branches) == 4
        doc = report_to_dict(report)
        assert all(b["probability"] is None for b in doc["c_branches"])
        assert all(b.contradiction for b in report.c_branches)
        assert report.contradiction
        assert doc["signalling"]["observed"] == ["A", "B"]
        assert report.factorization.schmidt_rank == 1

    def test_expectations_for_bell_input(self):
        report = run_pm_protocol(build_pm_scenario(bell_state("phi+")))
        assert report.expectations["C1"] == pytest.approx(+1.0, abs=1e-10)
        assert report.expectations["C2"] == pytest.approx(+1.0, abs=1e-10)
        assert report.expectations["C3"] == pytest.approx(-1.0, abs=1e-10)


class TestFactorization:
    def test_rank_one_on_real_runs(self):
        for name in ("phi+", "psi+"):
            report = run_pm_protocol(build_pm_scenario(bell_state(name)))
            assert report.factorization.schmidt_rank == 1
            assert report.factorization.factorizes

    def test_corrupted_record_entangles(self):
        report = run_pm_protocol(build_pm_scenario(product_state(+1, +1)))
        assert len(report.c_branches) == 4
        flags = [True] * len(report.c_branches)
        flags[0] = False
        verdict = signalling_factorization_check(report, flags=flags)
        assert verdict.schmidt_rank == 2
        assert not verdict.factorizes

    def test_flag_count_validated(self):
        report = run_pm_protocol(build_pm_scenario(bell_state("phi+")))
        with pytest.raises(ValueError, match="one flag"):
            signalling_factorization_check(report, flags=[True, False])


class TestSerialization:
    def test_report_dict_shape(self):
        report = run_pm_protocol(build_pm_scenario(bell_state("phi+")))
        doc = report_to_dict(report)
        assert doc["schema"] == "wignerlab-report/1"
        assert doc["kind"] == "peres-mermin"
        assert doc["square_constraints"]["colC"] == pytest.approx(-1.0)
        assert doc["c_branches"][0]["outcome"] == "++-"
        assert doc["factorization"]["schmidt_rank"] == 1
        amp = doc["stages"]["A"][0]["amplitude"]
        assert isinstance(amp, list) and len(amp) == 2

    @pytest.mark.parametrize(
        "run, tail",
        [
            (lambda: run_fr_protocol(build_hardy_scenario()), ["implications", "chain", "signalling"]),
            (lambda: run_fr_protocol(build_hardy_scenario(GENERIC_HARDY_INPUT)), ["chain", "signalling"]),
            (lambda: run_pm_protocol(build_pm_scenario(bell_state("phi+"))), PM_REPORT_TAIL),
            (
                lambda: run_pm_protocol(build_pm_scenario(bell_state("phi+"), "expectation-only")),
                PM_REPORT_TAIL,
            ),
        ],
        ids=["hardy", "hardy-no-implications", "pm-projective", "pm-expectation-only"],
    )
    def test_top_level_key_order(self, run, tail):
        assert list(report_to_dict(run())) == REPORT_HEAD + tail
