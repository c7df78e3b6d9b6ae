"""Bounded ledgers, discharge rules, chain audits."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import contextuality
from wignerlab import epistemic as ep
from wignerlab import scenarios
from wignerlab.qsim import InvariantError


class TestLedger:
    def test_record_within_capacity(self):
        ledger = ep.KnowledgeLedger(2)
        assert ledger.record(ep.Fact("xA", -1)) is None
        assert ledger.record(ep.Fact("zB", -1, condition=("xA", -1))) is None
        assert len(ledger) == 2

    def test_purge_demand_at_capacity(self):
        ledger = ep.KnowledgeLedger(2)
        ledger.record(ep.Fact("xA", -1))
        ledger.record(ep.Fact("zB", -1, condition=("xA", -1)))
        demand = ledger.record(ep.Fact("zA", +1, condition=("zB", -1)))
        assert isinstance(demand, ep.PurgeDemand)
        assert len(demand.entries) == 2
        assert len(ledger) == 2

    def test_capacity_zero(self):
        ledger = ep.KnowledgeLedger(0)
        assert isinstance(ledger.record(ep.Fact("p", 1)), ep.PurgeDemand)

    def test_purge_then_retry(self):
        ledger = ep.KnowledgeLedger(1)
        first = ep.Fact("p", 1)
        ledger.record(first)
        incoming = ep.Fact("q", -1)
        assert isinstance(ledger.record(incoming), ep.PurgeDemand)
        ledger.purge(first)
        assert ledger.record(incoming) is None
        assert ledger.holds(incoming)

    def test_predictions_cannot_be_recorded(self):
        ledger = ep.KnowledgeLedger(2)
        with pytest.raises(TypeError, match="horizon"):
            ledger.record(ep.Prediction("p", 1, ()))

    def test_rerecording_is_free(self):
        ledger = ep.KnowledgeLedger(1)
        fact = ep.Fact("p", 1)
        assert ledger.record(fact) is None
        assert ledger.record(fact) is None
        assert len(ledger) == 1


FACTS = st.builds(
    ep.Fact,
    label=st.sampled_from(["p", "q", "r", "s"]),
    value=st.sampled_from([+1, -1]),
)
OPERATIONS = st.lists(st.tuples(st.sampled_from(["record", "purge"]), FACTS), max_size=40)


class TestBudgetInvariant:
    @settings(max_examples=200, derandomize=True)
    @given(capacity=st.integers(min_value=0, max_value=4), operations=OPERATIONS)
    def test_entry_count_never_exceeds_capacity(self, capacity, operations):
        ledger = ep.KnowledgeLedger(capacity)
        for op, fact in operations:
            if op == "record":
                demand = ledger.record(fact)
                if demand is not None:
                    assert len(ledger) == capacity
            elif ledger.holds(fact):
                ledger.purge(fact)
            assert len(ledger) <= capacity


class TestDischarge:
    def ledger_with(self, *facts):
        ledger = ep.KnowledgeLedger(len(facts))
        for fact in facts:
            assert ledger.record(fact) is None
        return ledger

    def test_basic_discharge(self):
        anchor = ep.Fact("xA", -1)
        conditional = ep.Fact("zB", -1, condition=("xA", -1))
        ledger = self.ledger_with(anchor, conditional)
        prediction = ep.discharge(ledger, conditional, anchor)
        assert (prediction.label, prediction.value) == ("zB", -1)

    def test_conditional_premise_refused(self):
        first = ep.Fact("zB", -1, condition=("xA", -1))
        second = ep.Fact("zA", +1, condition=("zB", -1))
        ledger = self.ledger_with(first, second)
        with pytest.raises(ep.DischargeRefusal) as err:
            ep.discharge(ledger, second, first)
        assert err.value.reason == "conditional premise"

    def test_condition_mismatch_refused(self):
        anchor = ep.Fact("xA", +1)
        conditional = ep.Fact("zB", -1, condition=("xA", -1))
        ledger = self.ledger_with(anchor, conditional)
        with pytest.raises(ep.DischargeRefusal) as err:
            ep.discharge(ledger, conditional, anchor)
        assert err.value.reason == "condition mismatch"

    def test_missing_fact_refused(self):
        anchor = ep.Fact("xA", -1)
        conditional = ep.Fact("zB", -1, condition=("xA", -1))
        ledger = self.ledger_with(anchor)
        with pytest.raises(ep.DischargeRefusal) as err:
            ep.discharge(ledger, conditional, anchor)
        assert err.value.reason == "missing fact"

    def test_correlation_discharge(self):
        corr = ep.CorrelationFact("A1", "B1", -1)
        anchor = ep.Fact("B1", +1)
        ledger = self.ledger_with(corr, anchor)
        prediction = ep.discharge(ledger, corr, anchor)
        assert (prediction.label, prediction.value) == ("A1", -1)


class TestCounterfactualAsymmetry:
    def test_unconditional_survives_anchor_removal(self):
        anchor = ep.Fact("xA", +1)
        partner = ep.Fact("xB", -1)
        ledger = ep.KnowledgeLedger(2, (anchor, partner))
        # Held outright: there is nothing to discharge, and purging the anchor leaves it held.
        with pytest.raises(ep.DischargeRefusal) as err:
            ep.discharge(ledger, partner, anchor)
        assert err.value.reason == "not conditional"
        ledger.purge(anchor)
        assert ledger.holds(partner)

    def test_conditional_prediction_dies_with_anchor(self):
        anchor = ep.Fact("xA", +1)
        conditional = ep.Fact("xB", -1, condition=("xA", +1))
        ledger = ep.KnowledgeLedger(2, (anchor, conditional))
        prediction = ep.discharge(ledger, conditional, anchor)
        assert (prediction.label, prediction.value) == ("xB", -1)
        ledger.purge(anchor)
        with pytest.raises(ep.DischargeRefusal) as err:
            ep.discharge(ledger, conditional, anchor)
        assert err.value.reason == "missing fact"


def fr_chain_steps(style: str):
    """The four-fact Hardy inference chain in auditable form."""
    implications = [
        scenarios.Implication(("A", -1), ("FB", -1), ("A", "FB")),
        scenarios.Implication(("FB", -1), ("FA", +1), ("FA", "FB")),
        scenarios.Implication(("FA", +1), ("B", +1), ("FA", "B")),
    ]
    return ep.steps_from_implications(implications, ("A", -1), style)


class TestChainAudit:
    def test_fr_chain_violates_at_second_conditional(self):
        report = ep.audit_inference_chain(2, fr_chain_steps("conditional"))
        assert not report.clean
        assert report.violation.kind == "purge-demand"
        assert report.violation.step_index == 1
        assert report.violation.entry == ep.Fact("FA", +1, condition=("FB", -1))
        # the first step went through: the prediction FB=-1 was available
        assert report.conclusions == (("FB", -1),)

    def test_relaxed_budget_unconditional_chain_is_clean(self):
        report = ep.audit_inference_chain(4, fr_chain_steps("absolute"))
        assert report.clean
        assert report.conclusions == (("A", -1), ("FB", -1), ("FA", +1), ("B", +1))

    def test_empty_chain_clean(self):
        report = ep.audit_inference_chain(2, [])
        assert report.clean
        assert report.conclusions == ()

    def test_chain_soundness_against_protocol_chainer(self):
        # unbounded budget with unconditional facts reproduces exactly the
        # conclusions of the budget-blind chainer on the same implications
        run = scenarios.run_fr_protocol(scenarios.build_hardy_scenario())
        chain = run.chain
        steps = ep.steps_from_implications(chain.steps, chain.seed, "absolute")
        report = ep.audit_inference_chain(100, steps)
        assert report.clean
        assert report.conclusions[0] == chain.seed
        assert report.conclusions[1:] == chain.conclusions


class TestPMEpistemicAudit:
    def test_parity_derivable_and_all_bindings_refused(self):
        import wignerlab.contextuality as ctx

        for c in ctx.valid_c_triples():
            audit = ep.pm_epistemic_audit(c, ctx.standard_square())
            assert audit.parity_derivable
            assert audit.required_a_parity == -1
            assert len(audit.bindings) == 12
            assert audit.all_bindings_refused
            assert {b.reason for b in audit.bindings} == {"conditional premise"}

    def test_relaxed_budget_binding_succeeds(self):
        audit = ep.pm_epistemic_audit((-1, -1, -1), contextuality.standard_square(), capacity=3)
        assert not audit.all_bindings_refused
        succeeded = [b for b in audit.bindings if not b.refused]
        assert len(succeeded) == 12
        binding = succeeded[0]
        assert binding.prediction is not None
        # anchoring B1=+1 on c1=-1 concludes A1=-1
        b1_plus = next(b for b in succeeded if b.anchor == ("B1", +1))
        assert (b1_plus.prediction.label, b1_plus.prediction.value) == ("A1", -1)

    def test_disagreeing_retrodiction_is_an_invariant_breach(self, monkeypatch):
        real = contextuality.retrodict_from_c
        monkeypatch.setattr(
            contextuality,
            "retrodict_from_c",
            lambda c, square: replace(real(c, square), required_a_parity=+1),
        )
        with pytest.raises(InvariantError, match="disagrees"):
            ep.pm_epistemic_audit((+1, +1, -1), contextuality.standard_square())

    def test_parity_underivable_when_the_ledger_holds_one_correlation(self):
        audit = ep.pm_epistemic_audit((+1, +1, -1), contextuality.standard_square(), capacity=1)
        assert not audit.parity_derivable
        assert audit.required_a_parity == 0
        assert audit.all_bindings_refused

    @pytest.mark.parametrize(
        "square, unset",
        [
            (contextuality.rows_only_square(), "colB"),
            (contextuality.PMSquare(col_targets=(+1, None, -1)), "colB"),
            (contextuality.PMSquare(row_targets=(+1, None, +1)), "row2"),
        ],
        ids=["rows-only", "colB-unset", "row2-unset"],
    )
    def test_unset_target_the_audit_reads_is_named(self, square, unset):
        with pytest.raises(ValueError, match=f"{unset} targets"):
            ep.pm_epistemic_audit((+1, +1, -1), square)

    def test_even_c_rejected(self):
        with pytest.raises(ValueError, match="column constraint"):
            ep.pm_epistemic_audit((+1, +1, +1), contextuality.standard_square())

    def test_ledger_parity_matches_the_retrodiction_on_every_target_table(self):
        """The correlations and B's parity come from the square: 64 tables, 4 C triples each."""
        checked = 0
        for targets in itertools.product((+1, -1), repeat=6):
            square = contextuality.PMSquare(row_targets=targets[:3], col_targets=targets[3:])
            for c in contextuality.valid_c_triples(square):
                audit = ep.pm_epistemic_audit(c, square)
                assert audit.required_a_parity != 0, (targets, c)
                assert audit.required_a_parity == contextuality.retrodict_from_c(c, square).required_a_parity
                checked += 1
        assert checked == 256
