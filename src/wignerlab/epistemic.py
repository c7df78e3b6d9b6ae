"""Information-budget bookkeeping for multi-agent inference chains.

An agent's knowledge about a system is a capacity-bounded ledger of one-bit
facts.  Facts are either unconditional values, conditional values (definite
only relative to an anchor value), or correlations between two values.
Conditional knowledge can be discharged into a prediction when its anchor is
held unconditionally, but a prediction is not a fact: it cannot be recorded
and cannot anchor further discharges.  That asymmetry, together with the
capacity bound, is what the chain auditors check.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import contextuality
from .qsim import InvariantError

SIGNS = (+1, -1)


# --------------------------------------------------------------------------
# Facts, predictions, ledgers.


@dataclass(frozen=True)
class Fact:
    """One bit of knowledge: label has the given value, possibly only
    conditional on another (label, value) pair."""

    label: str
    value: int
    condition: tuple[str, int] | None = None

    @property
    def conditional(self) -> bool:
        return self.condition is not None

    def __str__(self):
        base = f"{self.label}={self.value:+d}"
        if self.condition:
            return f"{base}|{self.condition[0]}={self.condition[1]:+d}"
        return base


@dataclass(frozen=True)
class CorrelationFact:
    """One bit recording whether two values agree (+1) or disagree (-1)."""

    label_a: str
    label_b: str
    value: int

    def partner(self, label: str) -> str:
        if label == self.label_a:
            return self.label_b
        if label == self.label_b:
            return self.label_a
        raise KeyError(f"{label!r} is not part of correlation {self}")

    def __str__(self):
        rel = "==" if self.value == +1 else "!="
        return f"({self.label_a}{rel}{self.label_b})"


LedgerEntry = Fact | CorrelationFact


@dataclass(frozen=True)
class Prediction:
    """Discharged conclusion; lives outside the ledger and costs no bits."""

    label: str
    value: int
    via: tuple

    def __str__(self):
        return f"predict {self.label}={self.value:+d}"


@dataclass(frozen=True)
class PurgeDemand:
    """Recording was refused: the ledger is full and the caller must purge first."""

    entries: tuple
    incoming: LedgerEntry


class DischargeRefusal(Exception):
    """A discharge was refused; `reason` says why."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class KnowledgeLedger:
    """Capacity-bounded fact store; each entry costs exactly one bit."""

    def __init__(self, capacity: int, entries=()):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._entries: list[LedgerEntry] = []
        for entry in entries:
            demand = self.record(entry)
            if demand is not None:
                raise ValueError(f"initial entries exceed capacity {capacity}")

    @property
    def entries(self) -> tuple:
        return tuple(self._entries)

    def __len__(self):
        return len(self._entries)

    def holds(self, entry: LedgerEntry) -> bool:
        return entry in self._entries

    def record(self, entry: LedgerEntry) -> PurgeDemand | None:
        """Append an entry, or return a PurgeDemand if at capacity. No eviction."""
        if isinstance(entry, Prediction):
            raise TypeError("predictions cannot be recorded as facts; that is the horizon")
        if not isinstance(entry, (Fact, CorrelationFact)):
            raise TypeError(f"cannot record {type(entry).__name__}")
        if entry in self._entries:
            return None
        if len(self._entries) >= self.capacity:
            return PurgeDemand(self.entries, entry)
        self._entries.append(entry)
        return None

    def purge(self, entry: LedgerEntry) -> None:
        try:
            self._entries.remove(entry)
        except ValueError:
            raise ValueError(f"ledger does not hold {entry}") from None

    def copy(self) -> "KnowledgeLedger":
        fresh = KnowledgeLedger(self.capacity)
        fresh._entries = list(self._entries)
        return fresh


def discharge(ledger: KnowledgeLedger, conditional: LedgerEntry, anchor: Fact) -> Prediction:
    """Turn held conditional knowledge plus its unconditional anchor into a prediction.

    Refuses when the anchor is itself conditional (reason "conditional
    premise"), when the anchor does not match the condition (reason
    "condition mismatch"), or when either entry is not in the ledger.
    """
    if not ledger.holds(conditional):
        raise DischargeRefusal("missing fact", f"{conditional} is not in the ledger")
    if not ledger.holds(anchor):
        raise DischargeRefusal("missing fact", f"{anchor} is not in the ledger")
    if not isinstance(anchor, Fact) or anchor.conditional:
        raise DischargeRefusal("conditional premise", f"anchor {anchor} is not unconditional")
    if isinstance(conditional, Fact):
        if not conditional.conditional:
            raise DischargeRefusal("not conditional", f"{conditional} has no condition")
        if conditional.condition != (anchor.label, anchor.value):
            raise DischargeRefusal(
                "condition mismatch",
                f"{conditional} is not anchored by {anchor}",
            )
        return Prediction(conditional.label, conditional.value, (conditional, anchor))
    if isinstance(conditional, CorrelationFact):
        try:
            partner = conditional.partner(anchor.label)
        except KeyError:
            raise DischargeRefusal(
                "condition mismatch", f"{conditional} does not involve {anchor.label}"
            ) from None
        return Prediction(partner, conditional.value * anchor.value, (conditional, anchor))
    raise DischargeRefusal("not conditional", f"cannot discharge {conditional}")


# --------------------------------------------------------------------------
# Chain auditing.


@dataclass(frozen=True)
class ChainStep:
    """One inference step: facts consumed, conclusion drawn."""

    uses: tuple
    concludes: tuple[str, int]


@dataclass(frozen=True)
class Violation:
    step_index: int
    kind: str  # "purge-demand" | "conditional-premise" | "condition-mismatch" | "underivable"
    entry: LedgerEntry | None
    detail: str


@dataclass(frozen=True)
class ChainAuditReport:
    capacity: int
    conclusions: tuple[tuple[str, int], ...]
    violation: Violation | None

    @property
    def clean(self) -> bool:
        return self.violation is None


def audit_inference_chain(capacity: int, steps) -> ChainAuditReport:
    """Replay an inference chain against a fresh ledger of the given capacity.

    Each step first records its consumed facts (a full ledger yields a
    purge-demand violation: the replay never evicts silently), then derives
    its conclusion by retrieval or discharge from the consumed facts.  The
    first violation ends the audit.
    """
    ledger = KnowledgeLedger(capacity)
    conclusions: list[tuple[str, int]] = []
    for index, step in enumerate(steps):
        for entry in step.uses:
            if ledger.holds(entry):
                continue
            demand = ledger.record(entry)
            if demand is not None:
                return ChainAuditReport(
                    capacity,
                    tuple(conclusions),
                    Violation(
                        index,
                        "purge-demand",
                        entry,
                        f"recording {entry} exceeds the {capacity}-bit budget",
                    ),
                )
        violation = _derive(ledger, step, index, conclusions)
        if violation is not None:
            return ChainAuditReport(capacity, tuple(conclusions), violation)
    return ChainAuditReport(capacity, tuple(conclusions), None)


def _derive(ledger, step, index, conclusions) -> Violation | None:
    label, value = step.concludes
    for entry in step.uses:
        if isinstance(entry, Fact) and not entry.conditional:
            if (entry.label, entry.value) == (label, value):
                conclusions.append((label, value))
                return None
    mismatch: Violation | None = None
    for entry in step.uses:
        if isinstance(entry, Fact) and entry.conditional and (entry.label, entry.value) == (label, value):
            anchors = [u for u in step.uses if isinstance(u, Fact) and u is not entry]
        elif isinstance(entry, CorrelationFact) and label in (entry.label_a, entry.label_b):
            anchors = [u for u in step.uses if isinstance(u, Fact)]
        else:
            continue
        for anchor in anchors:
            try:
                pred = discharge(ledger, entry, anchor)
            except DischargeRefusal as refusal:
                kind = (
                    "conditional-premise"
                    if refusal.reason == "conditional premise"
                    else "condition-mismatch"
                )
                mismatch = Violation(index, kind, entry, str(refusal))
                continue
            if (pred.label, pred.value) == (label, value):
                conclusions.append((label, value))
                return None
    if mismatch is not None:
        return mismatch
    return Violation(index, "underivable", None, f"no step fact yields {label}={value:+d}")


def steps_from_implications(ordered_implications, seed: tuple[str, int], style: str) -> list[ChainStep]:
    """Encode a fired implication chain as auditable steps.

    `ordered_implications` are the implications in firing order (each has
    .antecedent and .consequent (label, value) pairs; the first antecedent is
    the seed).  style "conditional" records each link as a conditional fact
    that must be discharged against its anchor; style "absolute" records every
    conclusion as a new unconditional fact, which is the budget-blind reading.
    """
    if style not in ("conditional", "absolute"):
        raise ValueError(f"style must be 'conditional' or 'absolute', got {style!r}")
    steps: list[ChainStep] = []
    seed_fact = Fact(seed[0], seed[1])
    if style == "absolute":
        steps.append(ChainStep((seed_fact,), seed))
    for imp in ordered_implications:
        ante = tuple(imp.antecedent)
        cons = tuple(imp.consequent)
        if style == "conditional":
            conditional = Fact(cons[0], cons[1], condition=ante)
            anchor = Fact(ante[0], ante[1])
            steps.append(ChainStep((conditional, anchor), cons))
        else:
            steps.append(ChainStep((Fact(cons[0], cons[1]),), cons))
    return steps


# --------------------------------------------------------------------------
# The three-agent square audit.


@dataclass(frozen=True)
class BindingAttempt:
    row: int
    anchor: tuple[str, int]
    target: tuple[str, int]
    refused: bool
    reason: str
    prediction: Prediction | None


@dataclass(frozen=True)
class PMEpistemicReport:
    c: tuple[int, int, int]
    capacity: int
    required_a_parity: int
    parity_derivable: bool
    bindings: tuple[BindingAttempt, ...]

    @property
    def all_bindings_refused(self) -> bool:
        return all(b.refused for b in self.bindings)


def pm_epistemic_audit(c, square: contextuality.PMSquare, capacity: int = 2) -> PMEpistemicReport:
    """Audit what the outermost agent's outcomes let them conclude.

    Row i of `square` (a table with every row and colB target set, such as a
    frame's proved square) makes c_i times its target the correlational fact
    "A_i and B_i agree iff that product is +1".  Two of these are recorded
    (the third follows from them under the column constraints, so it costs no
    extra bit).  The parity of A's outcomes is derived from the correlations
    the ledger holds and colB's target, and cross-checked against the
    exhaustive retrodiction over `square`; a ledger too small for both leaves
    it underivable (0).  Attaching a definite value to any single A_i or B_i
    requires an anchor the ledger cannot hold at the default capacity, so
    every such binding is refused.
    """
    unset = [name for name, target, _ in square.lines if target is None and name not in ("colA", "colC")]
    if unset:
        raise ValueError(f"the audit reads the square's {', '.join(unset)} targets, which are unset")
    c = tuple(int(v) for v in c)
    retrodicted = contextuality.retrodict_from_c(c, square).required_a_parity  # rejects an invalid c
    correlations = {
        row: CorrelationFact(f"A{row}", f"B{row}", c[row - 1] * square.row_targets[row - 1])
        for row in (1, 2, 3)
    }
    ledger = KnowledgeLedger(capacity)
    for row in (1, 2):
        ledger.record(correlations[row])  # a full ledger refuses the fact
    held = [correlations[row] for row in (1, 2) if ledger.holds(correlations[row])]
    parity_derivable = len(held) == 2

    # parity(A) = parity(B) times the three correlations, and parity(B) is colB's target.
    required_a_parity = 0
    if parity_derivable:
        required_a_parity = held[0].value * held[1].value * correlations[3].value * square.col_targets[1]
        if required_a_parity != retrodicted:
            raise InvariantError(
                f"ledger parity {required_a_parity:+d} for C triple {c} disagrees with "
                f"the retrodicted parity {retrodicted:+d}"
            )

    # 12 attempts: anchor each of A1..A3, B1..B3 with each sign and try to
    # conclude the row partner's value.  Row 3's correlation is the product of
    # the two held ones, so it is usable without costing a bit of its own.
    bindings = []
    for row in (1, 2, 3):
        corr = correlations[row]
        for anchor_label in (corr.label_b, corr.label_a):
            for value in SIGNS:
                bindings.append(
                    _attempt_binding(ledger, corr, anchor_label, value, row, derived=row == 3)
                )
    return PMEpistemicReport(c, capacity, required_a_parity, parity_derivable, tuple(bindings))


def _attempt_binding(ledger, corr, anchor_label, value, row, derived) -> BindingAttempt:
    target = (corr.partner(anchor_label), corr.value * value)
    scratch = ledger.copy()
    anchor = Fact(anchor_label, value)
    demand = scratch.record(anchor)
    if demand is not None:
        # The value is only available conditionally; holding it outright would
        # exceed the budget.
        return BindingAttempt(row, (anchor_label, value), target, True, "conditional premise", None)
    if derived:
        pred = Prediction(target[0], target[1], (corr, anchor))
        return BindingAttempt(row, (anchor_label, value), target, False, "", pred)
    try:
        pred = discharge(scratch, corr, anchor)
    except DischargeRefusal as refusal:
        return BindingAttempt(row, (anchor_label, value), target, True, refusal.reason, None)
    return BindingAttempt(row, (anchor_label, value), target, False, "", pred)
