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

SIGNS = (+1, -1)


# --------------------------------------------------------------------------
# Property calculus on a four-microstate phase space.


@dataclass(frozen=True)
class PropertySpace:
    """Phase space of a two-property system: four microstates."""

    microstates: tuple[str, ...] = ("00", "01", "10", "11")

    def make(self, name: str, plus) -> "Property":
        plus = frozenset(plus)
        if not plus <= set(self.microstates):
            raise ValueError(f"plus set {sorted(plus)} not within microstates")
        return Property(name, self, plus)


@dataclass(frozen=True)
class Property:
    """Dichotomic property given by its +1 microstate subset."""

    name: str
    space: PropertySpace
    plus: frozenset

    @property
    def minus(self) -> frozenset:
        return frozenset(self.space.microstates) - self.plus

    def value(self, microstate: str) -> int:
        return +1 if microstate in self.plus else -1


def standard_space() -> tuple[PropertySpace, dict[str, Property]]:
    """The canonical elementary system: m1, m2 and their combination m12."""
    space = PropertySpace()
    m1 = space.make("m1", {"00", "01"})
    m2 = space.make("m2", {"00", "10"})
    return space, {"m1": m1, "m2": m2, "m12": xor_combine(m1, m2, name="m12")}


def xor_combine(p1: Property, p2: Property, convention: str = "agree", name: str = "") -> Property:
    """Combine two properties into their relative-value property.

    convention "agree" (default): +1 exactly where p1 and p2 take the same
    value, so m1 (+) m2 has plus set {00, 11} on the standard space.
    convention "differ" is the complementary composite-system reading (+1
    where the two values are opposite).  Both are exposed because both appear
    in practice; they differ only by an overall sign.
    """
    if p1.space != p2.space:
        raise ValueError("properties live on different spaces")
    if convention not in ("agree", "differ"):
        raise ValueError(f"convention must be 'agree' or 'differ', got {convention!r}")
    same = frozenset(
        s for s in p1.space.microstates if (s in p1.plus) == (s in p2.plus)
    )
    plus = same if convention == "agree" else frozenset(p1.space.microstates) - same
    return Property(name or f"({p1.name}^{p2.name})", p1.space, plus)


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


def predictions_supported(ledger: KnowledgeLedger) -> set[tuple[str, int]]:
    """All (label, value) pairs retrievable or dischargeable from the ledger."""
    supported = set()
    anchors = [e for e in ledger.entries if isinstance(e, Fact) and not e.conditional]
    for anchor in anchors:
        supported.add((anchor.label, anchor.value))
    for entry in ledger.entries:
        for anchor in anchors:
            try:
                pred = discharge(ledger, entry, anchor)
            except DischargeRefusal:
                continue
            supported.add((pred.label, pred.value))
    return supported


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


def pm_epistemic_audit(c, capacity: int = 2) -> PMEpistemicReport:
    """Audit what the outermost agent's outcomes let them conclude.

    Each c_i is the correlational fact "A_i and B_i agree iff c_i = +1".  Two
    of these are recorded (the third is their product under the column
    constraint, so it costs no extra bit).  The parity of A's outcomes is
    derivable from the correlations alone; attaching a definite value to any
    single A_i or B_i requires an anchor the ledger cannot hold at the
    default capacity, so every such binding is refused.
    """
    c = tuple(int(v) for v in c)
    parity = c[0] * c[1] * c[2]
    if parity != -1:
        raise ValueError(f"C triple {c} violates the column constraint c1*c2*c3 = -1")
    correlations = {
        1: CorrelationFact("A1", "B1", c[0]),
        2: CorrelationFact("A2", "B2", c[1]),
        3: CorrelationFact("A3", "B3", c[2]),
    }
    ledger = KnowledgeLedger(capacity)
    for row in (1, 2):
        demand = ledger.record(correlations[row])
        if demand is not None:
            raise ValueError(f"capacity {capacity} cannot hold the two correlational facts")

    # parity(A) = parity(B) * (c1*c2*c3); with B's column constraint (+1) this
    # pins A's parity to the product of the correlations, i.e. odd.
    required_a_parity = parity
    parity_derivable = True

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
