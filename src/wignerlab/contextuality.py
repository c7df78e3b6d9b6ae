"""Classical constraint logic of the Peres-Mermin square.

`PMSquare` is the one table of the six line targets: every check walks its
lines, and every verdict filters an exhaustive enumeration of the (at most
512) sign assignments meeting them; no algebraic shortcuts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .qsim import (
    STRUCT_TOL,
    InvariantError,
    QubitRegister,
    SpectralObservable,
    identity_observable,
    max_commutator,
    pauli_observable,
    tensor_product,
)

SIGNS = (+1, -1)

# Grid layout: grid[row][col], columns ordered (A, B, C).
ROW_LABELS = (("A1", "B1", "C1"), ("A2", "B2", "C2"), ("A3", "B3", "C3"))


@dataclass(frozen=True)
class PMSquare:
    """3x3 grid of observable labels with row/column product targets.

    A target of None leaves that line unconstrained (used for the rows-only
    variant of the argument).
    """

    labels: tuple[tuple[str, str, str], ...] = ROW_LABELS
    row_targets: tuple[int | None, int | None, int | None] = (+1, +1, +1)
    col_targets: tuple[int | None, int | None, int | None] = (+1, +1, -1)

    @functools.cached_property
    def lines(self) -> tuple[tuple[str, int | None, tuple[tuple[int, int], ...]], ...]:
        """(name, target, cells) of rows 1-3, then columns A-C; a cell is (row, col)."""
        rows = [(f"row{i + 1}", t, ((i, 0), (i, 1), (i, 2))) for i, t in enumerate(self.row_targets)]
        cols = [(f"col{'ABC'[j]}", t, ((0, j), (1, j), (2, j))) for j, t in enumerate(self.col_targets)]
        return tuple(rows + cols)


def standard_square() -> PMSquare:
    """Row products +1, column products (+1, +1, -1): the full constraint set."""
    return PMSquare()


def rows_only_square() -> PMSquare:
    return PMSquare(col_targets=(None, None, None))


def _freed(square: PMSquare, col: int) -> PMSquare:
    """`square` without column `col`'s target: that column's parity is the question."""
    targets = tuple(None if j == col else t for j, t in enumerate(square.col_targets))
    return replace(square, col_targets=targets)


@dataclass(frozen=True)
class PMAssignment:
    """One +/-1 value per grid cell, row-major."""

    values: tuple[tuple[int, int, int], ...]

    def col(self, j: int) -> tuple[int, int, int]:
        return tuple(self.values[i][j] for i in range(3))


@functools.lru_cache(maxsize=16)
def _assignments(square: PMSquare) -> tuple[PMAssignment, ...]:
    # Rows meeting their targets (64 combinations when all are set), filtered by column.
    triples = list(itertools.product(SIGNS, repeat=3))
    per_row = [[t for t in triples if r is None or math.prod(t) == r] for r in square.row_targets]
    columns = square.lines[3:]
    return tuple(
        PMAssignment(v)
        for v in itertools.product(*per_row)
        if all(t is None or math.prod(v[i][j] for i, j in cells) == t for _, t, cells in columns)
    )


def enumerate_assignments(square: PMSquare) -> list[PMAssignment]:
    """Every sign assignment satisfying the square's targets, in the order of a scan of all 512."""
    return list(_assignments(square))


@dataclass(frozen=True)
class LineCheck:
    """A line's measured value and sign, and its deviation from sign * support."""

    line: str
    value: float
    sign: int
    deviation: float


@dataclass(frozen=True)
class SquareReport:
    commutation_ok: bool
    max_commutator: float
    lines: tuple[LineCheck, ...]
    tol: float

    def proved(self) -> PMSquare:
        """The square whose targets are the measured signs, once every line is a +/-1 identity."""
        failed = {line.line: line.deviation for line in self.lines if not line.deviation <= self.tol}
        if failed or not self.commutation_ok:
            raise InvariantError(
                f"square lines {failed} are not +/-1 identities or do not commute "
                f"(max commutator {self.max_commutator:.3g})"
            )
        signs = tuple(line.sign for line in self.lines)
        return PMSquare(row_targets=signs[:3], col_targets=signs[3:])


def verify_square_constraints(operators, tol: float = STRUCT_TOL) -> SquareReport:
    """Check row/column commutation and measure the six product constraints of a 3x3 grid.

    `operators` is a 3x3 row-major grid of SpectralObservables on a common
    register.  Each line's operator product must equal sign * S, where S is
    the product of the three supports (the subspace the line is jointly
    defined on) and sign that of its normalized trace; this evaluates the
    constraint on every reachable state at once.
    """
    grid = [list(row) for row in operators]
    if len(grid) != 3 or any(len(row) != 3 for row in grid):
        raise ValueError("expected a 3x3 grid of observables")
    register = grid[0][0].register
    for row in grid:
        for obs in row:
            if obs.register.labels != register.labels:
                raise ValueError(
                    f"observable {obs.name!r} lives on {obs.register.labels}, "
                    f"expected {register.labels}"
                )

    max_comm = 0.0
    checks = []
    for line_name, _, cells in standard_square().lines:
        members = [grid[i][j] for i, j in cells]
        mats = [m.matrix() for m in members]
        max_comm = max(max_comm, max_commutator(mats)[0])
        product = functools.reduce(np.matmul, mats)
        support = functools.reduce(np.matmul, [m.support for m in members])
        value = float(np.trace(product).real / max(np.trace(support).real, 1.0))
        sign = +1 if value >= 0 else -1
        deviation = float(np.max(np.abs(product - sign * support)))
        checks.append(LineCheck(line_name, value, sign, deviation))

    return SquareReport(max_comm <= tol, max_comm, tuple(checks), tol)


def unbarred_square(labels: tuple[str, str] = ("s1", "s2")) -> list[list[SpectralObservable]]:
    """The plain two-qubit Peres-Mermin operator grid (no friend levels)."""
    l1, l2 = labels

    def single(p: str, lbl: str) -> SpectralObservable:
        if p == "I":
            return identity_observable(QubitRegister((lbl,)))
        return pauli_observable(p, lbl)

    def two_qubit(p1: str, p2: str, name: str) -> SpectralObservable:
        return tensor_product([single(p1, l1), single(p2, l2)]).renamed(name)

    return [
        [two_qubit("Z", "I", "A1"), two_qubit("I", "Z", "B1"), two_qubit("Z", "Z", "C1")],
        [two_qubit("I", "X", "A2"), two_qubit("X", "I", "B2"), two_qubit("X", "X", "C2")],
        [two_qubit("Z", "X", "A3"), two_qubit("X", "Z", "B3"), two_qubit("Y", "Y", "C3")],
    ]


@dataclass(frozen=True)
class RetrodictionVerdict:
    """What an observed C triple forces about A's outcomes.

    required_a_parity is -1 (odd count of -1s) or +1 (even) when forced by the
    consistent completions, 0 when both parities occur.  parity_pairs lists the
    (parity_a, parity_b) combinations seen across all consistent pairs.
    """

    c: tuple[int, int, int]
    required_a_parity: int
    consistent_pairs: int
    parity_pairs: frozenset


def retrodict_from_c(c, square: PMSquare | None = None) -> RetrodictionVerdict:
    """Infer A's parity from C's outcome triple over the square's assignments with that C column.

    A's own column target is dropped (its parity is the question); `square`
    defaults to the standard one.  Without B's column target the row
    relations c_i = a_i * b_i still forbid A and B from both having odd parity.
    """
    square = standard_square() if square is None else square
    c = tuple(int(v) for v in c)
    survivors = [s for s in _assignments(_freed(square, 0)) if s.col(2) == c]
    if not survivors:
        target = square.col_targets[2]
        raise ValueError(f"C triple {c} violates the column constraint c1*c2*c3 = {target:+d}")
    parity_pairs = frozenset((math.prod(s.col(0)), math.prod(s.col(1))) for s in survivors)
    a_parities = {pa for pa, _ in parity_pairs}
    required = next(iter(a_parities)) if len(a_parities) == 1 else 0
    return RetrodictionVerdict(c, required, len(survivors), parity_pairs)


def c_outcome_consistent(c) -> bool:
    """Is there any (a, b) with even parities explaining the C triple? (Never, for valid c.)

    The audits' oracle: it walks the row relations c_i = a_i * b_i by hand, reading no table.
    """
    c = tuple(int(v) for v in c)
    for a in itertools.product(SIGNS, repeat=3):
        for b in itertools.product(SIGNS, repeat=3):
            if all(a[i] * b[i] == c[i] for i in range(3)) and math.prod(a) == math.prod(b) == +1:
                return True
    return False


def valid_c_triples(square: PMSquare | None = None) -> list[tuple[int, int, int]]:
    """The C columns of `square`'s assignments without A's target, +1 first (c1*c2*c3 = -1)."""
    square = standard_square() if square is None else square
    return sorted({s.col(2) for s in _assignments(_freed(square, 0))}, reverse=True)
