"""Square constraint checks and exhaustive assignment logic."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from wignerlab import contextuality as ctx
from wignerlab.qsim import InvariantError, SpectralObservable


def negate(obs: SpectralObservable) -> SpectralObservable:
    flipped = tuple((-eig, proj) for eig, proj in obs.branches)
    return SpectralObservable(obs.register, flipped, obs.name)


class TestVerifySquare:
    def test_unbarred_square_passes(self):
        report = ctx.verify_square_constraints(ctx.unbarred_square())
        assert report.proved() == ctx.standard_square()
        values = {line.line: line.value for line in report.lines}
        assert values == {
            "row1": 1.0,
            "row2": 1.0,
            "row3": 1.0,
            "colA": 1.0,
            "colB": 1.0,
            "colC": -1.0,
        }

    def test_negated_c3_flags_colC(self):
        grid = [list(row) for row in ctx.unbarred_square()]
        grid[2][2] = negate(grid[2][2])
        report = ctx.verify_square_constraints(grid)
        proved = report.proved()
        assert proved != ctx.standard_square()
        assert proved.col_targets[2] != ctx.standard_square().col_targets[2]
        colc = next(line for line in report.lines if line.line == "colC")
        assert colc.value == pytest.approx(+1.0, abs=1e-10)

    def test_proved_square_holds_the_measured_signs(self):
        assert ctx.verify_square_constraints(ctx.unbarred_square()).proved() == ctx.standard_square()
        grid = [list(row) for row in ctx.unbarred_square()]
        grid[2][2] = negate(grid[2][2])
        proved = ctx.verify_square_constraints(grid).proved()
        assert proved.row_targets == (+1, +1, -1) and proved.col_targets == (+1, +1, +1)

    @pytest.mark.parametrize("deviation", [0.5, float("nan")])
    def test_proved_rejects_a_line_off_identity(self, deviation):
        report = ctx.verify_square_constraints(ctx.unbarred_square())
        lines = [replace(ln, deviation=deviation) if ln.line == "row2" else ln for ln in report.lines]
        with pytest.raises(InvariantError, match="row2"):
            replace(report, lines=tuple(lines)).proved()

    def test_proved_rejects_non_commuting_lines(self):
        report = ctx.verify_square_constraints(ctx.unbarred_square())
        with pytest.raises(InvariantError, match="do not commute"):
            replace(report, commutation_ok=False).proved()

    @pytest.mark.parametrize("cut", ["rows", "columns"])
    def test_non_square_grid_rejected(self, cut):
        grid = [list(row) for row in ctx.unbarred_square()]
        grid = grid[:2] if cut == "rows" else [row[:2] for row in grid]
        with pytest.raises(ValueError, match="3x3"):
            ctx.verify_square_constraints(grid)

    def test_dimension_mismatch_rejected(self):
        grid = [list(row) for row in ctx.unbarred_square()]
        grid[0][0] = ctx.unbarred_square(("t1", "t2"))[0][0]
        with pytest.raises(ValueError, match="lives on"):
            ctx.verify_square_constraints(grid)


class TestEnumerate:
    def test_full_constraints_unsatisfiable(self):
        assert ctx.enumerate_assignments(ctx.standard_square()) == []

    def test_rows_only_count(self):
        # oracle: 4 of the 8 sign triples have product +1, rows independent
        per_row = sum(
            1
            for triple in itertools.product((+1, -1), repeat=3)
            if triple[0] * triple[1] * triple[2] == +1
        )
        assert per_row == 4
        satisfying = ctx.enumerate_assignments(ctx.rows_only_square())
        assert len(satisfying) == per_row**3 == 64

    def test_all_plus_targets_satisfiable(self):
        square = ctx.PMSquare(row_targets=(1, 1, 1), col_targets=(1, 1, 1))
        satisfying = ctx.enumerate_assignments(square)
        all_ones = ctx.PMAssignment(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
        assert all_ones in satisfying

    def test_matches_a_numpy_filter_on_every_target_table(self):
        # Brute force: all 512 sign grids, scanned in itertools order, masked line by line.
        grids = np.array(list(itertools.product((+1, -1), repeat=9))).reshape(512, 3, 3)
        parities = np.concatenate([grids.prod(axis=2), grids.prod(axis=1)], axis=1)  # rows, cols
        tables = list(itertools.product((+1, -1, None), repeat=6))
        assert len(tables) == 729
        for targets in tables:
            mask = np.ones(512, dtype=bool)
            for line, target in enumerate(targets):
                if target is not None:
                    mask &= parities[:, line] == target
            want = [tuple(map(tuple, grid)) for grid in grids[mask].tolist()]
            square = ctx.PMSquare(row_targets=targets[:3], col_targets=targets[3:])
            got = [assignment.values for assignment in ctx.enumerate_assignments(square)]
            assert got == want, targets


class TestRetrodict:
    def test_all_minus(self):
        verdict = ctx.retrodict_from_c((-1, -1, -1))
        assert verdict.required_a_parity == -1
        assert all(parity_a == -1 for parity_a, _ in verdict.parity_pairs)

    def test_single_minus(self):
        verdict = ctx.retrodict_from_c((+1, +1, -1))
        assert verdict.required_a_parity == -1

    def test_exhaustive_over_valid_triples(self):
        for c in ctx.valid_c_triples():
            verdict = ctx.retrodict_from_c(c)
            assert verdict.required_a_parity == -1
            assert verdict.consistent_pairs > 0
            assert not ctx.c_outcome_consistent(c)

    def test_rows_only_forbids_double_odd(self):
        for c in ctx.valid_c_triples():
            verdict = ctx.retrodict_from_c(c, ctx.PMSquare(col_targets=(+1, None, -1)))
            assert verdict.parity_pairs == {(+1, -1), (-1, +1)}

    def test_even_c_triple_has_an_even_explanation(self):
        assert ctx.c_outcome_consistent((+1, +1, +1))
        assert ctx.c_outcome_consistent((-1, -1, +1))

    def test_even_c_rejected(self):
        with pytest.raises(ValueError, match="column constraint"):
            ctx.retrodict_from_c((+1, +1, +1))


class TestOracleAgreement:
    def partial_fix_assignments(self, fixed_col: int, values):
        """Assignments satisfying rows plus the other two columns' targets."""
        col_targets = [None, +1, -1]
        col_targets[fixed_col] = None
        if fixed_col != 0:
            col_targets[0] = None  # drop A's own constraint: that is the question
        square = ctx.PMSquare(col_targets=tuple(col_targets))
        return [
            assignment
            for assignment in ctx.enumerate_assignments(square)
            if assignment.col(fixed_col) == tuple(values)
        ]

    def test_retrodict_matches_enumeration(self):
        for c in ctx.valid_c_triples():
            survivors = self.partial_fix_assignments(2, c)
            assert survivors, f"no row+colB-consistent assignment for c={c}"
            parities = {np.prod(s.col(0)) for s in survivors}
            assert parities == {ctx.retrodict_from_c(c).required_a_parity}
            # adding A's own constraint kills every survivor
            full = [s for s in survivors if np.prod(s.col(0)) == +1]
            assert full == []

