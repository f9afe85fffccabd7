"""Tests for LP presolve reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.solvers.base import LinearProgram, SolveStatus
from repro.solvers.linprog import solve_lp
from repro.solvers.presolve import presolve, solve_with_presolve


class TestPresolveReductions:
    def test_fixes_pinned_variables(self):
        lp = LinearProgram(
            c=[1.0, 2.0, 3.0],
            a_ub=[[1.0, 1.0, 1.0]], b_ub=[10.0],
            lower=[0.0, 5.0, 0.0],
            upper=[4.0, 5.0, 4.0],
        )
        result = presolve(lp)
        assert result.fixed_variables == 1
        assert result.reduced.num_variables == 2
        assert result.objective_offset == pytest.approx(10.0)
        # Fixed value folded into the rhs: 10 - 5 = 5.
        assert result.reduced.b_ub[0] == pytest.approx(5.0)

    def test_drops_empty_satisfied_rows(self):
        lp = LinearProgram(
            c=[1.0],
            a_ub=[[0.0], [1.0]], b_ub=[3.0, 2.0],
            upper=[5.0],
        )
        result = presolve(lp)
        assert result.dropped_rows >= 1
        assert result.verdict is None

    def test_detects_empty_infeasible_row(self):
        lp = LinearProgram(
            c=[1.0],
            a_ub=[[0.0]], b_ub=[-1.0],
            upper=[5.0],
        )
        assert presolve(lp).verdict is SolveStatus.INFEASIBLE

    def test_drops_redundant_row_by_interval_arithmetic(self):
        # x <= 100 with x in [0, 5] can never bind.
        lp = LinearProgram(c=[-1.0], a_ub=[[1.0]], b_ub=[100.0], upper=[5.0])
        result = presolve(lp)
        assert result.dropped_rows == 1
        assert result.reduced.a_ub is None

    def test_fixed_equality_infeasibility(self):
        lp = LinearProgram(
            c=[1.0], a_eq=[[1.0]], b_eq=[7.0],
            lower=[2.0], upper=[2.0],
        )
        assert presolve(lp).verdict is SolveStatus.INFEASIBLE

    def test_all_variables_fixed_feasible(self):
        lp = LinearProgram(
            c=[3.0], a_ub=[[1.0]], b_ub=[5.0],
            lower=[2.0], upper=[2.0],
        )
        sol = solve_with_presolve(lp)
        assert sol.ok
        assert sol.x == pytest.approx([2.0])
        assert sol.objective == pytest.approx(6.0)

    def test_all_variables_fixed_infeasible(self):
        lp = LinearProgram(
            c=[3.0], a_ub=[[1.0]], b_ub=[1.0],
            lower=[2.0], upper=[2.0],
        )
        assert solve_with_presolve(lp).status is SolveStatus.INFEASIBLE

    def test_row_free_reduction_keeps_sub_tolerance_cost(self):
        # The row x0 <= 1 is redundant once x0 is pinned at 0, leaving a
        # row-free box.  A cost below HiGHS's 1e-7 cost tolerance must
        # still pull x1 to its upper bound, as the direct solve does.
        lp = LinearProgram(
            c=[0.0, -5.96e-8, 0.0],
            a_ub=[[1.0, 0.0, 0.0]], b_ub=[1.0],
            lower=[0.0, 0.0, 0.0], upper=[0.0, 2.0, 2.0],
        )
        assert presolve(lp).reduced.a_ub is None
        direct = solve_lp(lp, "highs")
        via = solve_with_presolve(lp, "highs")
        assert via.ok
        assert via.x.tolist() == [0.0, 2.0, 0.0]
        assert via.objective == -1.192e-07
        assert via.objective == pytest.approx(direct.objective, abs=1e-12)

    def test_row_free_reduction_unbounded(self):
        lp = LinearProgram(
            c=[1.0, -1.0],
            a_ub=[[1.0, 0.0]], b_ub=[1.0],
            lower=[0.0, 0.0], upper=[0.0, np.inf],
        )
        assert solve_lp(lp, "highs").status is SolveStatus.UNBOUNDED
        assert solve_with_presolve(lp, "highs").status is \
            SolveStatus.UNBOUNDED


finite = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def lps_with_fixed_vars(draw):
    n = draw(st.integers(3, 7))
    m = draw(st.integers(1, 4))
    c = draw(arrays(float, n, elements=finite))
    a = draw(arrays(float, (m, n), elements=finite))
    b = draw(arrays(float, m, elements=st.floats(0.5, 4.0)))
    lower = np.zeros(n)
    upper = np.full(n, draw(st.floats(1.0, 4.0)))
    # Pin a random subset.
    for j in range(n):
        if draw(st.booleans()):
            pin = draw(st.floats(0.0, 1.0))
            lower[j] = upper[j] = pin
    return LinearProgram(c=c, a_ub=a, b_ub=b, lower=lower, upper=upper)


class TestPresolveEquivalence:
    @given(lp=lps_with_fixed_vars())
    @settings(max_examples=40, deadline=None)
    def test_presolved_matches_direct(self, lp):
        direct = solve_lp(lp, "highs")
        via = solve_with_presolve(lp, "highs")
        assert direct.status == via.status
        if direct.ok:
            assert via.objective == pytest.approx(direct.objective,
                                                  abs=1e-7)
            assert lp.is_feasible(via.x, tol=1e-6)

    @given(lp=lps_with_fixed_vars())
    @settings(max_examples=25, deadline=None)
    def test_presolved_with_own_simplex(self, lp):
        direct = solve_lp(lp, "highs")
        via = solve_with_presolve(lp, "simplex")
        assert direct.status == via.status
        if direct.ok:
            assert via.objective == pytest.approx(direct.objective,
                                                  abs=1e-6)
