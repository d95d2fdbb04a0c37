"""Reproducers of the open defects on rational input (ROADMAP "Open
defects").  Each test asserts the ground truth, the verdict of the exact LP
(for (i), the limit the exact annihilator gives), so each is a strict
xfail: it starts to pass, and so fails the suite, when its defect is fixed,
and the mark must then come off."""

import math
from fractions import Fraction

import pytest

from coneq import oracle
from coneq.collatz_wielandt import power_limit_exists
from coneq.core import RATIONAL, ConeVector, InvalidInput, NonnegMatrix, NumericFailure
from coneq.eq_type1 import solvability_conditions, solvable1, solve1
from coneq.eq_type2 import solvable2


def mat(rows):
    return NonnegMatrix.make(rows, RATIONAL)


def e1(n):
    return ConeVector.unit(n, 1, RATIONAL)


def lp_feasible(P, lam, b, sign):
    """Does (sign*(P - lam*I))x = b have x >= 0?  sign -1 is type 1, +1 type 2."""
    rows = oracle.shifted_image_rows(P, lam, sign=sign)
    return oracle.feasible_nonneg_solution(rows, list(b.entries)).feasible


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="(a) a rational shift is compared with an irrational radius under eig_tol",
)
def test_a_shift_just_above_an_irrational_radius():
    P = mat([[0, 2], [1, 0]])  # radius sqrt(2)
    lam = Fraction(math.sqrt(2)) + Fraction(1, 10**10)
    assert solvable1(P, lam, e1(2)) == lp_feasible(P, lam, e1(2), -1)  # the LP: True


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="(d) the rational radius 2 of a block without constant row sums is carried as a float",
)
def test_d_rational_radius_of_an_irregular_block():
    P = mat([[0, 1], [4, 0]])
    lam = 2 + Fraction(1, 10**9)
    assert solve1(P, lam, e1(2)).solvable == lp_feasible(P, lam, e1(2), -1)  # the LP: True


@pytest.mark.xfail(
    strict=True, raises=NumericFailure,
    reason="(e) power iteration on a nearly degenerate block gives up on rational input",
)
def test_e_eigenvalue_gap_near_1e_6():
    P = mat([[1, Fraction(1, 10**6)], [Fraction(2, 10**6), 1]])
    lam = Fraction(3)
    assert solve1(P, lam, e1(2)).solvable == lp_feasible(P, lam, e1(2), -1)  # the LP: True


@pytest.mark.xfail(
    strict=True, raises=InvalidInput,
    reason="(f) solvable2 mixes a float eigenvector into a rational computation",
)
def test_f_solvable2_at_an_irrational_radius_plus_1e_9():
    P = mat([
        [0, 1, 0, 0],
        [Fraction(8, 5), Fraction(1, 5), Fraction(1, 2), 0],
        [0, 0, Fraction(16, 7), Fraction(6, 7)],
        [0, 0, Fraction(8, 3), Fraction(2, 3)],
    ])
    lam = Fraction(3508692731035669830901, 1099511627776000000000)  # radius of {3, 4} + 1e-9
    assert solvable2(P, lam, e1(4)).solvable == lp_feasible(P, lam, e1(4), 1)  # the LP: False


@pytest.mark.xfail(
    strict=True, raises=NumericFailure,
    reason="power iteration runs on the float image of a block whose entries underflow",
)
def test_block_entry_below_the_float_range():
    # radius 10^-200; `coneq analyze` on this matrix exits 3 the same way
    P = mat([[0, Fraction(1, 10**400)], [1, 0]])
    lam = Fraction(1)
    assert solvable1(P, lam, e1(2)) == lp_feasible(P, lam, e1(2), -1)  # the LP: True


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="(h) conditions e and i count a radius just below the shift as one at the shift",
)
def test_h_radius_just_below_the_shift():
    P = mat([[Fraction(1999999999, 10**9)]])
    lam = Fraction(2)
    rep = solvability_conditions(P, lam, e1(1))
    assert rep.e == lp_feasible(P, lam, e1(1), -1)  # the LP: True


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="(i) power_limit_exists merges an eigenvalue within eig_tol of rho_x into rho_x",
)
def test_i_power_limit_beside_an_eigenvalue_1e_9_below_rho_x():
    # (P/rho_x)^k e2 tends to (10^9, 0): the annihilator of e2 is
    # (t - 1)(t - 1 + 10^-9), so rho_x = 1 is a simple root and the other
    # root lies inside the circle
    P = mat([[1, 1], [0, 1 - Fraction(1, 10**9)]])
    assert power_limit_exists(P, ConeVector.unit(2, 2, RATIONAL)).exists
