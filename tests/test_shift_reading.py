"""A shift is read once, by as_scalar in the matrix's mode, as the CLI reads
--lambda: an int, a Fraction, a float and a "p/q" string naming the same
number give the same answer, and a rational shift meets a rational radius
exactly, never under eig_tol.

The matrix [[1999999999/10^9]] has its one radius 2 - 10^-9, within eig_tol
of the shift 2; (2I - P)x = e1 has the solution x = 10^9.

A float radius r meets a shift lam under the tolerance band
|r - lam| <= eig_tol*max(1, |r|, |lam|).  Outside that band the verdicts of
solvable1 and solvable2 agree with the exact LP on the binary value of the
data; inside it they are tolerance-based."""

from fractions import Fraction

import numpy as np
import pytest

from coneq import oracle
from coneq.core import DEFAULT_TOL, RATIONAL, ConeVector, InvalidInput, NonnegMatrix, scalars_equal
from coneq.eq_type1 import (
    minimal_solution,
    solvability_conditions,
    solvable1,
    solvable_set,
    solve1,
)
from coneq.eq_type2 import combinatorial_solvable_above, necessary_face, solvable2
from coneq.spectral import eigenvalue_index, max_distinguished_order, taxonomy

from fuzz import fuzz_matrix, fuzz_vector, irregular, rng

RADIUS = Fraction(1999999999, 10**9)
P = NonnegMatrix.make([[RADIUS]], RATIONAL)
E1 = ConeVector.unit(1, 1, RATIONAL)
TWO = Fraction(2)


def lp_feasible(P, lam, b, sign):
    """Does sign*(P - lam*I)x = b have x >= 0?  sign -1 is type 1, +1 type 2."""
    rows = oracle.shifted_image_rows(P, lam, sign=sign)
    return oracle.feasible_nonneg_solution(rows, list(b.entries)).feasible


def test_ints_compare_exactly():
    assert not scalars_equal(2, RADIUS)
    assert scalars_equal(np.int64(2), TWO)  # NumPy's integers are rational too
    assert scalars_equal(2.0, RADIUS)  # a float keeps the tolerance
    # these functions also take internal float radii, so they do not read
    # the shift; an int shift still meets the Fraction radius exactly
    assert eigenvalue_index(P, 2) == eigenvalue_index(P, TWO) == 0
    for fn in (max_distinguished_order, necessary_face):
        for lam in (2, TWO):
            with pytest.raises(InvalidInput):  # 2 is no eigenvalue
                fn(P, lam)


@pytest.mark.parametrize("lam", [2, TWO, 2.0, "2"], ids=repr)
def test_every_reading_of_a_shift_gives_the_exact_answer(lam):
    type1 = lp_feasible(P, TWO, E1, -1)
    type2 = lp_feasible(P, TWO, E1, 1)
    assert (type1, type2) == (True, False)
    calls = {
        "solvable1": lambda s: solvable1(P, s, E1),
        "solve1": lambda s: solve1(P, s, E1),
        "minimal_solution": lambda s: minimal_solution(P, s, E1),
        "solvability_conditions": lambda s: solvability_conditions(P, s, E1),
        "solvable_set": lambda s: solvable_set(P, s),
        "combinatorial_solvable_above": lambda s: combinatorial_solvable_above(P, s, E1),
        "solvable2": lambda s: solvable2(P, s, E1),
    }
    for name, call in calls.items():
        assert repr(call(lam)) == repr(call(TWO)), name
    assert solvable1(P, lam, E1) is type1
    report = solve1(P, lam, E1)
    assert report.solvable is type1 and report.x0.entries == (10**9,)
    assert report.eigen_freedom == ()
    assert minimal_solution(P, lam, E1).entries == (10**9,)
    # the exact votes, as the thm3.1 check reads them (the float lane's e
    # and i compare the radius with the shift under eig_tol)
    battery = solvability_conditions(P, lam, E1)
    assert (battery.b, battery.g, battery.h, battery.j) == (type1,) * 4
    assert (1 in solvable_set(P, lam)) is type1
    assert combinatorial_solvable_above(P, lam, E1) is type2
    report2 = solvable2(P, lam, E1)
    assert (report2.regime, report2.solvable) == ("above", type2)


def test_a_float_shift_on_a_rational_matrix_is_read_as_its_decimal():
    # 0.1 + 1e-12 lies above the radius 1/10 however it is read, and the
    # LP finds x >= 0; under eig_tol the two would meet
    Q = NonnegMatrix.make([[Fraction(1, 10)]], RATIONAL)
    lam = 0.1 + 1e-12
    assert lp_feasible(Q, lam, E1, -1)
    assert solvable1(Q, lam, E1)


def _in_band(radii, lam) -> bool:
    """Does lam lie within the tolerance band of a float radius, or equal a
    rational one?"""
    eig_tol = DEFAULT_TOL.eig_tol
    return any(
        r == lam if isinstance(r, Fraction) else abs(r - float(lam)) <= eig_tol * max(1.0, abs(r), abs(float(lam)))
        for r in radii
    )


def band_agreement(rounds) -> tuple:
    """(cases outside the band, cases inside it, disagreements outside it)
    of solvable1 and solvable2 with the exact LP, on irregular fuzz matrices
    and their float twins.  The shifts are r(1 +- 3e-8) and r(1 +- 1e-6) at
    each float class radius r of the matrix (every radius of a twin, the
    irrational ones of a rational matrix), as a Fraction of that float on
    rational input, on seed 2026.  An exception is a disagreement."""
    rnd = rng(2026)
    outside = inside = 0
    wrong = []
    for _ in range(rounds):
        Q = irregular(rnd, fuzz_matrix(rnd, n_max=10))
        vecs = [fuzz_vector(rnd, Q.n) for _ in range(2)]
        for M in (Q, Q.to_float()):
            radii = taxonomy(M).radii
            floats = {r * (1 + d) for r in radii if isinstance(r, float) for d in (3e-8, -3e-8, 1e-6, -1e-6)}
            for lam in sorted(floats):
                lam = Fraction(lam) if M.mode == RATIONAL else lam
                if _in_band(radii, lam):
                    inside += 2 * len(vecs)
                    continue
                for v in vecs:
                    b = ConeVector.make(v.entries, M.mode)
                    for sign, decide in ((-1, solvable1), (1, lambda *a: solvable2(*a).solvable)):
                        outside += 1
                        try:
                            got = decide(M, lam, b)
                        except Exception as exc:
                            got = type(exc).__name__
                        if got != lp_feasible(M, lam, b, sign):
                            wrong.append((M.mode, sign, lam, M.rows, b.entries, got))
    return outside, inside, wrong


def test_float_verdicts_agree_with_the_lp_outside_the_tolerance_band(capsys, rounds=60):
    outside, inside, wrong = band_agreement(rounds)
    assert not wrong, (len(wrong), wrong[:3])
    assert outside >= 1500, outside
    with capsys.disabled():
        print(f"\nband: {outside} cases outside, {inside} inside, no disagreement")
