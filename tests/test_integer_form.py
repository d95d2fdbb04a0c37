"""oracle.shifted_image_rows builds its exact rows from an integer form of P
that depends on P alone and is kept on the matrix from its first shifted
build.  The builder used to make a Fraction per entry, and LPProblem.build
and max_support split those back into integers; that builder and that
scaling are kept below, as they read, as the reference.  Every LP built
from the new rows must be the LP the reference builds, entry for entry, so
its status, witness, objective and pivot count are the same."""

import math
from fractions import Fraction

from coneq import oracle
from coneq.core import FLOAT, RATIONAL, ConeVector, NonnegMatrix, exact_fraction
from coneq.oracle import LPProblem
from coneq.spectral import taxonomy

from fuzz import fuzz_matrix, fuzz_vector, irregular, rng

_ZERO = Fraction(0)
THIRD = Fraction(1, 3)


def _reference_rows(P, lam, sign=1):
    """shifted_image_rows as it was: one Fraction per entry."""
    lam = exact_fraction(lam)
    rows = []
    for i, row in enumerate(getattr(P, "rows", P)):
        if sign > 0:
            out = [exact_fraction(e) if e else _ZERO for e in row]
        else:
            out = [-exact_fraction(e) if e else _ZERO for e in row]
        out[i] = sign * (exact_fraction(row[i]) - lam)
        rows.append(out)
    return rows


def _reference_integer_rows(rows, own=()):
    """_integer_rows as it was, on rational rows only."""
    rows = [[(e, 1) if type(e) is int else exact_fraction(e).as_integer_ratio() for e in row] for row in rows]
    own = [*own, *[False] * (len(rows) - len(own))]
    shared = math.lcm(*(q for row, mine in zip(rows, own) if not mine for _, q in row))
    out = []
    for row, mine in zip(rows, own):
        scale = math.lcm(*(q for _, q in row)) if mine else shared
        out.append([p * (scale // q) for p, q in row])
    return out, shared


def _reference_build(n, eq_rows=(), ge_rows=()):
    """LPProblem.build as it was, without an objective."""
    rows = [*eq_rows, *ge_rows]
    n_eq = len(eq_rows)
    own = [k >= n_eq and rhs <= 0 for k, (_, rhs) in enumerate(rows)]
    rows = [(tuple(row[:n]), row[n]) for row in _reference_integer_rows([[*c, rhs] for c, rhs in rows], own)[0]]
    return LPProblem(n, tuple(rows[:n_eq]), tuple(rows[n_eq:]))


def _reference_max_support_problem(forms):
    """The LP max_support solved for the forms, as it was built."""
    m, n = len(forms), len(forms[0])
    scaled, _ = _reference_integer_rows([[*row, -1] for row in forms], [True] * m)

    def t(i, v):
        return (*[0] * i, v, *[0] * (m - 1 - i))

    ge_rows = [((*row[:n], *t(i, row[n])), 0) for i, row in enumerate(scaled)]
    ge_rows += [((*[0] * n, *t(i, -1)), -1) for i in range(m)]
    return LPProblem(n + m, (), tuple(ge_rows), (*[0] * n, *[1] * m), True)


def _matrices(seed, count):
    """fuzz matrices, their irregular twins, the float twins of both, and
    two matrices whose diagonal denominators cancel at a shift."""
    yield NonnegMatrix.make([["1/2", 1], ["1/3", 2]])
    yield NonnegMatrix.make([["1/6", "1/4", 0], [0, "5/2", "1/3"], ["1/2", 0, "7/6"]])
    rnd = rng(seed)
    for _ in range(count):
        P = fuzz_matrix(rnd, n_max=7)
        Q = irregular(rnd, P)
        yield from (P, Q, P.to_float(), Q.to_float())


def _shifts(P):
    """Each diagonal entry and class radius, and each radius -+ 1/3, as an
    exact shift and as the nearest float."""
    out = {exact_fraction(e) for i, row in enumerate(P.rows) for j, e in enumerate(row) if i == j and e}
    for r in taxonomy(P).radii:
        r = exact_fraction(r)
        out |= {r, r - THIRD, r + THIRD}
    exact = sorted(lam for lam in out if lam > 0)
    return exact + [float(lam) for lam in exact[::2]]


def _cancelled(P, row, i):
    """Is the denominator of P_ii missing from row i's own denominator?"""
    return row.scale % exact_fraction(P.rows[i][i]).denominator != 0


def _recording(monkeypatch):
    """Every LP solve_lp receives, with its result."""
    seen = []
    real = oracle.solve_lp

    def recording(problem):
        res = real(problem)
        seen.append((problem, res))
        return res

    monkeypatch.setattr(oracle, "solve_lp", recording)
    return seen, real


def test_the_lps_equal_the_fraction_row_builds(monkeypatch):
    seen, real_solve = _recording(monkeypatch)
    rnd = rng(2301)
    counts = {"eq": 0, "ge": 0, "max_support": 0, "float": 0, "cancelled": 0}
    for P in _matrices(2302, 12):
        units = [([int(j == i) for j in range(P.n)], 1) for i in range(P.n)]
        vectors = [fuzz_vector(rnd, P.n), ConeVector.make([1] * P.n)]
        for lam in _shifts(P):
            for sign in (1, -1):
                rows = oracle.shifted_image_rows(P, lam, sign)
                want_rows = _reference_rows(P, lam, sign)
                assert rows == want_rows
                counts["cancelled"] += any(_cancelled(P, row, i) for i, row in enumerate(rows))
                counts["float"] += P.mode == FLOAT
                # the = rows of both equations: sign*(P - lam*I)x = b
                for b in vectors:
                    rhs = [exact_fraction(e) for e in b.entries]
                    seen.clear()
                    oracle.feasible_nonneg_solution(rows, rhs)
                    (problem, res), = seen
                    want = _reference_build(P.n, eq_rows=list(zip(want_rows, rhs)))
                    assert problem == want and res == real_solve(want), (P, lam, sign, b)
                    counts["eq"] += 1
                # the >= rows of cli._check_rho_attained: x_i >= 1, sign*(P - lam*I)x >= 0
                problem = LPProblem.build(P.n, ge_rows=units + [(row, 0) for row in rows])
                want = _reference_build(P.n, ge_rows=units + [(row, 0) for row in want_rows])
                assert problem == want and real_solve(problem) == real_solve(want), (P, lam, sign)
                counts["ge"] += 1
                # max_support's forms, each row over its own denominator
                seen.clear()
                oracle.max_support(rows)
                (problem, res), = seen
                want = _reference_max_support_problem(want_rows)
                assert problem == want and res == real_solve(want), (P, lam, sign)
                counts["max_support"] += 1
    assert counts["eq"] >= 1500 and counts["ge"] >= 750 and counts["max_support"] >= 750, counts
    assert counts["float"] >= 300 and counts["cancelled"] >= 50, counts


def test_rows_read_as_the_exact_rationals():
    P = NonnegMatrix.make([["1/2", 1], ["1/3", 2]])
    rows = oracle.shifted_image_rows(P, Fraction(1, 2), -1)
    assert rows == [[0, -1], [Fraction(-1, 3), Fraction(-3, 2)]]
    assert [(row.ints, row.scale) for row in rows] == [([0, -1], 1), ([-2, -9], 6)]
    assert rows[1][1] == Fraction(-3, 2) and rows[1][0] == Fraction(-1, 3) and len(rows[1]) == 2
    assert list(rows[0]) == [0, -1] and all(type(e) is Fraction for row in rows for e in row)
    # a square sequence of rows has no memo: its form is made per call
    assert oracle.shifted_image_rows([list(r) for r in P.rows], Fraction(1, 2), -1) == rows


def test_float_rows_are_the_rounded_exact_rows():
    # given rows and a float shift, the float lane gets the correctly
    # rounded float of each exact entry, zeros without a sign
    rnd = rng(2303)
    zeros = 0
    for _ in range(60):
        P = fuzz_matrix(rnd, n_max=7).to_float()
        rows = [list(r) for r in P.rows]
        for lam in (rnd.random() * 4, 0.1, 3.0):
            for sign in (1, -1):
                got = oracle.shifted_image_rows(rows, lam, sign)
                want = [[float(e) for e in row] for row in _reference_rows(rows, lam, sign)]
                assert got == want
                assert all(type(e) is float and math.copysign(1.0, e) == 1.0 for row in got for e in row if e == 0)
                zeros += sum(e == 0 for row in got for e in row)
    assert zeros >= 500


def test_building_a_matrix_fills_no_memo():
    rows = [["1/2", 1, 0], [0, 2, "1/3"], [1, 0, 0]]
    P = NonnegMatrix.make(rows)
    built = [
        P,
        NonnegMatrix.make(rows, FLOAT),
        NonnegMatrix.zero_matrix(3),
        P.to_float(),
        NonnegMatrix(P.rows, RATIONAL),  # __post_init__ alone
    ]
    for M in built:
        assert "_memo" not in vars(M), M
    for M in (P, built[1]):
        form = None
        for lam in (Fraction(1, 2), Fraction(2), 0.75, Fraction(7, 3)):
            for sign in (1, -1):
                oracle.shifted_image_rows(M, lam, sign)
                memo = vars(M)["_memo"]
                assert list(memo) == ["integer form"], list(memo)
                form = form or memo["integer form"]
                assert memo["integer form"] is form  # built on the first shifted build only

