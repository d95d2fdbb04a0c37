import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from pytest import raises as assert_raises

from coneq.core import (
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    support,
    to_json,
)
from coneq.classes import ClassTaxonomy, condense
from coneq.eq_type1 import solve1
from coneq.spectral import spectral_pair, spectral_radius, taxonomy
from coneq.eq_type2 import (
    combinatorial_solvable_above,
    image_membership,
    necessary_face,
    resolvent_sign,
    solvable2,
    solvable_face_probe,
    solve2_above,
    subcritical_window,
    tracedown_witness,
)
from coneq import eq_type2, oracle

from fuzz import fuzz_irreducible, fuzz_matrix, fuzz_vector, irregular, lambda_sweep, rng


def mat(rows, mode=RATIONAL):
    return NonnegMatrix.make(rows, mode)


F = Fraction
U = mat([[1, 1], [0, 1]])
T = mat([[2, 0], [1, 1]])
S = mat([[0, 1], [1, 0]])
D = mat([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
A = mat([[2, 1, 0], [0, 1, 0], [0, 0, 1]])
I2 = mat([[1, 0], [0, 1]])
N = mat([[0, 1], [0, 0]])
Z2 = mat([[0, 0], [0, 0]])


def vec(*entries):
    return ConeVector.make(list(entries))


# The Fraction eliminations that eq_type2's determinant and inverse used
# before they ran on the integer kernel, kept as the reference; they count
# what the fuzz reaches.


def _ref_det_and_inverse(rows, seen):
    n = len(rows)
    a = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, r in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            seen["singular"] += 1
            return Fraction(0), None
        if piv != col:
            seen["row swap"] += 1
            a[col], a[piv] = a[piv], a[col]
            det = -det
        seen["negative pivot"] += a[col][col] < 0
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        a[col] = [e * inv for e in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [e - f * p for e, p in zip(a[r], a[col])]
    seen["nonsingular"] += 1
    return det, [row[n:] for row in a]


def _ref_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [e - f * p for e, p in zip(a[r], a[col])]
    return det


def _ref_adjugate(rows):
    """The cofactor adjugate: adj[j][i] = (-1)^(i+j) * minor_ij."""
    n = len(rows)
    adj = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * _ref_det(minor)
    return adj


def _ref_resolvent_sign(P, lam):
    """The exact branch of resolvent_sign as it was: the Fraction inverse of
    P - lam*I and the cofactor adjugate of lam*I - P."""
    n = P.n
    shifted = [[P.rows[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
    det, inv = _ref_det_and_inverse(shifted, Counter())
    inverse_positive = None if det == 0 else all(e > 0 for row in inv for e in row)
    adj = _ref_adjugate([[-e for e in row] for row in shifted])
    return eq_type2.ResolventSign(inverse_positive, all(e > 0 for row in adj for e in row))


def _fuzz_square(rnd, seen):
    """A square rational matrix over unequal denominators, with negative and
    zero entries; at times singular through a repeated or combined row."""
    n = rnd.randint(1, 6)
    dens = rnd.sample([1, 2, 3, 4, 5, 7], 3)
    rows = [
        [Fraction(rnd.randint(-4, 4), rnd.choice(dens)) if rnd.random() < 0.7 else Fraction(0) for _ in range(n)]
        for _ in range(n)
    ]
    seen["unequal denominators"] += len({e.denominator for row in rows for e in row}) > 1
    if n > 1 and rnd.random() < 0.25:
        i, j = rnd.sample(range(n), 2)
        rows[i] = [a * Fraction(rnd.randint(-2, 2), rnd.choice(dens)) for a in rows[j]]
    return rows


class TestDecision:
    def test_above_regime_unsolvable_without_a_distinguished_shift(self):
        rep = solvable2(T, F(3), ConeVector.unit(2, 2))
        assert (rep.regime, rep.solvable) == ("above", False)
        assert rep.rho_b == F(1)
        assert rep.certificate == "cor4_2"
        assert rep.x is None and rep.spectral_pair_of_x is None
        rep = solvable2(U, F(2), ConeVector.unit(2, 1))
        assert (rep.regime, rep.solvable) == ("above", False)

    def test_above_regime_solvable(self):
        rep = solvable2(T, F(2), ConeVector.unit(2, 2))
        assert (rep.regime, rep.solvable) == ("above", True)
        assert rep.x.entries == (F(1), F(0))
        assert rep.certificate == "cor4_2"
        assert (rep.spectral_pair_of_x.rho, rep.spectral_pair_of_x.order) == (F(2), 1)

    def test_at_regime(self):
        rep = solvable2(U, F(1), ConeVector.unit(2, 1))
        assert (rep.regime, rep.solvable) == ("at", True)
        assert rep.x.entries == (F(0), F(1))
        assert rep.certificate == "lp"
        assert (rep.spectral_pair_of_x.rho, rep.spectral_pair_of_x.order) == (F(1), 2)
        rep = solvable2(U, F(1), ConeVector.unit(2, 2))
        assert (rep.regime, rep.solvable) == ("at", False)
        assert rep.certificate == "necessary_violated"

    def test_below_regime(self):
        rep = solvable2(S, F(1, 2), ConeVector.unit(2, 1))
        assert (rep.regime, rep.solvable) == ("below", True)
        assert rep.x.entries == (F(2, 3), F(4, 3))
        assert rep.certificate == "lp"
        rep = solvable2(U, F(1, 2), ConeVector.unit(2, 2))
        assert (rep.regime, rep.solvable, rep.certificate) == ("below", False, "lp")

    def test_zero_right_hand_side(self):
        rep = solvable2(T, F(2), ConeVector.zero_vector(2, RATIONAL))
        assert rep.solvable and rep.x.entries == (F(0), F(0))

    def test_the_access_test_passes_a_zero_right_hand_side(self):
        # x = 0 solves (P - lambda*I)x = 0 at every shift, as the LP says
        P = mat([[0, 1], [0, F(1, 2)]])
        for lam in (F(1, 2), F(1), F(3)):
            lp = oracle.feasible_nonneg_solution(oracle.shifted_image_rows(P, lam), [F(0), F(0)])
            assert lp.feasible
            assert combinatorial_solvable_above(P, lam, ConeVector.zero_vector(2, RATIONAL)) is True
            assert solvable2(P, lam, ConeVector.zero_vector(2, RATIONAL)).solvable
        empty = mat([])
        assert oracle.feasible_nonneg_solution(oracle.shifted_image_rows(empty, F(1)), []).feasible
        assert combinatorial_solvable_above(empty, F(1), ConeVector.make([])) is True

    def test_shift_must_be_positive(self):
        for lam in (F(0), F(-1), 0):
            with assert_raises(InvalidInput):
                solvable2(T, lam, vec(1, 1))

    def test_report_serialization(self):
        d = to_json(solvable2(U, F(1), ConeVector.unit(2, 1)))
        assert d == {
            "regime": "at",
            "solvable": True,
            "rho_b": 1,
            "x": [0, 1],
            "certificate": "lp",
            "spectral_pair_of_x": {"rho": 1, "order": 2},
        }


class TestConstructionAbove:
    def test_constructed_solution(self):
        x = solve2_above(T, F(2), ConeVector.unit(2, 2))
        assert x.entries == (F(1), F(0))
        x = solve2_above(T, F(2), ConeVector.zero_vector(2, RATIONAL))
        assert x.entries == (F(0), F(0))

    def test_exact_beside_an_irregular_accessor(self):
        # the accessor block {1, 2} has non-constant row sums and a float
        # radius below 2; only the Perron block {3} must be exact, so the
        # eigenvector and the solution stay exact and the residual is e1
        P = mat([[F(1, 2), F(1, 2), 1], [F(1, 2), 1, 0], [0, 0, 2]])
        rep = solvable2(P, F(2), vec(1, 0, 0))
        assert rep.solvable and rep.x == vec(0, 0, 1)
        residual = [e - 2 * x for e, x in zip(P.apply(rep.x.entries), rep.x.entries)]
        assert residual == [1, 0, 0] and all(type(e) is F for e in residual)

    def test_requires_the_above_regime(self):
        with assert_raises(InvalidInput):
            solve2_above(U, F(1), ConeVector.unit(2, 1))

    def test_requires_solvability(self):
        with assert_raises(InvalidInput):
            solve2_above(T, F(3), ConeVector.unit(2, 2))

    def test_decision_agrees_with_the_lp_and_solutions_verify(self):
        rnd = rng(71)
        cases = 0
        for _ in range(20):
            P = fuzz_matrix(rnd)
            for lam in lambda_sweep(P):
                for _ in range(2):
                    b = fuzz_vector(rnd, P.n)
                    rep = solvable2(P, lam, b)
                    rows = oracle.shifted_image_rows(P, lam)
                    rhs = [Fraction(e) for e in b.entries]
                    assert rep.solvable == oracle.feasible_nonneg_solution(rows, rhs).feasible
                    cases += 1
                    if not rep.solvable:
                        continue
                    x = rep.x.entries
                    img = tuple(
                        sum(r * e for r, e in zip(row, x)) for row in rows
                    )
                    assert img == b.entries
                    if rep.regime == "above":
                        pair = spectral_pair(P, rep.x)
                        assert pair.rho == lam and pair.order == 1
        assert cases >= 150


class TestNecessaryFace:
    def test_examples(self):
        assert necessary_face(U, F(1)) == {1}
        assert necessary_face(T, F(2)) == {2}
        assert necessary_face(T, F(1)) == frozenset()
        assert necessary_face(I2, F(1)) == frozenset()
        assert necessary_face(S, F(1)) == frozenset()

    def test_defined_only_at_distinguished_eigenvalues(self):
        with assert_raises(InvalidInput):
            necessary_face(U, F(2))
        with assert_raises(InvalidInput):
            necessary_face(S, F(1, 2))

    def test_support_of_solvable_b_at_the_radius_lies_in_the_face(self):
        rnd = rng(72)
        solvable_seen = 0
        for _ in range(25):
            P = fuzz_matrix(rnd)
            rho = spectral_radius(P)
            face = necessary_face(P, rho)
            rows = oracle.shifted_image_rows(P, rho)
            samples = [fuzz_vector(rnd, P.n) for _ in range(3)]
            if face:
                # rhs vectors already inside the face are far likelier to
                # be images, giving the inclusion some positive instances
                raw = fuzz_vector(rnd, P.n).entries
                clipped = [e if i + 1 in face else F(0) for i, e in enumerate(raw)]
                if any(clipped):
                    samples.append(ConeVector.make(clipped))
            for b in samples:
                rhs = [Fraction(e) for e in b.entries]
                if oracle.feasible_nonneg_solution(rows, rhs).feasible:
                    solvable_seen += 1
                    assert support(b) <= face
        assert solvable_seen >= 5


class TestFaceProbe:
    def test_at_the_spectral_radius(self):
        assert solvable_face_probe(U, F(1)) == {1}
        assert solvable_face_probe(T, F(2)) == {2}
        assert solvable_face_probe(S, F(1)) == frozenset()
        assert solvable_face_probe(S, F(2)) == frozenset()
        assert solvable_face_probe(N, F(0)) == {1}

    def test_below_the_spectral_radius(self):
        assert solvable_face_probe(S, F(1, 2)) == {1, 2}
        assert solvable_face_probe(D, F(3, 2)) == {3}
        assert solvable_face_probe(A, F(3, 2)) == {1}

    def test_rational_mode_only(self):
        with assert_raises(InvalidInput):
            solvable_face_probe(mat([[0.0, 1.0], [1.0, 0.0]], FLOAT), 1.0)

    def test_probe_matches_the_necessary_face_at_the_radius(self):
        rnd = rng(888)
        for _ in range(30):
            P = fuzz_matrix(rnd, n_max=5)
            rho = spectral_radius(P)
            assert solvable_face_probe(P, rho) == necessary_face(P, rho)


class TestTracedownWitness:
    def test_examples(self):
        an = condense(U)
        x, b = tracedown_witness(U, an.class_of_vertex(2))
        assert x.entries == (F(1), F(1)) and b.entries == (F(1), F(0))
        an = condense(T)
        x, b = tracedown_witness(T, an.class_of_vertex(1))
        assert x.entries == (F(1), F(1, 2)) and b.entries == (F(0), F(1, 2))
        an = condense(I2)
        x, b = tracedown_witness(I2, an.class_of_vertex(1))
        assert x.entries == (F(1), F(0)) and b.entries == (F(0), F(0))

    def test_requires_an_eligible_class(self):
        with assert_raises(InvalidInput):
            tracedown_witness(U, condense(U).class_of_vertex(1))
        with assert_raises(InvalidInput):
            tracedown_witness(T, condense(T).class_of_vertex(2))
        with assert_raises(InvalidInput):
            tracedown_witness(T, 5)

    def test_witness_structure(self):
        rnd = rng(999)
        checked = 0
        for _ in range(25):
            P = fuzz_matrix(rnd, n_max=5)
            an = condense(P)
            tax = taxonomy(P)
            rho = tax.rho
            for c in range(an.class_count):
                if not (tax.basic[c] and tax.distinguished_transpose[c]):
                    continue
                x, b = tracedown_witness(P, c)
                checked += 1
                assert all(e >= 0 for e in x.entries)
                assert all(e >= 0 for e in b.entries)
                accessors = [d for d in range(an.class_count) if an.has_access(d, c)]
                proper = [d for d in accessors if d != c]
                assert support(x) == frozenset(
                    v for d in accessors for v in an.classes[d]
                )
                bsupp = support(b)
                assert bsupp <= set(v for d in proper for v in an.classes[d])
                for d in proper:
                    assert any(v in bsupp for v in an.classes[d])
                if x.mode == RATIONAL:
                    img = tuple(
                        sum(P.rows[i][j] * x.entries[j] for j in range(P.n))
                        - F(rho) * x.entries[i]
                        for i in range(P.n)
                    )
                    assert img == b.entries
                else:
                    a = P.to_numpy()
                    xv = np.array([float(e) for e in x.entries])
                    img = a @ xv - float(rho) * xv
                    np.testing.assert_allclose(
                        img, [float(e) for e in b.entries], atol=1e-8
                    )
        assert checked >= 20


def _dyadic_irreducible(rnd):
    """A fuzzed irreducible matrix rounded to multiples of 1/64 (positive
    entries stay positive), with its diagonal topped up so that every row
    sums to the same dyadic radius: float mode reads it exactly."""
    rows = [
        [max(F(1, 64), F(round(e * 64), 64)) if e else F(0) for e in row]
        for row in fuzz_irreducible(rnd).rows
    ]
    rho = max(sum(row) for row in rows)
    for i, row in enumerate(rows):
        row[i] += rho - sum(row)
    return mat(rows)


class TestResolventSign:
    def test_swap_matrix(self):
        assert resolvent_sign(S, F(9, 10)) == resolvent_sign(S, F(9, 10))
        rs = resolvent_sign(S, F(9, 10))
        assert (rs.inverse_positive, rs.adjugate_positive) == (True, True)
        rs = resolvent_sign(S, F(11, 10))
        assert (rs.inverse_positive, rs.adjugate_positive) == (False, True)
        rs = resolvent_sign(S, F(0))
        assert (rs.inverse_positive, rs.adjugate_positive) == (False, False)
        rs = resolvent_sign(S, F(1))
        assert (rs.inverse_positive, rs.adjugate_positive) == (None, True)

    def test_determinant_and_inverse_match_the_fraction_elimination(self):
        # one Faddeev-LeVerrier pass gives the determinant of the Fraction
        # elimination and the full cofactor adjugate (det times the inverse
        # when nonsingular), on fuzzed singular and nonsingular matrices with
        # row swaps, negative pivots and unequal denominators
        rnd = rng(1003)
        seen = Counter()
        for _ in range(600):
            rows = _fuzz_square(rnd, seen)
            coeffs, adj = oracle._faddeev_leverrier(rows)
            det, inv = _ref_det_and_inverse(rows, seen)
            assert (-1) ** len(rows) * coeffs[-1] == det == _ref_det(rows), rows
            assert adj == _ref_adjugate(rows), rows
            if inv is not None:
                assert adj == [[det * e for e in row] for row in inv]
            assert all(type(e) is Fraction for e in coeffs + [e for row in adj for e in row])
        assert oracle._faddeev_leverrier([]) == ([1], [])
        kinds = ("singular", "nonsingular", "row swap", "negative pivot", "unequal denominators")
        assert all(seen[k] >= 50 for k in kinds), seen

    def test_verdicts_match_the_fraction_elimination(self):
        # resolvent_sign gives the verdicts of the Fraction elimination and
        # the cofactor adjugate at, below and above the radius of fuzzed
        # irreducible matrices, and reaches each verdict pair often
        rnd = rng(1004)
        seen = Counter()
        for _ in range(60):
            P = fuzz_irreducible(rnd)
            rho = spectral_radius(P)
            for lam in (rho, rho - F(1, 3), rho + F(1, 3), rho / 2, F(0)):
                rs = resolvent_sign(P, lam)
                assert rs == _ref_resolvent_sign(P, lam), (P.rows, lam)
                seen[rs.inverse_positive, rs.adjugate_positive] += 1
        pairs = ((True, True), (False, True), (None, True), (False, False))
        assert all(seen[k] >= 20 for k in pairs), seen

    def test_float_input_gives_the_rational_verdicts(self):
        # float input is read as its binary value, so a dyadic matrix and
        # shift give the same verdicts in both modes, at the radius too
        rnd = rng(1005)
        seen = Counter()
        for _ in range(60):
            P = _dyadic_irreducible(rnd)
            rho = P.rows[0][0] + sum(P.rows[0][1:])  # every row sums to rho
            for lam in (rho, rho - F(1, 4), rho + F(1, 4), rho / 2, F(0)):
                rs = resolvent_sign(P, lam)
                assert resolvent_sign(P.to_float(), float(lam)) == rs, (P.rows, lam)
                seen[rs.inverse_positive, rs.adjugate_positive] += 1
        pairs = ((True, True), (False, True), (None, True), (False, False))
        assert all(seen[k] >= 20 for k in pairs), seen

    def test_requires_an_irreducible_matrix(self):
        with assert_raises(InvalidInput):
            resolvent_sign(T, F(1))

    def test_positive_window_below_the_radius(self):
        # bisecting up from rho/2 always lands in the strict-positivity
        # window, and there every unit vector is a nonnegative image
        rnd = rng(1001)
        for _ in range(8):
            P = fuzz_irreducible(rnd)
            rho = spectral_radius(P)
            hit = None
            for k in range(1, 21):
                lam = rho * (1 - F(1, 2 ** k))
                if lam <= 0:
                    continue
                rs = resolvent_sign(P, lam)
                if rs.inverse_positive and rs.adjugate_positive:
                    hit = lam
                    break
            assert hit is not None
            rows = oracle.shifted_image_rows(P, hit)
            for i in range(P.n):
                rhs = [F(1) if j == i else F(0) for j in range(P.n)]
                assert oracle.feasible_nonneg_solution(rows, rhs).feasible
                sol = oracle.solve_signed(rows, rhs)
                assert sol is not None and all(e >= 0 for e in sol)


class TestSubcriticalWindow:
    def test_examples(self):
        assert subcritical_window(S) == -1.0
        assert subcritical_window(U) == -np.inf
        assert subcritical_window(D) == 1.0
        assert subcritical_window(Z2) == -np.inf

    def test_eigenvalue_close_below_rho(self):
        # eigenvalues 1 +- 1e-7: the one below rho is found in both modes
        tiny = F(1, 10**7)
        assert subcritical_window(mat([[1, tiny], [tiny, 1]])) == 0.9999999
        assert subcritical_window(mat([[1, 1e-7], [1e-7, 1]], FLOAT)) == 0.9999999

    def test_matches_the_float_eigenvalues(self):
        # on rational input the window is the largest real eigenvalue below
        # rho, repeated radii counted once; numpy agrees up to its rounding
        rnd = rng(1006)
        found = 0
        for _ in range(80):
            P = fuzz_matrix(rnd)
            got = subcritical_window(P)
            vals = np.linalg.eigvals(P.to_numpy())
            real = sorted({round(v.real, 6) for v in vals if abs(v.imag) < 1e-9})
            if len(real) < 2:
                assert got == -np.inf
            else:
                assert got == pytest.approx(real[-2], abs=1e-5)
                found += 1
        assert found >= 40


def _subcritical_window_reference(P):
    """The Sturm bisection as written before oracle's Sturm counter: sign
    changes of one chain at each midpoint against those at Cauchy's bound,
    the characteristic polynomial evaluated apart."""
    coeffs = oracle.charpoly_exact(P)
    chain = oracle._sturm_chain(coeffs)

    def variations(t):
        return oracle._variations([oracle._poly_eval(p, t) for p in chain])

    bound = F(2 ** math.ceil(1 + max(map(abs, coeffs))).bit_length())
    top = variations(bound)
    if variations(-bound) - top < 2:
        return -math.inf
    lo, hi = -bound, bound
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        above = variations(mid) - top
        if above >= 2:
            lo = mid
        elif above == 1 and oracle._poly_eval(coeffs, mid) == 0:
            return float(mid)
        else:
            hi = mid
    return float(hi)


class TestSubcriticalWindowReference:
    def test_values_match_the_reference_bisection(self):
        rnd = rng(1007)
        kinds = Counter()
        for _ in range(40):
            P = fuzz_matrix(rnd)
            for M in (P, irregular(rnd, P), P.to_float(), fuzz_irreducible(rnd)):
                want = _subcritical_window_reference(M)
                assert repr(subcritical_window(M)) == repr(want), M.rows
                if want == -math.inf:
                    kinds["no window"] += 1
                else:  # a root met at a midpoint, or one rounded to a float
                    kinds[oracle._poly_eval(oracle.charpoly_exact(M), F(want)) == 0] += 1
        assert kinds["no window"] >= 5 and kinds[True] >= 20 and kinds[False] >= 20, kinds


class TestImageMembership:
    def test_examples(self):
        rep = image_membership(U, F(1), ConeVector.unit(2, 1))
        assert (rep.in_s1, rep.in_s2, rep.in_s3) == (True, True, True)
        rep = image_membership(U, F(1), ConeVector.unit(2, 2))
        assert (rep.in_s1, rep.in_s2, rep.in_s3) == (False, False, False)
        rep = image_membership(T, F(2), ConeVector.unit(2, 1))
        assert (rep.in_s1, rep.in_s2, rep.in_s3) == (False, False, False)
        rep = image_membership(T, F(1), ConeVector.unit(2, 2))
        assert (rep.in_s1, rep.in_s2, rep.in_s3) == (False, False, False)

    def test_zero_vector_is_in_every_set(self):
        rep = image_membership(T, F(1), ConeVector.zero_vector(2, RATIONAL))
        assert (rep.in_s1, rep.in_s2, rep.in_s3) == (True, True, True)

    def test_input_guards(self):
        with assert_raises(InvalidInput):
            image_membership(Z2, F(0), ConeVector.unit(2, 1))
        with assert_raises(InvalidInput):
            image_membership(U, F(2), ConeVector.unit(2, 1))
        with assert_raises(InvalidInput):
            image_membership(
                mat([[1.0, 1.0], [0.0, 1.0]], FLOAT), 1.0, ConeVector.unit(2, 1, FLOAT)
            )

    def test_membership_sets_are_nested(self):
        from coneq.spectral import distinguished_eigenvalues

        rnd = rng(777)
        cases = 0
        for _ in range(20):
            P = fuzz_matrix(rnd)
            for lam in distinguished_eigenvalues(P):
                if not isinstance(lam, Fraction) or lam <= 0:
                    continue
                for _ in range(3):
                    b = fuzz_vector(rnd, P.n)
                    rep = image_membership(P, lam, b)
                    cases += 1
                    assert rep.in_s1 == rep.in_s2
                    if rep.in_s2:
                        assert rep.in_s3
        assert cases >= 60


def _ref_tracedown_witness(P, class_index, tol):
    """eq_type2.tracedown_witness as it was before the back-substitution was
    shared with spectral.fv_eigenvector."""
    from coneq.core import NumericFailure, scalars_equal, solve_linear, zero
    from coneq.spectral import _block_exact_row_sum, perron_vector_block

    analysis = condense(P)
    tax = taxonomy(P, tol)
    k = analysis.class_count
    if not 0 <= class_index < k:
        raise InvalidInput(f"class index {class_index} outside 0..{k - 1}")
    if not (tax.basic[class_index] and tax.distinguished_transpose[class_index]):
        raise InvalidInput(
            "witness construction requires a basic class that is final among basic classes"
        )
    rho = tax.rho

    def block_of(c):
        cls = analysis.classes[c]
        return [[P.rows[i - 1][j - 1] for j in cls] for i in cls]

    exact = P.mode == RATIONAL and isinstance(rho, Fraction) and all(
        _block_exact_row_sum(block_of(c)) is not None or len(analysis.classes[c]) == 1
        for c in range(k)
        if analysis.has_access(c, class_index) and scalars_equal(tax.radii[c], rho, tol)
    )
    mode = RATIONAL if exact else FLOAT
    work = P if mode == P.mode else P.to_float()
    rho_s = rho if mode == RATIONAL else float(rho)
    x_by_class = {}
    b_by_class = {}
    half = Fraction(1, 2) if mode == RATIONAL else 0.5
    for c in reversed(range(k)):
        if not analysis.has_access(c, class_index):
            continue
        cls = analysis.classes[c]
        if c == class_index:
            _, vec = perron_vector_block(
                [[work.rows[i - 1][j - 1] for j in cls] for i in cls], tol
            )
            x_by_class[c] = list(vec)
            b_by_class[c] = [zero(mode)] * len(cls)
            continue
        inflow = [zero(mode) for _ in cls]
        for d, xd in x_by_class.items():
            dcls = analysis.classes[d]
            for bi, i in enumerate(cls):
                inflow[bi] += sum(
                    work.rows[i - 1][j - 1] * xd[dj]
                    for dj, j in enumerate(dcls)
                    if work.rows[i - 1][j - 1] != 0
                )
        if scalars_equal(tax.radii[c], rho, tol):
            _, vec = perron_vector_block(
                [[work.rows[i - 1][j - 1] for j in cls] for i in cls], tol
            )
            x_by_class[c] = list(vec)
            b_by_class[c] = inflow
        else:
            bb = [half * e for e in inflow]
            mrows = [
                [
                    (rho_s if bi == bj else zero(mode)) - work.rows[i - 1][j - 1]
                    for bj, j in enumerate(cls)
                ]
                for bi, i in enumerate(cls)
            ]
            sol = solve_linear(mrows, bb, mode)
            if sol is None:
                raise NumericFailure("singular block in witness construction")
            x_by_class[c] = sol
            b_by_class[c] = bb
    x_entries = [zero(mode)] * P.n
    b_entries = [zero(mode)] * P.n
    for c, xs in x_by_class.items():
        for bi, v in enumerate(analysis.classes[c]):
            x_entries[v - 1] = xs[bi]
            b_entries[v - 1] = b_by_class[c][bi]
    return ConeVector(tuple(x_entries), mode), ConeVector(tuple(b_entries), mode)


def _peaked(rnd):
    """A fuzzed matrix whose last class is rescaled to the radius of an
    earlier one, so several classes often share the spectral radius."""
    P = fuzz_matrix(rnd, n_max=7)
    an = condense(P)
    radii = taxonomy(P).radii
    top = max(radii)
    rows = [list(r) for r in P.rows]
    last = an.classes[-1]
    if radii[-1] and top:
        for i in last:
            rows[i - 1] = [e * top / radii[-1] for e in rows[i - 1]]
    return mat(rows)


def test_tracedown_matches_the_reference_back_substitution():
    # rational, irregular (float radii) and float-mode matrices; floats must
    # agree to the bit
    from fuzz import irregular
    from coneq.core import DEFAULT_TOL

    rnd = rng(1001)
    seen = Counter()
    for _ in range(120):
        P = _peaked(rnd)
        Q = irregular(rnd, fuzz_matrix(rnd, n_max=7))
        for M in (P, Q, P.to_float(), Q.to_float()):
            tax = taxonomy(M)
            for c in range(tax.analysis.class_count + 1):
                outcome = []
                for fn in (tracedown_witness, _ref_tracedown_witness):
                    try:
                        outcome.append(repr(fn(M, c, DEFAULT_TOL)))
                    except InvalidInput as exc:
                        outcome.append(str(exc))
                    except Exception as exc:
                        outcome.append(type(exc).__name__)
                assert outcome[0] == outcome[1], (M.rows, c)
                if outcome[0].startswith("(ConeVector"):
                    seen[M.mode, "mode='float'" in outcome[0]] += 1
                    # another basic class upstream takes a Perron vector too
                    seen["basic upstream"] += any(
                        tax.basic[d] and d != c and tax.analysis.has_access(d, c)
                        for d in range(tax.analysis.class_count)
                    )
    assert seen[RATIONAL, False] >= 100 and seen[RATIONAL, True] >= 20
    assert seen[FLOAT, True] >= 100 and seen["basic upstream"] >= 50


def _ref_solve2_above(P, lam, b, tol):
    """eq_type2.solve2_above as it was before one back-substitution built u
    over every relevant class: one fv_eigenvector per class, summed by hand."""
    from coneq.core import snap_cone, zero
    from coneq.eq_type1 import _check_inputs, minimal_solution
    from coneq.spectral import fv_eigenvector

    lam = _check_inputs(P, lam, b)
    if b.is_zero():
        return ConeVector.zero_vector(P.n, P.mode)
    tax = taxonomy(P, tol)
    if tax.local_sign(support(b), lam) >= 0:
        raise InvalidInput("construction requires the shift to exceed the local radius of b")
    if not combinatorial_solvable_above(P, lam, b, tol):
        raise InvalidInput("no nonnegative solution exists at this shift")
    dist = tax.classes_at(lam, tax.distinguished)
    relevant = [c for c in dist if support(b) & tax.accessor_vertices((c,))]
    vecs = [fv_eigenvector(P, c, tol) for c in relevant]
    x0 = minimal_solution(P, lam, b, tol)
    if any(v.mode != x0.mode for v in vecs):
        vecs = [v.to_float() for v in vecs]
        x0 = x0.to_float()
    mode = x0.mode
    u = [zero(mode)] * P.n
    for v in vecs:
        u = [a + e for a, e in zip(u, v.entries)]
    alpha = zero(mode)
    for ui, xi in zip(u, x0.entries):
        if xi != 0:
            ratio = xi / ui
            if ratio > alpha:
                alpha = ratio
    entries = [alpha * ui - xi for ui, xi in zip(u, x0.entries)]
    return snap_cone(entries, mode, tol)


def _peaks(rnd):
    """A fuzzed matrix whose classes on an antichain of the access relation
    are rescaled to radius 4, above every other class: each is distinguished
    at 4, and a b upstream of several reaches several of them."""
    P = fuzz_matrix(rnd, n_max=8)
    an = condense(P)
    rows = [list(r) for r in P.rows]
    peaks = []
    for c in rnd.sample(range(an.class_count), an.class_count):
        if any(an.has_access(c, d) or an.has_access(d, c) for d in peaks):
            continue
        peaks.append(c)
        cls = an.classes[c]
        for i in cls:
            s = sum(rows[i - 1][j - 1] for j in cls)
            for j in cls:
                rows[i - 1][j - 1] = rows[i - 1][j - 1] * 4 / s if s else F(4)
    return mat(rows)


def _peak_cases(rounds=200):
    """(M, tax, lam, b, relevant) over _peaks matrices, their irregular
    twins and the float twins of both: lam runs over the positive class
    radii, b is masked to the classes below lam, so lam exceeds its local
    radius, and relevant lists the distinguished classes at lam that supp(b)
    reaches."""
    rnd = rng(1002)
    for _ in range(rounds):
        P = _peaks(rnd)
        Q = irregular(rnd, P)
        vecs = [fuzz_vector(rnd, P.n) for _ in range(2)]
        for M in (P, Q, P.to_float(), Q.to_float()):
            tax = taxonomy(M)
            for lam in sorted({r for r in tax.radii if r > 0}):
                below = tax.analysis.vertices_of_mask(sum(1 << c for c in tax.initial_below(lam)))
                for v in vecs:
                    b = ConeVector.make([e if i in below else 0 for i, e in enumerate(v.entries, 1)], M.mode)
                    relevant = [
                        c for c in tax.classes_at(lam, tax.distinguished)
                        if support(b) & tax.accessor_vertices((c,))
                    ]
                    yield M, tax, lam, b, relevant


def _counted(monkeypatch, fn, M, lam, b):
    """fn(M, lam, b), and how often it called core.support on b ("supp(b)")
    and compared each class radius with lam (by class index).  Only the
    scalar lam itself counts: spectral_pair compares radii with rho_x."""
    counts = Counter()
    real_support, real_sign = support, ClassTaxonomy.radius_sign

    def counted_support(v):
        counts["supp(b)"] += v is b
        return real_support(v)

    def counted_sign(self, c, shift):
        counts[c] += shift is lam
        return real_sign(self, c, shift)

    with monkeypatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("coneq.") and getattr(module, "support", None) is real_support:
                mp.setattr(module, "support", counted_support)
        mp.setattr(ClassTaxonomy, "radius_sign", counted_sign)
        out = fn(M, lam, b)
    return out, counts


def test_a_decider_query_reads_each_fact_once(monkeypatch):
    # one pass per query: a rational solve1, solvable or not, and an
    # above-regime solvable2 read supp(b) once and compare each class radius
    # with lambda at most once
    seen = Counter()
    for M, tax, lam, b, relevant in _peak_cases(rounds=60):
        # rational radii only: at a shift tied to an irrational radius, a
        # rational solvable2 raises on mixed numeric modes
        if M.mode != RATIONAL or b.is_zero() or not all(isinstance(r, Fraction) for r in tax.radii):
            continue
        # fresh shift objects: lam and rho_b are radii of the record
        lam, rho_b = Fraction(lam), Fraction(tax.radii[tax.local_class(support(b))])
        queries = [(solve1, lam), (solvable2, lam)] + [(solve1, rho_b)] * (rho_b > 0)
        for fn, shift in queries:
            rep, counts = _counted(monkeypatch, fn, M, shift, b)
            assert counts.pop("supp(b)") == 1, (fn.__name__, M.rows, shift, b)
            assert 0 < max(counts.values()) == 1, (fn.__name__, M.rows, shift, b, counts)
            seen[fn.__name__, getattr(rep, "regime", None), rep.solvable] += 1
    assert seen["solve1", None, False] >= 40 and seen["solve1", None, True] >= 40, seen
    assert seen["solvable2", "above", True] >= 40 and seen["solvable2", "above", False] >= 5, seen


def test_solve2_above_matches_the_per_class_eigenvector_sum():
    # one back-substitution over every relevant class gives the sum of the
    # per-class eigenvectors: exactly in rational mode, and to the bit in
    # float mode unless a class has access to two relevant classes, whose
    # one solve then rounds apart from the sum of two solves
    from coneq.core import DEFAULT_TOL

    seen = Counter()
    for M, tax, lam, b, relevant in _peak_cases():
        outcome = []
        for fn in (solve2_above, _ref_solve2_above):
            try:
                outcome.append(fn(M, lam, b, DEFAULT_TOL))
            except InvalidInput as exc:
                outcome.append(str(exc))
            except Exception as exc:
                outcome.append(type(exc).__name__)
        shared = any(
            sum(tax.analysis.has_access(d, c) for c in relevant) >= 2
            for d in range(tax.analysis.class_count)
        )
        got, want = outcome
        if isinstance(got, ConeVector) and got.mode == FLOAT and shared:
            assert isinstance(want, ConeVector) and want.mode == FLOAT
            scale = max(abs(e) for e in want.entries)
            assert np.allclose(got.entries, want.entries, rtol=0, atol=1e-12 * scale)
            seen["float shared"] += 1
        else:
            assert repr(got) == repr(want), (M.rows, lam, b)
        if isinstance(got, ConeVector) and len(relevant) >= 2:
            seen[got.mode] += 1
    assert seen[RATIONAL] >= 50 and seen[FLOAT] >= 50 and seen["float shared"] >= 10, seen


def test_solve2_above_over_several_classes_matches_the_lp_and_the_residual():
    # the same cases against the ground truth: at a rational shift the
    # verdict of solvable2 is the exact LP's and a solution has an exact
    # zero residual and spectral pair (lam, 1); at a float radius an LP lies
    # inside the tolerance band, so a float solution is held to the float
    # residual rule of bench/workloads.py
    seen = Counter()
    for M, tax, lam, b, relevant in _peak_cases():
        if b.is_zero() or M.mode == RATIONAL and not isinstance(lam, Fraction):
            continue  # x = 0, whose pair is (0, 0); an irrational radius is defect (f)
        report = solvable2(M, lam, b)
        if M.mode == FLOAT:
            if report.solvable:
                img = M.shifted_apply(report.x.entries, lam, 1)
                scale = max(1.0, *(abs(e) for e in report.x.entries + b.entries)) * max(1.0, lam)
                assert all(abs(p - e) <= 1e-8 * scale for p, e in zip(img, b.entries)), (M.rows, lam, b)
                seen["float solved", len(relevant) >= 2] += 1
            continue
        rows = oracle.shifted_image_rows(M, lam, sign=1)
        assert report.solvable == oracle.feasible_nonneg_solution(rows, b.entries).feasible, (M.rows, lam, b)
        if report.solvable:
            assert M.shifted_apply(report.x.entries, lam, 1) == b.entries
            assert (report.spectral_pair_of_x.rho, report.spectral_pair_of_x.order) == (lam, 1)
        seen["rational", report.solvable, len(relevant) >= 2] += 1
    several = seen["rational", True, True] + seen["rational", False, True]
    assert several >= 50 and seen["float solved", True] >= 50, seen
