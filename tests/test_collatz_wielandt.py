import math
from collections import Counter
from fractions import Fraction

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
from coneq.classes import condense, smallest_initial_superset
from coneq.collatz_wielandt import (
    boundary_report,
    cw_numbers,
    cw_sets,
    decompose_subinvariant,
    decompose_superinvariant,
    power_limit_exists,
    rho_in_sigma1,
    zero_intersection_conditions,
)
from coneq.eq_type1 import minimal_solution, solvable_set
from coneq.spectral import (
    class_radii,
    fv_eigenvector,
    local_spectral_radius,
    max_distinguished_order,
    spectral_radius,
    taxonomy,
)
from coneq import oracle

from fuzz import fuzz_matrix, fuzz_vector, irregular, rng
from test_oracle import _ref_generalized_null_is_eigen


def mat(rows, mode=RATIONAL):
    return NonnegMatrix.make(rows, mode)


F = Fraction
T = mat([[2, 0], [1, 1]])
U = mat([[1, 1], [0, 1]])
S = mat([[0, 1], [1, 0]])
I2 = mat([[1, 0], [0, 1]])
A = mat([[2, 1, 0], [0, 1, 0], [0, 0, 1]])
L = mat([[1, 0], [1, 1]])
D2 = mat([[2, 0], [0, 1]])
N = mat([[0, 1], [0, 0]])
Z2 = mat([[0, 0], [0, 0]])


def vec(*entries):
    return ConeVector.make(list(entries))


def _distinguished_peak_class(P):
    """Index of a distinguished class sitting at the spectral radius."""
    tax = taxonomy(P)
    for c in range(len(tax.radii)):
        if tax.distinguished[c] and tax.radii[c] == tax.rho:
            return c
    raise AssertionError("no distinguished class at the radius")


class TestNumbers:
    def test_ratio_extrema(self):
        rep = cw_numbers(T, vec(1, 2))
        assert (rep.r_lower, rep.R_upper, rep.rho_x) == (F(3, 2), F(2), F(2))
        rep = cw_numbers(S, vec(1, 1))
        assert (rep.r_lower, rep.R_upper, rep.rho_x) == (F(1), F(1), F(1))

    def test_upper_number_infinite_off_the_face(self):
        rep = cw_numbers(U, ConeVector.unit(2, 2))
        assert (rep.r_lower, rep.R_upper, rep.rho_x) == (F(1), math.inf, F(1))

    def test_nonzero_vector_required(self):
        with assert_raises(InvalidInput):
            cw_numbers(T, ConeVector.zero_vector(2, RATIONAL))

    def test_local_radius_between_the_numbers(self):
        rnd = rng(90)
        for _ in range(40):
            P = fuzz_matrix(rnd)
            for _ in range(3):
                x = fuzz_vector(rnd, P.n)
                rep = cw_numbers(P, x)
                assert rep.r_lower <= rep.rho_x <= rep.R_upper


class TestSets:
    def test_extrema(self):
        assert cw_sets(T) == cw_sets(T)
        rep = cw_sets(T)
        assert (rep.sup_omega, rep.inf_sigma, rep.sup_omega1, rep.inf_sigma1) == (
            F(2),
            F(1),
            F(2),
            F(2),
        )
        assert rep.inf_sigma1_attained
        rep = cw_sets(I2)
        assert (rep.sup_omega, rep.inf_sigma, rep.sup_omega1, rep.inf_sigma1) == (
            F(1),
            F(1),
            F(1),
            F(1),
        )
        assert rep.inf_sigma1_attained
        rep = cw_sets(Z2)
        assert (rep.sup_omega, rep.inf_sigma, rep.sup_omega1, rep.inf_sigma1) == (
            F(0),
            F(0),
            F(0),
            F(0),
        )
        rep = cw_sets(U)
        assert (rep.sup_omega, rep.inf_sigma, rep.sup_omega1, rep.inf_sigma1) == (
            F(1),
            F(1),
            F(1),
            F(1),
        )
        assert not rep.inf_sigma1_attained

    def test_every_extremum_is_a_radius_of_the_record(self):
        # each field is a class radius as P's own record holds it, in value
        # and type (Fraction or float), and sup_omega1 is the least radius
        # of a distinguished_transpose class; no record of P^T is consulted
        rnd = rng(97)
        floats = 0
        for _ in range(60):
            P = fuzz_matrix(rnd)
            for M in (P, irregular(rnd, P), P.to_float()):
                tax = taxonomy(M)
                held = [(r, type(r)) for r in tax.radii]
                rep = cw_sets(M)
                for value in (rep.sup_omega, rep.inf_sigma, rep.sup_omega1, rep.inf_sigma1):
                    assert (value, type(value)) in held, (M, rep)
                least = min(r for r, flag in zip(tax.radii, tax.distinguished_transpose) if flag)
                assert (rep.sup_omega1, type(rep.sup_omega1)) == (least, type(least))
                floats += isinstance(rep.sup_omega1, float)
        assert floats >= 60

    def test_serialization(self):
        assert to_json(cw_sets(T)) == {
            "sup_omega": 2,
            "inf_sigma": 1,
            "sup_omega1": 2,
            "inf_sigma1": 2,
            "inf_sigma1_attained": True,
        }


class TestAttainment:
    def test_examples(self):
        assert rho_in_sigma1(T)
        assert not rho_in_sigma1(U)
        assert rho_in_sigma1(I2)
        assert not rho_in_sigma1(L)

    def test_agrees_with_the_positive_subinvariant_lp(self):
        # exists x with x_i >= 1 for all i and (rho*I - P)x >= 0
        rnd = rng(91)
        for _ in range(40):
            P = fuzz_matrix(rnd)
            rho = spectral_radius(P)
            n = P.n
            shift = oracle.shifted_image_rows(P, rho, sign=-1)
            ge_rows = [(row, Fraction(0)) for row in shift]
            for i in range(n):
                unit = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
                ge_rows.append((unit, Fraction(1)))
            prob = oracle.LPProblem.build(n, ge_rows=ge_rows)
            assert rho_in_sigma1(P) == oracle.lp_feasible(prob).feasible

    def test_agrees_with_the_face_route(self):
        rnd = rng(97)
        verdicts = Counter()
        for _ in range(150):
            P = fuzz_matrix(rnd, n_max=6)
            for M in (P, irregular(rnd, P)):
                for N in (M, M.to_float()):
                    attained = rho_in_sigma1(N)
                    assert attained == _ref_rho_attained_face_route(taxonomy(N), False), N
                    verdicts["P", attained] += 1
                if isinstance(spectral_radius(M), Fraction):
                    cond_a = zero_intersection_conditions(M).a
                    assert cond_a == _ref_rho_attained_face_route(taxonomy(M), True), M
                    verdicts["P^T", cond_a] += 1
        assert min(verdicts[side, flag] for side in ("P", "P^T") for flag in (True, False)) >= 40, verdicts


def _ref_rho_attained_face_route(tax, transpose):
    """rho_in_sigma1 of the record's matrix, or of its transpose, by the face
    formulation: every class a basic class reaches has access to a
    distinguished basic class.  On the transpose the classes and radii are
    the same with access reversed, so distinguished reads
    distinguished_transpose, and the classes a set reaches those with access
    to it."""
    an = tax.analysis
    distinguished, reached, accessors = tax.distinguished, an.reached_mask, an.accessors_mask
    if transpose:
        distinguished = tax.distinguished_transpose
        reached, accessors = accessors, reached
    basic = [c for c, flag in enumerate(tax.basic) if flag]
    face = accessors(sum(1 << c for c in basic if distinguished[c]))
    return reached(sum(1 << c for c in basic)) & ~face == 0


class TestSubinvariantDecomposition:
    def test_examples(self):
        x1, x2 = decompose_subinvariant(T, vec(1, 1))
        assert x1.entries == (F(1), F(1)) and x2.entries == (F(0), F(0))
        x1, x2 = decompose_subinvariant(D2, vec(1, 1))
        assert x1.entries == (F(1), F(0)) and x2.entries == (F(0), F(1))
        x1, x2 = decompose_subinvariant(N, ConeVector.unit(2, 1))
        assert x1.entries == (F(1), F(0)) and x2.entries == (F(0), F(0))

    def test_rejects_vectors_above_the_radius(self):
        with assert_raises(InvalidInput):
            decompose_subinvariant(U, vec(1, 1))
        with assert_raises(InvalidInput):
            decompose_subinvariant(N, ConeVector.unit(2, 2))
        with assert_raises(InvalidInput):
            decompose_subinvariant(T, ConeVector.zero_vector(2, RATIONAL))

    def test_reconstruction(self):
        rnd = rng(92)
        split_seen = 0
        for _ in range(25):
            P = fuzz_matrix(rnd)
            rho = spectral_radius(P)
            if rho <= 0:
                continue
            u = fv_eigenvector(P, _distinguished_peak_class(P))
            if u.mode != RATIONAL:
                continue
            sset = solvable_set(P, rho)
            raw = fuzz_vector(rnd, P.n).entries
            clipped = [e if i + 1 in sset else F(0) for i, e in enumerate(raw)]
            if any(clipped):
                b = ConeVector.make(clipped)
                w = minimal_solution(P, rho, b)
                x = ConeVector.make([a + c for a, c in zip(u.entries, w.entries)])
                split_seen += 1
            else:
                x = u
            x1, x2 = decompose_subinvariant(P, x)
            assert tuple(a + c for a, c in zip(x1.entries, x2.entries)) == x.entries
            img1 = P.apply(x1.entries)
            assert tuple(img1) == tuple(rho * e for e in x1.entries)
            if not x2.is_zero():
                assert local_spectral_radius(P, x2) < rho
                img2 = P.apply(x2.entries)
                assert all(i <= rho * e for i, e in zip(img2, x2.entries))
        assert split_seen >= 10


class TestSuperinvariantDecomposition:
    def test_example(self):
        x1, x2 = decompose_superinvariant(T, ConeVector.unit(2, 1))
        assert x1.entries == (F(1), F(1)) and x2.entries == (F(0), F(1))

    def test_requires_order_one(self):
        with assert_raises(InvalidInput):
            decompose_superinvariant(U, ConeVector.unit(2, 2))
        with assert_raises(InvalidInput):
            decompose_superinvariant(N, ConeVector.unit(2, 2))
        with assert_raises(InvalidInput):
            decompose_superinvariant(T, ConeVector.zero_vector(2, RATIONAL))

    def test_reconstruction(self):
        rnd = rng(93)
        split_seen = 0
        for _ in range(70):
            if split_seen >= 10:
                break
            P = fuzz_matrix(rnd)
            rho = spectral_radius(P)
            if rho <= 0:
                continue
            u = fv_eigenvector(P, _distinguished_peak_class(P))
            if u.mode != RATIONAL:
                continue
            usupp = support(u)
            sset = solvable_set(P, rho) & usupp
            raw = fuzz_vector(rnd, P.n).entries
            clipped = [e if i + 1 in sset else F(0) for i, e in enumerate(raw)]
            if any(clipped):
                b = ConeVector.make(clipped)
                w = minimal_solution(P, rho, b)
                scale = min(
                    u.entries[i] / (2 * w.entries[i])
                    for i in range(P.n)
                    if w.entries[i] != 0
                )
                x = ConeVector.make(
                    [a - scale * c for a, c in zip(u.entries, w.entries)]
                )
                split_seen += 1
            else:
                x = u
            x1, x2 = decompose_superinvariant(P, x)
            assert x1.entries == tuple(
                a + c for a, c in zip(x.entries, x2.entries)
            )
            img1 = P.apply(x1.entries)
            assert tuple(img1) == tuple(rho * e for e in x1.entries)
            if not x2.is_zero():
                assert local_spectral_radius(P, x2) < rho
        assert split_seen >= 10


class TestZeroIntersection:
    def test_examples(self):
        for P, expect in [(I2, True), (U, False), (A, True), (T, False)]:
            rep = zero_intersection_conditions(P)
            assert (rep.a, rep.b, rep.c) == (expect, expect, expect)

    def test_rational_mode_only(self):
        with assert_raises(InvalidInput):
            zero_intersection_conditions(mat([[0.0, 1.0], [1.0, 0.0]], FLOAT))

    def test_conditions_agree(self):
        rnd = rng(94)
        trues = 0
        for _ in range(30):
            P = fuzz_matrix(rnd, n_max=5)
            rep = zero_intersection_conditions(P)
            assert rep.a == rep.b == rep.c
            trues += rep.a
        assert 0 < trues < 30


def _reference_conditions_a_b(P):
    """Conditions a and b as they read before they came off P's record:
    a on the record of P^T, b on the record of the principal submatrix on
    the classes with access to a basic class."""
    rho = spectral_radius(P)
    tax = taxonomy(P)
    j_verts = sorted(tax.accessor_vertices(c for c, flag in enumerate(tax.basic) if flag))
    closure = True
    if j_verts:
        sub_tax = taxonomy(P.submatrix(j_verts))
        closure = all(sub_tax.radius_sign(c, rho) == 0 for c in sub_tax.eigen_classes)
    return rho_in_sigma1(P.transpose()), _ref_generalized_null_is_eigen(P, rho) and closure


def test_zero_intersection_matches_the_transpose_and_submatrix_records():
    rnd = rng(98)
    verdicts = Counter()
    compared = 0
    while compared < 300:
        P = fuzz_matrix(rnd, n_max=6)
        for M in (P, irregular(rnd, P)):
            if not isinstance(spectral_radius(M), Fraction):
                continue  # the conditions need an exact rational radius
            rep = zero_intersection_conditions(M)
            assert (rep.a, rep.b) == _reference_conditions_a_b(M), M
            verdicts.update((name, getattr(rep, name)) for name in "abc")
            compared += 1
    assert min(verdicts[(name, flag)] for name in "abc" for flag in (True, False)) >= 40, verdicts


def test_the_record_reads_the_null_vectors_at_every_rational_class_radius():
    # the record's form of the exact route at any shift: the nonnegative
    # generalized null vectors at a rational class radius lam are all
    # eigenvectors iff lam is not a distinguished eigenvalue (the cone is
    # {0}) or no nonnegative generalized eigenvector at lam has order 2
    rnd = rng(707)
    verdicts = Counter()
    for _ in range(250):
        P = fuzz_matrix(rnd, n_max=8)
        for M in (P, irregular(rnd, P)):
            tax = taxonomy(M)
            for lam in {r for r in class_radii(M) if isinstance(r, Fraction)}:
                record = not tax.is_distinguished_eigenvalue(lam) or max_distinguished_order(M, lam) <= 1
                assert record == _ref_generalized_null_is_eigen(M, lam), (M, lam)
                verdicts[record] += 1
    assert min(verdicts[True], verdicts[False]) >= 40, verdicts


class TestBoundary:
    def test_examples(self):
        rep = boundary_report(L, vec(1, 1))
        assert rep.b.entries == (F(1), F(0))
        assert rep.on_boundary and rep.strict_iff
        rep = boundary_report(S, vec(1, 1))
        assert rep.b.entries == (F(0), F(0))
        assert rep.on_boundary and rep.strict_iff
        rep = boundary_report(T, vec(1, 2))
        assert rep.b.entries == (F(0), F(1))
        assert rep.on_boundary and rep.strict_iff

    def test_requires_a_finite_upper_number(self):
        with assert_raises(InvalidInput):
            boundary_report(U, ConeVector.unit(2, 2))
        with assert_raises(InvalidInput):
            boundary_report(T, ConeVector.zero_vector(2, RATIONAL))

    def test_face_generation_iff_strict_gap(self):
        # support extended to its access closure keeps the image on the face
        rnd = rng(95)
        cases = 0
        for _ in range(30):
            P = fuzz_matrix(rnd)
            an = condense(P)
            x = fuzz_vector(rnd, P.n)
            closed = smallest_initial_superset(an, support(x))
            entries = [
                x.entries[i] + (1 if i + 1 in closed else 0)
                if i + 1 in closed
                else F(0)
                for i in range(P.n)
            ]
            x = ConeVector.make(entries)
            rep = boundary_report(P, x)
            cases += 1
            img = P.apply(x.entries)
            r_upper = cw_numbers(P, x).R_upper
            assert rep.b.entries == tuple(
                r_upper * e - i for e, i in zip(x.entries, img)
            )
            assert rep.on_boundary == (support(rep.b) < support(x))
            assert rep.strict_iff
        assert cases == 30


class TestPowerLimit:
    def test_examples(self):
        rep = power_limit_exists(T, vec(1, 1))
        assert rep.exists and rep.orbit_evidence
        rep = power_limit_exists(S, ConeVector.unit(2, 1))
        assert not rep.exists and rep.orbit_evidence is None
        rep = power_limit_exists(U, ConeVector.unit(2, 2))
        assert not rep.exists and rep.orbit_evidence is None

    def test_requires_a_positive_local_radius(self):
        with assert_raises(InvalidInput):
            power_limit_exists(Z2, ConeVector.unit(2, 1))
        with assert_raises(InvalidInput):
            power_limit_exists(T, ConeVector.zero_vector(2, RATIONAL))

    def test_eigenvectors_converge(self):
        rnd = rng(96)
        checked = 0
        for _ in range(25):
            P = fuzz_matrix(rnd)
            tax = taxonomy(P)
            for c in range(len(tax.radii)):
                if not tax.distinguished[c] or tax.radii[c] <= 0:
                    continue
                u = fv_eigenvector(P, c)
                rep = power_limit_exists(P, u)
                assert rep.exists
                assert rep.orbit_evidence is None or rep.orbit_evidence
                checked += 1
        assert checked >= 20
