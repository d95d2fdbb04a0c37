import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coneq.core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    SpectralPair,
    Tolerance,
    as_scalar,
    exact_fraction,
    format_scalar,
    lex_leq,
    saturate,
    scalars_equal,
    snap_cone,
    solve_linear,
    support,
    to_json,
)
from coneq.classes import _sign, condense, smallest_initial_superset
from coneq.eq_type1 import solvability_conditions
from coneq.spectral import class_radii

from fuzz import fuzz_matrix, fuzz_vector, rng


def test_as_scalar_reads_decimal_literals_exactly():
    assert as_scalar("0.1", RATIONAL) == Fraction(1, 10)
    assert as_scalar(0.1, RATIONAL) == Fraction(1, 10)
    assert as_scalar("2/3", RATIONAL) == Fraction(2, 3)
    assert as_scalar(7, RATIONAL) == Fraction(7)
    assert as_scalar("2/3", FLOAT) == pytest.approx(2 / 3)
    assert as_scalar("0.5", FLOAT) == 0.5
    # a Decimal is read exactly in rational mode, as its value in float mode
    assert as_scalar(Decimal("0.1"), RATIONAL) == Fraction(1, 10)
    assert as_scalar(Decimal("1e-400"), RATIONAL) == Fraction(1, 10**400)
    assert as_scalar(Decimal("0.1"), FLOAT) == 0.1


def test_as_scalar_reads_numpy_integers_in_both_modes():
    for value, exact in ((np.int64(3), 3), (np.uint8(200), 200), (np.int64(2**62 + 1), 2**62 + 1)):
        got = as_scalar(value, RATIONAL)
        assert type(got) is Fraction and got == exact
        got = as_scalar(value, FLOAT)
        assert type(got) is float and got == float(exact)
    P = NonnegMatrix.make(np.array([[1, 2], [3, 4]]), RATIONAL)
    assert P == NonnegMatrix.make([[1, 2], [3, 4]], RATIONAL)
    assert all(type(e) is Fraction for row in P.rows for e in row)
    # NumPy's booleans (and complex numbers) are not read in either mode
    for mode in (RATIONAL, FLOAT):
        for junk in (np.True_, np.False_, np.complex128(1)):
            with pytest.raises(InvalidInput):
                as_scalar(junk, mode)


def test_as_scalar_reads_numpy_floats():
    assert as_scalar(np.float64(0.1), RATIONAL) == Fraction(1, 10)
    for value, want in ((np.float64(0.1), 0.1), (np.float32(1.5), 1.5)):
        got = as_scalar(value, FLOAT)
        assert type(got) is float and got == want


def test_as_scalar_rejects_junk():
    with pytest.raises(InvalidInput):
        as_scalar(True, RATIONAL)
    with pytest.raises(InvalidInput):
        as_scalar(float("nan"), RATIONAL)
    with pytest.raises(InvalidInput):
        as_scalar(None, RATIONAL)
    with pytest.raises(InvalidInput):
        as_scalar(float("inf"), FLOAT)
    # every malformed scalar is InvalidInput in both modes, never a bare
    # ValueError, ZeroDivisionError or OverflowError, and booleans are not
    # read as 0 and 1 in float mode either
    non_finite = [Decimal(v) for v in ("NaN", "sNaN", "Infinity", "-Infinity")]
    for mode in (RATIONAL, FLOAT):
        for junk in (True, False, "abc", "NaN", "1/0", [1], None, *non_finite):
            with pytest.raises(InvalidInput):
                as_scalar(junk, mode)
    with pytest.raises(InvalidInput):
        as_scalar("1e400", FLOAT)
    assert as_scalar("1e400", RATIONAL) == 10**400
    with pytest.raises(InvalidInput):
        as_scalar(1, "decimal")


def test_exact_fraction_is_binary_exact():
    assert exact_fraction(0.5) == Fraction(1, 2)
    assert exact_fraction(0.1) == Fraction(0.1)  # the binary value, not 1/10
    assert exact_fraction(0.1) != Fraction(1, 10)


def test_format_scalar():
    assert format_scalar(Fraction(2)) == 2
    assert format_scalar(Fraction(-3, 1)) == -3
    assert format_scalar(Fraction(1, 3)) == "1/3"
    assert format_scalar(math.inf) == "inf"
    assert format_scalar(-math.inf) == "-inf"
    assert format_scalar(0.25) == 0.25
    assert to_json([-math.inf, math.inf]) == ["-inf", "inf"]


def test_to_json_walks_containers():
    value = {
        "x": ConeVector.make([0, Fraction(1, 2)]),
        "pair": SpectralPair(Fraction(3), 2),
        "t": (Fraction(1, 3), 0.25, math.inf, [Fraction(4)]),
        "plain": [None, True, 7, "s"],
    }
    assert to_json(value) == {
        "x": [0, "1/2"],
        "pair": {"rho": 3, "order": 2},
        "t": ["1/3", 0.25, "inf", [4]],
        "plain": [None, True, 7, "s"],
    }
    assert to_json(to_json(value)) == to_json(value)  # encoded JSON is a fixed point


def test_lex_leq_examples():
    assert lex_leq(SpectralPair(1, 2), SpectralPair(2, 1))
    assert lex_leq(SpectralPair(1, 2), SpectralPair(1, 2))
    assert not lex_leq(SpectralPair(2, 1), SpectralPair(1, 9))


@given(
    st.tuples(st.integers(-5, 5), st.integers(0, 5)),
    st.tuples(st.integers(-5, 5), st.integers(0, 5)),
)
def test_lex_leq_total(a, b):
    pa = SpectralPair(Fraction(a[0]), a[1])
    pb = SpectralPair(Fraction(b[0]), b[1])
    assert lex_leq(pa, pb) or lex_leq(pb, pa)
    if lex_leq(pa, pb) and lex_leq(pb, pa):
        assert pa == pb


def test_cone_vector_rejects_negative():
    with pytest.raises(InvalidInput):
        ConeVector.make([1, -1], RATIONAL)
    with pytest.raises(InvalidInput):
        ConeVector.make([0.0, -0.5], FLOAT)


def test_support_is_one_based():
    v = ConeVector.make([0, 3, 0, 1], RATIONAL)
    assert support(v) == {2, 4}
    assert support(ConeVector.zero_vector(3)) == frozenset()


def test_snap_cone():
    snapped = snap_cone((1.0, -1e-12, 0.5), FLOAT, DEFAULT_TOL)
    assert snapped.entries == (1.0, 0.0, 0.5)
    with pytest.raises(InvalidInput):
        snap_cone((1.0, -0.5), FLOAT, DEFAULT_TOL)
    exact = snap_cone((Fraction(1), Fraction(0)), RATIONAL, DEFAULT_TOL)
    assert exact.entries == (Fraction(1), Fraction(0))


def test_tolerance_validation():
    assert DEFAULT_TOL.eq_tol == 1e-9
    assert DEFAULT_TOL.eig_tol == 1e-8
    assert DEFAULT_TOL.power_iters == 10000
    with pytest.raises(InvalidInput):
        Tolerance(eq_tol=0)
    with pytest.raises(InvalidInput):
        Tolerance(power_iters=-1)
    for bad in (
        {"eq_tol": math.nan},
        {"eig_tol": math.nan},
        {"eig_tol": True},
        {"eq_tol": math.inf},
        {"eq_tol": "1e-9"},
        {"power_iters": 2.5},
        {"power_iters": 100.0},
        {"power_iters": True},
    ):
        with pytest.raises(InvalidInput):
            Tolerance(**bad)
    # an irregular block runs the power iteration, which needs an int cap
    assert class_radii(NonnegMatrix.make([[1, 2], [3, 1]]), Tolerance(power_iters=100))[0] > 3


def test_scalar_comparisons():
    assert scalars_equal(Fraction(1, 3), Fraction(1, 3))
    assert not scalars_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))
    assert scalars_equal(1.0, 1.0 + 1e-12)
    assert _sign(Fraction(1), Fraction(2), DEFAULT_TOL) < 0
    assert _sign(1.0, 1.0 + 1e-12, DEFAULT_TOL) == 0
    # a rational beyond the float range meets a float under the same rule, exactly
    huge = Fraction(10**400)
    assert not scalars_equal(1.0, huge) and not scalars_equal(huge, 1.0)
    assert _sign(1.0, huge, DEFAULT_TOL) < 0 and _sign(huge, 1.0, DEFAULT_TOL) > 0
    # 2^1024 overflows a float, yet lies within 2^-53 relative of the largest one
    assert scalars_equal(sys.float_info.max, Fraction(2**1024))
    assert not scalars_equal(sys.float_info.max, Fraction(2**1025))


def test_matrix_validation():
    with pytest.raises(InvalidInput):
        NonnegMatrix.make([[1, 2], [3]], RATIONAL)
    with pytest.raises(InvalidInput):
        NonnegMatrix.make([[1, -2], [3, 4]], RATIONAL)
    P = NonnegMatrix.make([[1, 2], [3, 4]], RATIONAL)
    assert P.entry(1, 2) == Fraction(2)
    assert P.transpose().entry(2, 1) == Fraction(2)
    assert P.submatrix([2]).rows == ((Fraction(4),),)


def test_solve_linear_exact_and_float():
    rows = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    sol = solve_linear(rows, [Fraction(1), Fraction(1)], RATIONAL)
    assert sol == [Fraction(1, 3), Fraction(1, 3)]
    singular = solve_linear([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                            [Fraction(1), Fraction(0)], RATIONAL)
    assert singular is None
    fsol = solve_linear([[2.0, 1.0], [0.0, 3.0]], [1.0, 1.0], FLOAT)
    assert fsol is not None
    assert abs(fsol[0] - 1 / 3) < 1e-12


def test_saturation_expands_by_one_application():
    P = NonnegMatrix.make([[1, 1], [0, 1]], RATIONAL)
    x = ConeVector.make([0, 1], RATIONAL)
    assert saturate(P, x).entries == (Fraction(1), Fraction(2))

    Z = NonnegMatrix.zero_matrix(3, RATIONAL)
    e2 = ConeVector.unit(3, 2)
    assert support(saturate(Z, e2)) == {2}

    P3 = NonnegMatrix.make([[2, 1, 0], [0, 1, 0], [0, 0, 1]], RATIONAL)
    assert support(saturate(P3, ConeVector.unit(3, 3))) == {3}


def test_saturation_support_is_the_initial_closure():
    rnd = rng(20260819)
    for _ in range(60):
        P = fuzz_matrix(rnd)
        x = fuzz_vector(rnd, P.n)
        closure = smallest_initial_superset(condense(P), support(x))
        assert support(saturate(P, x)) == closure


def test_rational_pipeline_is_deterministic():
    rnd = rng(7)
    P = fuzz_matrix(rnd)
    x = fuzz_vector(rnd, P.n)
    first = saturate(P, x).entries
    again = saturate(P, x).entries
    assert first == again


class _CountingFraction(Fraction):
    """A Fraction that counts how often it is hashed."""

    hashed = 0

    def __hash__(self):
        type(self).hashed += 1
        return super().__hash__()


class TestMatrixHash:
    def test_equal_matrices_built_separately_hash_equal(self):
        rnd = rng(4101)
        for _ in range(20):
            P = fuzz_matrix(rnd)
            Q = NonnegMatrix.make([list(row) for row in P.rows], RATIONAL)
            assert P is not Q and P == Q
            assert hash(P) == hash(Q) == hash(P) == hash((P.rows, P.mode))

    def test_repr_and_equality_ignore_the_memo(self):
        # both memos: the hash, and the values memoized keeps
        P = NonnegMatrix.make([[1, 2], [0, 3]], RATIONAL)
        Q = NonnegMatrix.make([[1, 2], [0, 3]], RATIONAL)
        before = repr(P)
        hash(P)
        solvability_conditions(P, Fraction(3), ConeVector.make([1, 1]))
        assert "_memo" in vars(P) and "_memo" not in vars(Q)
        assert repr(P) == before == repr(Q)
        assert P == Q and Q == P and hash(P) == hash(Q)

    def test_hash_is_computed_on_first_use_only(self):
        c = _CountingFraction
        c.hashed = 0
        P = NonnegMatrix(((c(1), c(2)), (c(0), c(3))), RATIONAL)
        P.transpose()
        P.submatrix([1])
        assert c.hashed == 0
        hash(P)
        assert c.hashed == 4
        hash(P)
        assert {P: 1}[P] == 1
        assert c.hashed == 4

    def test_pickled_matrix_hashes_like_a_fresh_one_in_another_process(self):
        import os
        import pickle
        import subprocess
        import sys

        import coneq

        P = NonnegMatrix.make([[1, Fraction(1, 2)], [0, 3]], RATIONAL)
        hash(P)
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        src = os.path.dirname(os.path.dirname(os.path.abspath(coneq.__file__)))
        child = (
            "import pickle, sys\n"
            "from coneq.core import NonnegMatrix\n"
            "P = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = NonnegMatrix.make([list(r) for r in P.rows], P.mode)\n"
            "print(hash(P) == hash(fresh), P == fresh, hash(fresh))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", child], input=pickle.dumps(P), env=env,
            capture_output=True, check=True, timeout=60,
        ).stdout.decode().split()
        assert out[:2] == ["True", "True"]
        # the child salts str hashes differently, so a memo carried over
        # from this process would have disagreed
        assert int(out[2]) != hash(P)

    def test_rational_and_float_copies_stay_unequal(self):
        P = NonnegMatrix.make([[1, 2], [0, 3]], RATIONAL)
        F = P.to_float()
        assert P.rows == F.rows  # 1 == 1.0 entry by entry
        assert P != F and len({P, F}) == 2
        # so the structure caches keep one entry per mode
        assert all(isinstance(r, Fraction) for r in class_radii(P))
        assert all(isinstance(r, float) for r in class_radii(F))


class TestMatrixMemo:
    """NonnegMatrix.memoized keeps values derived from the matrix alone on
    the instance, outside the fields."""

    def test_to_numpy_is_one_read_only_array(self):
        P = NonnegMatrix.make([[1, Fraction(1, 2)], [0, 3]], RATIONAL)
        a = P.to_numpy()
        assert P.to_numpy() is a
        assert a.tolist() == [[1.0, 0.5], [0.0, 3.0]]
        with pytest.raises(ValueError):
            a[0, 0] = 7.0
        with pytest.raises(ValueError):
            a.T[1, 0] = 7.0
        assert P.to_numpy()[0, 0] == 1.0

    def test_derived_matrices_start_without_a_memo(self):
        P = NonnegMatrix.make([[1, 2], [0, 3]], RATIONAL)
        P.to_numpy()
        solvability_conditions(P, Fraction(3), ConeVector.make([1, 1]))
        for derived in (P.transpose(), P.submatrix([1, 2]), P.to_float()):
            assert "_memo" not in vars(derived)
            assert derived.to_numpy() is not P.to_numpy()

    def test_pickled_matrix_arrives_without_a_memo(self):
        import pickle

        P = NonnegMatrix.make([[1, 2], [0, 3]], RATIONAL)
        solvability_conditions(P, Fraction(3), ConeVector.make([1, 1]))
        assert "_memo" in vars(P)
        Q = pickle.loads(pickle.dumps(P))
        assert Q == P and "_memo" not in vars(Q)

    def test_each_tolerance_builds_its_own_eigenspaces(self, monkeypatch):
        from coneq import oracle

        seen = []
        orig = oracle._eigen_clusters

        def counted(a, tol):
            seen.append(tol)
            return orig(a, tol)

        monkeypatch.setattr(oracle, "_eigen_clusters", counted)
        P = NonnegMatrix.make([[1, 2], [0, 3]], FLOAT)
        b = ConeVector.make([1, 1], FLOAT)
        loose = Tolerance(eq_tol=1e-6, eig_tol=1e-4)
        for tol in (DEFAULT_TOL, loose, DEFAULT_TOL, Tolerance(eig_tol=1e-4, eq_tol=1e-6)):
            solvability_conditions(P, 3.0, b, tol)
        assert seen == [DEFAULT_TOL, loose]
