from fractions import Fraction

from pytest import raises as assert_raises

from coneq.core import FLOAT, RATIONAL, ConeVector, InvalidInput, NonnegMatrix, to_json
from coneq.alternating import (
    AT_LEAST,
    FINITE,
    INFINITE_CERTIFIED,
    ZMatrix,
    alt_length,
    alternating_bound_report,
    exists_infinite,
    is_m_matrix,
)
from coneq.spectral import fv_eigenvector, spectral_radius, taxonomy

from fuzz import fuzz_matrix, fuzz_vector, lambda_sweep, rng


def mat(rows, mode=RATIONAL):
    return NonnegMatrix.make(rows, mode)


F = Fraction
U = mat([[1, 1], [0, 1]])
T = mat([[2, 0], [1, 1]])
S = mat([[0, 1], [1, 0]])


def vec(*entries):
    return ConeVector.make(list(entries))


class TestLength:
    def test_terminating_runs(self):
        res = alt_length(ZMatrix.make(1, U), ConeVector.unit(2, 2))
        assert (res.kind, res.value, res.iterates_checked) == (FINITE, 2, 2)
        res = alt_length(ZMatrix.make(1, U), ConeVector.unit(2, 1))
        assert (res.kind, res.value, res.iterates_checked) == (FINITE, 1, 1)
        res = alt_length(ZMatrix.make(2, U), ConeVector.unit(2, 1))
        assert (res.kind, res.value, res.iterates_checked) == (FINITE, 0, 1)

    def test_certified_infinite_run(self):
        res = alt_length(ZMatrix.make(F(1, 2), S), vec(1, 1))
        assert (res.kind, res.value, res.iterates_checked) == (
            INFINITE_CERTIFIED,
            None,
            0,
        )

    def test_lower_bound_runs(self):
        res = alt_length(ZMatrix.make(0, S), ConeVector.unit(2, 1))
        assert (res.kind, res.value, res.iterates_checked) == (AT_LEAST, 4, 4)
        res = alt_length(ZMatrix.make(0, S), ConeVector.unit(2, 1), max_steps=9)
        assert (res.kind, res.value) == (AT_LEAST, 9)

    def test_float_iterates_snap_to_zero(self):
        Zf = ZMatrix.make(1.0, mat([[1.0, 1.0], [0.0, 1.0]], FLOAT))
        res = alt_length(Zf, ConeVector.unit(2, 2, FLOAT))
        assert (res.kind, res.value) == (FINITE, 2)

    def test_input_guards(self):
        with assert_raises(InvalidInput):
            alt_length(ZMatrix.make(1, U), ConeVector.zero_vector(2, RATIONAL))
        with assert_raises(InvalidInput):
            alt_length(ZMatrix.make(1, U), ConeVector.unit(2, 1), max_steps=-1)

    def test_serialization(self):
        d = to_json(alt_length(ZMatrix.make(1, U), ConeVector.unit(2, 2)))
        assert d == {"kind": "finite", "value": 2, "iterates_checked": 2}


class TestMMatrix:
    def test_threshold_at_the_spectral_radius(self):
        assert is_m_matrix(ZMatrix.make(3, T))
        assert is_m_matrix(ZMatrix.make(2, T))
        assert not is_m_matrix(ZMatrix.make(1, T))
        assert exists_infinite(ZMatrix.make(1, T))
        assert not exists_infinite(ZMatrix.make(2, T))

    def test_empty_matrix_at_negative_shifts(self):
        # rho of the 0x0 matrix is the exact 0: every negative shift, a float
        # within eig_tol of 0 included, lies below it
        for mode in (RATIONAL, FLOAT):
            empty = NonnegMatrix.zero_matrix(0, mode)
            for s in (-1, -1e-9, -5e-324):
                assert exists_infinite(ZMatrix.make(s, empty)), (mode, s)
            for s in (0, 1e-9, 1):
                assert not exists_infinite(ZMatrix.make(s, empty)), (mode, s)

    def test_shift_sweep(self):
        rnd = rng(101)
        for _ in range(25):
            P = fuzz_matrix(rnd)
            rho = spectral_radius(P)
            for s in list(lambda_sweep(P)) + [rho]:
                Z = ZMatrix.make(s, P)
                assert is_m_matrix(Z) == (s >= rho)
                assert exists_infinite(Z) == (s < rho)

    def test_infinite_witness_below_the_radius(self):
        # an exact eigenvector above the shift certifies an infinite run,
        # and above the radius no start vector can be certified infinite
        rnd = rng(102)
        certified = 0
        for _ in range(25):
            P = fuzz_matrix(rnd)
            tax = taxonomy(P)
            for c in range(len(tax.radii)):
                if not tax.distinguished[c] or tax.radii[c] <= 0:
                    continue
                u = fv_eigenvector(P, c)
                if u.mode != RATIONAL:
                    continue
                res = alt_length(ZMatrix.make(tax.radii[c] / 2, P), u)
                assert res.kind == INFINITE_CERTIFIED
                certified += 1
            rho = spectral_radius(P)
            Zhigh = ZMatrix.make(rho + F(1, 3), P)
            for i in range(P.n):
                res = alt_length(Zhigh, ConeVector.unit(P.n, i + 1))
                assert res.kind != INFINITE_CERTIFIED
        assert certified >= 25


class TestBoundReport:
    def test_examples(self):
        rep = alternating_bound_report(U, ConeVector.unit(2, 2))
        assert (rep.m_observed, rep.ord, rep.nu, rep.gamma_deduction) == (
            2,
            2,
            2,
            None,
        )
        rep = alternating_bound_report(S, ConeVector.unit(2, 1))
        assert (rep.m_observed, rep.ord, rep.nu, rep.gamma_deduction) == (
            0,
            1,
            1,
            True,
        )
        rep = alternating_bound_report(T, vec(1, 1))
        assert (rep.m_observed, rep.ord, rep.nu, rep.gamma_deduction) == (
            1,
            1,
            1,
            None,
        )

    def test_nonzero_vector_required(self):
        with assert_raises(InvalidInput):
            alternating_bound_report(T, ConeVector.zero_vector(2, RATIONAL))

    def test_observed_run_within_the_structural_bounds(self):
        rnd = rng(103)
        cases = 0
        deduced = 0
        for _ in range(25):
            P = fuzz_matrix(rnd)
            for _ in range(3):
                x = fuzz_vector(rnd, P.n)
                rep = alternating_bound_report(P, x)
                assert rep.m_observed <= rep.ord <= rep.nu
                cases += 1
                if rep.gamma_deduction is not None:
                    assert rep.gamma_deduction
                    deduced += 1
        assert cases == 75
