from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from pytest import raises as assert_raises

from coneq.core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    Tolerance,
    scalars_equal,
    support,
    to_json,
)
from coneq.classes import ClassTaxonomy, condense, smallest_initial_superset
from coneq.spectral import class_radii, distinguished_eigenvalues, local_spectral_radius, taxonomy
from coneq.eq_type1 import (
    minimal_solution,
    neumann_partial,
    solvability_conditions,
    solvable1,
    solvable_set,
    solve1,
)
from coneq import eq_type1, oracle

from fuzz import fuzz_matrix, fuzz_vector, irregular, lambda_sweep, rng


# eq_type1's iterative checks c and d as they were before one pass took
# both: each squared its own matrix (c a 2n x 2n step matrix carrying the
# partial sum, d the n x n P/lambda), with one numpy reduction per
# checkpoint scalar and each capped product a new array; `reached` counts,
# per check, the cases that got to a last checkpoint off a power of two


def _reduction_capped_product(x, y):
    return np.minimum(x @ y, 1e150)


def _reduction_doubling_powers(a, horizon):
    squares = []
    m = 1
    while m <= horizon:
        yield m, a
        squares.append(a)
        m *= 2
        if m <= horizon:
            a = _reduction_capped_product(a, a)
    if horizon > m // 2:
        picked = [sq for k, sq in enumerate(squares) if horizon >> k & 1]
        last = picked[0]
        for sq in picked[1:]:
            last = _reduction_capped_product(last, sq)
        yield horizon, last


def _reduction_condition_c(P, lam, b, tol, reached):
    n = P.n
    a = P.to_numpy() / float(lam)
    step = np.zeros((2 * n, 2 * n))  # [[a, 0], [I, I]]
    step[:n, :n] = a
    step[n:, :n] = step[n:, n:] = np.eye(n)
    bv = b.to_numpy()
    scale = max(1.0, float(np.max(bv)))
    start = np.zeros(2 * n)
    start[:n] = bv / float(lam)
    horizon = tol.power_iters
    for m, power in _reduction_doubling_powers(step, max(1, horizon - 2)):
        reached["c"] += m & (m - 1) != 0
        pair = power @ start
        term = pair[:n]
        total = pair[n:] + term
        for k in range(3):  # the terms m, m+1, m+2
            if k:
                if m + k > horizon:
                    break
                term = a @ term
                total = total + term
            if float(total.max()) > 1e12 * scale:
                return False
            if float(term.max()) > tol.eq_tol * max(1.0, float(total.max())):
                break
        else:
            return True
    return None


def _reduction_condition_d(P, lam, b, tol, reached):
    bv = b.to_numpy()
    scale = max(1.0, float(np.max(bv)))
    for m, power in _reduction_doubling_powers(P.to_numpy() / float(lam), tol.power_iters):
        reached["d"] += m & (m - 1) != 0
        nrm = float((power @ bv).max())
        if nrm <= tol.eq_tol * scale:
            return True
        if nrm > 1e12 * scale:
            return False
    return None


def _reduction_c_d(P, lam, b, tol, reached):
    return _reduction_condition_c(P, lam, b, tol, reached), _reduction_condition_d(P, lam, b, tol, reached)


def mat(rows, mode=RATIONAL):
    return NonnegMatrix.make(rows, mode)


F = Fraction
D = mat([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
T = mat([[2, 0], [1, 1]])
U = mat([[1, 1], [0, 1]])


def vec(*entries):
    return ConeVector.make(list(entries))


def _term_by_term_c_d(P, lam, b, tol):
    """Reference for conditions c and d: one step of P/lambda per term."""
    a = P.to_numpy() / float(lam)
    bv = b.to_numpy()
    scale = max(1.0, float(np.max(bv)))
    term = bv / float(lam)
    acc = term.copy()
    c = None
    stable = 0
    for _ in range(tol.power_iters):
        term = a @ term
        acc = acc + term
        if float(np.max(acc)) > 1e12 * scale:
            c = False
            break
        if float(np.max(term)) <= tol.eq_tol * max(1.0, float(np.max(acc))):
            stable += 1
            if stable >= 3:
                c = True
                break
        else:
            stable = 0
    d = None
    v = bv
    for _ in range(tol.power_iters):
        v = a @ v
        nrm = float(np.max(v))
        if nrm <= tol.eq_tol * scale:
            d = True
            break
        if nrm > 1e12 * scale:
            d = False
            break
    return c, d


class TestDecision:
    def test_blocked_by_the_local_radius(self):
        assert not solvable1(D, F(1), ConeVector.unit(3, 3))
        assert solvable1(D, F(3), ConeVector.unit(3, 3))
        assert solvable1(D, F(1), ConeVector.unit(3, 1))
        assert solvable1(T, F(3), vec(1, 1))
        assert not solvable1(T, F(2), vec(1, 1))

    def test_shift_must_be_positive(self):
        with assert_raises(InvalidInput):
            solvable1(T, F(0), vec(1, 1))
        with assert_raises(InvalidInput):
            solvable1(T, F(-1), vec(1, 1))
        with assert_raises(InvalidInput):
            solve1(T, 0, vec(1, 1))

    def test_dimension_and_mode_guards(self):
        with assert_raises(InvalidInput):
            solvable1(T, F(1), ConeVector.unit(3, 1))
        with assert_raises(InvalidInput):
            solvable1(T, F(1), ConeVector.unit(2, 1, FLOAT))

    def test_report_fields_when_unsolvable(self):
        rep = solve1(D, F(1), ConeVector.unit(3, 3))
        assert not rep.solvable
        assert rep.rho_b == F(2)
        assert rep.x0 is None and rep.unique is None
        assert rep.fired_condition == "h"
        assert rep.witness_class == condense(D).class_of_vertex(3)
        assert rep.eigen_freedom == (condense(D).class_of_vertex(2),)

    def test_decision_agrees_with_feasibility(self):
        rnd = rng(61)
        cases = 0
        for _ in range(60):
            P = fuzz_matrix(rnd)
            b = fuzz_vector(rnd, P.n)
            for lam in lambda_sweep(P, DEFAULT_TOL):
                if not isinstance(lam, Fraction):
                    continue
                rows = oracle.shifted_image_rows(P, lam, sign=-1)
                lp = oracle.feasible_nonneg_solution(rows, [Fraction(e) for e in b.entries])
                assert solvable1(P, lam, b) == lp.feasible
                cases += 1
        assert cases >= 150


class TestMinimalSolution:
    def test_examples(self):
        rep = solve1(T, F(3), vec(1, 1))
        assert rep.solvable and rep.x0.entries == (F(1), F(1))
        assert rep.unique is True and rep.residual_norm == 0
        assert solve1(U, F(2), vec(1, 0)).x0.entries == (F(1), F(0))
        rep = solve1(D, F(1), ConeVector.unit(3, 1))
        assert rep.x0.entries == (F(1), F(0), F(0))
        assert rep.unique is False and rep.eigen_freedom != ()

    def test_requires_solvability(self):
        with assert_raises(InvalidInput):
            minimal_solution(D, F(1), ConeVector.unit(3, 3))

    def test_zero_rhs(self):
        assert minimal_solution(T, F(1), ConeVector.zero_vector(2)).is_zero()

    def test_zero_rhs_is_solvable_at_every_positive_shift(self):
        # x = 0 solves (lambda*I - P)x = 0: the zero vector's local radius is
        # the exact 0, so a float shift within eig_tol of 0 is still above it
        for mode in (RATIONAL, FLOAT):
            P = mat([[1, 0], [0, 2]], mode)
            zero_b = ConeVector.zero_vector(2, mode)
            for lam in (1e-9, 1e-300, F(1, 10**12), 5e-324):
                assert solvable1(P, lam, zero_b), (mode, lam)
                rep = solve1(P, lam, zero_b)
                assert rep.solvable and rep.fired_condition == "g" and rep.x0.is_zero()
                assert rep.x0.mode == mode

    def test_structure_on_fuzz(self):
        rnd = rng(62)
        for _ in range(50):
            P = fuzz_matrix(rnd)
            b = fuzz_vector(rnd, P.n)
            for lam in lambda_sweep(P, DEFAULT_TOL):
                if not isinstance(lam, Fraction) or not solvable1(P, lam, b):
                    continue
                x0 = minimal_solution(P, lam, b)
                # exact residual
                img = P.apply(x0.entries)
                assert tuple(lam * e - i for e, i in zip(x0.entries, img)) == b.entries
                # support fills the smallest invariant face around b
                assert support(x0) == smallest_initial_superset(condense(P), support(b))
                # the solution inherits the local radius of b
                assert local_spectral_radius(P, x0) == local_spectral_radius(P, b)

    def test_minimality_against_lp_witnesses(self):
        rnd = rng(63)
        checked = 0
        for _ in range(40):
            P = fuzz_matrix(rnd)
            b = fuzz_vector(rnd, P.n)
            for lam in lambda_sweep(P, DEFAULT_TOL):
                if not isinstance(lam, Fraction) or not solvable1(P, lam, b):
                    continue
                x0 = minimal_solution(P, lam, b)
                rows = oracle.shifted_image_rows(P, lam, sign=-1)
                w = oracle.feasible_nonneg_solution(rows, [Fraction(e) for e in b.entries]).witness
                assert all(a <= c for a, c in zip(x0.entries, w))
                checked += 1
        assert checked >= 40

    def test_uniqueness_flag_matches_the_kernel(self):
        rnd = rng(64)
        checked = 0
        for _ in range(40):
            P = fuzz_matrix(rnd)
            b = fuzz_vector(rnd, P.n)
            for lam in lambda_sweep(P, DEFAULT_TOL):
                if not isinstance(lam, Fraction) or not solvable1(P, lam, b):
                    continue
                rep = solve1(P, lam, b)
                rows = oracle.shifted_image_rows(P, lam, sign=-1)
                eqs = [(row, Fraction(0)) for row in rows]
                eqs.append(([Fraction(1)] * P.n, Fraction(1)))
                kernel = oracle.lp_feasible(oracle.LPProblem.build(P.n, eq_rows=eqs))
                assert rep.unique == (not kernel.feasible)
                checked += 1
        assert checked >= 40


class TestNeumann:
    def test_partial_sums(self):
        assert neumann_partial(U, F(2), vec(1, 0), 0).entries == (F(1, 2), F(0))
        assert neumann_partial(U, F(2), vec(1, 0), 5).entries == (F(63, 64), F(0))
        with assert_raises(InvalidInput):
            neumann_partial(U, F(2), vec(1, 0), -1)

    def test_monotone_convergence_to_the_minimal_solution(self):
        rnd = rng(65)
        for _ in range(25):
            P = fuzz_matrix(rnd)
            b = fuzz_vector(rnd, P.n)
            for lam in lambda_sweep(P, DEFAULT_TOL):
                if not isinstance(lam, Fraction) or not solvable1(P, lam, b):
                    continue
                x0 = minimal_solution(P, lam, b)
                prev = neumann_partial(P, lam, b, 0)
                for m in (1, 3, 8):
                    cur = neumann_partial(P, lam, b, m)
                    assert all(p <= c for p, c in zip(prev.entries, cur.entries))
                    assert all(c <= e for c, e in zip(cur.entries, x0.entries))
                    prev = cur
                break  # one shift per matrix keeps this quick


class TestSolvableSet:
    def test_examples(self):
        assert solvable_set(D, F(1)) == {1}
        assert solvable_set(D, F(3)) == {1, 2, 3}
        assert solvable_set(U, F(1)) == frozenset()
        assert solvable_set(T, F(2)) == {2}
        with assert_raises(InvalidInput):
            solvable_set(T, F(0))

    def test_describes_exactly_the_solvable_supports(self):
        rnd = rng(66)
        for _ in range(30):
            P = fuzz_matrix(rnd)
            for lam in lambda_sweep(P, DEFAULT_TOL):
                if not isinstance(lam, Fraction) or lam <= 0:
                    continue
                good = solvable_set(P, lam)
                for i in range(1, P.n + 1):
                    assert solvable1(P, lam, ConeVector.unit(P.n, i)) == (i in good)


class TestConditionBattery:
    def test_all_false(self):
        rep = solvability_conditions(D, F(1), ConeVector.unit(3, 3))
        assert to_json(rep) == {
            "b": False, "c": False, "d": False, "e": False, "f": False,
            "g": False, "h": False, "i": False, "j": False, "consistent": True,
        }

    def test_all_true(self):
        rep = solvability_conditions(NonnegMatrix.zero_matrix(2, RATIONAL), F(1), vec(1, 0))
        d = to_json(rep)
        assert d["consistent"] and all(d[k] for k in "bcdefghij")
        rep = solvability_conditions(T, F(3), vec(1, 1))
        assert rep.consistent and rep.b and rep.g and rep.j

    def test_iterative_checks_may_abstain(self):
        rep = solvability_conditions(U, F(1), vec(1, 0))
        assert rep.c is None and rep.d is None
        assert rep.consistent and not rep.b

    def test_unreached_class_does_not_overflow_the_iterative_checks(self):
        # the class of radius 100 is not reached from b, but its entries in
        # the powers of P/lambda grow past any float; c and d must still
        # see the converging part alone
        P = mat([[F(99, 100), 0], [0, 100]])
        rep = solvability_conditions(P, F(1), vec(1, 0))
        assert rep.c is True and rep.d is True
        assert rep.consistent and rep.b

    def test_iterative_checks_match_term_by_term_summation(self):
        # c and d reach their horizon by squaring; near a class radius,
        # where the series converge or diverge slowly, they must still give
        # the verdicts of the term-by-term loops of _term_by_term_c_d, up to a
        # horizon that is no power of two
        tol = Tolerance(power_iters=1000)
        rnd = rng(69)
        cases = undecided = 0
        for _ in range(30):
            P = fuzz_matrix(rnd, n_max=5)
            b = fuzz_vector(rnd, P.n)
            for r in set(class_radii(P)):
                for lam in (r - F(1, 50), r, r + F(1, 50)):
                    if lam <= 0:
                        continue
                    want = _term_by_term_c_d(P, lam, b, tol)
                    got = eq_type1._conditions_c_d(P, lam, b.to_numpy(), tol)
                    assert got == want, (P.rows, lam, b.entries)
                    cases += 1
                    undecided += None in want
        assert cases >= 100 and undecided > 0
        # c needs three small terms, so horizons below three leave it open
        Z = NonnegMatrix.zero_matrix(2, RATIONAL)
        for horizon in (1, 2, 3):
            short = Tolerance(power_iters=horizon)
            got = eq_type1._conditions_c_d(Z, F(1), vec(1, 0).to_numpy(), short)
            assert got == _term_by_term_c_d(Z, F(1), vec(1, 0), short), horizon

    def test_iterative_checks_match_their_numpy_reduction_form(self):
        # one pass squares P/lambda alone and carries c's partial sums as a
        # vector, where the reduction form kept above squared a 2n x 2n step
        # matrix for c and P/lambda again for d; c's sums come from another
        # recurrence, so its floats may differ in the last digits, but every
        # verdict of both checks must be the same
        rnd = rng(2304)
        capped = [mat([[F(99, 100), 0], [0, 100]]), mat([[F(99, 100), 0], [0, 100]], FLOAT)]
        matrices = [(M, "capped") for M in capped] + [(NonnegMatrix.zero_matrix(2, RATIONAL), "zero")]
        for _ in range(25):
            P = fuzz_matrix(rnd, n_max=6)
            matrices += [(P, "rational"), (irregular(rnd, P), "irregular"), (P.to_float(), "float")]
        verdicts, kinds, reached = Counter(), Counter(), Counter()
        for P, kind in matrices:
            b = fuzz_vector(rnd, P.n)
            if P.mode == FLOAT:
                b = b.to_float()
            for r in set(class_radii(P)):
                for lam in (r - F(1, 50), r, r + F(1, 50), r + F(1, 3)):
                    lam = float(lam) if P.mode == FLOAT or isinstance(r, float) else lam
                    if lam <= 0:
                        continue
                    # c's last checkpoints are 1, 1, 1, 998, 9997 and 9998
                    # (horizon - 2, at least 1), and d's the horizons
                    for horizon in (1, 2, 3, 1000, 9999, DEFAULT_TOL.power_iters):
                        tol = Tolerance(power_iters=horizon)
                        got = eq_type1._conditions_c_d(P, lam, b.to_numpy(), tol)
                        want = _reduction_c_d(P, lam, b, tol, reached)
                        assert got == want, (P.rows, lam, b.entries, horizon)
                        verdicts[got] += 1
                        kinds[kind] += 1
        # the capped case gives both verdicts in both modes
        for M in capped:
            assert eq_type1._conditions_c_d(M, F(1), np.array([1.0, 0.0]), DEFAULT_TOL) == (True, True)
        # every verdict of both checks, each check decided while the other
        # abstains, each last checkpoint off a power of two, and every kind
        # of matrix are reached
        assert {v for pair in verdicts for v in pair} == {True, False, None}, verdicts
        assert any(c is not None and d is None for c, d in verdicts), verdicts
        assert any(c is None and d is not None for c, d in verdicts), verdicts
        assert min(reached["c"], reached["d"]) >= 300, reached
        assert min(kinds["rational"], kinds["irregular"], kinds["float"]) >= 1000, kinds

    def test_rejects_zero_rhs(self):
        with assert_raises(InvalidInput):
            solvability_conditions(T, F(1), ConeVector.zero_vector(2))

    def test_b_does_not_share_the_local_radius_with_g(self, monkeypatch):
        # b tests supp(b) against the solvable set, g the local spectral
        # radius; a fault in the record's local-radius comparison must split
        # them
        rnd = rng(70)
        while True:
            P = fuzz_matrix(rnd, n_max=5)
            b = fuzz_vector(rnd, P.n)
            lam = next((lam for lam in lambda_sweep(P) if not solvable1(P, lam, b)), None)
            if lam is not None:
                break
        rep = solvability_conditions(P, lam, b)
        assert rep.consistent and not rep.b and not rep.g
        monkeypatch.setattr(ClassTaxonomy, "local_sign", lambda self, vertices, lam: -1)
        rep = solvability_conditions(P, lam, b)
        assert not rep.b and rep.g and not rep.consistent

    def test_battery_agrees_with_feasibility(self, monkeypatch):
        # exact f and j do not spare the float pass that gives e and i
        calls = _count_calls(monkeypatch)
        rnd = rng(67)
        cases = 0
        for _ in range(25):
            P = fuzz_matrix(rnd, n_max=5)
            b = fuzz_vector(rnd, P.n)
            for lam in lambda_sweep(P, DEFAULT_TOL):
                if not isinstance(lam, Fraction):
                    continue
                rep = solvability_conditions(P, lam, b)
                rows = oracle.shifted_image_rows(P, lam, sign=-1)
                want = oracle.feasible_nonneg_solution(rows, [Fraction(e) for e in b.entries]).feasible
                assert rep.consistent
                for got in (rep.b, rep.e, rep.f, rep.g, rep.h, rep.i, rep.j, rep.c, rep.d):
                    assert got is None or got == want
                cases += 1
        assert cases >= 60
        # one eigen pass per matrix, not per case: the eigenvectors of P^T
        # are kept on P
        assert calls == {"_peripheral_float": cases, "_eigen_clusters": 25}, calls

    def test_float_battery_agrees_with_the_exact_lp(self, monkeypatch):
        # float-mode twins get no exact transpose basis, so conditions f and
        # j take the float lane; every decided verdict must still equal the
        # exact LP on the rational input
        calls = _count_calls(monkeypatch)
        rnd = rng(71)
        cases = verdicts = 0
        for _ in range(300):
            P = fuzz_matrix(rnd)
            twin = P.to_float()
            for lam in lambda_sweep(P):
                b = fuzz_vector(rnd, P.n)
                rep = solvability_conditions(
                    twin, float(lam), ConeVector.make([float(e) for e in b.entries], FLOAT)
                )
                rows = oracle.shifted_image_rows(P, lam, sign=-1)
                want = oracle.feasible_nonneg_solution(rows, list(b.entries)).feasible
                assert rep.consistent, (P.rows, lam, b.entries)
                for got in (rep.b, rep.e, rep.f, rep.g, rep.h, rep.i, rep.j, rep.c, rep.d):
                    assert got is None or got == want, (P.rows, lam, b.entries)
                    verdicts += got is not None
                cases += 1
        assert cases >= 1000 and verdicts >= 8 * cases
        assert calls == {"_peripheral_float": cases, "_eigen_clusters": 300}, calls


def _count_calls(monkeypatch) -> Counter:
    """Count the calls of the battery's float helper, of the float eigen
    pass and of decompose_generalized (which must stay at none)."""
    calls = Counter()
    for module, name in (
        (eq_type1, "_peripheral_float"),
        (oracle, "_eigen_clusters"),
        (oracle, "decompose_generalized"),
    ):
        orig = getattr(module, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _ref_peripheral_components(P, b, lam, tol) -> bool:
    """Condition e as it was: b, decomposed along the generalized eigenspaces
    of P, has no component at eigenvalues with |mu| >= lam."""
    dec = oracle.decompose_generalized(P, b, tol)
    lam_f = float(lam)
    for comp in dec.components:
        if abs(comp.eigenvalue) > lam_f - tol.eig_tol * max(1.0, lam_f):
            if comp.norm > 1e-7 * max(1.0, float(b.inf_norm())):
                return False
    return True


def _ref_peripheral_distinguished_float(P, b, lam, tol, dvals) -> bool:
    """Float condition f as it was: the components of b at distinguished
    eigenvalues >= lambda must vanish."""
    dec = oracle.decompose_generalized(P, b, tol)
    lam_f = float(lam)
    for comp in dec.components:
        mu = comp.eigenvalue
        if abs(mu.imag) > tol.eig_tol * max(1.0, abs(mu)):
            continue
        if not any(scalars_equal(mu.real, float(v), tol) for v in dvals):
            continue
        if mu.real > lam_f - tol.eig_tol * max(1.0, lam_f):
            if comp.norm > 1e-7 * max(1.0, float(b.inf_norm())):
                return False
    return True


def _ref_support_overlap_float(P, b, lam, tol, distinguished_only, dvals=()):
    """Float conditions i and j as they were, with their own clusters and
    SVD nullspace loop: raw cluster means, and as many basis vectors as the
    nullity found."""
    a_t = P.to_numpy().T
    n = P.n
    vals = np.linalg.eigvals(a_t)
    scale = max(1.0, float(np.max(np.abs(vals))) if n else 1.0)
    lam_f = float(lam)
    bv = b.to_numpy()
    for cl in oracle._cluster_eigenvalues(list(vals), tol, a_t):
        mu = complex(np.mean([vals[i] for i in cl]))
        if distinguished_only:
            if abs(mu.imag) > tol.eig_tol * scale:
                continue
            if not any(scalars_equal(float(mu.real), float(v), tol) for v in dvals):
                continue
            if mu.real < lam_f - tol.eig_tol * max(1.0, lam_f):
                continue
        elif abs(mu) < lam_f - tol.eig_tol * max(1.0, lam_f):
            continue
        shifted = a_t.astype(complex) - mu * np.eye(n)
        s = max(1.0, float(np.linalg.norm(shifted, np.inf)))
        powered = np.linalg.matrix_power(shifted / s, len(cl))
        _, sig, vh = np.linalg.svd(powered)
        smax = sig[0] if len(sig) else 0.0
        cutoff = max(oracle.RANK_REL * smax, 1e-13)
        null_dim = int(np.sum(sig <= cutoff)) if smax > 0 else n
        basis = vh.conj().T[:, n - null_dim:]
        for col in range(basis.shape[1]):
            if float(np.abs(basis[:, col]) @ bv) > 1e-7 * max(1.0, float(b.inf_norm())):
                return False
    return True


def _peripheral_cases(seed, rounds):
    """(M, b, lam, dvals) on fuzzed matrices, their irregular twins (float
    radii) and float twins, at every lambda_sweep shift and class radius."""
    rnd = rng(seed)
    for _ in range(rounds):
        P = fuzz_matrix(rnd)
        for M in (P, irregular(rnd, P), P.to_float()):
            dvals = distinguished_eigenvalues(M)
            for lam in lambda_sweep(P) + list(taxonomy(M).radii):
                if lam <= 0:
                    continue
                b = fuzz_vector(rnd, M.n)
                if M.mode == FLOAT:
                    b = ConeVector.make([float(e) for e in b.entries], FLOAT)
                yield M, b, lam, dvals


def _ref_peripheral_float(P, b, lam, tol, dvals) -> tuple:
    """Conditions (e, f, i, j) as _peripheral_float gave them when it made
    its own eigen pass on P^T in every call."""
    a_t = P.to_numpy().T
    vals, clusters, _ = oracle._eigen_clusters(a_t, tol)
    scale = max(1.0, float(np.max(np.abs(vals))))
    lam_f = float(lam)
    floor = lam_f - tol.eig_tol * max(1.0, lam_f)
    bound = 1e-7 * max(1.0, float(b.inf_norm()))
    bv = b.to_numpy()
    e = f = i = j = True
    for mu, mult in clusters:
        if abs(mu) < floor:
            continue
        distinguished = (
            abs(mu.imag) <= tol.eig_tol * scale
            and mu.real >= floor
            and any(scalars_equal(float(mu.real), float(v), tol) for v in dvals)
        )
        for z in oracle._shift_null(a_t.astype(complex), mu, mult)[1].T:
            component = abs(z @ bv) > bound
            overlap = float(np.abs(z) @ bv) > bound
            e, i = e and not component, i and not overlap
            if distinguished:
                f, j = f and not component, j and not overlap
    return e, f, i, j


# a tolerance coarse enough to merge eigenvalue clusters the default keeps
# apart, so eigenvectors built under one tolerance give wrong verdicts under
# the other
COARSE_TOL = Tolerance(eq_tol=1e-6, eig_tol=0.1)


def test_kept_eigenvectors_match_the_per_case_eigen_pass():
    # each matrix is asked at all its shifts under two tolerances, in
    # shuffled order, so the first query of a tolerance builds the
    # eigenvectors of P^T and the others reuse them
    rnd = rng(75)
    verdicts = Counter()
    bases = 0
    for _ in range(60):
        P = fuzz_matrix(rnd)
        for M in (P, irregular(rnd, P), P.to_float()):
            queries = []
            for tol in (DEFAULT_TOL, COARSE_TOL):
                dvals = distinguished_eigenvalues(M, tol)
                for lam in lambda_sweep(P) + list(taxonomy(M, tol).radii):
                    if lam > 0:
                        b = fuzz_vector(rnd, M.n)
                        if M.mode == FLOAT:
                            b = ConeVector.make([float(e) for e in b.entries], FLOAT)
                        queries.append((tol, dvals, lam, b))
            rnd.shuffle(queries)
            for tol, dvals, lam, b in queries:
                got = eq_type1._peripheral_float(M, b.to_numpy(), lam, taxonomy(M, tol))
                assert got == _ref_peripheral_float(M, b, lam, tol, dvals), (M.rows, lam, b.entries, tol)
                verdicts[tol is DEFAULT_TOL, got] += 1
            if M.mode == RATIONAL:
                t_rows = [list(r) for r in M.transpose().rows]
                for mu in distinguished_eigenvalues(M):
                    if isinstance(mu, Fraction):
                        kept = eq_type1._transpose_generalized_basis(M, mu)
                        want = oracle.generalized_nullspace_exact(t_rows, mu)
                        assert len(kept) == len(want), (M.rows, mu)
                        for z, w in zip(kept, want):
                            # an integer vector, a positive multiple of w
                            assert all(type(e) is int for e in z)
                            assert [e == 0 for e in z] == [e == 0 for e in w]
                            ratios = {e / f for e, f in zip(z, w) if f != 0}
                            assert len(ratios) == 1 and ratios.pop() > 0, (M.rows, mu)
                        assert eq_type1._transpose_generalized_basis(M, mu) is kept
                        bases += 1
    assert bases >= 60
    both = ((True,) * 4, (False,) * 4)
    assert min(verdicts[default, v] for default in (True, False) for v in both) >= 100, verdicts


def test_support_overlap_matches_its_reference():
    # conditions i and j come from the one float pass on P^T that also gives
    # e and f (cluster means snapped to the real axis, one basis vector per
    # clustered eigenvalue); verdicts must not move
    verdicts = Counter()
    for M, b, lam, dvals in _peripheral_cases(72, 60):
        _, _, got_i, got_j = eq_type1._peripheral_float(M, b.to_numpy(), lam, taxonomy(M))
        for only, got in ((False, got_i), (True, got_j)):
            want = _ref_support_overlap_float(M, b, lam, DEFAULT_TOL, only, dvals)
            assert got == want, (M.rows, lam, b.entries, only)
            verdicts[only, got] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_peripheral_components_match_the_decomposition_reference():
    # e and f ask z^T b = 0 over the generalized eigenvectors z of P^T, not
    # for the components of b along the eigenspaces of P; verdicts must not
    # move
    verdicts = Counter()
    for M, b, lam, dvals in _peripheral_cases(74, 60):
        got_e, got_f, _, _ = eq_type1._peripheral_float(M, b.to_numpy(), lam, taxonomy(M))
        assert got_e == _ref_peripheral_components(M, b, lam, DEFAULT_TOL), (M.rows, lam, b.entries)
        want_f = _ref_peripheral_distinguished_float(M, b, lam, DEFAULT_TOL, dvals)
        assert got_f == want_f, (M.rows, lam, b.entries)
        verdicts["e", got_e] += 1
        verdicts["f", got_f] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_never_solvable_on_both_sides_of_the_shift():
    # (lam*I - P)x = b and (P^T - lam*I)y = b cannot both have nonnegative
    # solutions for the same nonzero b
    rnd = rng(68)
    cases = 0
    for _ in range(50):
        P = fuzz_matrix(rnd)
        b = fuzz_vector(rnd, P.n)
        rhs = [Fraction(e) for e in b.entries]
        for lam in lambda_sweep(P, DEFAULT_TOL):
            if not isinstance(lam, Fraction) or lam <= 0:
                continue
            one = oracle.feasible_nonneg_solution(
                oracle.shifted_image_rows(P, lam, sign=-1), rhs
            ).feasible
            other = oracle.feasible_nonneg_solution(
                oracle.shifted_image_rows(P.transpose(), lam), rhs
            ).feasible
            assert not (one and other)
            cases += 1
    assert cases >= 150


# the battery as it was, with b, g and h each reading lambda and comparing
# the class radii with it again, and a Python loop that decided per case and
# per peripheral row of the eigen table of P^T whether its eigenvalue is a
# distinguished one


def _row_loop_peripheral_float(P, b, lam, tax) -> tuple:
    tol = tax.tol
    table, scale = oracle._eigenspaces(P, tol, transpose=True)[:2]
    lam_f = float(lam)
    floor = lam_f - tol.eig_tol * max(1.0, lam_f)
    bound = 1e-7 * max(1.0, float(b.inf_norm()))
    rows = table[np.abs(table[:, 0]) >= floor]
    z = rows[:, 1:]
    bv = b.to_numpy()
    component = np.abs(z @ bv) > bound
    overlap = np.abs(z) @ bv > bound
    distinguished = np.array(
        [
            abs(mu.imag) <= tol.eig_tol * scale
            and mu.real >= floor
            and tax.is_distinguished_eigenvalue(float(mu.real))
            for mu in rows[:, 0]
        ],
        dtype=bool,
    )
    return (
        not component.any(),
        not component[distinguished].any(),
        not overlap.any(),
        not overlap[distinguished].any(),
    )


def _two_pass_battery(P, lam, b, tol=DEFAULT_TOL) -> tuple:
    """(report, exact, witness, solvable set): the battery's report as it
    was, whether f and j took the exact lane, the first distinguished class
    of radius >= lambda with access to supp(b) (solve1's witness) and the
    solvable set."""
    lam = eq_type1._check_inputs(P, lam, b)
    tax = taxonomy(P, tol)
    cond_g = tax.local_sign(support(b), lam) < 0
    bmask = tax.analysis.classes_meeting(support(b))
    witness = next(
        (
            c
            for c in range(len(tax.radii))
            if tax.distinguished[c] and tax.radius_sign(c, lam) >= 0 and tax.analysis.reach[c] & bmask
        ),
        None,
    )
    cond_h = witness is None
    solvable = frozenset(v for c in tax.initial_below(lam) for v in tax.analysis.classes[c])
    cond_b = support(b) <= solvable
    cond_c, cond_d = _reduction_c_d(P, lam, b, tol, Counter())
    cond_e, cond_f, cond_i, cond_j = _row_loop_peripheral_float(P, b, lam, tax)
    relevant = [tax.radii[c] for c in tax.eigen_classes if tax.radius_sign(c, lam) >= 0]
    exact = all(isinstance(v, Fraction) for v in relevant) and P.mode == RATIONAL
    if exact:
        cond_f = cond_j = True
        for mu in relevant:
            for z in eq_type1._transpose_generalized_basis(P, mu):
                pairs = [(zi, bi) for zi, bi in zip(z, b.entries) if zi != 0 and bi != 0]
                if pairs:
                    cond_j = False
                    if sum(zi * bi for zi, bi in pairs) != 0:
                        cond_f = False
    decided = [cond_b, cond_e, cond_f, cond_g, cond_h, cond_i, cond_j]
    decided += [c for c in (cond_c, cond_d) if c is not None]
    report = eq_type1.ConditionReport(
        cond_b, cond_c, cond_d, cond_e, cond_f, cond_g, cond_h, cond_i, cond_j, len(set(decided)) == 1
    )
    return report, exact, witness, solvable


def _near_radius_shifts(M) -> list:
    """Each class radius of M, the radius +- 1e-12 and +- 1e-9, and the
    radius + 1e-8 (eig_tol), where the peripheral floor of a shift below 1
    falls on the radius itself, as Fractions for a rational radius and as
    floats otherwise."""
    out = []
    for r in taxonomy(M).radii:
        for d in (0, F(-1, 10**12), F(1, 10**12), F(-1, 10**9), F(1, 10**9), F(1, 10**8)):
            out.append(r + (d if isinstance(r, Fraction) else float(d)))
    return out


def test_one_pass_battery_matches_the_two_pass_reference():
    # every vote and `consistent` on fuzzed matrices, their irregular twins
    # (float radii) and float twins, at the sweep shifts, at each radius and
    # within 1e-12, 1e-9 and 1e-8 of it, where a sign read once must still
    # be the sign each condition read for itself
    rnd = rng(2707)
    seen = Counter()
    for _ in range(30):
        P = fuzz_matrix(rnd)
        for M in (P, irregular(rnd, P), P.to_float()):
            for lam in lambda_sweep(M) + _near_radius_shifts(M):
                if lam <= 0:
                    continue
                b = fuzz_vector(rnd, M.n)
                if M.mode == FLOAT:
                    b = b.to_float()
                want, exact, witness, solvable = _two_pass_battery(M, lam, b)
                got = solvability_conditions(M, lam, b)
                assert got == want, (M.rows, lam, b.entries)
                # solve1's witness and solvable_set read the battery's helpers
                tax = taxonomy(M)
                bmask = tax.analysis.classes_meeting(support(b))
                lam_in = eq_type1._check_inputs(M, lam)
                assert eq_type1._witness(tax, lambda c: tax.radius_sign(c, lam_in), bmask) == witness
                assert solvable_set(M, lam) == solvable, (M.rows, lam)
                seen["witness", witness is None] += 1
                seen["exact" if exact else "float", "f", got.f] += 1
                seen["exact" if exact else "float", "j", got.j] += 1
                seen["b", got.b] += 1
    # the zero eigenvalue of this float matrix's transpose may round to a
    # tiny negative number; at lambda = 1e-8 the peripheral floor is 0, so
    # that row is peripheral, and f and j must still drop it below the floor
    Z = mat(
        [[0, 1, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, F(1, 2), F(1, 2), 0, 1, F(1, 2)],
         [0, 0, 0, 0, F(3, 4), F(3, 4)], [0, 0, 0, 0, F(3, 4), F(3, 4)]],
        FLOAT,
    )
    for i in range(1, 7):
        b = ConeVector.unit(6, i, FLOAT)
        assert solvability_conditions(Z, 1e-8, b) == _two_pass_battery(Z, 1e-8, b)[0], i
    # both lanes of f and j give both verdicts, and so does b
    for lane in ("exact", "float"):
        for cond in "fj":
            assert min(seen[lane, cond, True], seen[lane, cond, False]) >= 20, seen
    assert min(seen["b", True], seen["b", False], seen["witness", False]) >= 100, seen


def _count_record_calls(monkeypatch) -> Counter:
    """Count the structure record's two comparisons, the reads of a vector
    as floats and the passes over the powers of P/lambda."""
    calls = Counter()
    for owner, name in (
        (ClassTaxonomy, "radius_sign"),
        (ClassTaxonomy, "is_distinguished_eigenvalue"),
        (ConeVector, "to_numpy"),
        (eq_type1, "_conditions_c_d"),
    ):
        orig = getattr(owner, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_battery_compares_each_class_radius_with_the_shift_once(monkeypatch):
    # on a matrix whose kept records are built, one battery call makes one
    # radius comparison per class (b, h and the exact f and j share them)
    # and the one of g's local radius; it also reads b as floats once, for
    # c, d, e, f, i and j alike, and one pass over the powers of P/lambda
    # gives both c and d
    rnd = rng(2708)
    cases = 0
    for _ in range(20):
        P = fuzz_matrix(rnd)
        for M in (P, irregular(rnd, P), P.to_float()):
            tax = taxonomy(M)
            for lam in lambda_sweep(M) + list(tax.radii):
                if lam <= 0:
                    continue
                b = fuzz_vector(rnd, M.n)
                if M.mode == FLOAT:
                    b = b.to_float()
                solvability_conditions(M, lam, b)
                calls = _count_record_calls(monkeypatch)
                solvability_conditions(M, lam, b)
                monkeypatch.undo()
                want = {"radius_sign": len(tax.radii) + 1, "to_numpy": 1, "_conditions_c_d": 1}
                assert calls == want, (M.rows, lam, calls)
                cases += 1
    assert cases >= 150


def test_the_distinguished_row_flags_are_kept_on_the_matrix(monkeypatch):
    # the first battery call on a matrix asks, per eigen row of P^T, whether
    # its eigenvalue is a distinguished one; a second call, at any shift,
    # reads the flags kept on the matrix and asks nothing
    rnd = rng(2709)
    calls = _count_record_calls(monkeypatch)
    first = 0
    flags = Counter()
    for _ in range(20):
        P = fuzz_matrix(rnd)
        for M in (P, irregular(rnd, P), P.to_float()):
            tax = taxonomy(M)
            shifts = [lam for lam in lambda_sweep(M) + list(tax.radii) if lam > 0]
            b = fuzz_vector(rnd, M.n)
            if M.mode == FLOAT:
                b = b.to_float()
            calls.clear()
            eq_type1._peripheral_float(M, b.to_numpy(), shifts[0], tax)
            first += calls["is_distinguished_eigenvalue"]
            # the kept flag of each row: its eigenvalue is real within
            # eig_tol*scale and a distinguished eigenvalue
            table, scale = oracle._eigenspaces(M, DEFAULT_TOL, transpose=True)[:2]
            kept = M.memoized(("transpose distinguished rows", DEFAULT_TOL), lambda: None)
            want = [
                bool(abs(mu.imag) <= DEFAULT_TOL.eig_tol * scale)
                and any(scalars_equal(float(mu.real), v, DEFAULT_TOL) for v in distinguished_eigenvalues(M))
                for mu in table[:, 0]
            ]
            assert kept.tolist() == want, M.rows
            flags[True] += sum(want)
            flags[False] += len(want) - sum(want)
            for lam in shifts:
                calls.clear()
                eq_type1._peripheral_float(M, b.to_numpy(), lam, tax)
                assert calls["is_distinguished_eigenvalue"] == 0, (M.rows, lam)
    assert first >= 60 and min(flags.values()) >= 60, (first, flags)
