import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coneq.core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    NumericFailure,
    SpectralPair,
    Tolerance,
    saturate,
    support,
    to_json,
)
from coneq.classes import classify, condense
from coneq.spectral import (
    class_radii,
    distinguished_eigenvalues,
    eigenvalue_index,
    fv_eigenvector,
    local_radius_estimate,
    local_spectral_radius,
    max_distinguished_order,
    perron_vector_block,
    spectral_pair,
    spectral_radius,
    taxonomy,
)
from coneq import cli, oracle, spectral

from fuzz import fuzz_matrix, fuzz_vector, irregular, rng


def mat(rows, mode=RATIONAL):
    return NonnegMatrix.make(rows, mode)


A = mat([[2, 1, 0], [0, 1, 0], [0, 0, 1]])  # classes {3}, {1}, {2}
T = mat([[2, 0], [1, 1]])                   # classes {2}, {1}
U = mat([[1, 1], [0, 1]])                   # classes {1}, {2}
S = mat([[0, 1], [1, 0]])
D = mat([[0, 0, 0], [0, 1, 0], [0, 0, 2]])


class TestRadii:
    def test_class_radii_follow_class_order(self):
        assert class_radii(A) == (Fraction(1), Fraction(2), Fraction(1))
        assert class_radii(T) == (Fraction(1), Fraction(2))
        assert class_radii(S) == (Fraction(1),)
        assert class_radii(NonnegMatrix.zero_matrix(2, RATIONAL)) == (Fraction(0), Fraction(0))

    def test_spectral_radius(self):
        assert spectral_radius(A) == Fraction(2)
        assert spectral_radius(S) == Fraction(1)
        assert spectral_radius(mat([[0, 1], [0, 0]])) == 0

    def test_constant_row_sums_stay_exact(self):
        r, v = perron_vector_block([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        assert r == Fraction(1) and v == (Fraction(1), Fraction(1))

    def test_uneven_block_degrades_to_float(self):
        (r,) = class_radii(mat([[1, 2], [3, 1]]))
        assert isinstance(r, float)
        assert abs(r - (1 + math.sqrt(6))) < 1e-6


class TestPerronIteration:
    def test_radius_lies_within_eig_tol_of_the_dense_eigenvalues(self):
        # irregular irreducible blocks, rational and float, from the sizes
        # the benchmark pools reach up to 32
        rnd = rng(61)

        def entry():
            return Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) if rnd.random() < 0.4 else Fraction(0)

        for m in list(range(2, 9)) + [12, 16, 24, 32]:
            for _ in range(3):
                rows = [[entry() for _ in range(m)] for _ in range(m)]
                for i in range(m):
                    rows[i][(i + 1) % m] += Fraction(1, rnd.randint(1, 3))  # a full cycle: irreducible
                want = float(np.max(np.abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
                for block in (rows, [[float(e) for e in row] for row in rows]):
                    r, v = spectral._power_iteration_radius(block, DEFAULT_TOL)
                    assert type(r) is float
                    assert abs(r - want) <= DEFAULT_TOL.eig_tol * max(1.0, want), (m, r, want)
                    assert max(v) == 1.0 and min(v) > 0

    def test_three_cycle_radius_is_the_float_cube_root_of_one_half(self):
        assert class_radii(mat([[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]])) == (0.7937005280086775,)

    def test_slow_contraction_still_hits_the_iteration_cap(self):
        # eigenvalues 1 +- sqrt(2)*1e-6: the iteration on block + I would need
        # about 1e7 steps to close its 1e-8 gap, against power_iters = 1e4
        with pytest.raises(NumericFailure):
            class_radii(mat([[1, Fraction(1, 10**6)], [Fraction(2, 10**6), 1]]))


class TestLocalRadius:
    def test_depends_on_who_reaches_the_support(self):
        assert local_spectral_radius(D, ConeVector.unit(3, 3)) == Fraction(2)
        assert local_spectral_radius(D, ConeVector.unit(3, 1)) == Fraction(0)
        assert local_spectral_radius(A, ConeVector.unit(3, 3)) == Fraction(1)
        assert local_spectral_radius(T, ConeVector.unit(2, 2)) == Fraction(1)
        assert local_spectral_radius(T, ConeVector.unit(2, 1)) == Fraction(2)
        assert local_spectral_radius(T, ConeVector.zero_vector(2)) == 0

    def test_saturation_invariance(self):
        rnd = rng(41)
        for _ in range(40):
            P = fuzz_matrix(rnd)
            x = fuzz_vector(rnd, P.n)
            assert local_spectral_radius(P, x) == local_spectral_radius(P, saturate(P, x))

    def test_growth_estimate(self):
        assert local_radius_estimate(mat([[0, 1], [1, 0]], FLOAT), ConeVector.unit(2, 1, FLOAT), 7) == 1.0
        est = local_radius_estimate(mat([[2, 0], [0, 3]], FLOAT), ConeVector.make([1, 1], FLOAT), 100)
        assert_allclose(est, 3.0, rtol=1e-9)
        est2 = local_radius_estimate(mat([[1, 1], [0, 1]], FLOAT), ConeVector.unit(2, 2, FLOAT), 5000)
        assert abs(est2 - 1.0) < 0.05
        assert local_radius_estimate(mat([[0, 1], [0, 0]], FLOAT), ConeVector.unit(2, 2, FLOAT), 3) == 0.0
        with pytest.raises(InvalidInput):
            local_radius_estimate(mat([[1]], FLOAT), ConeVector.unit(1, 1, FLOAT), 0)

    def test_growth_estimate_tracks_the_combinatorial_value(self):
        rnd = rng(42)
        for _ in range(15):
            P = fuzz_matrix(rnd, n_max=5)
            x = fuzz_vector(rnd, P.n)
            want = float(local_spectral_radius(P, x))
            got = local_radius_estimate(P.to_float(), ConeVector.make([float(e) for e in x.entries], FLOAT), 4000)
            assert abs(got - want) <= 0.05 * max(1.0, want)


class TestDistinguished:
    def test_values(self):
        assert distinguished_eigenvalues(A) == (Fraction(1), Fraction(2))
        assert distinguished_eigenvalues(T) == (Fraction(1), Fraction(2))
        assert distinguished_eigenvalues(U) == (Fraction(1),)
        assert distinguished_eigenvalues(NonnegMatrix.zero_matrix(2, RATIONAL)) == (Fraction(0),)

    def test_largest_is_the_spectral_radius(self):
        rnd = rng(43)
        for _ in range(50):
            P = fuzz_matrix(rnd)
            assert distinguished_eigenvalues(P)[-1] == spectral_radius(P)

    def test_each_value_admits_a_nonnegative_eigenvector(self):
        rnd = rng(44)
        checked = 0
        for _ in range(40):
            P = fuzz_matrix(rnd)
            for lam in distinguished_eigenvalues(P):
                if not isinstance(lam, Fraction):
                    continue
                rows = oracle.shifted_image_rows(P, lam)
                # x >= 0, (P - lam I)x = 0, sum x = 1
                n = P.n
                eqs = [(row, Fraction(0)) for row in rows]
                eqs.append(([Fraction(1)] * n, Fraction(1)))
                assert oracle.lp_feasible(oracle.LPProblem.build(n, eq_rows=eqs)).feasible
                checked += 1
        assert checked >= 40


class TestEigenvectors:
    def test_distinguished_class_vector(self):
        an = condense(T)
        v = fv_eigenvector(T, an.class_of_vertex(1))
        assert v.entries == (Fraction(1), Fraction(1))
        assert fv_eigenvector(A, condense(A).class_of_vertex(3)).entries == (0, 0, Fraction(1))
        assert fv_eigenvector(A, condense(A).class_of_vertex(1)).entries == (Fraction(1), 0, 0)

    def test_eigen_equation_holds_exactly(self):
        an = condense(T)
        c = an.class_of_vertex(1)
        lam = class_radii(T)[c]
        v = fv_eigenvector(T, c)
        assert T.apply(v.entries) == tuple(lam * e for e in v.entries)

    def test_support_is_the_accessor_face(self):
        rnd = rng(45)
        for _ in range(30):
            P = fuzz_matrix(rnd)
            an = condense(P)
            radii = class_radii(P)
            from coneq.classes import classify
            tax = classify(an, radii)
            for c in range(an.class_count):
                if not tax.distinguished[c] or not isinstance(radii[c], Fraction):
                    continue
                v = fv_eigenvector(P, c)
                accessors = an.vertices_of_mask(an.accessors_mask(1 << c))
                assert support(v) == accessors

    def test_rejects_non_distinguished_class(self):
        an = condense(U)
        with pytest.raises(InvalidInput):
            fv_eigenvector(U, an.class_of_vertex(2))
        with pytest.raises(InvalidInput):
            fv_eigenvector(U, 5)


class TestPairsAndOrders:
    def test_pair_examples(self):
        assert spectral_pair(U, ConeVector.unit(2, 2)) == SpectralPair(Fraction(1), 2)
        assert spectral_pair(U, ConeVector.unit(2, 1)) == SpectralPair(Fraction(1), 1)
        assert spectral_pair(U, ConeVector.zero_vector(2)) == SpectralPair(Fraction(0), 0)

    def test_pair_depends_only_on_the_support(self):
        rnd = rng(46)
        for _ in range(30):
            P = fuzz_matrix(rnd)
            x = fuzz_vector(rnd, P.n)
            y_entries = [Fraction(rnd.randint(1, 9)) if e != 0 else Fraction(0) for e in x.entries]
            y = ConeVector.make(y_entries, RATIONAL)
            assert spectral_pair(P, x) == spectral_pair(P, y)

    def test_order_agrees_with_dense_decomposition(self):
        rnd = rng(47)
        checked = 0
        for _ in range(60):
            P = fuzz_matrix(rnd, n_max=5)
            x = fuzz_vector(rnd, P.n)
            pair = spectral_pair(P, x)
            d = oracle.decompose_generalized(P.to_float(), ConeVector.make([float(e) for e in x.entries], FLOAT))
            if d.merged or d.ambiguous:
                continue
            target = [c for c in d.present()
                      if abs(c.eigenvalue.imag) < 1e-8
                      and abs(c.eigenvalue.real - float(pair.rho)) <= 1e-6 * max(1.0, float(pair.rho))]
            if len(target) != 1:
                continue
            assert target[0].order == pair.order
            checked += 1
        assert checked >= 25

    def test_chain_index(self):
        assert eigenvalue_index(U, Fraction(1)) == 2
        assert eigenvalue_index(A, Fraction(1)) == 1
        assert eigenvalue_index(A, Fraction(2)) == 1
        assert eigenvalue_index(A, Fraction(5)) == 0

    def test_order_bound_among_nonnegative_eigenvectors(self):
        assert max_distinguished_order(U, Fraction(1)) == 2
        assert max_distinguished_order(A, Fraction(1)) == 1
        assert max_distinguished_order(mat([[1, 0], [0, 1]]), Fraction(1)) == 1
        with pytest.raises(InvalidInput):
            max_distinguished_order(U, Fraction(1, 2))


def test_report_serialization():
    # the spectral report, as analyze prints it
    assert to_json(cli._cmd_analyze(T, DEFAULT_TOL))["spectral"] == {
        "rho": 2,
        "class_radii": [1, 2],
        "distinguished_eigenvalues": [1, 2],
        "index": {"1": 1, "2": 1},
        "max_distinguished_order": {"1": 1, "2": 1},
    }


def test_local_radius_matches_krylov_restriction():
    rnd = rng(48)
    for _ in range(25):
        P = fuzz_matrix(rnd, n_max=5)
        x = fuzz_vector(rnd, P.n)
        want = float(local_spectral_radius(P, x))
        got = oracle.krylov_local_rho(P, x)
        assert abs(got - want) <= 1e-6 * max(1.0, want)


def _memo_cases():
    rnd = rng(4201)
    out = []
    for _ in range(25):
        P = fuzz_matrix(rnd)
        Q = irregular(rnd, fuzz_matrix(rnd))
        out += [P, Q, P.to_float(), Q.to_float()]
    return out


def _uncached_taxonomy(P, tol=DEFAULT_TOL):
    return classify(condense(P), class_radii(P, tol), tol)


class TestTaxonomyMemo:
    def test_repeat_call_returns_the_same_object(self):
        P = fuzz_matrix(rng(4202))
        assert taxonomy(P) is taxonomy(P)
        # an equal matrix built anew has its own record, built from the
        # condense and class_radii caches without recomputing either
        Q = NonnegMatrix.make([list(row) for row in P.rows], RATIONAL)
        before = [f.cache_info() for f in (condense, class_radii)]
        assert taxonomy(Q) == taxonomy(P)
        after = [f.cache_info() for f in (condense, class_radii)]
        for old, new in zip(before, after):
            assert new.hits > old.hits and new.misses == old.misses

    def test_default_and_explicit_tolerance_share_one_record(self):
        P = fuzz_matrix(rng(4203))
        assert taxonomy(P) is taxonomy(P, DEFAULT_TOL)
        assert taxonomy(P, Tolerance()) is taxonomy(P)

    def test_one_classify_call_per_matrix_over_a_query_stream(self, monkeypatch):
        from coneq.eq_type1 import minimal_solution, solve1
        from coneq.eq_type2 import necessary_face, solvable2, tracedown_witness

        def witnesses(P):
            tax = taxonomy(P)
            return [
                tracedown_witness(P, c)
                for c in range(len(tax.radii))
                if tax.basic[c] and tax.distinguished_transpose[c]
            ]

        rnd = rng(4204)
        matrices, stream = [], []
        for _ in range(20):
            P = fuzz_matrix(rnd)
            for M in (P, P.to_float()):
                b = ConeVector.make(fuzz_vector(rnd, M.n).entries, M.mode)
                matrices.append(M)
                stream += [
                    lambda M=M, b=b: solve1(M, spectral_radius(M) + 1, b),
                    lambda M=M, b=b: solvable2(M, spectral_radius(M, DEFAULT_TOL), b),
                    lambda M=M, b=b: minimal_solution(M, spectral_radius(M) + 1, b, DEFAULT_TOL),
                    lambda M=M: spectral_radius(M),
                    lambda M=M: necessary_face(M, spectral_radius(M)),
                    lambda M=M: witnesses(M),
                ]
        rnd.shuffle(stream)
        calls = []
        orig = spectral.classify

        def counted(analysis, radii, tol):
            calls.append(tol)
            return orig(analysis, radii, tol)

        monkeypatch.setattr(spectral, "classify", counted)
        for query in stream:
            query()
        assert len(calls) == len(matrices) == 40

    def test_derived_and_pickled_matrices_start_without_a_record(self):
        import pickle

        P = irregular(rng(4205), fuzz_matrix(rng(4206)))
        tax = taxonomy(P)
        derived = (P.transpose(), P.submatrix([1, 2]), P.to_float(), pickle.loads(pickle.dumps(P)))
        for D in derived:
            assert ("taxonomy", DEFAULT_TOL) not in vars(D).get("_memo", {})
            assert taxonomy(D) == _uncached_taxonomy(D)
        assert taxonomy(derived[-1]) == tax and taxonomy(P) is tax

    def test_spectral_radius_of_the_empty_matrix_keeps_its_mode(self):
        for mode, want in ((RATIONAL, Fraction(0)), (FLOAT, 0.0)):
            rho = spectral_radius(NonnegMatrix.zero_matrix(0, mode))
            assert type(rho) is type(want) and rho == want

    def test_equals_classify_on_fuzzed_matrices(self):
        irrational = 0
        for P in _memo_cases():
            tax = taxonomy(P, DEFAULT_TOL)
            assert tax == _uncached_taxonomy(P, DEFAULT_TOL)
            assert tax.radii == class_radii(P, DEFAULT_TOL)
            irrational += P.mode == RATIONAL and any(isinstance(r, float) for r in tax.radii)
        assert irrational >= 10

    def test_each_tolerance_has_its_own_entry(self):
        P = mat([[1, 0], [1, 1 + 1e-7]], FLOAT)
        loose = Tolerance(eig_tol=1e-6)
        tight, wide = taxonomy(P), taxonomy(P, loose)
        assert tight is not wide
        assert tight == _uncached_taxonomy(P) and wide == _uncached_taxonomy(P, loose)
        # 1 and 1 + 1e-7 are two radii under the default tolerance, one under the loose one
        assert tight.basic != wide.basic
        assert taxonomy(P, loose) is wide and taxonomy(P) is tight

    def test_callers_are_unchanged(self, monkeypatch):
        cases = _memo_cases()
        memo = [_taxonomy_callers(P) for P in cases]
        monkeypatch.setattr(spectral, "taxonomy", _uncached_taxonomy)
        assert memo == [_taxonomy_callers(P) for P in cases]
        vectors = [v for _, vs in memo for v in vs if isinstance(v, ConeVector)]
        assert len(vectors) >= 100 and sum(v.mode == FLOAT for v in vectors) >= 20


def _taxonomy_callers(P):
    """distinguished_eigenvalues(P), and fv_eigenvector(P, c) or its error
    message for every class c."""
    vectors = []
    for c in range(condense(P).class_count):
        try:
            vectors.append(fv_eigenvector(P, c))
        except InvalidInput as exc:
            vectors.append(str(exc))
    return distinguished_eigenvalues(P), vectors


def _ref_fv_eigenvector(P, class_index, tol=DEFAULT_TOL):
    """spectral.fv_eigenvector as it was before the back-substitution was
    shared with eq_type2.tracedown_witness."""
    from coneq.core import NumericFailure, solve_linear, zero
    from coneq.spectral import _block_exact_row_sum

    analysis = condense(P)
    tax = taxonomy(P, tol)
    k = analysis.class_count
    if not 0 <= class_index < k:
        raise InvalidInput(f"class index {class_index} outside 0..{k - 1}")
    if not tax.distinguished[class_index]:
        raise InvalidInput("eigenvector construction requires a distinguished class")
    lam = tax.radii[class_index]

    def block_of(c):
        cls = analysis.classes[c]
        return [[P.rows[i - 1][j - 1] for j in cls] for i in cls]

    # only the block that gets the Perron vector must be exact: the accessor
    # blocks are solved by exact elimination
    exact = P.mode == RATIONAL and isinstance(lam, Fraction) and (
        _block_exact_row_sum(block_of(class_index)) is not None
        or len(analysis.classes[class_index]) == 1
    )
    mode = RATIONAL if exact else FLOAT
    work = P if mode == P.mode else P.to_float()
    lam_s = lam if mode == RATIONAL else float(lam)
    x_by_class = {}
    for c in reversed(range(k)):
        if not analysis.has_access(c, class_index):
            continue
        cls = analysis.classes[c]
        if c == class_index:
            _, vec = perron_vector_block(
                [[work.rows[i - 1][j - 1] for j in cls] for i in cls], tol
            )
            x_by_class[c] = list(vec)
            continue
        rhs = [zero(mode) for _ in cls]
        for d, xd in x_by_class.items():
            dcls = analysis.classes[d]
            for bi, i in enumerate(cls):
                rhs[bi] += sum(
                    work.rows[i - 1][j - 1] * xd[dj]
                    for dj, j in enumerate(dcls)
                    if work.rows[i - 1][j - 1] != 0
                )
        mrows = [
            [
                (lam_s if bi == bj else zero(mode)) - work.rows[i - 1][j - 1]
                for bj, j in enumerate(cls)
            ]
            for bi, i in enumerate(cls)
        ]
        sol = solve_linear(mrows, rhs, mode)
        if sol is None:
            raise NumericFailure("singular block during eigenvector back-substitution")
        x_by_class[c] = sol
    entries = [zero(mode)] * P.n
    for c, xs in x_by_class.items():
        for bi, v in enumerate(analysis.classes[c]):
            entries[v - 1] = xs[bi]
    return ConeVector(tuple(entries), mode)


def _outcome(fn, *args):
    """A call's value, or the type of the exception it raised (and the
    message of an input error, which callers show)."""
    try:
        return fn(*args)
    except InvalidInput as exc:
        return ("InvalidInput", str(exc))
    except Exception as exc:
        return type(exc).__name__


def test_eigenvector_matches_the_reference_back_substitution():
    # rational, irregular (float radii) and float-mode matrices; floats must
    # agree to the bit, since the arithmetic is the same.  Exact vectors
    # beside an accessor block of non-constant row sums (float before only
    # the Perron block had to be exact) must satisfy the eigen-equation
    # exactly
    rnd = rng(4203)
    seen = {RATIONAL: 0, FLOAT: 0}
    mixed = newly_exact = 0
    for _ in range(80):
        P = fuzz_matrix(rnd, n_max=7)
        Q = irregular(rnd, fuzz_matrix(rnd, n_max=7))
        for M in (P, Q, P.to_float(), Q.to_float()):
            an = condense(M)
            for c in range(an.class_count + 1):
                got = _outcome(fv_eigenvector, M, c)
                assert repr(got) == repr(_outcome(_ref_fv_eigenvector, M, c)), (M.rows, c)
                if isinstance(got, ConeVector):
                    seen[got.mode] += 1
                    mixed += M.mode == RATIONAL and got.mode == FLOAT
                if isinstance(got, ConeVector) and M.mode == got.mode == RATIONAL and any(
                    an.has_access(d, c)
                    and len(an.classes[d]) > 1
                    and spectral._block_exact_row_sum(spectral._block(M, an.classes[d])) is None
                    for d in range(an.class_count)
                ):
                    lam = taxonomy(M).radii[c]
                    assert M.apply(got.entries) == tuple(lam * e for e in got.entries)
                    newly_exact += 1
    assert seen[RATIONAL] >= 200 and seen[FLOAT] >= 200 and mixed >= 30
    assert newly_exact >= 15, newly_exact
