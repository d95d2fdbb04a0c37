"""oracle.shifted_image_rows is the one builder of the rows of
sign*(P - lambda*I), and NonnegMatrix.shifted_apply the one product of
sign*(P - lambda*I) with a vector.  Their callers used to write these by
hand; each hand-written builder and product is kept below, as it read in its
caller, as the reference.  Patched in for the builder or the product, a
reference makes its caller run as it did, and the output must have the same
repr as the caller's own, float mode included: there the builder's exact
entries are rounded back to the floats the hand-written differences gave,
and the product keeps the sign of every float zero."""

from collections import Counter
from fractions import Fraction

from coneq import cli, oracle
from coneq.alternating import ZMatrix, alt_length, alternating_bound_report
from coneq.collatz_wielandt import boundary_report, decompose_subinvariant, decompose_superinvariant
from coneq.core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    NumericFailure,
    exact_fraction,
    vec_sub,
    zero,
)
from coneq.eq_type1 import minimal_solution, solvable1, solve1
from coneq.eq_type2 import tracedown_witness
from coneq.spectral import fv_eigenvector, taxonomy

from fuzz import fuzz_matrix, irregular, rng

THIRD = Fraction(1, 3)


def _minimal_solution_rows(sub, lam_s, mode):
    """eq_type1.minimal_solution: lambda*I - P on the principal subsystem,
    given by its rows."""
    return [
        [(lam_s if i == j else zero(mode)) - sub[i][j] for j in range(len(sub))]
        for i in range(len(sub))
    ]


def _back_substitute_rows(block, lam_s, mode):
    """spectral._back_substitute: lam*I - B_c on one class block."""
    return [
        [(lam_s if bi == bj else zero(mode)) - e for bj, e in enumerate(row)]
        for bi, row in enumerate(block)
    ]


def _rho_attained_rows(P, rho):
    """cli._check_rho_attained: the ge rows x_i >= 1 and (rho*I - P)x >= 0."""
    n = P.n
    rows = []
    for i in range(n):
        unit_row = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        rows.append((unit_row, Fraction(1)))
    for i in range(n):
        slack = [(rho if j == i else 0) - P.rows[i][j] for j in range(n)]
        rows.append((slack, Fraction(0)))
    return rows


def _generalized_nullspace_rows(mat_rows, mu):
    """oracle.generalized_nullspace_exact: M - mu*I."""
    mu = exact_fraction(mu)
    return [[exact_fraction(e) - mu if i == j else e for j, e in enumerate(row)] for i, row in enumerate(mat_rows)]


def _outcome(call):
    try:
        return repr(call())
    except (InvalidInput, NumericFailure) as exc:
        return repr(exc)


def _matrices(seed, count):
    """fuzz matrices, their irregular twins and the float twins of both."""
    rnd = rng(seed)
    for _ in range(count):
        P = fuzz_matrix(rnd, n_max=7)
        Q = irregular(rnd, P)
        yield from (P, Q, P.to_float(), Q.to_float())


def _shifts(P):
    """Every class radius and radius -+ 1/3, positive ones only."""
    out = []
    for r in taxonomy(P).radii:
        for d in (0, -THIRD, THIRD):
            lam = r + (d if isinstance(r, Fraction) else float(d))
            if lam > 0 and lam not in out:
                out.append(lam)
    return out


def _vectors(P):
    vecs = [ConeVector.unit(P.n, i, P.mode) for i in range(1, P.n + 1)]
    return vecs + [ConeVector.make([1] * P.n, P.mode)]


def test_minimal_solution_matches_the_hand_written_rows(monkeypatch):
    seen = Counter()
    for P in _matrices(71, 30):
        for lam in _shifts(P):
            for b in _vectors(P):
                if not solvable1(P, lam, b):
                    continue
                got = _outcome(lambda: minimal_solution(P, lam, b))
                with monkeypatch.context() as m:

                    def reference(sub, lam_s, sign=1):
                        assert sign == -1
                        seen[P.mode] += 1
                        return _minimal_solution_rows(sub, lam_s, P.mode)

                    m.setattr(oracle, "shifted_image_rows", reference)
                    want = _outcome(lambda: minimal_solution(P, lam, b))
                assert got == want, (P, lam, b)
    assert seen[RATIONAL] >= 500 and seen[FLOAT] >= 500, seen


def test_back_substitution_matches_the_hand_written_rows(monkeypatch):
    seen = Counter()
    for P in _matrices(72, 40):
        tax = taxonomy(P)
        calls = [(fv_eigenvector, c) for c in range(len(tax.radii)) if tax.distinguished[c]]
        calls += [
            (tracedown_witness, c)
            for c in range(len(tax.radii))
            if tax.basic[c] and tax.distinguished_transpose[c]
        ]
        for fn, c in calls:
            got = _outcome(lambda: fn(P, c))
            with monkeypatch.context() as m:

                def reference(block, lam_s, sign=1):
                    assert sign == -1
                    mode = FLOAT if isinstance(lam_s, float) else RATIONAL
                    seen[fn.__name__, mode] += 1
                    return _back_substitute_rows(block, lam_s, mode)

                m.setattr(oracle, "shifted_image_rows", reference)
                want = _outcome(lambda: fn(P, c))
            assert got == want, (P, fn.__name__, c)
    for key in ("fv_eigenvector", "tracedown_witness"):
        assert seen[key, RATIONAL] >= 30 and seen[key, FLOAT] >= 30, seen


def test_generalized_nullspace_matches_the_hand_written_rows(monkeypatch):
    seen = 0
    for P in _matrices(73, 25):
        t_rows = [list(r) for r in P.transpose().rows]
        for mu in _shifts(P):
            got = repr(oracle.generalized_nullspace_exact(t_rows, mu))
            with monkeypatch.context() as m:
                m.setattr(
                    oracle, "shifted_image_rows", lambda rows, lam, sign=1: _generalized_nullspace_rows(rows, lam)
                )
                want = repr(oracle.generalized_nullspace_exact(t_rows, mu))
            assert got == want, (P, mu)
            seen += got != "[]"
    assert seen >= 100, seen


def test_rho_attained_matches_the_hand_written_rows(monkeypatch):
    problems = []
    real_lp_feasible = oracle.lp_feasible

    def recording(problem):
        problems.append(problem)
        return real_lp_feasible(problem)

    monkeypatch.setattr(oracle, "lp_feasible", recording)
    checked = 0
    for P in _matrices(74, 40):
        problems.clear()
        got = _outcome(lambda: cli.PROPERTY_SUITES["thm5.10"](P, DEFAULT_TOL))
        with monkeypatch.context() as m:

            def reference(Q, rho, sign=1):  # the slack rows, after the n unit rows
                assert sign == -1
                return [row for row, _ in _rho_attained_rows(Q, rho)[Q.n:]]

            m.setattr(oracle, "shifted_image_rows", reference)
            want = _outcome(lambda: cli.PROPERTY_SUITES["thm5.10"](P, DEFAULT_TOL))
        assert got == want, P
        if problems:  # rho was rational: the LP ran, on the rows the old check built
            rho = taxonomy(P).rho
            old_problem = oracle.LPProblem.build(P.n, ge_rows=_rho_attained_rows(P, rho))
            assert problems[0] == problems[1] == old_problem
            checked += 1
    assert checked >= 40, checked


def test_the_four_callers_go_through_the_builder(monkeypatch):
    calls = Counter()
    real = oracle.shifted_image_rows

    def counting(P, lam, sign=1):
        calls[sign] += 1
        return real(P, lam, sign)

    monkeypatch.setattr(oracle, "shifted_image_rows", counting)
    # class {1} (radius 1) has access to class {2} (radius 2)
    for mode in (RATIONAL, FLOAT):
        P = NonnegMatrix.make([[1, 1], [0, 2]], mode)
        calls.clear()
        minimal_solution(P, 3, ConeVector.unit(2, 1, mode))
        assert calls == {-1: 1}
        calls.clear()
        x = fv_eigenvector(P, taxonomy(P).analysis.vertex_class[1])  # back-substitutes class {1}
        assert x.entries[0] > 0 and calls == {-1: 1}
    calls.clear()
    assert cli.PROPERTY_SUITES["thm5.10"](NonnegMatrix.make([[1, 1], [0, 2]]), DEFAULT_TOL)["pass"]
    assert calls == {-1: 1}
    calls.clear()
    assert oracle.generalized_nullspace_exact([[1, 1], [0, 1]], Fraction(1))
    assert calls == {1: 1}


# the hand-written products, each as it read in its caller; the two cli
# checks subtracted b in the same expression, (img - lam*x) - b, which is
# the product with b subtracted afterwards


def _residual_norm_product(P, lam_s, entries):
    """eq_type1._residual_norm: lambda*x - Px."""
    return vec_sub(tuple(lam_s * e for e in entries), P.apply(entries))


def _signed_iterate(P, s, entries):
    """alternating._signed_iterate: (P - s*I) applied to raw entries."""
    img = P.apply(entries)
    return tuple(i - s * e for i, e in zip(img, entries))


def _above_regime_product(P, lam, entries):
    """cli._check_above_regime: img[i] - lam*x[i]."""
    img = P.apply(entries)
    return [img[i] - lam * entries[i] for i in range(P.n)]


def _tracedown_product(P, rho, entries):
    """cli._verify_tracedown: img[i] - rho*x[i]."""
    img = P.apply(entries)
    return [img[i] - rho * entries[i] for i in range(P.n)]


def _decompose_product(P, rho_x, entries, sign):
    """collatz_wielandt._decompose: sign*(rho_x*x - Px), by a sign branch."""
    img = P.apply(entries)
    if sign > 0:
        return [rho_x * e - i for e, i in zip(entries, img)]
    return [i - rho_x * e for e, i in zip(entries, img)]


def _boundary_product(P, R, entries):
    """collatz_wielandt.boundary_report: R*x - Px."""
    img = P.apply(entries)
    return [R * e - i for e, i in zip(entries, img)]


# caller -> (the sign it passes, the reference taking (P, lam, entries, sign))
PRODUCTS = {
    "solve1": (-1, lambda P, lam, x, sign: _residual_norm_product(P, lam, x)),
    "alternating": (1, lambda P, lam, x, sign: _signed_iterate(P, lam, x)),
    "cor4.2": (1, lambda P, lam, x, sign: _above_regime_product(P, lam, x)),
    "thm4.13": (1, lambda P, lam, x, sign: _tracedown_product(P, lam, x)),
    # the old sign of _decompose: +1 in decompose_subinvariant, -1 in
    # decompose_superinvariant
    "decompose_subinvariant": (-1, lambda P, lam, x, sign: _decompose_product(P, lam, x, 1)),
    "decompose_superinvariant": (1, lambda P, lam, x, sign: _decompose_product(P, lam, x, -1)),
    "boundary_report": (-1, lambda P, lam, x, sign: _boundary_product(P, lam, x)),
}


def _eigenvector_sums(P):
    """The nonnegative eigenvectors of the distinguished classes, and the sum
    of each with the all-ones vector: vectors both decompositions accept."""
    tax = taxonomy(P)
    out = []
    for c in range(len(tax.radii)):
        if tax.distinguished[c]:
            u = fv_eigenvector(P, c)
            if u.mode == P.mode:
                out += [u, ConeVector(tuple(e + 1 for e in u.entries), P.mode)]
    return out


def _calls(P):
    """(caller, zero-argument call) for every call that reaches a product."""
    vecs = _vectors(P)
    for lam in _shifts(P):
        for b in vecs:
            yield "solve1", lambda lam=lam, b=b: solve1(P, lam, b)
            yield "alternating", lambda lam=lam, b=b: alt_length(ZMatrix.make(lam, P), b)
    for x in vecs + _eigenvector_sums(P):
        yield "alternating", lambda x=x: alternating_bound_report(P, x)
        yield "decompose_subinvariant", lambda x=x: decompose_subinvariant(P, x)
        yield "decompose_superinvariant", lambda x=x: decompose_superinvariant(P, x)
        yield "boundary_report", lambda x=x: boundary_report(P, x)
    yield "cor4.2", lambda: cli.PROPERTY_SUITES["cor4.2"](P, DEFAULT_TOL)
    if P.mode == RATIONAL:
        yield "thm4.13", lambda: cli.PROPERTY_SUITES["thm4.13"](P, DEFAULT_TOL)


def test_vector_products_match_the_hand_written_ones(monkeypatch):
    seen, zeros = Counter(), Counter()
    matrices = [NonnegMatrix.make([[1, 1], [0, 1]], FLOAT)]  # R*x - Px = (0.0, 1.0) at x = (1, 1)
    for mode in (RATIONAL, FLOAT):  # cor4.2 constructs at lambda = 4/3 on the radius-1 class
        matrices.append(NonnegMatrix.make([["4/3", 0, 0], [1, 1, 0], [0, 1, "2/3"]], mode))
    for P in _matrices(75, 15):
        # scaled by 2/3, the fuzz radii lie 1/3 apart, so that some radius
        # + 1/3 is a distinguished eigenvalue, where cor4.2 constructs
        two_thirds = Fraction(2, 3) if P.mode == RATIONAL else 2 / 3
        matrices += [P, NonnegMatrix.make([[e * two_thirds for e in row] for row in P.rows], P.mode)]
    for P in matrices:
        for caller, call in _calls(P):
            got = _outcome(call)
            want_sign, product = PRODUCTS[caller]
            with monkeypatch.context() as m:

                def reference(self, entries, lam, sign):
                    assert sign == want_sign, (caller, sign)
                    out = product(self, lam, entries, sign)
                    seen[caller, self.mode] += 1
                    zeros[caller] += self.mode == FLOAT and any(e == 0 for e in out)
                    return out

                m.setattr(NonnegMatrix, "shifted_apply", reference)
                want = _outcome(call)
            assert got == want, (P, caller)
    for caller in PRODUCTS:
        modes = (RATIONAL,) if caller == "thm4.13" else (RATIONAL, FLOAT)
        assert all(seen[caller, mode] >= 5 for mode in modes), seen
    # float products with an exact zero entry, whose sign the repr shows
    assert zeros["solve1"] >= 20 and zeros["boundary_report"] >= 20, zeros
