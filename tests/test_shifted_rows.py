"""oracle.shifted_image_rows is the one builder of the rows of
sign*(P - lambda*I).  Its callers used to write those rows by hand; each
hand-written builder is kept below, as it read in its caller, as the
reference.  Patched in for the builder, a reference makes its caller run as
it did, and the output must have the same repr as the caller's own, float
mode included: there the builder's exact entries are rounded back to the
floats the hand-written differences gave."""

from collections import Counter
from fractions import Fraction

from coneq import cli, oracle
from coneq.core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    NumericFailure,
    exact_fraction,
    zero,
)
from coneq.eq_type1 import minimal_solution, solvable1
from coneq.eq_type2 import tracedown_witness
from coneq.spectral import fv_eigenvector, taxonomy

from fuzz import fuzz_matrix, irregular, rng

THIRD = Fraction(1, 3)


def _minimal_solution_rows(sub, lam_s, mode):
    """eq_type1.minimal_solution: lambda*I - P on the principal subsystem."""
    return [
        [(lam_s if i == j else zero(mode)) - sub.rows[i][j] for j in range(sub.n)]
        for i in range(sub.n)
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
