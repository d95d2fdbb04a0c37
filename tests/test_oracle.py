import math
from collections import Counter
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import numpy as np
from numpy.testing import assert_allclose
from pytest import raises as assert_raises

from coneq.core import DEFAULT_TOL, FLOAT, RATIONAL, ConeVector, InvalidInput, NonnegMatrix
from coneq import cli, oracle
from coneq.alternating import alternating_bound_report
from coneq.collatz_wielandt import _generalized_null_is_eigen, power_limit_exists
from coneq.eq_type2 import solvable_face_probe
from coneq.oracle import (
    EigComponent,
    LPProblem,
    charpoly_exact,
    count_real_roots_in,
    decompose_generalized,
    eig_all,
    feasible_nonneg_solution,
    generalized_nullspace_exact,
    krylov_local_rho,
    lp_feasible,
    matrix_power_exact,
    nullspace_exact,
    shifted_image_rows,
    solve_lp,
    solve_signed,
)
from coneq.spectral import class_radii, spectral_radius

from fuzz import fuzz_irreducible, fuzz_matrix, fuzz_nilpotent, fuzz_vector, irregular, rng


def mat(rows, mode=RATIONAL):
    return NonnegMatrix.make(rows, mode)


T = mat([[2, 0], [1, 1]])
U = mat([[1, 1], [0, 1]])
S = mat([[0, 1], [1, 0]])
A = mat([[2, 1, 0], [0, 1, 0], [0, 0, 1]])


# The two-phase Fraction simplex that solve_lp replaced, kept as the
# reference for the integer tableau, from solve_lp's start (slack_start) and
# from the all-artificial start it had before.  It also counts what the fuzz
# reaches: pivots, ratio ties, negative pivots (driving artificials out),
# dropped redundant rows, and LPs that start with every row's slack basic
# (no phase 1) or with slack-basic and artificial rows mixed.


def _ref_pivot(tableau, basis, row, col, seen):
    piv = tableau[row][col]
    seen["pivots"] += 1
    seen["negative pivots"] += piv < 0
    inv = Fraction(1) / piv
    tableau[row] = [e * inv for e in tableau[row]]
    prow = tableau[row]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            f = tableau[r][col]
            tableau[r] = [e - f * p for e, p in zip(tableau[r], prow)]
    basis[row] = col


def _ref_simplex_min(tableau, basis, cost, seen):
    m = len(tableau)
    width = len(cost) + 1
    z = list(cost) + [Fraction(0)]
    for r in range(m):
        c = basis[r]
        if z[c] != 0:
            f = z[c]
            z = [e - f * t for e, t in zip(z, tableau[r])]
    while True:
        enter = next((j for j in range(width - 1) if z[j] < 0), None)
        if enter is None:
            return "optimal", -z[-1]
        best_row, best_ratio = None, None
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][-1] / a
                seen["ties"] += ratio == best_ratio
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            return "unbounded", None
        f = z[enter]
        _ref_pivot(tableau, basis, best_row, enter, seen)
        if f != 0:
            z = [e - f * p for e, p in zip(z, tableau[best_row])]


def _ref_solve_lp(problem, seen, slack_start=True):
    """(status, witness, objective, pivots) of the Fraction simplex.  With
    slack_start, a >= row whose right-hand side is <= 0 starts with its
    slack basic and only the other rows get an artificial, as in solve_lp;
    without it every row gets one, as solve_lp did before.  Every datum is
    read as a Fraction, so a ratio of the integer rows LPProblem.build makes
    is an exact quotient, and the objective over its scale."""
    n, n_eq = problem.n, len(problem.eq_rows)
    rows = []
    n_slack = len(problem.ge_rows)
    total = n + n_slack
    for coeffs, rhs in problem.eq_rows:
        rows.append(([*map(Fraction, coeffs)] + [Fraction(0)] * n_slack, Fraction(rhs)))
    for k, (coeffs, rhs) in enumerate(problem.ge_rows):
        slack = [Fraction(0)] * n_slack
        slack[k] = Fraction(-1)
        rows.append(([*map(Fraction, coeffs)] + slack, Fraction(rhs)))
    m = len(rows)
    starts = [slack_start and r >= n_eq and rhs <= 0 for r, (_, rhs) in enumerate(rows)]
    n_art = starts.count(False)
    seen["slack start"] += m > 0 and n_art == 0
    seen["mixed start"] += 0 < n_art < m
    tableau, basis = [], []
    for r, (coeffs, rhs) in enumerate(rows):
        if rhs < 0 or starts[r]:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
        tableau.append(list(coeffs) + [Fraction(0)] * n_art + [rhs])
        if starts[r]:
            basis.append(n + r - n_eq)
        else:
            basis.append(total + r - sum(starts[:r]))
            tableau[r][basis[r]] = Fraction(1)
    before = seen["pivots"]
    if n_art:
        status, value = _ref_simplex_min(
            tableau, basis, [Fraction(0)] * total + [Fraction(1)] * n_art, seen
        )
        if status != "optimal" or value != 0:
            return "infeasible", None, None, seen["pivots"] - before
    keep = []
    for r in range(m):
        if basis[r] >= total:
            col = next((j for j in range(total) if tableau[r][j] != 0), None)
            if col is None:
                seen["dropped rows"] += 1
                continue
            _ref_pivot(tableau, basis, r, col, seen)
        keep.append(r)
    tableau = [tableau[r][:total] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    def extract():
        x = [Fraction(0)] * total
        for r, c in enumerate(basis):
            x[c] = tableau[r][-1]
        return tuple(x[:n])

    if problem.objective is None:
        return "optimal", extract(), None, seen["pivots"] - before
    sign = Fraction(-1) if problem.maximize else Fraction(1)
    cost = [sign * Fraction(c, problem.objective_scale) for c in problem.objective] + [Fraction(0)] * n_slack
    status, value = _ref_simplex_min(tableau, basis, cost, seen)
    if status == "unbounded":
        return "unbounded", None, None, seen["pivots"] - before
    return "optimal", extract(), sign * value, seen["pivots"] - before


def _ref_cluster_eigenvalues(vals, tol, matrix):
    """oracle._cluster_eigenvalues as it was, with the cluster means taken
    again for every candidate pair; returns the clusters and the merges."""
    scale = max([1.0] + [abs(v) for v in vals])
    thresh = tol.eig_tol * scale
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    clusters = []
    for i in order:
        placed = False
        for cl in clusters:
            if any(abs(vals[i] - vals[j]) <= thresh for j in cl):
                cl.append(i)
                placed = True
                break
        if not placed:
            clusters.append([i])
    if len(clusters) < 2:
        return clusters, 0
    n = len(vals)
    eps = float(np.finfo(float).eps)
    gate = scale * max(10.0 * tol.eig_tol, (64.0 * eps) ** (1.0 / n))
    a = np.asarray(matrix, dtype=complex)
    merges = 0
    changed = True
    while changed and len(clusters) > 1:
        changed = False
        for p in range(len(clusters)):
            for q in range(p + 1, len(clusters)):
                mean_p = np.mean([vals[i] for i in clusters[p]])
                mean_q = np.mean([vals[i] for i in clusters[q]])
                if abs(mean_p - mean_q) > gate:
                    continue
                joint = clusters[p] + clusters[q]
                m = len(joint)
                mu = complex(np.mean([vals[i] for i in joint]))
                shifted = a - mu * np.eye(n)
                s = max(1.0, float(np.linalg.norm(shifted, np.inf)))
                sig = np.linalg.svd(
                    np.linalg.matrix_power(shifted / s, m), compute_uv=False
                )
                smax = sig[0] if len(sig) else 0.0
                cutoff = max(oracle.RANK_REL * smax, 1e-13)
                null_dim = int(np.sum(sig <= cutoff)) if smax > 0 else n
                if null_dim >= m:
                    clusters[p] = joint
                    del clusters[q]
                    merges += 1
                    changed = True
                    break
            if changed:
                break
    return clusters, merges


# The Fraction Gauss-Jordan that the integer kernel replaced, kept as the
# reference for nullspace_exact and solve_signed.  It also counts negative
# pivots, where the kernel flips the signs of its rows.


def _ref_decompose_generalized(P, x, tol=DEFAULT_TOL):
    """oracle.decompose_generalized as it was, with its own SVD nullspace
    loop and the reference clusters."""
    n = P.n
    a = P.to_numpy()
    xv = np.array([float(e) for e in x.entries], dtype=float)
    vals = np.linalg.eigvals(a)
    clusters, _ = _ref_cluster_eigenvalues(list(vals), tol, a)
    merged = False
    ambiguous = False
    bases = []
    infos = []
    for cl in clusters:
        mu = complex(np.mean([vals[i] for i in cl]))
        mult = len(cl)
        spread = max(abs(vals[i] - mu) for i in cl)
        if mult > 1 and spread > 10 * tol.eig_tol * max(1.0, abs(mu)):
            merged = True
        if abs(mu.imag) <= tol.eig_tol * max(1.0, abs(mu)):
            mu = complex(mu.real, 0.0)
        shifted = a.astype(complex) - mu * np.eye(n)
        s = max(1.0, float(np.linalg.norm(shifted, np.inf)))
        powered = np.linalg.matrix_power(shifted / s, mult)
        u, sig, vh = np.linalg.svd(powered)
        smax = sig[0] if len(sig) else 0.0
        cutoff = max(oracle.RANK_REL * smax, 1e-13)
        null_dim = int(np.sum(sig <= cutoff)) if smax > 0 else n
        if null_dim != mult:
            ambiguous = True
            null_dim = mult
        bases.append(vh.conj().T[:, n - null_dim:])
        infos.append((mu, mult, shifted / s))
    coef = np.linalg.solve(np.hstack(bases), xv.astype(complex))
    comps = []
    col = 0
    xnorm = max(1.0, float(np.linalg.norm(xv, np.inf)))
    for (mu, mult, shifted_scaled), basis in zip(infos, bases):
        kdim = basis.shape[1]
        comp = basis @ coef[col:col + kdim]
        col += kdim
        cnorm = float(np.linalg.norm(comp, np.inf))
        order = 0
        if cnorm > 1e-9 * xnorm:
            w = comp
            order = mult
            for t in range(1, mult + 1):
                w = shifted_scaled @ w
                if np.linalg.norm(w, np.inf) <= 1e-8 * cnorm:
                    order = t
                    break
        comps.append(oracle.EigComponent(mu, mult, tuple(comp), order, cnorm))
    return oracle.GeneralizedDecomposition(tuple(comps), merged, ambiguous)


def _ref_gauss_jordan(a, n, seen):
    m = len(a)
    pivots = []
    r = 0
    for col in range(n):
        piv = next((k for k in range(r, m) if a[k][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        seen["negative pivot"] += a[r][col] < 0
        inv = Fraction(1) / a[r][col]
        a[r] = [e * inv for e in a[r]]
        for k in range(m):
            if k != r and a[k][col] != 0:
                f = a[k][col]
                a[k] = [e - f * p for e, p in zip(a[k], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def _ref_eager_pivot(tableau, d, row, col):
    """oracle._pivot as it was, with one common denominator d for the whole
    tableau: every other row, those with a zero in the pivot column
    included, is rewritten over the new d, |p|."""
    prow = tableau[row]
    p = prow[col]
    for r, cur in enumerate(tableau):
        if r == row:
            continue
        f = cur[col]
        if f:
            tableau[r] = [(e * p - f * q) // d for e, q in zip(cur, prow)]
        elif p != d:
            tableau[r] = [e * p // d for e in cur]
    if p < 0:
        tableau[:] = [[-e for e in cur] for cur in tableau]
    return abs(p)


def _ref_solve_signed(mat_rows, rhs, seen):
    m = len(mat_rows)
    n = len(mat_rows[0]) if m else 0
    a = [[Fraction(e) for e in row] + [Fraction(rhs[i])] for i, row in enumerate(mat_rows)]
    pivots = _ref_gauss_jordan(a, n, seen)
    if any(a[k][n] != 0 for k in range(len(pivots), m)):
        return None
    x = [Fraction(0)] * n
    for row_i, col in enumerate(pivots):
        x[col] = a[row_i][n]
    return x


def _ref_nullspace(mat_rows, seen):
    n = len(mat_rows[0]) if mat_rows else 0
    a = [[Fraction(e) for e in row] for row in mat_rows]
    pivots = _ref_gauss_jordan(a, n, seen)
    seen["rank-deficient"] += len(pivots) < min(len(mat_rows), n)
    basis = []
    for fc in [c for c in range(n) if c not in pivots]:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row_i, col in enumerate(pivots):
            v[col] = -a[row_i][fc]
        basis.append(v)
    return basis


def _ref_matrix_power(rows, k):
    """matrix_power_exact as it was: repeated squaring on Fractions."""
    n = len(rows)
    result = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    base = [[Fraction(e) for e in row] for row in rows]
    while k:
        if k & 1:
            result = [[sum(result[i][t] * base[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        k >>= 1
        if k:
            base = [[sum(base[i][t] * base[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return result


def _ref_charpoly(rows):
    """charpoly_exact as it was: Faddeev-LeVerrier on Fractions."""
    n = len(rows)
    a = [[Fraction(e) for e in row] for row in rows]
    coeffs = [Fraction(1)]
    am, c = a, Fraction(1)
    for k in range(1, n + 1):
        if k > 1:
            m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
            am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
    return coeffs


def _fuzz_system(rnd, seen):
    """Rows and a right-hand side of M x = rhs, m != n or square: zero,
    repeated and combined rows, pure-int rows, float entries and rows of
    Fractions over unequal denominators; the right-hand side is M x0 or, at
    times, random (inconsistent when M is rank-deficient)."""
    m, n = rnd.randint(1, 7), rnd.randint(1, 7)
    seen["m != n" if m != n else "square"] += 1
    dens = rnd.sample([1, 2, 3, 4, 5, 7, 9], 3)

    def value():
        return Fraction(rnd.randint(-4, 4), rnd.choice(dens))

    rows = []
    for _ in range(m):
        kind = rnd.random()
        if kind < 0.08:
            row, what = [0] * n, "zero row"
        elif kind < 0.2 and rows:
            row, what = list(rnd.choice(rows)), "repeated row"
        elif kind < 0.32 and len(rows) >= 2:
            u, v = rnd.sample(rows, 2)
            w = value()
            row, what = [Fraction(a) + w * Fraction(b) for a, b in zip(u, v)], "combined row"
        elif kind < 0.5:
            row, what = [rnd.randint(-3, 3) for _ in range(n)], "pure-int row"
        elif kind < 0.6:
            row, what = [rnd.choice([0.5, -1.25, 0.1, 3.0, 1 / 3, 0.0]) for _ in range(n)], "float entry"
        else:
            row = [value() if rnd.random() < 0.7 else Fraction(0) for _ in range(n)]
            what = "Fraction row"
        if len({Fraction(e).denominator for e in row}) > 1:
            seen["unequal denominators"] += 1
        seen[what] += 1
        rows.append(row)
    if rnd.random() < 0.3:
        rhs = [value() for _ in range(m)]
    else:
        x0 = [value() for _ in range(n)]
        rhs = [sum(Fraction(a) * b for a, b in zip(row, x0)) for row in rows]
    return rows, rhs


def _fuzz_lp(rnd):
    """A small LP mixing eq and ge rows, with unequal denominators, negative
    and zero right-hand sides, repeated and redundant rows, and min, max or
    no objective."""
    n = rnd.randint(1, 6)
    dens = rnd.sample([1, 2, 3, 4, 5, 7, 9], 3)

    def value(lo=-3, hi=4):
        return Fraction(rnd.randint(lo, hi), rnd.choice(dens))

    def row():
        coeffs = [value() if rnd.random() < 0.7 else Fraction(0) for _ in range(n)]
        return coeffs, (Fraction(0) if rnd.random() < 0.3 else value(-4, 6))

    eq_rows = [row() for _ in range(rnd.randint(0, 3))]
    ge_rows = [row() for _ in range(rnd.randint(0, 3))]
    if eq_rows and rnd.random() < 0.3:  # a combination of eq rows, redundant when feasible
        picked = [rnd.choice(eq_rows) for _ in range(2)]
        w = [value(1, 3) for _ in picked]
        eq_rows.append((
            [sum(wk * r[0][j] for wk, r in zip(w, picked)) for j in range(n)],
            sum(wk * r[1] for wk, r in zip(w, picked)),
        ))
    if ge_rows and rnd.random() < 0.2:
        ge_rows.append(rnd.choice(ge_rows))
    objective = None
    if rnd.random() < 0.75:
        objective = [value() for _ in range(n)]
    return LPProblem.build(n, eq_rows, ge_rows, objective, rnd.random() < 0.5)


def _face_probe_lps(P, lam):
    """The per-coordinate LPs that eq_type2.solvable_face_probe solves."""
    img = shifted_image_rows(P, lam)
    ge_rows = [(row, Fraction(0)) for row in img]
    norm_row = ([Fraction(1)] * P.n, Fraction(1))
    return [
        LPProblem.build(P.n, [norm_row], ge_rows, img[i], True) for i in range(P.n)
    ]


def _ref_face_probe(P, lam):
    """eq_type2.solvable_face_probe as it was: one LP per coordinate,
    maximising that image coordinate over the slice sum(x) = 1."""
    return frozenset(
        i + 1
        for i, prob in enumerate(_face_probe_lps(P, lam))
        if (res := solve_lp(prob)).status == "optimal" and res.objective > 0
    )


def _null_rows(P, rho):
    """The rows of rho*I - P and of (rho*I - P)^n."""
    shift = shifted_image_rows(P, rho, sign=-1)
    return shift, matrix_power_exact(shift, P.n)


def _ref_null_is_eigen(P, rho):
    """collatz_wielandt._generalized_null_is_eigen as it was: one LP per
    coordinate and sign, x >= 0 with (rho*I - P)^n x = 0 and
    +-[(rho*I - P)x]_i >= 1."""
    shift, powered = _null_rows(P, rho)
    eq_rows = [(row, 0) for row in powered]
    return not any(
        lp_feasible(LPProblem.build(P.n, eq_rows, [([sgn * e for e in shift[i]], 1)])).feasible
        for i in range(P.n)
        for sgn in (1, -1)
    )


def _null_support(P, rho):
    """The support of {x >= 0 : (rho*I - P)^n x = 0}, one LP per coordinate."""
    eq_rows = [(row, 0) for row in _null_rows(P, rho)[1]]
    return {
        i + 1
        for i in range(P.n)
        if lp_feasible(LPProblem.build(P.n, eq_rows, [([int(j == i) for j in range(P.n)], 1)])).feasible
    }


def _face_shifts(P):
    """Each class radius, 1/3 and 1/7 on either side of it, and the
    Sturm-certified shifts below rho that `check --property cor4.20` probes."""
    shifts = set()
    for r in map(Fraction, set(class_radii(P))):
        shifts |= {r, r - Fraction(1, 3), r + Fraction(1, 3), r - Fraction(1, 7), r + Fraction(1, 7)}
    rho = spectral_radius(P)
    if P.n and isinstance(rho, Fraction):
        coeffs = charpoly_exact(P)
        t = rho - 1
        while count_real_roots_in(coeffs, t, rho) > 1:
            t = (t + rho) / 2
        shifts |= {t + (rho - t) * k / 4 for k in (1, 2, 3)}
    return sorted(shifts)


def _face_question_matrices(rnd, rounds):
    """The empty matrix, then fuzzed block-triangular matrices, their
    irregular twins (float radii), irreducible and nilpotent matrices."""
    yield NonnegMatrix.make([], RATIONAL)
    for _ in range(rounds):
        P = fuzz_matrix(rnd, n_max=5, n_min=1)
        yield from (P, irregular(rnd, P), fuzz_irreducible(rnd), fuzz_nilpotent(rnd))


def _jordan_behind_similarity(rnd, n):
    """S J S^-1 for Jordan chains J with rational eigenvalues and a random
    unimodular integer S (so the entries stay integers); returns the rows
    and the eigenvalues."""
    jordan = [[Fraction(0)] * n for _ in range(n)]
    eigenvalues = set()
    start = 0
    while start < n:
        size = min(n - start, rnd.randint(1, 4))
        ev = Fraction(rnd.randint(-2, 4), rnd.choice([1, 2, 3]))
        eigenvalues.add(ev)
        for i in range(start, start + size):
            jordan[i][i] = ev
            if i + 1 < start + size:
                jordan[i][i + 1] = Fraction(1)
        start += size
    sim = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in sim]
    for _ in range(2 * n):  # row additions keep det 1 and the inverse integral
        i, j = rnd.sample(range(n), 2)
        c = rnd.randint(-2, 2)
        sim[i] = [a + c * b for a, b in zip(sim[i], sim[j])]
        for row in inv:
            row[j] -= c * row[i]

    def mul(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    return mul(mul(sim, jordan), inv), eigenvalues


class TestLP:
    def test_feasible_with_witness(self):
        rows = shifted_image_rows(T, Fraction(2))  # P - 2I
        res = feasible_nonneg_solution(rows, [Fraction(0), Fraction(1)])
        assert res.feasible
        assert res.witness == (Fraction(1), Fraction(0))

    def test_infeasible(self):
        rows = shifted_image_rows(U, Fraction(1), sign=-1)  # I - P
        res = feasible_nonneg_solution(rows, [Fraction(1), Fraction(0)])
        assert not res.feasible
        assert res.witness is None

    def test_inequality_rows(self):
        # x >= 1 entrywise and (I - I)x >= 0: trivially feasible
        prob = LPProblem.build(
            2,
            ge_rows=[((Fraction(1), Fraction(0)), Fraction(1)),
                     ((Fraction(0), Fraction(1)), Fraction(1))],
        )
        res = lp_feasible(prob)
        assert res.feasible
        assert all(w >= 1 for w in res.witness)

    def test_optimal_objective(self):
        prob = LPProblem.build(
            2,
            ge_rows=[((Fraction(1), Fraction(1)), Fraction(1))],
            objective=(Fraction(1), Fraction(1)),
        )
        res = solve_lp(prob)
        assert res.status == "optimal"
        assert res.objective == Fraction(1)

    def test_unbounded(self):
        prob = LPProblem.build(1, objective=(Fraction(1),), maximize=True)
        assert solve_lp(prob).status == "unbounded"

    def test_row_length_validation(self):
        with assert_raises(InvalidInput):
            LPProblem.build(2, eq_rows=[((Fraction(1),), Fraction(0))])

    def test_rhs_length_validation(self):
        # a right-hand side of the wrong length is refused, not cut to fit
        for rhs in ([1], [1, 0, 1]):
            with assert_raises(InvalidInput):
                feasible_nonneg_solution([[1, 0], [0, 1]], rhs)

    def test_support_restriction(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
        free = feasible_nonneg_solution(rows, [Fraction(2), Fraction(1)])
        assert free.feasible and free.witness == (Fraction(1), Fraction(1))
        # x supported inside {2}: the LP on column 2 alone
        pinned = feasible_nonneg_solution([[row[1]] for row in rows], [Fraction(2), Fraction(1)])
        assert not pinned.feasible

    def test_determinism(self):
        rows = shifted_image_rows(A, Fraction(1), sign=-1)
        first = feasible_nonneg_solution(rows, [Fraction(0), Fraction(0), Fraction(0)])
        second = feasible_nonneg_solution(rows, [Fraction(0), Fraction(0), Fraction(0)])
        assert first.witness == second.witness

    def test_matches_the_fraction_simplex(self, monkeypatch):
        # status, witness, objective and pivot count all equal the Fraction
        # simplex's, on fuzzed LPs, on the old per-coordinate face-probe LPs
        # and on the maximal-support LPs of the face probe and (at the radii)
        # the null-space check, of fuzzed matrices; the fuzz must reach every
        # path the two could part on
        rnd = rng(91)
        problems = [_fuzz_lp(rnd) for _ in range(900)]
        recorded = []
        monkeypatch.setattr(oracle, "solve_lp", lambda prob: recorded.append(prob) or solve_lp(prob))
        for _ in range(12):
            P = fuzz_matrix(rnd, n_max=7)
            for r in set(class_radii(P)):
                for lam in {r, r + Fraction(1, 3), r - Fraction(1, 3)} - {Fraction(0)}:
                    problems += _face_probe_lps(P, lam)
                    solvable_face_probe(P, lam)
                    if lam == r:
                        _generalized_null_is_eigen(P, lam)
        monkeypatch.undo()
        problems += recorded
        fuzzed, seen = Counter(), Counter()
        statuses = Counter()
        for k, prob in enumerate(problems):
            want = _ref_solve_lp(prob, fuzzed if k < 900 else seen)
            res = solve_lp(prob)
            assert (res.status, res.witness, res.objective, res.pivots) == want, prob
            kind = "none" if prob.objective is None else "max" if prob.maximize else "min"
            statuses[res.status, "-" if res.status == "infeasible" else kind] += 1
        # the fuzzed LPs start from slack-basic, artificial and mixed bases
        assert fuzzed["mixed start"] >= 200 and fuzzed["slack start"] >= 30, fuzzed
        seen += fuzzed
        # optimal under each kind of objective, unbounded min and max, infeasible
        assert len(statuses) == 6 and min(statuses.values()) >= 20, statuses
        assert seen["ties"] >= 50 and seen["negative pivots"] >= 10, seen
        assert seen["dropped rows"] >= 10, seen

    def test_scaling_keeps_the_rational_pivots(self, monkeypatch):
        # build scales each >= row with a right-hand side <= 0 (it starts
        # with its slack basic) by its own denominator, and the rows that get
        # an artificial (= rows, >= rows with a right-hand side > 0) by one
        # shared denominator; solve_lp on those integer rows equals the
        # Fraction simplex on the rational rows, on LPs mixing slack-start
        # rows of unequal denominators with each kind of artificial row
        rnd = rng(2020)
        mixes, statuses = Counter(), Counter()
        for _ in range(600):
            n = rnd.randint(1, 5)

            def row(rhs_sign, den):
                coeffs = [Fraction(rnd.randint(-3, 4), rnd.choice((1, den))) for _ in range(n)]
                return coeffs, rhs_sign * Fraction(rnd.randint(int(rhs_sign > 0), 5), rnd.choice((1, den)))

            dens = rnd.sample([2, 3, 4, 5, 7, 9], 4)
            slack = [row(-1, den) for den in dens[: rnd.randint(2, 3)]]
            kind = rnd.choice(("eq", "ge", "eq+ge"))
            eq = [row(rnd.choice((-1, 1)), dens[-1]) for _ in range(rnd.randint(1, 2) if "eq" in kind else 0)]
            ge = [row(1, dens[-1]) for _ in range(rnd.randint(1, 2) if "ge" in kind else 0)]
            ge_rows = rnd.sample(slack + ge, len(slack) + len(ge))
            objective = [Fraction(rnd.randint(-3, 3), rnd.choice(dens)) for _ in range(n)]
            maximize = rnd.random() < 0.5
            prob = LPProblem.build(n, eq, ge_rows, objective, maximize)
            artificial = eq + [r for r in ge_rows if r[1] > 0]
            shared = math.lcm(*(e.denominator for coeffs, rhs in artificial for e in (*coeffs, rhs)))
            for k, ((coeffs, rhs), built) in enumerate(zip(eq + ge_rows, prob.eq_rows + prob.ge_rows)):
                scale = shared
                if k >= len(eq) and rhs <= 0:
                    scale = math.lcm(*(e.denominator for e in (*coeffs, rhs)))
                assert built == (tuple(c * scale for c in coeffs), rhs * scale)
                assert all(type(e) is int for e in (*built[0], built[1]))
            rational = SimpleNamespace(
                n=n, eq_rows=eq, ge_rows=ge_rows, objective=objective, maximize=maximize, objective_scale=1
            )
            res = solve_lp(prob)
            assert (res.status, res.witness, res.objective, res.pivots) == _ref_solve_lp(rational, Counter())
            own = {math.lcm(*(e.denominator for e in (*coeffs, rhs))) for coeffs, rhs in slack}
            mixes[kind] += len(own) > 1 and res.pivots > 0
            statuses[res.status] += 1
        assert min(mixes[k] for k in ("eq", "ge", "eq+ge")) >= 100, mixes
        assert min(statuses[k] for k in ("optimal", "infeasible", "unbounded")) >= 30, statuses

    def test_max_support_scaling_keeps_the_rational_pivots(self, monkeypatch):
        # the maximal-support LP scales each form row L_i x - t_i >= 0 by its
        # own denominator and the equality rows (collatz_wielandt's
        # zero-intersection check) by theirs; it equals the Fraction simplex
        # on the rational LP, with and without equality rows
        rnd = rng(2021)
        recorded = []
        monkeypatch.setattr(oracle, "solve_lp", lambda prob: recorded.append(prob) or solve_lp(prob))
        with_eq = Counter()
        for _ in range(300):
            n, m = rnd.randint(2, 5), rnd.randint(1, 5)
            forms = [
                [Fraction(rnd.randint(-2, 3), den) for _ in range(n)] for den in rnd.choices([1, 2, 3, 5, 7], k=m)
            ]
            forms += [[-2 * e for e in rnd.choice(forms)] for _ in range(rnd.randint(0, 1))]  # held at 0
            m = len(forms)
            eq_rows = [
                [Fraction(rnd.choice((-1, 0, 0, 1)) * rnd.randint(1, 3), rnd.choice((1, 4))) for _ in range(n)]
                for _ in range(rnd.randint(0, 2))
            ]
            recorded.clear()
            face = oracle.max_support(forms, eq_rows)
            (prob,) = recorded
            zeros = [Fraction(0)] * m

            def t(i, v):
                return [*zeros[:i], Fraction(v), *zeros[i + 1:]]

            rational = SimpleNamespace(
                n=n + m,
                eq_rows=[([*row, *zeros], 0) for row in eq_rows],
                ge_rows=[([*row, *t(i, -1)], 0) for i, row in enumerate(forms)]
                + [([Fraction(0)] * n + t(i, -1), -1) for i in range(m)],
                objective=[0] * n + [1] * m,
                maximize=True,
                objective_scale=1,
            )
            res = solve_lp(prob)
            assert (res.status, res.witness, res.objective, res.pivots) == _ref_solve_lp(rational, Counter())
            for row, (coeffs, _), (want, _) in zip(forms, prob.ge_rows, rational.ge_rows):
                scale = math.lcm(*(e.denominator for e in row))
                assert coeffs == tuple(e * scale for e in want)
            shared = math.lcm(*(e.denominator for row in eq_rows for e in row))
            assert prob.eq_rows == tuple((tuple(e * shared for e in want), 0) for want, _ in rational.eq_rows)
            with_eq[bool(eq_rows), "empty" if not face else "full" if len(face) == m else "partial"] += 1
        assert min(with_eq.values()) >= 20 and len(with_eq) == 6, with_eq

    def test_slack_start_keeps_every_status_and_optimum(self):
        # the slack-basic start changes the pivots, never the status or the
        # optimum: solve_lp against the all-artificial Fraction simplex on
        # the fuzz of test_matches_the_fraction_simplex, in fewer pivots
        rnd = rng(91)
        pivots = Counter()
        for _ in range(900):
            prob = _fuzz_lp(rnd)
            status, _, objective, old_pivots = _ref_solve_lp(prob, Counter(), slack_start=False)
            res = solve_lp(prob)
            assert (res.status, res.objective) == (status, objective), prob
            pivots["old"] += old_pivots
            pivots["new"] += res.pivots
        assert pivots["new"] < pivots["old"], pivots

    def test_pivot_count(self, monkeypatch):
        # no pivot when the artificial basis is already optimal and every
        # row is redundant; at least one as soon as a row must be pivoted in
        assert solve_lp(LPProblem.build(2, objective=(1, 2))).pivots == 0
        zero_row = LPProblem.build(2, eq_rows=[((0, 0), 0)], objective=(1, 1))
        assert solve_lp(zero_row).pivots == 0
        rows = shifted_image_rows(T, Fraction(2))
        assert feasible_nonneg_solution(rows, [Fraction(0), Fraction(1)]).pivots > 0
        pinned = feasible_nonneg_solution([[1, 1], [0, 1]], [2, 1])
        assert pinned.pivots > 0
        infeasible = LPProblem.build(1, eq_rows=[((1,), 1), ((1,), 2)])
        assert solve_lp(infeasible).pivots > 0
        # every >= row with a right-hand side <= 0 holds at x = 0: no pivot
        slack_only = LPProblem.build(2, ge_rows=[((1, -1), 0), ((-1, Fraction(1, 2)), -3)])
        res = lp_feasible(slack_only)
        assert (res.status, res.witness, res.pivots) == ("optimal", (0, 0), 0)
        # so the face LP without equality rows runs phase 2 only, and one
        # with them runs phase 1 for the equality rows as well
        runs = Counter()

        def counted(*args, _real=oracle._simplex_min):
            runs["simplex"] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, "_simplex_min", counted)
        assert oracle.max_support([[1, -1], [0, 1]]) == {1, 2} and runs["simplex"] == 1
        runs.clear()
        assert oracle.max_support([[1, -1], [0, 1]], eq_rows=[[0, 1]]) == {1}
        assert runs["simplex"] == 2


class TestFaceQuestions:
    def test_face_questions_match_the_per_coordinate_lps(self):
        # the face probe and the null-space check give the sets and verdicts
        # of the LP loops they replaced, on every fuzzed matrix and shift; the
        # check runs at the shifts that are eigenvalues, since elsewhere
        # (lam*I - P)^n is nonsingular and both answer True on the cone {0}
        rnd = rng(707)
        faces, verdicts = Counter(), Counter()
        for P in _face_question_matrices(rnd, 70):
            coeffs = charpoly_exact(P)
            for lam in _face_shifts(P):
                face = solvable_face_probe(P, lam)
                assert face == _ref_face_probe(P, lam), (P.rows, lam)
                faces["empty" if not face else "full" if len(face) == P.n else "partial"] += 1
                if oracle._poly_eval(coeffs, lam) != 0:
                    continue
                verdict = _generalized_null_is_eigen(P, lam)
                assert verdict == _ref_null_is_eigen(P, lam), (P.rows, lam)
                verdicts[verdict] += 1
        assert min(faces[k] for k in ("empty", "full", "partial")) >= 50, faces
        assert min(verdicts[True], verdicts[False]) >= 50, verdicts

    def test_slack_start_keeps_every_face_and_verdict(self, monkeypatch):
        # the face probe's set and the null-space check's verdict, on fuzzed
        # matrices at every probed shift, equal those that the all-artificial
        # Fraction simplex gives in place of solve_lp
        def all_artificial(prob):
            return oracle.LPResult(*_ref_solve_lp(prob, Counter(), slack_start=False))

        rnd = rng(709)
        faces, verdicts = Counter(), Counter()
        for P in _face_question_matrices(rnd, 15):
            coeffs = charpoly_exact(P)
            for lam in _face_shifts(P):
                at_eigenvalue = oracle._poly_eval(coeffs, lam) == 0
                new = solvable_face_probe(P, lam), at_eigenvalue and _generalized_null_is_eigen(P, lam)
                with monkeypatch.context() as patched:
                    patched.setattr(oracle, "solve_lp", all_artificial)
                    old = solvable_face_probe(P, lam), at_eigenvalue and _generalized_null_is_eigen(P, lam)
                assert new == old, (P.rows, lam)
                faces["empty" if not new[0] else "full" if len(new[0]) == P.n else "partial"] += 1
                if at_eigenvalue:
                    verdicts[new[1]] += 1
        assert min(faces[k] for k in ("empty", "full", "partial")) >= 50, faces
        assert verdicts[True] >= 30 and verdicts[False] >= 10, verdicts

    def test_each_face_question_is_one_lp(self, monkeypatch):
        calls = Counter()
        for name in ("solve_lp", "nullspace_exact"):

            def counted(*args, _real=getattr(oracle, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(oracle, name, counted)
        rnd = rng(708)
        supports = Counter()
        for P in _face_question_matrices(rnd, 10):
            one = min(P.n, 1)  # the empty matrix asks no LP
            coeffs = charpoly_exact(P)
            for lam in _face_shifts(P):
                calls.clear()
                solvable_face_probe(P, lam)
                assert calls == Counter(solve_lp=one), (P.rows, lam)
                # off the eigenvalues (lam*I - P)^n is nonsingular: F is empty
                support = _null_support(P, lam) if oracle._poly_eval(coeffs, lam) == 0 else set()
                calls.clear()
                _generalized_null_is_eigen(P, lam)
                # one nullspace on the support F, none when F is empty
                assert calls == Counter(solve_lp=one, nullspace_exact=int(bool(support)))
                supports[bool(support)] += 1
        assert min(supports[True], supports[False]) >= 20, supports

    def test_max_support_examples(self):
        ms = oracle.max_support
        assert ms([]) == frozenset() and ms([], eq_rows=[[1, -1]]) == frozenset()
        # -x1 - x2 >= 0 forces x = 0, so no form can be positive
        assert ms([[-1, -1], [1, 2], [0, 1]]) == frozenset()
        # x1 >= x2 and x2 >= x1 hold both first forms at zero
        assert ms([[1, -1], [-1, 1], [0, 1]]) == {3}
        assert ms([[1, -1], [0, 1]]) == {1, 2}
        # equality rows cut the support
        identity = [[int(i == j) for j in range(3)] for i in range(3)]
        assert ms(identity) == {1, 2, 3}
        assert ms(identity, eq_rows=[[1, -1, 0]]) == {1, 2, 3}
        assert ms(identity, eq_rows=[[1, 1, 0]]) == {3}
        assert ms(identity, eq_rows=[[1, 1, 1]]) == frozenset()
        assert ms([[1, -1], [0, 1]], eq_rows=[[0, 1]]) == {1}
        # the probe's forms: U - I images into coordinate 1 only
        assert ms(shifted_image_rows(U, Fraction(1))) == {1}


def test_shifted_image_rows_equal_the_entrywise_expression():
    # the shift goes on the diagonal only; every entry must still equal
    # sign*(P - lam*I) taken entry by entry, as a Fraction, for rational
    # and float-mode (binary-exact) matrices and shifts
    rnd = rng(55)
    zeros = 0
    for _ in range(100):
        P = fuzz_matrix(rnd, n_max=8)
        for M in (P, P.to_float()):
            rows = [[Fraction(e) for e in row] for row in M.rows]
            for lam in (Fraction(rnd.randint(0, 9), rnd.randint(1, 4)), 0.375, rnd.random()):
                for sign in (1, -1):
                    got = shifted_image_rows(M, lam, sign)
                    want = [
                        [sign * (rows[i][j] - (Fraction(lam) if i == j else 0)) for j in range(M.n)]
                        for i in range(M.n)
                    ]
                    assert got == want
                    assert all(type(e) is Fraction for row in got for e in row)
                    zeros += sum(e == 0 for row in got for e in row)
                assert shifted_image_rows(M, lam) == shifted_image_rows(M, lam, 1)
    assert zeros >= 1000


class TestExactLinearAlgebra:
    def test_solve_signed(self):
        sol = solve_signed([[1, 1], [2, 2]], [1, 2])
        assert sol == [Fraction(1), Fraction(0)]
        assert solve_signed([[1, 1], [2, 2]], [1, 3]) is None

    def test_nullspace(self):
        basis = nullspace_exact([[1, 1], [1, 1]])
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == 0 and v != [0, 0]
        assert nullspace_exact([[1, 0], [0, 1]]) == []

    def test_kernel_matches_the_fraction_gauss_jordan(self):
        # nullspace bases and signed solutions equal the Fraction loop's,
        # value for value and all Fractions, on fuzzed systems that reach
        # every kind of row and every outcome
        rnd = rng(97)
        seen = Counter()
        for _ in range(1000):
            rows, rhs = _fuzz_system(rnd, seen)
            basis = nullspace_exact(rows)
            assert basis == _ref_nullspace(rows, seen), rows
            sol = solve_signed(rows, rhs)
            want = _ref_solve_signed(rows, rhs, seen)
            assert sol == want, (rows, rhs)
            seen["inconsistent"] += want is None
            for v in basis + ([sol] if sol else []):
                assert all(type(e) is Fraction for e in v)
        kinds = (
            "m != n", "square", "rank-deficient", "zero row", "repeated row",
            "combined row", "negative pivot", "unequal denominators", "pure-int row",
            "float entry", "inconsistent",
        )
        assert all(seen[k] >= 50 for k in kinds), seen

    def test_kernel_reduces_to_integer_echelon_form(self):
        # row i stands for T[i] / dens[i], and those rows are the reduced row
        # echelon form: every pivot entry equals its own row's denominator
        # and every other entry of a pivot column is 0, on a singular system
        # and on fuzzed ones whose rows end over unequal denominators
        singular = [[0, 2, 4], [Fraction(1, 2), 1, 0], [1, 2, 0]]
        T_, pivots, dens = oracle._gauss_jordan(singular, 3)
        assert pivots == [0, 1] and min(dens) > 0
        for i, col in enumerate(pivots):
            assert [row[col] for row in T_] == [dens[i] if k == i else 0 for k in range(3)]
        assert [Fraction(e, dens[0]) for e in T_[0]] == [1, 0, -4]
        rnd = rng(98)
        unequal = 0
        for _ in range(300):
            rows, _ = _fuzz_system(rnd, Counter())
            T_, pivots, dens = oracle._gauss_jordan(rows, len(rows[0]))
            assert min(dens) > 0
            for i, col in enumerate(pivots):
                assert [row[col] for row in T_] == [dens[i] if k == i else 0 for k in range(len(rows))]
            unequal += len(set(dens[: len(pivots)])) > 1
        assert unequal >= 25, unequal

    def test_lazy_rows_stand_for_the_eager_bareiss_rows(self):
        # oracle._pivot against the eager kernel it replaced, on random
        # pivot sequences (any nonzero entry, negative ones and pivot rows
        # left stale by earlier pivots included) over fuzzed integer
        # tableaus: after each pivot every lazy row over its own denominator
        # is the eager row over d, a row the pivot recomputes is the eager
        # row itself, and a row with a zero in the pivot column keeps its
        # entries and denominator, so every lazy row is the eager row of
        # the pivot that last recomputed it: its entries are minors of the
        # integer system, as the eager ones are.  They are not bounded by
        # the eager entries of the same step: once a pivot of rational size
        # below 1 shrinks d, a row left alone holds more than its eager
        # rewrite (about 2% of the rows left alone in this fuzz)
        rnd = rng(99)
        seen = Counter()
        for _ in range(400):
            m, n = rnd.randint(2, 6), rnd.randint(2, 7)
            eager = [[rnd.choice((0, 0, rnd.randint(-5, 5))) for _ in range(n)] for _ in range(m)]
            lazy, dens, d, d_eager = [row[:] for row in eager], [1] * m, 1, 1
            for _ in range(rnd.randint(1, 12)):
                choices = [(r, c) for r in range(m) for c in range(n) if lazy[r][c]]
                if not choices:
                    break
                row, col = rnd.choice(choices)
                before, dens_before = [r[:] for r in lazy], dens[:]
                seen["negative pivot"] += lazy[row][col] < 0
                seen["stale pivot row"] += dens[row] != d
                d_eager = _ref_eager_pivot(eager, d_eager, row, col)
                d = oracle._pivot(lazy, dens, d, row, col)
                assert d == d_eager > 0
                for r in range(m):
                    assert dens[r] > 0
                    assert all(e * d == g * dens[r] for e, g in zip(lazy[r], eager[r]))
                    if r == row or before[r][col]:
                        assert (lazy[r], dens[r]) == (eager[r], d)
                    else:
                        assert (lazy[r], dens[r]) == (before[r], dens_before[r])
                        seen["row left alone"] += 1
                        seen["left alone over another d"] += dens[r] != d
        assert min(seen[k] for k in ("negative pivot", "stale pivot row", "left alone over another d")) >= 200, seen

    def test_determinants_from_the_characteristic_polynomial(self):
        # det(A) = (-1)^n * c_n, 0 when A is singular; row swaps, negative
        # pivots and float entries are no special case
        def det(rows):
            return (-1) ** len(rows) * oracle._faddeev_leverrier(rows)[0][-1]

        assert det([[0, 2, 4], [Fraction(1, 2), 1, 0], [1, 2, 0]]) == 0
        assert det([[0, 1], [-2, 0]]) == 2
        assert det([[Fraction(1, 3), 1], [0.5, 0]]) == Fraction(-1, 2)
        assert det([]) == 1

    def test_matrix_power(self):
        sq = matrix_power_exact([[1, 1], [0, 1]], 5)
        assert sq == [[Fraction(1), Fraction(5)], [Fraction(0), Fraction(1)]]
        assert matrix_power_exact([[3]], 0) == [[Fraction(1)]]
        assert matrix_power_exact([], 3) == []

    def test_power_and_charpoly_match_the_fraction_loops(self):
        # the integer products give the Fraction loops' powers (k = 0
        # included) and characteristic polynomials, value for value and all
        # Fractions, on fuzzed square rows with negative, float and
        # pure-int entries over unequal denominators, and on the fuzzed
        # nonnegative matrices in both modes
        rnd = rng(211)
        seen = Counter()
        cases = []
        for _ in range(300):
            rows = _fuzz_system(rnd, seen)[0]
            n = min(len(rows), len(rows[0]))
            cases.append([row[:n] for row in rows[:n]])
        for _ in range(60):
            P = fuzz_matrix(rnd, n_max=6)
            cases += [[list(r) for r in P.rows], [list(r) for r in P.to_float().rows]]
        for rows in cases:
            for k in (0, 1, 2, 3, len(rows), 7):
                power = matrix_power_exact(rows, k)
                assert power == _ref_matrix_power(rows, k), (rows, k)
                assert all(type(e) is Fraction for row in power for e in row)
            coeffs = oracle._faddeev_leverrier(rows)[0]
            assert coeffs == _ref_charpoly(rows), rows
            assert all(type(c) is Fraction for c in coeffs)
        for _ in range(40):
            P = fuzz_matrix(rnd, n_max=6)
            for Q in (P, P.to_float()):
                assert charpoly_exact(Q) == _ref_charpoly(Q.rows)
        kinds = ("pure-int row", "float entry", "Fraction row", "unequal denominators")
        assert all(seen[k] >= 50 for k in kinds), seen
        assert sum(any(e < 0 for row in rows for e in row) for rows in cases) >= 100

    def test_generalized_nullspace(self):
        basis = generalized_nullspace_exact([[1, 1], [0, 1]], Fraction(1))
        assert len(basis) == 2
        assert generalized_nullspace_exact([[1, 1], [0, 1]], Fraction(7)) == []

    def test_generalized_nullspace_matches_the_nth_power(self):
        # the basis must be the one of N((M - mu*I)^n), vector for vector,
        # on fuzzed transposes up to n = 12 and on Jordan chains of n 7-12
        # behind a similarity, at every class radius or eigenvalue (some of
        # index > 1) and at a shift that is no eigenvalue
        rnd = rng(73)
        jordan = [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        cases = [(jordan, Fraction(2)), (jordan, Fraction(1, 2)), ([[0]], Fraction(0))]
        for k in range(16):
            P = fuzz_matrix(rnd, n_min=7, n_max=12) if k % 2 else fuzz_matrix(rnd)
            rows = [list(r) for r in P.transpose().rows]
            cases += [(rows, mu) for mu in set(class_radii(P)) | {Fraction(7, 3)}]
        for _ in range(8):  # Jordan chains behind a random integer similarity, n 7-12
            rows, eigenvalues = _jordan_behind_similarity(rnd, rnd.randint(7, 12))
            cases += [(rows, mu) for mu in eigenvalues | {Fraction(7, 3)}]
        deep = 0
        for rows, mu in cases:
            n = len(rows)
            shifted = [
                [Fraction(rows[i][j]) - (mu if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            want = nullspace_exact(matrix_power_exact(shifted, n))
            assert generalized_nullspace_exact(rows, mu) == want, (rows, mu)
            if len(nullspace_exact(shifted)) < len(want):
                deep += 1
        assert deep >= 15
        assert any(len(rows) >= 10 for rows, _ in cases)


class TestCharpoly:
    def test_coefficients(self):
        assert charpoly_exact(A) == [Fraction(1), Fraction(-4), Fraction(5), Fraction(-2)]
        assert charpoly_exact(S) == [Fraction(1), Fraction(0), Fraction(-1)]

    def test_matches_numpy(self):
        rnd = rng(51)
        for _ in range(20):
            P = fuzz_matrix(rnd, n_max=5)
            coeffs = charpoly_exact(P)
            got = np.poly(P.to_numpy())
            assert_allclose([float(c) for c in coeffs], got, atol=1e-6 * max(1.0, abs(got).max()))

    def test_root_counting_is_half_open(self):
        coeffs = charpoly_exact(A)  # roots {1 (double), 2}
        assert count_real_roots_in(coeffs, Fraction(0), Fraction(3)) == 2
        assert count_real_roots_in(coeffs, Fraction(1), Fraction(3)) == 1
        assert count_real_roots_in(coeffs, Fraction(1), Fraction(2)) == 1
        assert count_real_roots_in(coeffs, Fraction(0), Fraction(1)) == 1
        assert count_real_roots_in(coeffs, Fraction(2), Fraction(3)) == 0

    def test_sturm_counter_counts_roots_above_and_spots_roots(self):
        coeffs = charpoly_exact(A)  # roots {1 (double), 2}
        roots_above = oracle._sturm_counter(coeffs)
        assert roots_above(Fraction(0)) == (2, False)
        assert roots_above(Fraction(1)) == (1, True)
        assert roots_above(Fraction(3, 2)) == (1, False)
        assert roots_above(Fraction(2)) == (0, True)
        assert roots_above(Fraction(3)) == (0, False)
        assert oracle._sturm_counter([Fraction(5)])(Fraction(0)) == (0, False)  # a constant
        # the signs at +infinity are those at a bound above every root
        # (Cauchy's), and t is a root where the polynomial itself vanishes
        rnd = rng(52)
        for _ in range(30):
            P = fuzz_matrix(rnd, n_max=6)
            coeffs = charpoly_exact(P)
            chain = oracle._sturm_chain(coeffs)
            bound = 1 + max(map(abs, coeffs))

            def variations(t):
                return oracle._variations([oracle._poly_eval(p, t) for p in chain])

            roots_above = oracle._sturm_counter(coeffs)
            assert roots_above(bound) == (0, False)
            for t in [Fraction(k, 3) for k in range(-3, 13)] + [Fraction(r) for r in class_radii(P)]:
                want = (variations(t) - variations(bound), oracle._poly_eval(coeffs, t) == 0)
                assert roots_above(t) == want, (P.rows, t)

    def test_root_counting_on_swap(self):
        coeffs = charpoly_exact(S)  # roots {-1, 1}
        assert count_real_roots_in(coeffs, Fraction(-2), Fraction(2)) == 2
        assert count_real_roots_in(coeffs, Fraction(0), Fraction(1, 2)) == 0


def _polynomials(rnd, rounds):
    """Characteristic polynomials of fuzzed matrices, their irregular and
    float twins (binary values read exactly) and irreducible draws."""
    for _ in range(rounds):
        P = fuzz_matrix(rnd)
        for M in (P, irregular(rnd, P), P.to_float(), fuzz_irreducible(rnd)):
            yield charpoly_exact(M)


def _first_brackets(coeffs, k, *start, count=10):
    """At most count brackets from oracle.root_brackets: all of them when it
    ends sooner."""
    return list(islice(oracle.root_brackets(coeffs, k, *start), count))


class TestRootBrackets:
    """oracle.root_brackets against count_real_roots_in, which builds its
    own Sturm chain on every call."""

    def _assert_holds_kth_alone(self, coeffs, k, lo, hi, top):
        # (lo, hi] holds one distinct root, and k - 1 roots lie above it
        if lo == hi:
            assert oracle._poly_eval(coeffs, lo) == 0
            assert count_real_roots_in(coeffs, lo, top) == k - 1
        else:
            assert lo < hi
            assert count_real_roots_in(coeffs, lo, hi) == 1
            assert count_real_roots_in(coeffs, hi, top) == k - 1

    def test_brackets_isolate_the_kth_root_and_halve(self):
        rnd = rng(61)
        met = isolated = 0
        for coeffs in _polynomials(rnd, 12):
            top = 1 + max(map(abs, coeffs))  # above every root (Cauchy; monic)
            distinct = count_real_roots_in(coeffs, -top, top)
            for k in range(1, distinct + 1):
                gen = oracle.root_brackets(coeffs, k)
                brackets = list(islice(gen, 8))
                assert brackets, (coeffs, k)
                self._assert_holds_kth_alone(coeffs, k, *brackets[0], top)
                for (lo, hi), (lo2, hi2) in zip(brackets, brackets[1:]):
                    mid = (lo + hi) / 2
                    assert (lo2, hi2) in ((lo, mid), (mid, hi), (mid, mid)), (coeffs, k)
                    self._assert_holds_kth_alone(coeffs, k, lo2, hi2, top)
                lo, hi = brackets[-1]
                if lo == hi:  # a root met at a midpoint ends the generator
                    assert next(gen, None) is None
                    met += 1
                else:
                    isolated += 1
            for k in (distinct + 1, distinct + 2):
                assert _first_brackets(coeffs, k) == [], (coeffs, k)
        assert met >= 50 and isolated >= 40, (met, isolated)

    def test_a_dyadic_root_comes_back_as_itself(self):
        coeffs = [Fraction(1), Fraction(0), Fraction(-1, 4)]  # t^2 - 1/4, roots +-1/2
        half = Fraction(1, 2)
        assert _first_brackets(coeffs, 1) == [(0, 4), (0, 2), (0, 1), (half, half)]
        assert _first_brackets(coeffs, 2) == [(-4, 0), (-2, 0), (-1, 0), (-half, -half)]

    def test_a_repeated_root_counts_once(self):
        coeffs = charpoly_exact(A)  # roots {1 (double), 2}
        assert _first_brackets(coeffs, 1) == [(2, 2)]
        assert _first_brackets(coeffs, 2) == [(1, 1)]
        assert _first_brackets(coeffs, 3) == []

    def test_a_given_start_bracket_is_respected(self):
        coeffs = charpoly_exact(S)  # roots {-1, 1}
        brackets = _first_brackets(coeffs, 1, 0, 3, count=6)
        assert brackets[:3] == [(0, 3), (0, Fraction(3, 2)), (Fraction(3, 4), Fraction(3, 2))]
        assert all(0 <= lo < hi <= 3 for lo, hi in brackets)
        # a start that misses the k-th root yields nothing
        assert _first_brackets(coeffs, 1, 2, 3) == []
        assert _first_brackets(coeffs, 1, Fraction(-1, 2), Fraction(1, 2)) == []
        assert _first_brackets(coeffs, 2, 0, 3) == []
        # the start need not isolate: (-3, 3] holds both roots, and k = 2
        # still gets the lower one alone, within that start
        assert next(oracle.root_brackets(coeffs, 2, -3, 3)) == (-3, 0)
        # with hi the largest root, every step keeps hi and halves lo toward it
        brackets = _first_brackets(coeffs, 1, -3, 1, count=4)
        assert brackets == [(-1, 1), (0, 1), (Fraction(1, 2), 1), (Fraction(3, 4), 1)]


class TestDenseEigen:
    def test_eig_all_snaps_and_sorts(self):
        assert eig_all(A) == [(1 + 0j), (1 + 0j), (2 + 0j)]
        assert eig_all(S) == [(-1 + 0j), (1 + 0j)]
        assert eig_all(S) == eig_all(S)

    def test_eigenvalue_clusters_match_the_pairwise_means(self):
        # the cluster means are taken once per merge pass; the clusters must
        # come out as when they were taken for every pair, on fuzzed matrices,
        # their transposes and Jordan chains (whose eigenvalues split apart)
        rnd = rng(53)
        mats = [
            np.array([[2.0, 1, 0], [0, 2, 1], [0, 0, 2]]),
            np.array([[1.0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
            np.array([[3.0, 1, 0, 0, 0], [0, 3, 1, 0, 0], [0, 0, 3, 0, 0],
                      [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]),
        ]
        for _ in range(60):
            a = fuzz_matrix(rnd, n_max=8).to_numpy()
            mats += [a, a.T]
        for _ in range(30):  # Jordan chains behind a random similarity
            sizes = [rnd.randint(1, 3) for _ in range(rnd.randint(1, 3))]
            n = sum(sizes)
            jordan = np.zeros((n, n))
            start = 0
            for size in sizes:
                ev = float(rnd.randint(1, 3))
                for i in range(start, start + size):
                    jordan[i, i] = ev
                    if i + 1 < start + size:
                        jordan[i, i + 1] = 1.0
                start += size
            sim = np.array([[rnd.randint(-2, 2) for _ in range(n)] for _ in range(n)]) + 3 * np.eye(n)
            mats.append(sim @ jordan @ np.linalg.inv(sim))
        merges = 0
        for a in mats:
            vals = list(np.linalg.eigvals(a))
            want, merged = _ref_cluster_eigenvalues(vals, DEFAULT_TOL, a)
            assert oracle._cluster_eigenvalues(vals, DEFAULT_TOL, a) == want
            merges += merged
        assert merges >= 10

    def test_decompose_matches_the_reference_svd_loop(self):
        # bit for bit, on fuzzed matrices (their float twins, irregular
        # blocks included) and nonnegative Jordan chains
        rnd = rng(54)
        mats = [mat([[2, 1, 0], [0, 2, 1], [0, 0, 2]]), mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
        for _ in range(60):
            P = fuzz_matrix(rnd, n_max=8)
            mats += [P, irregular(rnd, P), P.to_float()]
        for n in range(2, 7):  # upper-triangular chains with one repeated diagonal
            mats.append(mat([[2 if i == j else int(j > i) * rnd.randint(0, 2) for j in range(n)] for i in range(n)]))
        seen = Counter()
        for P in mats:
            for _ in range(2):
                x = ConeVector.make([float(rnd.randint(0, 3)) for _ in range(P.n)], FLOAT)
                got = decompose_generalized(P, x)
                assert repr(got) == repr(_ref_decompose_generalized(P, x)), P.rows
                seen["defective"] += any(c.multiplicity > 1 for c in got.components)
                seen["order 2"] += any(c.order > 1 for c in got.components)
        assert seen["defective"] >= 100 and seen["order 2"] >= 50, seen

    def test_one_eigen_pass_per_matrix(self, monkeypatch):
        # the eigenspaces of P are kept on P: the cor6.4 report over every
        # sample vector of the CLI suite, and the power limit of three
        # vectors, each take one eigen pass per fresh matrix
        calls = Counter()
        orig = oracle._eigen_clusters

        def counted(a, tol):
            calls["_eigen_clusters"] += 1
            return orig(a, tol)

        monkeypatch.setattr(oracle, "_eigen_clusters", counted)
        rows = [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 2, 1, 0], [0, 0, 0, 2, 0], [1, 0, 0, 0, 1]]
        for mode in (RATIONAL, FLOAT):
            P = NonnegMatrix.make(rows, mode)
            vectors = cli._sample_vectors(P)
            for x in vectors:
                alternating_bound_report(P, x)
            assert len(vectors) == 6 and calls["_eigen_clusters"] == 1, calls
            P = NonnegMatrix.make(rows, mode)
            for x in vectors[:2] + vectors[-1:]:
                power_limit_exists(P, x)
            assert calls["_eigen_clusters"] == 2, calls
            calls.clear()

    def test_decompose_jordan_block(self):
        d = decompose_generalized(U.to_float(), ConeVector.unit(2, 2, FLOAT))
        assert not d.merged and not d.ambiguous
        comps = d.present()
        assert len(comps) == 1
        assert comps[0].eigenvalue == (1 + 0j)
        assert comps[0].order == 2

    def test_decompose_splits_the_swap(self):
        d = decompose_generalized(S.to_float(), ConeVector.unit(2, 1, FLOAT))
        comps = sorted(d.present(), key=lambda c: c.eigenvalue.real)
        assert [c.eigenvalue for c in comps] == [(-1 + 0j), (1 + 0j)]
        for c in comps:
            assert c.order == 1
            assert_allclose([abs(e) for e in c.component], [0.5, 0.5], atol=1e-9)

    def test_decompose_eigenvector_has_one_component(self):
        d = decompose_generalized(T.to_float(), ConeVector.make([1, 1], FLOAT))
        comps = d.present()
        assert len(comps) == 1
        assert comps[0].eigenvalue == (2 + 0j)
        assert comps[0].order == 1

    def test_components_sum_back_to_the_vector(self):
        rnd = rng(52)
        for _ in range(20):
            P = fuzz_matrix(rnd, n_max=5).to_float()
            x = ConeVector.make([float(rnd.randint(0, 4)) for _ in range(P.n)], FLOAT)
            d = decompose_generalized(P, x)
            total = np.sum([np.array(c.component) for c in d.components], axis=0)
            assert_allclose(total.real, x.to_numpy(), atol=1e-7)
            assert_allclose(total.imag, np.zeros(P.n), atol=1e-7)

    def test_a_component_placed_against_the_local_radius(self):
        # the band is eig_tol*max(1, rho_x); "mu is rho_x" reads |Re mu - rho_x|,
        # so a float zero just below 0 is rho_x = 0 itself
        def place(mu, rho_x):
            return EigComponent(complex(mu), 1, (), 1, 1.0).relative_to(rho_x, DEFAULT_TOL)

        assert place(-5.5e-17, 0.0) == (0, True)
        assert place(2 + 1e-9, 2.0) == (0, True)
        assert place(-2, 2.0) == (0, False)
        assert place(2j, 2.0) == (0, False)
        assert place(1.5, 2.0) == (-1, False)
        assert place(2 + 1e-7, 2.0) == (1, False)
        assert place(2 - 3e-8, 2.0) == (-1, False)
        assert place(1e3 + 5e-6, 1e3) == (0, True)  # the band scales with rho_x

    def test_krylov_restriction_radius(self):
        assert krylov_local_rho(S, ConeVector.unit(2, 1)) == 1.0
        assert_allclose(krylov_local_rho(T, ConeVector.unit(2, 2)), 1.0, atol=1e-9)
        assert_allclose(krylov_local_rho(T, ConeVector.unit(2, 1)), 2.0, atol=1e-9)
        assert krylov_local_rho(T, ConeVector.zero_vector(2)) == 0.0
