"""Independent ground-truth machinery: exact rational LP feasibility, dense
eigendecomposition, generalized eigencomponents, a Krylov estimate of the
local spectral radius, and exact characteristic-polynomial root counting:
one Sturm chain per polynomial, which root_brackets alone bisects on to
isolate a real root.

The LP solver is a two-phase tableau simplex with Bland's rule on integer
rows, pivoted fraction-free (Bareiss), so verdicts are exact and
termination is guaranteed.  Each row is kept over its own positive
denominator, so a pivot leaves alone every row with a zero in its column.
All variables are nonnegative; >= rows get slack variables internally.  A
>= row that x = 0 satisfies (right-hand side <= 0) starts with its slack
basic and is scaled by its own denominator; the other rows get artificial
columns and share one, and phase 1 is skipped when no row needs one.  Each
row and slack column starts as the rational one times a positive factor,
and a pivot keeps each row a positive multiple of the rational one, which
keeps every Bland choice of the rational tableau from that start.  Each
face question (which coordinates a cone of nonnegative solutions can make
positive) is one maximal-support LP, max_support, whose rows all hold at
x = 0.  The signed solve and the exact nullspaces share the LP's
fraction-free integer pivot in one Gauss-Jordan kernel.  Exact matrix
algebra runs on integer rows over one common denominator (_integer_rows)
with one product (_matmul): the matrix powers, and one Faddeev-LeVerrier
pass for each characteristic polynomial, determinant and adjugate.  The
rows of +-(P - lam*I) come from one builder, shifted_image_rows, as
integer rows over their own denominators: a matrix keeps its integer form
in its memo from its first shifted build, so a shift rewrites only the
diagonal, and the LP, the face question and the integer algebra read those
integers as they are.  The float-lane helpers (eig_all,
decompose_generalized, krylov_local_rho) are deliberately independent of
the combinatorial modules so the two routes can disagree loudly in tests
if one of them is wrong.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    DEFAULT_TOL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    NumericFailure,
    Scalar,
    Tolerance,
    exact_fraction,
    np,
)

RANK_REL = 1e-8  # relative singular-value threshold for rank decisions
_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# exact linear programming


@dataclass(frozen=True)
class LPProblem:
    """min/max c.x (optional) with Ax = b rows, Gx >= h rows, x >= 0, in
    integers: each row is a positive multiple of its rational row, and the
    objective is c times objective_scale.

    build scales rational data (floats read as their binary value) once,
    with _integer_rows.  A >= row whose right-hand side is <= 0 keeps its
    own denominator; the rows that get an artificial in solve_lp (every =
    row and every other >= row) share one, so phase 1 weighs the
    artificials alike."""

    n: int
    eq_rows: tuple = ()
    ge_rows: tuple = ()
    objective: Optional[tuple] = None
    maximize: bool = False
    objective_scale: int = 1

    @staticmethod
    def build(n, eq_rows=(), ge_rows=(), objective=None, maximize=False) -> "LPProblem":
        rows = [*eq_rows, *ge_rows]
        if any(len(coeffs) != n for coeffs, _ in rows):
            raise InvalidInput("LP row length mismatch")
        n_eq = len(eq_rows)
        own = [k >= n_eq and rhs <= 0 for k, (_, rhs) in enumerate(rows)]
        scaled, _ = _integer_rows([coeffs for coeffs, _ in rows], own, [rhs for _, rhs in rows])
        rows = [(tuple(row[:n]), row[n]) for row in scaled]
        scale = 1
        if objective is not None:
            if len(objective) != n:
                raise InvalidInput("LP objective length mismatch")
            (objective,), scale = _integer_rows([objective])
            objective = tuple(objective)
        return LPProblem(n, tuple(rows[:n_eq]), tuple(rows[n_eq:]), objective, maximize, scale)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    witness: Optional[tuple]  # values of the n original variables
    objective: Optional[Fraction]
    pivots: int  # simplex pivots, phase 1 (driving artificials out included) and phase 2

    @property
    def feasible(self) -> bool:
        return self.status != "infeasible"


def _pivot(tableau, dens, d, row, col) -> int:
    """Fraction-free pivot on column col of the tableau whose row r stands
    for tableau[r] / dens[r] (each dens[r] > 0), where d is the one common
    denominator Bareiss elimination would keep; returns the new d, |p|.

    The pivot row is first brought to d, giving the pivot p.  A row r with
    f = r[col] != 0 becomes (r*p - f*pivot_row) / dens[r] over |p|: that
    is the Bareiss row, so the division is exact (each entry is a minor of
    the integer system).  A row with f = 0 keeps its entries and its
    denominator.  A negative p flips the pivot row, and so every row it
    recomputes."""
    prow, q = tableau[row], dens[row]
    if q != d:
        prow = [e * d // q for e in prow]
    p = prow[col]
    if p < 0:
        prow, p = [-e for e in prow], -p
    for r, cur in enumerate(tableau):
        f = cur[col]
        if f and r != row:
            q = dens[r]
            tableau[r] = [(e * p - f * g) // q for e, g in zip(cur, prow)]
            dens[r] = p
    tableau[row], dens[row] = prow, p
    return p


def _simplex_min(tableau, dens, basis, d, cost):
    """Minimize the integer cost.x over the tableau rows, row r standing
    for tableau[r] / dens[r] (Bland's rule).  A ratio rhs/a and the sign of
    a reduced cost do not depend on a row's positive scale, so the choices
    are those of the rational tableau.  Returns (status, optimum times zden
    or None, zden, d, pivots), where zden is the reduced-cost row's
    denominator; mutates tableau, dens and basis.  The reduced-cost row is
    built over d in one pass over the columns (its basic rows brought to d
    once) and pivoted as a last row."""
    m = len(tableau)
    costed = [
        row if cost[c] == 1 and q == d else [cost[c] * e * d // q for e in row]
        for c, row, q in zip(basis, tableau, dens)
        if cost[c]
    ]
    tableau.append([c * d - t for c, t in zip([*cost, 0], map(sum, zip(*costed, [0] * (len(cost) + 1))))])
    dens.append(d)
    pivots = 0
    while True:
        z = tableau[m]
        enter = next((j for j in range(len(cost)) if z[j] < 0), None)
        if enter is None:
            return "optimal", -tableau.pop()[-1], dens.pop(), d, pivots
        best, num, den = None, 0, 1  # the least ratio rhs/a so far is num/den
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                lhs, rhs = tableau[r][-1] * den, num * a  # cross-multiplied, a, den > 0
                if best is None or lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                    best, num, den = r, tableau[r][-1], a
        if best is None:
            tableau.pop()
            dens.pop()
            return "unbounded", None, None, d, pivots
        d = _pivot(tableau, dens, d, best, enter)
        basis[best] = enter
        pivots += 1


def solve_lp(problem: LPProblem) -> LPResult:
    """Two-phase exact simplex.  Feasibility and optima are exact.

    The integer rows are pivoted as they come.  A >= row whose right-hand
    side is <= 0 holds at x = 0, so it starts with its own slack basic;
    only the other rows get an artificial, and phase 1 runs only if some
    row has one.  Those rows share one denominator (LPProblem), so the
    artificials and the phase-1 cost are scaled alike.  Each slack is
    written as -1: a positive column scale.  Every tableau row is then a
    positive multiple of the rational tableau's, which changes no
    reduced-cost sign and no ratio order, so Bland's rule takes the pivots
    of the rational tableau from that start."""
    n, n_eq = problem.n, len(problem.eq_rows)
    rows = problem.eq_rows + problem.ge_rows
    m = len(rows)
    total = n + m - n_eq  # >= rows get slack variables
    slack_start = [r >= n_eq and rhs <= 0 for r, (coeffs, rhs) in enumerate(rows)]
    n_art = m - sum(slack_start)
    pad = [0] * (total - n + n_art)
    tableau, basis, art = [], [], total
    for r, (coeffs, rhs) in enumerate(rows):
        row = [*coeffs, *pad, rhs]
        if r >= n_eq:
            row[n + r - n_eq] = -1
        if rhs < 0 or slack_start[r]:  # nonnegative right-hand sides, basic slacks +1
            row = [-e for e in row]
        if slack_start[r]:
            basis.append(n + r - n_eq)
        else:
            row[art] = 1  # artificial
            basis.append(art)
            art += 1
        tableau.append(row)
    dens, d, pivots = [1] * m, 1, 0
    if n_art:
        cost = [0] * total + [1] * n_art
        status, value, _, d, pivots = _simplex_min(tableau, dens, basis, d, cost)
        if status != "optimal" or value != 0:
            return LPResult("infeasible", None, None, pivots)
    # drive artificials out of the basis, dropping redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= total:
            col = next((j for j in range(total) if tableau[r][j] != 0), None)
            if col is None:
                continue  # redundant zero row
            d = _pivot(tableau, dens, d, r, col)
            basis[r] = col
            pivots += 1
        keep.append(r)
    # freeze artificial columns at zero
    tableau = [tableau[r][:total] + tableau[r][-1:] for r in keep]
    basis = [basis[r] for r in keep]
    dens = [dens[r] for r in keep]

    def extract():
        x = [_ZERO] * n
        for r, c in enumerate(basis):
            if c < n:
                x[c] = Fraction(tableau[r][-1], dens[r])
        return tuple(x)

    if problem.objective is None:
        return LPResult("optimal", extract(), None, pivots)
    sign = -1 if problem.maximize else 1
    cost = [sign * c for c in problem.objective] + [0] * (total - n)
    status, value, zden, _, more = _simplex_min(tableau, dens, basis, d, cost)
    if status == "unbounded":
        return LPResult("unbounded", None, None, pivots + more)
    return LPResult("optimal", extract(), sign * Fraction(value, zden * problem.objective_scale), pivots + more)


def lp_feasible(problem: LPProblem) -> LPResult:
    """Feasibility-only entry point (phase one)."""
    return solve_lp(LPProblem(problem.n, problem.eq_rows, problem.ge_rows))


# convenience builders used across the package ------------------------------


def feasible_nonneg_solution(mat_rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> LPResult:
    """Is there x >= 0 with M x = rhs?"""
    if len(rhs) != len(mat_rows):
        raise InvalidInput("LP right-hand side length mismatch")
    n = len(mat_rows[0]) if mat_rows else 0
    return solve_lp(LPProblem.build(n, eq_rows=list(zip(mat_rows, rhs))))  # no objective: phase one


def max_support(forms, eq_rows=()) -> frozenset:
    """{i : L_i x > 0 for some x >= 0 with Lx >= 0 and Ex = 0}, 1-based, for
    the rows L_i of forms and E of eq_rows.

    One LP (Freund, Roundy & Todd 1985): maximise sum(t) over x >= 0 and
    0 <= t <= 1 with Lx >= t.  The feasible x form a cone, so every optimum
    has t_i = 1 exactly on the set and 0 off it.  Every >= row holds at
    x = 0, so each form row L_i x - t_i >= 0 keeps its own denominator; the
    equality rows share theirs, and the padding and objective are ints."""
    m = len(forms)
    if not m:
        return frozenset()
    n = len(forms[0])
    scaled, _ = _integer_rows([*forms, *eq_rows], [True] * m, [-1] * m)

    def t(i, v):  # v in the column of t_i
        return (*[0] * i, v, *[0] * (m - 1 - i))

    ge_rows = [((*row[:n], *t(i, row[n])), 0) for i, row in enumerate(scaled[:m])]
    ge_rows += [((*[0] * n, *t(i, -1)), -1) for i in range(m)]
    eq = tuple(((*row, *[0] * m), 0) for row in scaled[m:])
    res = solve_lp(LPProblem(n + m, eq, tuple(ge_rows), (*[0] * n, *[1] * m), True))
    if res.status != "optimal":  # x = 0 is feasible and sum(t) <= m
        raise NumericFailure(f"maximal-support LP ended {res.status}")
    return frozenset(i + 1 for i, t in enumerate(res.witness[n:]) if t)


class _ScaledRow(Sequence):
    """An exact row of a shifted build, or a column pick of one: the integer
    row ints over a positive common denominator scale, read entry by entry
    as ints[j] / scale; _integer_rows takes ints and scale as they are."""

    __slots__ = ("ints", "scale")

    def __init__(self, ints, scale):
        self.ints, self.scale = ints, scale

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, j):
        e = self.ints[j]
        return Fraction(e, self.scale) if e else _ZERO

    def __iter__(self):
        q = self.scale
        return (Fraction(e, q) if e else _ZERO for e in self.ints)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def _integer_form(rows) -> tuple:
    """The part of every shifted build of a square matrix that depends on
    the matrix alone, from _integer_rows: per row i, (t, c, T_ii, L), where
    L is the common denominator of row i and T is L times the row (the
    appended 1 reads back as L), c is the gcd of L and T's entries off the
    diagonal, and t is those entries divided by c, with 0 on the diagonal."""
    n = len(rows)
    form = []
    for i, T in enumerate(_integer_rows(rows, [True] * n, [1] * n)[0]):
        L = T.pop()
        d, T[i] = T[i], 0
        c = math.gcd(L, *T)
        form.append(([e // c for e in T], c, d, L))
    return tuple(form)


def shifted_image_rows(P, lam: Scalar, sign: int = 1) -> list:
    """Rows of sign*(P - lam*I), sign = +-1, for a NonnegMatrix P or a square
    sequence of its rows: the one builder of shifted rows.

    The rows are exact, floats read as their binary value: each is a
    _ScaledRow, the row times its own common denominator.  They come from
    P's integer form (_integer_form), kept on a NonnegMatrix from its first
    shifted build, and lam = p/q in lowest terms.  Row i of q*L*(P - lam*I)
    is q*T with q*T_ii - p*L on the diagonal, and g = gcd(q*c, q*T_ii - p*L)
    is the gcd of its entries and q*L, so dividing by g leaves the row over
    its own denominator q*L/g: a shift costs one gcd per row and one
    product per entry.  Given rows and a float shift (the float lane's own
    eliminations), the rows are floats: each entry is the correctly rounded
    float of its exact value, and no zero is negative."""
    if isinstance(lam, float) and not isinstance(P, NonnegMatrix):
        rows = [[(lam if i == j else 0.0) - e for j, e in enumerate(row)] for i, row in enumerate(P)]
        return rows if sign < 0 else [[0.0 - e for e in row] for row in rows]
    if isinstance(P, NonnegMatrix):
        form = P.memoized("integer form", lambda: _integer_form(P.rows))
    else:
        form = _integer_form(P)
    p, q = exact_fraction(lam).as_integer_ratio()
    rows = []
    for i, (t, c, d, L) in enumerate(form):
        diagonal = q * d - p * L
        g = math.gcd(q * c, diagonal)
        factor = sign * (q * c // g)
        row = [e * factor for e in t]
        row[i] = sign * (diagonal // g)
        rows.append(_ScaledRow(row, q * L // g))
    return rows


# ---------------------------------------------------------------------------
# exact dense helpers


def _integer_rows(rows, own=(), last=()) -> tuple:
    """(T, L): the rational rows scaled to integer rows T, the one pass from
    rationals to integers.  Row k is rows[k] followed by last[k], when last
    has a k-th entry.  Row k with a true own[k] is scaled by its own
    denominator; the other rows share their one common denominator L.  Ints
    are taken as they are, floats keep their binary-exact value, and a
    _ScaledRow is integer over its scale already."""
    split = []
    for k, row in enumerate(rows):
        if type(row) is _ScaledRow:
            head, q, rest = row.ints, row.scale, last[k:k + 1]
        else:
            head, q, rest = [], 1, [*row, *last[k:k + 1]]
        pairs = [(e, 1) if type(e) is int else exact_fraction(e).as_integer_ratio() for e in rest]
        split.append((head, q, pairs, math.lcm(q, *[d for _, d in pairs]) if pairs else q))
    own = [*own, *[False] * (len(split) - len(own))]
    shared = math.lcm(*[den for (*_, den), mine in zip(split, own) if not mine])
    out = []
    for (head, q, pairs, den), mine in zip(split, own):
        scale = den if mine else shared
        factor = scale // q
        row = head if factor == 1 else [e * factor for e in head]
        out.append(row + [p * (scale // d) for p, d in pairs] if pairs else row)
    return out, shared


def _matmul(a, b) -> list:
    """The product of two integer matrices: the one exact matrix product."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _gauss_jordan(rows, n: int) -> tuple:
    """Fraction-free Gauss-Jordan over the first n columns of the rational
    rows, with the LP's _pivot.  Each row is scaled to integers once (all-int
    rows are only copied); that changes no row space.  Row i of the integer
    rows T stands for T[i] / dens[i]; every pivot entry ends equal to its own
    row's denominator, and those rows are the reduced row echelon form.
    Returns (T, pivot columns, dens)."""
    T = [list(row) if all(type(e) is int for e in row) else _integer_rows([row])[0][0] for row in rows]
    m = len(T)
    pivots, dens, d = [], [1] * m, 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((k for k in range(r, m) if T[k][col]), None)
        if piv is None:
            continue
        if piv != r:
            T[r], T[piv] = T[piv], T[r]
            dens[r], dens[piv] = dens[piv], dens[r]
        d = _pivot(T, dens, d, r, col)
        pivots.append(col)
    return T, pivots, dens


def solve_signed(mat_rows, rhs) -> Optional[list]:
    """One sign-unrestricted solution of M x = rhs over the rationals, or None
    if the system is inconsistent.  Gauss-Jordan with free variables at 0."""
    m = len(mat_rows)
    n = len(mat_rows[0]) if m else 0
    T, pivots, dens = _gauss_jordan([[*row, rhs[i]] for i, row in enumerate(mat_rows)], n)
    if any(T[k][n] for k in range(len(pivots), m)):
        return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = Fraction(T[i][n], dens[i])
    return x


def nullspace_exact(mat_rows) -> list:
    """Rational basis of the nullspace of M (list of column vectors)."""
    n = len(mat_rows[0]) if mat_rows else 0
    T, pivots, dens = _gauss_jordan(mat_rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = Fraction(-T[i][fc], dens[i])
        basis.append(v)
    return basis


def matrix_power_exact(rows, k: int):
    """Integer power of a square rational matrix A, by repeated squaring of
    the integer rows T = L*A; the power T**k is divided by L**k once."""
    power, scale = _integer_rows(rows)
    result, e = None, k
    while e:
        if e & 1:
            result = power if result is None else _matmul(result, power)
        e >>= 1
        if e:
            power = _matmul(power, power)
    if result is None:
        result = [[int(i == j) for j in range(len(power))] for i in range(len(power))]
    den = scale**k
    return [[Fraction(x, den) for x in row] for row in result]


def generalized_nullspace_exact(mat_rows, mu: Fraction) -> list:
    """Rational basis of N((M - mu*I)^n).

    The kernels N((M - mu*I)^k) grow strictly with k until the first k at
    which they stop growing, and stay put from then on; so the power is
    raised one step at a time and the search stops there.  M - mu*I is
    scaled to integer rows once, so the powers are taken and eliminated in
    Python ints.  Scaling changes no kernel, and equal kernels have the same
    reduced row echelon form, so the basis is the one nullspace_exact gives
    for (M - mu*I)^n itself.
    """
    n = len(mat_rows)
    base, _ = _integer_rows(shifted_image_rows(mat_rows, exact_fraction(mu)))
    power = base
    basis = nullspace_exact(power)
    for _ in range(1, n):
        if not 0 < len(basis) < n:
            break
        power = _matmul(power, base)
        grown = nullspace_exact(power)
        if len(grown) == len(basis):
            break
        basis = grown
    return basis


# characteristic polynomial + Sturm root counting ---------------------------


def _faddeev_leverrier(rows) -> tuple:
    """(coefficients of det(t*I - A), adj(A)) for a square rational matrix A,
    exactly, by Faddeev-LeVerrier on the integer rows B = L*A.

    M_1 = I, c_k = -tr(B*M_k)/k and M_(k+1) = B*M_k + c_k*I: one product per
    step.  Every c_k is a coefficient of the integer matrix B, so each
    division is exact; A's coefficients are c_k / L**k.  By Cayley-Hamilton
    B*M_n = -c_n*I, so adj(A) = (-1)**(n+1) * M_n / L**(n-1), singular A
    included."""
    B, scale = _integer_rows(rows)
    n = len(B)
    coeffs = [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    BM = B
    for k in range(1, n + 1):
        coeffs.append(-sum(BM[i][i] for i in range(n)) // k)
        if k < n:
            M = [[e + coeffs[k] * (i == j) for j, e in enumerate(row)] for i, row in enumerate(BM)]
            BM = _matmul(B, M)
    den = (-1) ** (n + 1) * scale ** max(n - 1, 0)
    return (
        [Fraction(c, scale**k) for k, c in enumerate(coeffs)],
        [[Fraction(e, den) for e in row] for row in M],
    )


def charpoly_exact(P: NonnegMatrix) -> list:
    """Coefficients of det(t*I - P), highest power first, exact rationals
    (Faddeev-LeVerrier)."""
    return _faddeev_leverrier(P.rows)[0]


def _poly_divmod(num, den):
    num = list(num)
    out = []
    while len(num) >= len(den):
        f = num[0] / den[0]
        out.append(f)
        for i in range(len(den)):
            num[i] -= f * den[i]
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return out, num


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lead = a[0]
    return [c / lead for c in a]


def _poly_eval(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * t + c
    return acc


def _poly_derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _sturm_chain(coeffs) -> list:
    """Sturm chain of the square-free part of a nonzero polynomial."""
    g = _poly_gcd(coeffs, _poly_derivative(coeffs))
    sqfree, _ = _poly_divmod(coeffs, g)
    chain = [sqfree, _poly_derivative(sqfree)]
    while len(chain[-1]) > 0:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(values) -> int:
    """Sign changes along a sequence of values, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for s, u in zip(signs, signs[1:]) if s != u)


def _sturm_counter(coeffs):
    """The exact root counter of a nonzero polynomial: a function of t that
    returns (the number of distinct real roots above t, whether t is a
    root).  The Sturm chain is built once, here; its sign changes at t drop
    to those at +infinity (the signs of the leading coefficients) by the
    distinct roots in (t, +infinity), and each call evaluates it once."""
    chain = _sturm_chain(coeffs)
    top = _variations(p[0] for p in chain if p)

    def roots_above(t: Fraction) -> tuple:
        values = [_poly_eval(p, t) for p in chain]
        return _variations(values) - top, values[0] == 0

    return roots_above


def count_real_roots_in(coeffs, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of the polynomial in the half-open
    interval (a, b], from its Sturm counter.  Only tests read it; it stays
    because the benchmark's tracer names it."""
    if len(coeffs) < 2:
        return 0
    roots_above = _sturm_counter(coeffs)
    return roots_above(a)[0] - roots_above(b)[0]


def root_brackets(coeffs, k: int, lo=None, hi=None):
    """Bisect on one Sturm counter toward the k-th largest distinct real root
    of a polynomial: yield the first bracket (lo, hi] that holds it and no
    other root, then each half that still holds it, and end with (r, r) when
    a midpoint is the root r.  The default start (-B, B] has B Cauchy's bound
    rounded up to a power of two, so every midpoint is dyadic."""
    roots_above = _sturm_counter(coeffs)
    if lo is None:
        hi = 2 ** math.ceil(1 + Fraction(max(map(abs, coeffs))) / abs(coeffs[0])).bit_length()
        lo = -hi
    lo, hi = Fraction(lo), Fraction(hi)
    above_lo, above_hi = roots_above(lo)[0], roots_above(hi)[0]
    while above_lo >= k > above_hi:  # (lo, hi] holds the root
        if above_lo - above_hi == 1:
            yield lo, hi
        mid = (lo + hi) / 2
        above, is_root = roots_above(mid)
        if above == k - 1 and is_root:
            yield mid, mid
            return
        if above >= k:
            lo, above_lo = mid, above
        else:
            hi, above_hi = mid, above


# ---------------------------------------------------------------------------
# float eigen machinery


def eig_all(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> list:
    """All eigenvalues (complex), with near-real values snapped to the real
    axis; sorted by (real, imag) for determinism."""
    if P.n == 0:
        return []
    vals = np.linalg.eigvals(P.to_numpy())
    scale = max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    out = []
    for v in vals:
        if abs(v.imag) <= tol.eig_tol * scale:
            v = complex(v.real, 0.0)
        out.append(v)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


@dataclass(frozen=True)
class EigComponent:
    eigenvalue: complex
    multiplicity: int
    component: tuple  # complex entries
    order: int  # 0 when the component vanishes
    norm: float

    def relative_to(self, rho_x: float, tol: Tolerance) -> tuple:
        """(sign of |mu| - rho_x, is mu rho_x itself) for the eigenvalue mu, each
        within eig_tol*max(1, rho_x): the one peripheral rule of the float lane."""
        band = tol.eig_tol * max(1.0, rho_x)
        mu = self.eigenvalue
        gap = abs(mu) - rho_x
        return (gap > band) - (gap < -band), abs(mu.imag) <= band and abs(mu.real - rho_x) <= band


@dataclass(frozen=True)
class GeneralizedDecomposition:
    components: tuple
    merged: bool  # True when distinct eigenvalues fell into one cluster
    ambiguous: bool  # True when a rank decision was borderline

    def present(self) -> list:
        scale = max([c.norm for c in self.components] + [0.0])
        return [c for c in self.components if c.norm > 1e-8 * max(1.0, scale)]


def _scaled_shift(a, mu: complex):
    """(a - mu*I)/s, s = max(1, ||a - mu*I||_inf), on a complex matrix a."""
    shifted = a - mu * np.eye(len(a))
    return shifted / max(1.0, float(np.linalg.norm(shifted, np.inf)))


def _shift_null(a, mu: complex, m: int, basis: bool = True) -> tuple:
    """SVD nullspace of S^m for the scaled shift S = _scaled_shift(a, mu).
    Singular values up to max(RANK_REL * largest, 1e-13) count as zero.
    Returns (nullity, the m right singular vectors of the m smallest singular
    values as columns, or None when basis is off)."""
    n = len(a)
    svd = np.linalg.svd(np.linalg.matrix_power(_scaled_shift(a, mu), m), compute_uv=basis)
    sig = svd[1] if basis else svd
    smax = sig[0] if len(sig) else 0.0
    nullity = int(np.sum(sig <= max(RANK_REL * smax, 1e-13))) if smax > 0 else n
    return nullity, svd[2].conj().T[:, n - m:] if basis else None


def _cluster_eigenvalues(vals, tol: Tolerance, matrix):
    """Greedy chaining of eigenvalues closer than eig_tol*scale, then a
    rank-confirmed merge pass.

    A defective eigenvalue of multiplicity m comes out of the dense solver
    spread over a disk of radius ~ (eps*scale)^(1/m), far wider than eig_tol,
    so distance alone under-merges.  Candidate cluster pairs inside a coarse
    (eps^(1/n)-sized) gate are merged only when the nullity of the jointly
    powered shift at their common mean actually reaches the joint size.
    """
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
        return clusters
    n = len(vals)
    eps = float(np.finfo(float).eps)
    gate = scale * max(10.0 * tol.eig_tol, (64.0 * eps) ** (1.0 / n))
    a = np.asarray(matrix, dtype=complex)
    changed = True
    while changed and len(clusters) > 1:
        changed = False
        means = [np.mean([vals[i] for i in cl]) for cl in clusters]
        for p in range(len(clusters)):
            for q in range(p + 1, len(clusters)):
                if abs(means[p] - means[q]) > gate:
                    continue
                joint = clusters[p] + clusters[q]
                mu = complex(np.mean([vals[i] for i in joint]))
                if _shift_null(a, mu, len(joint), basis=False)[0] >= len(joint):
                    clusters[p] = joint
                    del clusters[q]
                    changed = True
                    break
            if changed:
                break
    return clusters


def _eigen_clusters(a, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Eigenvalues of a real square matrix a, clustered (float lane).

    Returns (eigenvalues, per cluster (mean, size), merged).  A mean within
    eig_tol of the real axis is snapped onto it; merged is set when distinct
    eigenvalues fell into one cluster.  A cluster's generalized eigenspace is
    the nullspace _shift_null finds at its mean, raised to its size.
    """
    vals = np.linalg.eigvals(a)
    clusters = []
    merged = False
    for cl in _cluster_eigenvalues(list(vals), tol, a):
        mu = complex(np.mean([vals[i] for i in cl]))
        mult = len(cl)
        spread = max(abs(vals[i] - mu) for i in cl)
        if mult > 1 and spread > 10 * tol.eig_tol * max(1.0, abs(mu)):
            merged = True
        if abs(mu.imag) <= tol.eig_tol * max(1.0, abs(mu)):
            mu = complex(mu.real, 0.0)
        clusters.append((mu, mult))
    return vals, clusters, merged


def _eigenspaces(P: NonnegMatrix, tol: Tolerance, transpose: bool = False) -> tuple:
    """The float generalized eigenspaces of P, or of P^T when transpose is
    set, from one _eigen_clusters pass and one _shift_null basis per
    cluster, built once per (P, tol, side) and kept on P.

    Returns one flat tuple (table, scale, merged, ambiguous, *sizes): each
    row of the contiguous complex table is one basis vector of a cluster's
    space, preceded by the cluster mean, the clusters in _eigen_clusters
    order with sizes[k] rows each; scale is the largest eigenvalue modulus
    (at least 1), merged is _eigen_clusters' flag and ambiguous is set when
    a nullity missed its cluster size.  None of it depends on a vector.
    The sizes are not a tuple of their own, which would cost a sweep's
    records a tenth more memory.
    """

    def build():
        a = P.to_numpy().T if transpose else P.to_numpy()
        vals, clusters, merged = _eigen_clusters(a, tol)
        a_c = a.astype(complex)
        rows, ambiguous = [], False
        for mu, mult in clusters:
            nullity, basis = _shift_null(a_c, mu, mult)
            ambiguous = ambiguous or nullity != mult
            rows.append(np.hstack([np.full((mult, 1), mu), basis.T]))
        scale = max(1.0, float(np.max(np.abs(vals))))
        return (np.vstack(rows), scale, merged, ambiguous, *(mult for _, mult in clusters))

    return P.memoized(("transpose eigenspaces" if transpose else "eigenspaces", tol), build)


def decompose_generalized(
    P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> GeneralizedDecomposition:
    """Split x along the generalized eigenspaces of P (float lane).

    The spaces come from _eigenspaces, kept on P: one solve on their stacked
    bases gives every component, and the order of a present component is
    the least power of its cluster's scaled shift that sends it to zero.  A
    nullity that missed its cluster size flags the result as ambiguous.
    """
    if P.n == 0:
        return GeneralizedDecomposition((), False, False)
    table, _, merged, ambiguous, *sizes = _eigenspaces(P, tol)
    xv = x.to_numpy()
    try:
        coef = np.linalg.solve(table[:, 1:].T, xv.astype(complex))
    except np.linalg.LinAlgError:
        raise NumericFailure("generalized eigenbasis is numerically singular")
    a = P.to_numpy().astype(complex)
    xnorm = max(1.0, float(np.linalg.norm(xv, np.inf)))
    comps = []
    col = 0
    for mult in sizes:
        mu = complex(table[col, 0])
        comp = table[col:col + mult, 1:].T @ coef[col:col + mult]
        col += mult
        cnorm = float(np.linalg.norm(comp, np.inf))
        order = 0
        if cnorm > 1e-9 * xnorm:
            shift = _scaled_shift(a, mu)
            w = comp
            order = mult
            for t in range(1, mult + 1):
                w = shift @ w
                if np.linalg.norm(w, np.inf) <= 1e-8 * cnorm:
                    order = t
                    break
        comps.append(EigComponent(mu, mult, tuple(comp), order, cnorm))
    return GeneralizedDecomposition(tuple(comps), merged, ambiguous)


def krylov_local_rho(P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest eigenvalue modulus of P restricted to the cyclic subspace
    generated by x (Arnoldi with full reorthogonalization)."""
    a = P.to_numpy()
    v = x.to_numpy()
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return 0.0
    n = P.n
    anorm = max(1.0, float(np.linalg.norm(a, np.inf)))
    basis = [v / nrm]
    h = np.zeros((n + 1, n), dtype=float)
    dim = 0
    for k in range(n):
        w = a @ basis[k]
        for _ in range(2):  # two Gram-Schmidt passes
            for j, q in enumerate(basis):
                c = float(q @ w)
                h[j, k] += c
                w = w - c * q
        hn = float(np.linalg.norm(w))
        dim = k + 1
        if hn <= 1e-10 * anorm:
            break
        h[k + 1, k] = hn
        basis.append(w / hn)
    hm = h[:dim, :dim]
    vals = np.linalg.eigvals(hm)
    return float(np.max(np.abs(vals))) if len(vals) else 0.0
