"""Nonnegative solutions of (lambda*I - P)x = b.

For lambda > 0 and b >= 0 the equation has a nonnegative solution exactly
when every class with access to supp(b) has radius strictly below lambda
(equivalently, the local spectral radius of b is below lambda).  The minimal
solution is supported on the union of classes with access to supp(b) and is
obtained by a direct solve of the principal subsystem there; it is unique
unless lambda is a distinguished eigenvalue, in which case the extra freedom
is exactly the nonnegative eigenvectors at lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional

from . import oracle
from .classes import smallest_initial_superset
from .core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    NumericFailure,
    Scalar,
    Tolerance,
    as_scalar,
    np,
    require_operand,
    solve_linear,
    support,
    vec_sub,
    zero,
)
from .spectral import (
    class_radii,  # noqa: F401  (bench/test_smoke.py expects this binding)
    taxonomy,
)


def _check_inputs(P: NonnegMatrix, lam, b: Optional[ConeVector] = None) -> Scalar:
    """The shift, read once in P's mode by as_scalar (as the CLI reads
    --lambda) and required to be strictly positive; b, when given, must be
    an operand of P."""
    if b is not None:
        require_operand(P, b)
    lam = as_scalar(lam, P.mode)
    if lam <= 0:
        raise InvalidInput("the shift must be strictly positive")
    return lam


def solvable1(P: NonnegMatrix, lam: Scalar, b: ConeVector, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Does (lambda*I - P)x = b admit x >= 0?  Purely combinatorial."""
    lam = _check_inputs(P, lam, b)
    return taxonomy(P, tol).local_sign(support(b), lam) < 0


def _witness(tax, sign, bmask) -> Optional[int]:
    """A distinguished class c of radius >= lambda (sign(c) >= 0) with
    access to a class in bmask (those meeting supp(b)); exists whenever the
    equation is unsolvable.  sign is asked about distinguished classes only."""
    reach, flags = tax.analysis.reach, tax.distinguished
    return next((c for c in range(len(flags)) if flags[c] and sign(c) >= 0 and reach[c] & bmask), None)


def minimal_solution(
    P: NonnegMatrix, lam: Scalar, b: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> ConeVector:
    """The minimal nonnegative solution: restricted solve on the smallest
    initial superset of supp(b).  Requires solvability."""
    lam = _check_inputs(P, lam, b)
    if b.is_zero():
        return ConeVector.zero_vector(P.n, P.mode)
    if not solvable1(P, lam, b, tol):
        raise InvalidInput("no nonnegative solution exists at this shift")
    idx = sorted(smallest_initial_superset(taxonomy(P, tol).analysis, support(b)))
    # exact rows of lambda*I - P; in float mode the solve rounds each entry
    # to the nearest float, which is the correctly rounded float lam - e
    principal = [[P.rows[i - 1][j - 1] for j in idx] for i in idx]
    mrows = oracle.shifted_image_rows(principal, lam, sign=-1)
    sol = solve_linear(mrows, [b.entries[i - 1] for i in idx], P.mode)
    if sol is None:
        raise NumericFailure("principal subsystem unexpectedly singular")
    entries = [zero(P.mode)] * P.n
    for k, i in enumerate(idx):
        entries[i - 1] = sol[k]
    if P.mode == FLOAT:
        entries = [max(0.0, e) if abs(e) <= tol.eq_tol else e for e in entries]
    return ConeVector(tuple(entries), P.mode)


@dataclass(frozen=True)
class SolveReport1:
    solvable: bool
    rho_b: Scalar
    x0: Optional[ConeVector]
    unique: Optional[bool]
    eigen_freedom: tuple  # class indices of distinguished classes at lambda
    fired_condition: str  # "g" when solvable, "h" with a witness otherwise
    residual_norm: Optional[Scalar]
    witness_class: Optional[int] = None


def solve1(P: NonnegMatrix, lam: Scalar, b: ConeVector, tol: Tolerance = DEFAULT_TOL) -> SolveReport1:
    """Decide and, if possible, construct the minimal nonnegative solution."""
    lam = _check_inputs(P, lam, b)
    tax = taxonomy(P, tol)
    c_b = tax.local_class(support(b))  # one pass gives rho_b and its comparison
    rho_b = zero(P.mode) if c_b is None else tax.radii[c_b]
    freedom = tax.classes_at(lam, tax.distinguished)
    if tax.radius_sign(c_b, lam) >= 0:
        witness = _witness(tax, lambda c: tax.radius_sign(c, lam), tax.analysis.classes_meeting(support(b)))
        return SolveReport1(
            False, rho_b, None, None, freedom, "h", None, witness
        )
    x0 = minimal_solution(P, lam, b, tol)
    residual = _residual_norm(P, lam, x0, b)
    unique = len(freedom) == 0
    return SolveReport1(True, rho_b, x0, unique, freedom, "g", residual)


def _residual_norm(P, lam, x, b) -> Scalar:
    lhs = P.shifted_apply(x.entries, lam, -1)
    return max((abs(e) for e in vec_sub(lhs, b.entries)), default=zero(P.mode))


def neumann_partial(
    P: NonnegMatrix, lam: Scalar, b: ConeVector, m: int, tol: Tolerance = DEFAULT_TOL
) -> ConeVector:
    """Partial sum of the resolvent series through the m-th power of P."""
    lam = _check_inputs(P, lam, b)
    if m < 0:
        raise InvalidInput("partial sum index must be nonnegative")
    inv = 1 / lam
    term = tuple(inv * e for e in b.entries)
    acc = term
    for _ in range(m):
        term = tuple(inv * e for e in P.apply(term))
        acc = tuple(a + t for a, t in zip(acc, term))
        if P.mode == FLOAT and not all(map(math.isfinite, acc)):
            raise NumericFailure("resolvent partial sums overflowed")
    return ConeVector(acc, P.mode)


def solvable_set(P: NonnegMatrix, lam: Scalar, tol: Tolerance = DEFAULT_TOL) -> frozenset:
    """Vertices i such that every class with access to i has radius < lambda.

    This is the initial subset carrying the face of right-hand sides solvable
    at lambda; it is all of {1..n} iff lambda > spectral_radius(P) and empty
    iff lambda is at most the least distinguished eigenvalue.
    """
    lam = _check_inputs(P, lam)
    tax = taxonomy(P, tol)
    return frozenset(v for c in tax.initial_below(lam) for v in tax.analysis.classes[c])


@dataclass(frozen=True)
class ConditionReport:
    """Nine equivalent solvability tests for (lambda*I - P)x = b, b != 0.

    b, g, h are exact combinatorial facts, and b, h and the exact f, j read
    one comparison of each class radius with lambda; c, d are iterative
    float checks and may be None (indeterminate): one pass squares P/lambda
    up to a horizon of tol.power_iters terms, carries c's partial sums as a
    vector beside b, and abstains when neither bound is reached by then; b
    is read as floats once for c, d, e, f, i and j; e, i use the float
    generalized eigenvectors of P^T, kept on the matrix per tolerance with
    a flag per row for a real distinguished eigenvalue; f, j are exact
    whenever every needed eigenvalue is an exact rational (from exact bases
    kept on the matrix per eigenvalue), and use those float rows otherwise.
    All decided verdicts must agree -- `consistent` records that.
    """

    b: bool
    c: Optional[bool]
    d: Optional[bool]
    e: bool
    f: bool
    g: bool
    h: bool
    i: bool
    j: bool
    consistent: bool


# cap on the entries of the squares and partial sums; the product of two
# capped n x n arrays stays finite for n below 1e8
_POWER_CEILING = 1e150


def _conditions_c_d(P, lam, bv, tol) -> tuple:
    """Conditions c and d, each three-valued, from one walk over the powers
    of a = P/lambda.

    tol.power_iters is a horizon counted in terms, reached by squaring a.
    At each checkpoint m = 1, 2, 4, ... one product of a^m with the columns
    b, b' = b/lambda and S_m b' (S_m = a^0 + ... + a^(m-1)) gives
    - d's iterate a^m b: True once it is within eq_tol*scale, False once it
      exceeds 1e12*scale;
    - c's term a^m b' and partial sum S_(m+1) b': False once a partial sum
      exceeds 1e12*scale, True once the terms m, m+1 and m+2 are all within
      eq_tol of it;
    - the next sum S_2m b' = S_m b' + a^m S_m b', kept while c is open.
    d's last checkpoint is the horizon and c's is horizon - 2; one that is
    no power of two is reached through the squares its binary digits pick.
    A check still open there abstains (None).

    Every square and sum is capped at _POWER_CEILING, or a class that b
    never reaches could overflow to inf, and inf * 0 is NaN.  They are
    nonnegative, so an entry at the cap stands for one at least that large,
    far past any bound the checks compare with.
    """
    lam_f = float(lam)
    a = P.to_numpy() / lam_f
    scale = max(1.0, *bv.tolist())
    horizon = tol.power_iters
    c_last = max(1, horizon - 2)
    cols = np.empty((P.n, 3))
    cols[:, 0] = bv
    cols[:, 1] = cols[:, 2] = bv / lam_f
    partial = cols[:, 2]  # S_m b', summed in place

    def cap(v):
        return np.minimum(v, _POWER_CEILING, out=v)

    def c_at(m, term, total):
        for k in range(3):  # the terms m, m+1, m+2
            if k:
                if m + k > horizon:
                    return None
                term = a @ term
                total += term
            top = max(total.tolist())
            if top > 1e12 * scale:
                return False
            if max(term.tolist()) > tol.eq_tol * max(1.0, top):
                return None
        return True

    def d_at(iterate):
        nrm = max(iterate.tolist())
        return True if nrm <= tol.eq_tol * scale else False if nrm > 1e12 * scale else None

    squares, sums = [], []
    c = d = None
    m, power = 1, a
    while (d is None and m <= horizon) or (c is None and m <= c_last):
        if squares:
            power = cap(power @ power)
        squares.append(power)
        out = power @ cols
        if d is None:
            d = d_at(out[:, 0])
        if c is None and m <= c_last:
            sums.append(partial.copy())
            c = c_at(m, out[:, 1], partial + out[:, 1])
            cap(np.add(partial, out[:, 2], out=partial))
        m *= 2
    if d is None and horizon & (horizon - 1):
        picked = [sq for k, sq in enumerate(squares) if horizon >> k & 1]
        last = picked[0]
        for sq in picked[1:]:
            last = cap(last @ sq)
        d = d_at(last @ bv)
    if c is None and c_last & (c_last - 1):
        s, t = np.zeros(P.n), cols[:, 1]
        for k, (sq, sk) in enumerate(zip(squares, sums)):
            if c_last >> k & 1:  # s = S_p b' and t = a^p b' for the bits p taken
                s = cap(sk + sq @ s)
                t = cap(sq @ t)
        c = c_at(c_last, t, s + t)
    return c, d


def _peripheral_float(P, bv, lam, tax) -> tuple:
    """Float conditions (e, f, i, j) for b (bv, as floats) from the
    generalized eigenvectors z of P^T, which oracle._eigenspaces computes
    once per matrix and tolerance.

    The rows of the spectral projector at mu span the generalized
    eigenvectors z of P^T at mu, so b has a component there iff some
    z^T b != 0 (e), and i asks |z|.b = 0, over every mu with |mu| >= lambda;
    f and j ask the same at the real distinguished mu >= lambda only, from
    a flag per row that depends on P and tol alone and is kept on P.
    """
    tol = tax.tol
    table, scale = oracle._eigenspaces(P, tol, transpose=True)[:2]
    mus = table[:, 0]
    flags = P.memoized(("transpose distinguished rows", tol), lambda: np.array(
        [abs(mu.imag) <= tol.eig_tol * scale and tax.is_distinguished_eigenvalue(float(mu.real)) for mu in mus],
        dtype=bool,
    ))
    lam_f = float(lam)
    floor = lam_f - tol.eig_tol * max(1.0, lam_f)
    bound = 1e-7 * max(1.0, *bv.tolist())  # float(max(b)): rounding to float is monotone
    peripheral = np.abs(mus) >= floor
    z = table[peripheral, 1:]
    component = (np.abs(z @ bv) > bound).tolist()
    overlap = (np.abs(z) @ bv > bound).tolist()
    distinguished = (flags[peripheral] & (mus[peripheral].real >= floor)).tolist()
    return (
        not any(component),
        not any(compress(component, distinguished)),
        not any(overlap),
        not any(compress(overlap, distinguished)),
    )


def _transpose_generalized_basis(P: NonnegMatrix, mu: Fraction) -> tuple:
    """Exact basis of N((P^T - mu*I)^n), scaled by the common denominator of
    its entries to integer vectors, as a tuple of tuples.  A positive factor
    changes neither the support of a vector nor whether its product with b
    is zero, which is all _orthogonal_exact asks; small ints are shared
    objects, so the basis is cheap to keep.  Kept on P per mu: a shift sweep
    asks for the same basis at several shifts."""

    def build():
        t_rows = [list(r) for r in zip(*P.rows)]
        basis, _ = oracle._integer_rows(oracle.generalized_nullspace_exact(t_rows, mu))
        return tuple(map(tuple, basis))

    return P.memoized(("transpose_generalized_basis", mu), build)


def _orthogonal_exact(P, b, tax, signs) -> Optional[tuple]:
    """Exact form of the distinguished-orthogonality condition, when every
    distinguished eigenvalue >= lambda is an exact rational; None otherwise.
    Returns (f_verdict, j_verdict)."""
    relevant = [tax.radii[c] for c in tax.eigen_classes if signs[c] >= 0]
    if not all(isinstance(v, Fraction) for v in relevant) or P.mode != RATIONAL:
        return None
    f_ok = j_ok = True
    for mu in relevant:
        for z in _transpose_generalized_basis(P, mu):
            pairs = [(zi, bi) for zi, bi in zip(z, b.entries) if zi != 0 and bi != 0]
            if pairs:
                j_ok = False
                if sum(zi * bi for zi, bi in pairs) != 0:
                    f_ok = False
    return f_ok, j_ok


def solvability_conditions(
    P: NonnegMatrix, lam: Scalar, b: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> ConditionReport:
    """Evaluate the full battery of equivalent solvability conditions."""
    lam = _check_inputs(P, lam, b)
    if b.is_zero():
        raise InvalidInput("the condition battery requires b != 0")
    tax = taxonomy(P, tol)
    supp = support(b)
    bmask = tax.analysis.classes_meeting(supp)
    signs = [tax.radius_sign(c, lam) for c in range(len(tax.radii))]
    cond_b = not bmask & tax.blocked_mask(signs)
    bv = b.to_numpy()  # b as floats, once for c, d, e, f, i and j
    cond_c, cond_d = _conditions_c_d(P, lam, bv, tol)
    cond_e, cond_f, cond_i, cond_j = _peripheral_float(P, bv, lam, tax)
    exact_fj = _orthogonal_exact(P, b, tax, signs)
    if exact_fj is not None:
        cond_f, cond_j = exact_fj
    cond_g = tax.local_sign(supp, lam) < 0
    cond_h = _witness(tax, signs.__getitem__, bmask) is None
    decided = [cond_b, cond_e, cond_f, cond_g, cond_h, cond_i, cond_j]
    decided += [c for c in (cond_c, cond_d) if c is not None]
    consistent = len(set(decided)) == 1
    return ConditionReport(
        cond_b, cond_c, cond_d, cond_e, cond_f, cond_g, cond_h, cond_i, cond_j,
        consistent,
    )
