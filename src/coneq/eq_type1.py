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
    float checks and may be None (indeterminate): they follow the powers of
    P/lambda by repeated squaring up to a horizon of tol.power_iters terms,
    and abstain when neither bound is reached by then; e, i use the float
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


# cap on the entries of the squared powers; the square of a capped n x n
# matrix stays finite for n below 1e8
_POWER_CEILING = 1e150


def _capped_product(x, y):
    out = x @ y
    return np.minimum(out, _POWER_CEILING, out=out)


def _doubling_powers(a, horizon):
    """Yield (m, a^m) for a nonnegative a at m = 1, 2, 4, ... <= horizon,
    each power the square of the one before, and last at m = horizon itself,
    the product of the squares its binary digits pick.

    Every entry is capped at _POWER_CEILING, or a class that b never
    reaches could overflow to inf, and inf * 0 is NaN.  The matrices are
    nonnegative, so an entry at the cap stands for one at least that large,
    far past any bound the iterative checks compare with.
    """
    squares = []
    m = 1
    while m <= horizon:
        yield m, a
        squares.append(a)
        m *= 2
        if m <= horizon:
            a = _capped_product(a, a)
    if horizon > m // 2:
        picked = [sq for k, sq in enumerate(squares) if horizon >> k & 1]
        last = picked[0]
        for sq in picked[1:]:
            last = _capped_product(last, sq)
        yield horizon, last


def _condition_c(P, lam, b, tol):
    """Does the resolvent series sum_m (P/lambda)^m b / lambda converge?
    Three-valued.

    tol.power_iters is a horizon counted in terms, reached by squaring: the
    pair (term m, sum of terms 0 .. m-1) is the m-th power of one step
    matrix applied to (b/lambda, 0), inspected at the checkpoints of
    _doubling_powers up to horizon - 2.  False once a partial sum exceeds
    1e12*scale; True once the terms m, m+1 and m+2 from a checkpoint m on
    are all within eq_tol of the partial sum; None when no window of three
    terms up to the horizon settles it.
    """
    n = P.n
    a = P.to_numpy() / float(lam)
    step = np.zeros((2 * n, 2 * n))  # [[a, 0], [I, I]]
    step[:n, :n] = a
    step[n:, :n] = step[n:, n:] = np.eye(n)
    bv = b.to_numpy()
    scale = max(1.0, *bv.tolist())
    start = np.zeros(2 * n)
    start[:n] = bv / float(lam)
    horizon = tol.power_iters
    for m, power in _doubling_powers(step, max(1, horizon - 2)):
        pair = power @ start
        term = pair[:n]
        total = pair[n:] + term
        for k in range(3):  # the terms m, m+1, m+2
            if k:
                if m + k > horizon:
                    break
                term = a @ term
                total += term
            top = max(total.tolist())
            if top > 1e12 * scale:
                return False
            if max(term.tolist()) > tol.eq_tol * max(1.0, top):
                break
        else:
            return True
    return None


def _condition_d(P, lam, b, tol):
    """Does (P/lambda)^m b tend to zero?  Three-valued.

    tol.power_iters is a horizon counted in terms, reached by squaring: the
    iterate is inspected at the checkpoints of _doubling_powers, the last
    one at the horizon.  True once it is within eq_tol*scale, False once it
    exceeds 1e12*scale, None when neither happens by the horizon.
    """
    bv = b.to_numpy()
    scale = max(1.0, *bv.tolist())
    for _, power in _doubling_powers(P.to_numpy() / float(lam), tol.power_iters):
        nrm = max((power @ bv).tolist())
        if nrm <= tol.eq_tol * scale:
            return True
        if nrm > 1e12 * scale:
            return False
    return None


def _peripheral_float(P, b, lam, tax) -> tuple:
    """Float conditions (e, f, i, j) from the generalized eigenvectors z of
    P^T, which oracle._eigenspaces computes once per matrix and tolerance.

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
    bv = b.to_numpy()
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
    cond_c = _condition_c(P, lam, b, tol)
    cond_d = _condition_d(P, lam, b, tol)
    cond_e, cond_f, cond_i, cond_j = _peripheral_float(P, b, lam, tax)
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
