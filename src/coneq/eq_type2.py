"""Nonnegative solutions of (P - lambda*I)x = b with b >= 0.

Three regimes, split by the local spectral radius of b:

* lambda > rho_b:  solvable iff lambda is a distinguished eigenvalue and
  every class meeting supp(b) has access to a lambda-distinguished class.
  The solution is alpha*u - x0 for an eigenvector u and the minimal solution
  x0 of the mirrored type-1 system, and every solution has spectral pair
  (lambda, 1).
* lambda = rho_b:  decided by the exact LP oracle, after the necessary
  support conditions (lambda distinguished, supp(b) inside the strict-access
  face of the semi-distinguished lambda-classes) prune the obvious failures.
* lambda < rho_b:  decided by the exact LP oracle.

The module also exposes the face probes and witnesses describing the cone
(P - lambda*I)K intersected with K: which coordinates of a nonnegative image
can be strictly positive (one LP per probe), an explicit certificate pair
at lambda = rho, the sign structure of the resolvent for irreducible
matrices near rho, and the largest real eigenvalue below rho bounding that
window.

The one-pass rule: solvable2 reads supp(b)'s classes, rho_b's class and one
sign of radius - lambda per semi-distinguished class once
(``eq_type1._query``); the access test, the above-regime construction
``_solve2_above`` and the necessary face at rho_b read those; each public
function checks its own preconditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Optional

from . import oracle
from .core import (
    DEFAULT_TOL,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    NumericFailure,
    Scalar,
    SpectralPair,
    Tolerance,
    snap_cone,
    support,
    zero,
)
from .eq_type1 import _check_inputs, _flagged_at, _minimal_solution, _query
from .spectral import (
    _back_substitute,
    class_radii,  # noqa: F401  (bench/test_smoke.py expects this binding)
    max_distinguished_order,
    spectral_pair,
    taxonomy,
)


def combinatorial_solvable_above(P, lam, b, tol=DEFAULT_TOL) -> bool:
    """The access test for the regime lambda > rho_b: lambda distinguished and
    every class meeting supp(b) reaches a lambda-distinguished class.  b = 0
    passes at every shift, since x = 0 solves."""
    lam = _check_inputs(P, lam, b)
    tax = taxonomy(P, tol)
    bmask = tax.analysis.classes_meeting(support(b))
    return _reaches_all(tax, bmask, tax.classes_at(lam, tax.distinguished))


def _reaches_all(tax, bmask, dist) -> bool:
    """Does every class in bmask have access to one of the classes dist?"""
    return not bmask & ~tax.analysis.accessors_mask(sum(1 << c for c in dist))


def solve2_above(
    P: NonnegMatrix, lam: Scalar, b: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> ConeVector:
    """Construct a nonnegative solution in the regime lambda > rho_b.

    x = alpha*u - x0 where u is one back-substitution over the
    lambda-distinguished classes reachable from supp(b) (none has access to
    another, so u is the sum of their eigenvectors, up to rounding on the
    float lane), x0 solves (lambda*I - P)x0 = b minimally, and alpha is the
    smallest multiple keeping the difference nonnegative.  u is on the float
    lane unless every such class has a rational radius; x0 then follows it.
    """
    lam = _check_inputs(P, lam, b)
    if b.is_zero():
        return ConeVector.zero_vector(P.n, P.mode)
    tax = taxonomy(P, tol)
    bmask, amask, c_b, signs = _query(tax, lam, b)
    if signs[c_b] >= 0:
        raise InvalidInput("construction requires the shift to exceed the local radius of b")
    dist = _flagged_at(tax.distinguished, signs)
    if not _reaches_all(tax, bmask, dist):
        raise InvalidInput("no nonnegative solution exists at this shift")
    return _solve2_above(P, lam, b, tax, bmask, amask, dist)


def _solve2_above(P, lam, b, tax, bmask, amask, dist) -> ConeVector:
    """solve2_above of a query that passed its tests, handed its record, the
    bitmasks of the classes meeting supp(b) and of those with access to
    them, and the lambda-distinguished classes."""
    an = tax.analysis
    relevant = [c for c in dist if an.accessors_mask(1 << c) & bmask]
    u = _back_substitute(P, tax, relevant, tax.radii[relevant[0]])[0]
    x0 = _minimal_solution(P, lam, b, tax, amask)
    if u.mode != x0.mode:
        x0 = x0.to_float()
    mode = u.mode
    alpha = zero(mode)
    for ui, xi in zip(u.entries, x0.entries):
        if xi != 0:
            ratio = xi / ui  # u is positive wherever x0 is
            if ratio > alpha:
                alpha = ratio
    entries = [alpha * ui - xi for ui, xi in zip(u.entries, x0.entries)]
    return snap_cone(entries, mode, tax.tol)


@dataclass(frozen=True)
class SolveReport2:
    regime: str  # "above" | "at" | "below"
    solvable: bool
    rho_b: Scalar
    x: Optional[ConeVector]
    certificate: str  # "cor4_2" | "lp" | "necessary_violated"
    spectral_pair_of_x: Optional[SpectralPair]


def solvable2(
    P: NonnegMatrix, lam: Scalar, b: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> SolveReport2:
    """Decide (P - lambda*I)x = b over the orthant and construct a solution."""
    lam = _check_inputs(P, lam, b)
    if b.is_zero():
        x = ConeVector.zero_vector(P.n, P.mode)
        return SolveReport2("above", True, zero(P.mode), x, "cor4_2", SpectralPair(zero(P.mode), 0))
    tax = taxonomy(P, tol)
    bmask, amask, c_b, signs = _query(tax, lam, b)
    rho_b = tax.radii[c_b]
    if signs[c_b] < 0:
        dist = _flagged_at(tax.distinguished, signs)
        if _reaches_all(tax, bmask, dist):
            x = _solve2_above(P, lam, b, tax, bmask, amask, dist)
            pair = spectral_pair(P, x, tol)
            c_x = tax.local_class(support(x))  # None or semi-distinguished, as c_b
            if c_x is None or signs[c_x] != 0 or pair.order != 1:
                raise NumericFailure("constructed solution has the wrong spectral pair")
            return SolveReport2("above", True, rho_b, x, "cor4_2", pair)
        return SolveReport2("above", False, rho_b, None, "cor4_2", None)
    regime = "at" if signs[c_b] == 0 else "below"
    if regime == "at":
        if not any(signs[c] == 0 for c in tax.eigen_classes) or bmask & ~_necessary_mask(tax, signs):
            return SolveReport2("at", False, rho_b, None, "necessary_violated", None)
    res = oracle.feasible_nonneg_solution(oracle.shifted_image_rows(P, lam), b.entries)
    if not res.feasible:
        return SolveReport2(regime, False, rho_b, None, "lp", None)
    x = ConeVector.make(res.witness, P.mode)
    pair = spectral_pair(P, x, tol)
    # solutions at or below the shift keep the local radius of b
    if tax.local_sign(support(x), rho_b) != 0:
        raise NumericFailure("solution violates the local-radius dichotomy")
    return SolveReport2(regime, True, rho_b, x, "lp", pair)


def necessary_face(P: NonnegMatrix, lam: Scalar, tol: Tolerance = DEFAULT_TOL) -> frozenset:
    """Vertices of classes strictly above some semi-distinguished lambda-class.

    Any b >= 0 with rho_b = lambda solvable in the type-2 equation must be
    supported here.  Requires lambda to be a distinguished eigenvalue; at
    lambda = rho the semi-distinguished lambda-classes are the basic classes.
    """
    tax = taxonomy(P, tol)
    if not tax.is_distinguished_eigenvalue(lam):
        raise InvalidInput("the necessary face is defined at distinguished eigenvalues")
    return tax.analysis.vertices_of_mask(_necessary_mask(tax, tax.signs(lam, tax.semi_distinguished)))


def _necessary_mask(tax, signs) -> int:
    """necessary_face as a bitmask of classes, given the sign of radius -
    lambda of each semi-distinguished class."""
    an = tax.analysis
    # a class strictly above s: an accessor of s other than s itself
    return reduce(or_, (an.accessors_mask(1 << s) & ~(1 << s) for s in _flagged_at(tax.semi_distinguished, signs)), 0)


def solvable_face_probe(P: NonnegMatrix, lam: Scalar, tol: Tolerance = DEFAULT_TOL) -> frozenset:
    """Coordinates that can be strictly positive in a nonnegative image:
    {i : exists x >= 0 with (P - lambda*I)x >= 0 and [(P - lambda*I)x]_i > 0}.

    The face of K generated by (P - lambda*I)K intersected with K, found by
    one maximal-support LP (oracle.max_support; rational mode only).
    """
    if P.mode != RATIONAL:
        raise InvalidInput("face probes run in rational mode only")
    return oracle.max_support(oracle.shifted_image_rows(P, lam))


def tracedown_witness(P: NonnegMatrix, class_index: int, tol: Tolerance = DEFAULT_TOL):
    """An explicit pair (x, b), both nonnegative, with (P - rho*I)x = b and
    b supported exactly on the classes strictly above the given class.

    The class must be basic and distinguished for the transposed access
    relation (no other basic class reachable from it).  Nonbasic classes on
    the way up get half their inflow as image, basic ones contribute their
    Perron vectors.
    """
    tax = taxonomy(P, tol)
    k = tax.analysis.class_count
    if not 0 <= class_index < k:
        raise InvalidInput(f"class index {class_index} outside 0..{k - 1}")
    if not (tax.basic[class_index] and tax.distinguished_transpose[class_index]):
        raise InvalidInput(
            "witness construction requires a basic class that is final among basic classes"
        )
    basic = [c for c in range(k) if tax.basic[c] and tax.analysis.has_access(c, class_index)]
    return _back_substitute(P, tax, basic, tax.rho, share=Fraction(1, 2))


@dataclass(frozen=True)
class ResolventSign:
    inverse_positive: Optional[bool]  # None when P - lambda*I is singular
    adjugate_positive: bool


def resolvent_sign(P: NonnegMatrix, lam: Scalar, tol: Tolerance = DEFAULT_TOL) -> ResolventSign:
    """Entrywise strict positivity of (P - lambda*I)^(-1) and adj(lambda*I - P)
    for an irreducible matrix.  Exact in both modes: float input is read as
    its binary value, as every LP reads it."""
    if taxonomy(P, tol).analysis.class_count != 1:  # n = 0 has no class
        raise InvalidInput("resolvent sign analysis requires an irreducible matrix")
    # one pass on lambda*I - P; (P - lambda*I)^(-1) = -adj(lambda*I - P) / det
    coeffs, adj = oracle._faddeev_leverrier(oracle.shifted_image_rows(P, lam, sign=-1))
    det = (-1) ** P.n * coeffs[-1]
    inverse_positive = None if det == 0 else all(-e / det > 0 for row in adj for e in row)
    return ResolventSign(inverse_positive, all(e > 0 for row in adj for e in row))


def subcritical_window(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest real eigenvalue strictly below the spectral radius (float),
    -inf when there is none.  Exact in both modes, float input read as its
    binary value: rho is the largest real root of the characteristic
    polynomial (Perron-Frobenius), and oracle.root_brackets narrows the next
    distinct real root below it until both ends round to one float."""
    for lo, hi in oracle.root_brackets(oracle.charpoly_exact(P), 2):
        if float(lo) == float(hi):
            return float(hi)
    return -math.inf


@dataclass(frozen=True)
class MembershipReport:
    in_s1: bool  # b is a nonnegative image with rho_b <= lambda
    in_s2: bool  # ... with preimage supported on the generalized eigenface
    in_s3: bool  # support + spectral-pair upper bound


def image_membership(
    P: NonnegMatrix, lam: Scalar, b: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> MembershipReport:
    """Membership of b in the three nested image sets at a distinguished
    eigenvalue lambda (rational mode)."""
    lam = _check_inputs(P, lam, b)
    if P.mode != RATIONAL:
        raise InvalidInput("image membership runs in rational mode only")
    tax = taxonomy(P, tol)
    if not tax.is_distinguished_eigenvalue(lam):
        raise InvalidInput("membership is defined at distinguished eigenvalues")
    if b.is_zero():
        return MembershipReport(True, True, True)
    j_verts = tax.accessor_vertices(tax.classes_at(lam, tax.semi_distinguished))
    supp = support(b)
    sign = tax.local_sign(supp, lam)
    rows = oracle.shifted_image_rows(P, lam)
    in_s1 = sign <= 0 and oracle.feasible_nonneg_solution(rows, b.entries).feasible
    # x >= 0 supported inside j_verts: the LP on those columns alone.  Such
    # an x is an x >= 0, so it is run only when the LP on all columns is
    # feasible or was skipped
    cols = sorted(j_verts)
    picked = [oracle._ScaledRow([row.ints[j - 1] for j in cols], row.scale) for row in rows]
    in_s2 = (in_s1 or sign > 0) and oracle.feasible_nonneg_solution(picked, b.entries).feasible
    m_lam = max_distinguished_order(P, lam, tol)
    order_b = spectral_pair(P, b, tol).order
    # (rho_b, order_b) <= (lambda, m_lam - 1) lexicographically
    in_s3 = supp <= j_verts and (sign < 0 or sign == 0 and order_b <= m_lam - 1)
    return MembershipReport(in_s1, in_s2, in_s3)
