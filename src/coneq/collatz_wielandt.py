"""Collatz-Wielandt numbers and sets over the nonnegative orthant.

For a nonzero x >= 0 the lower number r is the smallest ratio (Px)_i / x_i
over supp(x), and the upper number R is the largest such ratio when Px stays
on the face of x (supp(Px) subset of supp(x)), infinity otherwise.  Always
r <= rho_x <= R.

The four set extrema: sup over nonzero x >= 0 of r equals the spectral
radius; inf of R over the same range is the least distinguished eigenvalue;
over interior x the roles dualize (sup of r becomes the transpose's least
distinguished eigenvalue, inf of R is the spectral radius, attained exactly
when every basic class is final).

The decomposition helpers split a vector with one-sided image comparison
into an eigenvector part plus a strictly subcritical remainder, and the
zero-intersection battery checks the three equivalent no-nontrivial-image
conditions (equivalent over the orthant because it is polyhedral): a and b
are read off P's structure record, and c, the ground truth, is one LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import oracle
from .classes import smallest_initial_superset
from .core import (
    DEFAULT_TOL,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    Scalar,
    Tolerance,
    np,
    require_operand,
    snap_cone,
    support,
    zero,
)
from .eq_type1 import minimal_solution
from .eq_type2 import solvable_face_probe
from .spectral import (
    local_spectral_radius,
    spectral_pair,
    spectral_radius,
    taxonomy,
)


@dataclass(frozen=True)
class CWReport:
    r_lower: Scalar
    R_upper: Scalar  # math.inf when the image leaves the face of x
    rho_x: Scalar


def cw_numbers(P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL) -> CWReport:
    """Lower and upper Collatz-Wielandt numbers of x, with its local radius."""
    require_operand(P, x)
    if x.is_zero():
        raise InvalidInput("Collatz-Wielandt numbers need a nonzero vector")
    img = P.apply(x.entries)
    ratios = [img[i] / x.entries[i] for i in range(P.n) if x.entries[i] != 0]
    r = min(ratios)
    if support(ConeVector(img, P.mode)) <= support(x):
        R = max(ratios)
    else:
        R = math.inf
    return CWReport(r, R, local_spectral_radius(P, x, tol))


@dataclass(frozen=True)
class CWSets:
    sup_omega: Scalar
    inf_sigma: Scalar
    sup_omega1: Scalar
    inf_sigma1: Scalar
    inf_sigma1_attained: bool


def cw_sets(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> CWSets:
    """Extrema of the four Collatz-Wielandt sets, all read off P's record.

    sup over the cone of the lower number is the spectral radius (attained);
    inf of the upper number is the least distinguished eigenvalue (attained);
    over the interior, sup of the lower number is the least radius of a
    distinguished_transpose class (attained -- the orthant is polyhedral)
    and inf of the upper number is the spectral radius, attained iff
    rho_in_sigma1.
    """
    tax = taxonomy(P, tol)
    rho = spectral_radius(P, tol)
    inf_sigma, sup_omega1 = (
        min((r for r, flag in zip(tax.radii, flags) if flag), default=zero(P.mode))
        for flags in (tax.distinguished, tax.distinguished_transpose)
    )
    return CWSets(rho, inf_sigma, sup_omega1, rho, rho_in_sigma1(P, tol))


def rho_in_sigma1(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Is there a strictly positive x with Px <= rho*x?  True iff every basic
    class is final, read off P's record."""
    tax = taxonomy(P, tol)
    return all(final for final, basic in zip(tax.final, tax.basic) if basic)


def _work_pair(P, x, rho_x):
    """Degrade to floats when the local radius is not an exact rational."""
    if P.mode == RATIONAL and not isinstance(rho_x, Fraction):
        return P.to_float(), x.to_float(), float(rho_x)
    return P, x, rho_x


def _decompose(P, x, tol, radius, sign: int, message: str, x1_of) -> tuple:
    """The body both decompositions share: rho_x = radius(P, x, tol), which
    checks the caller's precondition, then b = sign*(P - rho_x*I)x snapped
    onto the cone (InvalidInput(message) when it is not nonnegative), and
    (x1_of(P, x, x2), x2) for the minimal solution x2 of
    (rho_x*I - P)x2 = b; (x, 0) when b vanishes."""
    require_operand(P, x)
    if x.is_zero():
        raise InvalidInput("decomposition needs a nonzero vector")
    P, x, rho_x = _work_pair(P, x, radius(P, x, tol))
    try:
        b = snap_cone(P.shifted_apply(x.entries, rho_x, sign), P.mode, tol)
    except InvalidInput:
        raise InvalidInput(message)
    if b.is_zero():
        return x, ConeVector.zero_vector(P.n, P.mode)
    x2 = minimal_solution(P, rho_x, b, tol)
    return x1_of(P, x, x2), x2


def decompose_subinvariant(
    P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> tuple:
    """Split x with Px <= rho_x*x as x = x1 + x2, where x1 is a nonnegative
    eigenvector at rho_x (or zero) and x2 has local radius strictly below
    rho_x with Px2 <= rho_x*x2."""
    return _decompose(
        P, x, tol, local_spectral_radius, -1,
        "the upper Collatz-Wielandt number exceeds the local spectral radius",
        lambda P, x, x2: snap_cone([e - f for e, f in zip(x.entries, x2.entries)], P.mode, tol),
    )


def _order_one_radius(P, x, tol):
    pair = spectral_pair(P, x, tol)
    if pair.order != 1:
        raise InvalidInput("decomposition requires a vector of order one")
    return pair.rho


def decompose_superinvariant(
    P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> tuple:
    """Split x of order one with Px >= rho_x*x as x = x1 - x2, where x1 is a
    nonnegative eigenvector at rho_x and x2 has local radius strictly below
    rho_x with Px2 <= rho_x*x2."""
    return _decompose(
        P, x, tol, _order_one_radius, 1,
        "the image must dominate the local-radius multiple of the vector",
        lambda P, x, x2: ConeVector(tuple(e + f for e, f in zip(x.entries, x2.entries)), P.mode),
    )


@dataclass(frozen=True)
class ZeroIntersectionReport:
    """Three equivalent ways of saying the shifted image cone meets the
    orthant only at zero (equivalent here because the orthant is polyhedral).

    a   the transpose admits a positive vector with image below rho times it
    b   nonnegative generalized null vectors at rho are plain eigenvectors,
        and the access-closure of the basic classes carries no distinguished
        eigenvalue below rho
    c   no x >= 0 has (P - rho*I)x nonnegative and nonzero

    a and b are read off P's record; c is one LP (the face probe at rho).
    """

    a: bool
    b: bool
    c: bool


def zero_intersection_conditions(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> ZeroIntersectionReport:
    """Evaluate all three conditions (exact; needs a rational spectral radius)."""
    if P.mode != RATIONAL:
        raise InvalidInput("zero-intersection conditions run in rational mode only")
    rho = spectral_radius(P, tol)
    if not isinstance(rho, Fraction):
        raise InvalidInput("zero-intersection conditions need an exact rational spectral radius")
    tax = taxonomy(P, tol)
    # the classes with access to a basic class; their radii are at most rho
    closure = tax.analysis.accessors_mask(sum(1 << c for c, flag in enumerate(tax.basic) if flag))
    # rho_in_sigma1 of P^T: the same classes and radii with access reversed,
    # so every basic class must be initial
    cond_a = all(initial for initial, basic in zip(tax.initial, tax.basic) if basic)
    # the largest order of a nonnegative generalized eigenvector at rho is
    # the longest chain of basic classes (Rothblum's index theorem), so all
    # of them are eigenvectors iff every basic class is distinguished; and a
    # class of the closure below rho must not be distinguished
    cond_b = all(tax.distinguished[c] == tax.basic[c] for c in range(len(tax.radii)) if closure >> c & 1)
    cond_c = len(solvable_face_probe(P, rho, tol)) == 0
    return ZeroIntersectionReport(cond_a, cond_b, cond_c)


@dataclass(frozen=True)
class BoundaryReport:
    """The image of x under (R*I - P) for finite upper number R lands on the
    relative boundary of the face of x; it generates the whole face exactly
    when the local radius sits strictly below R."""

    b: ConeVector
    on_boundary: bool
    strict_iff: bool


def boundary_report(P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL) -> BoundaryReport:
    require_operand(P, x)
    if x.is_zero():
        raise InvalidInput("boundary analysis needs a nonzero vector")
    cw = cw_numbers(P, x, tol)
    if cw.R_upper == math.inf:
        raise InvalidInput("the image leaves the face of x (upper number infinite)")
    b = snap_cone(P.shifted_apply(x.entries, cw.R_upper, -1), P.mode, tol)
    on_boundary = support(b) < support(x)
    tax = taxonomy(P, tol)
    closure_is_face = (
        not b.is_zero() and smallest_initial_superset(tax.analysis, support(b)) == support(x)
    )
    strict = tax.local_sign(support(x), cw.R_upper) < 0  # rho_x < R
    return BoundaryReport(b, on_boundary, strict == closure_is_face)


@dataclass(frozen=True)
class PowerLimitReport:
    exists: bool  # ground truth from the eigencomponent decomposition
    orbit_evidence: Optional[bool]  # advisory: did the scaled orbit settle?


def power_limit_exists(
    P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> PowerLimitReport:
    """Does (P/rho_x)^k x converge?  True iff the only present component of x
    on the modulus-rho_x circle is an honest eigenvector at rho_x itself."""
    require_operand(P, x)
    if x.is_zero():
        raise InvalidInput("power limit needs a nonzero vector")
    rho_x = local_spectral_radius(P, x, tol)
    if rho_x <= 0:
        raise InvalidInput("power limit needs a positive local spectral radius")
    dec = oracle.decompose_generalized(P, x, tol)
    rho_f = float(rho_x)
    # every component on or above the circle must be rho_x itself, of order one
    places = [(comp.relative_to(rho_f, tol), comp.order) for comp in dec.present()]
    exists = all(is_rho and order <= 1 for (sign, is_rho), order in places if sign >= 0)
    return PowerLimitReport(exists, _orbit_evidence(P, x, rho_f, tol))


def _orbit_evidence(P, x, rho_f: float, tol: Tolerance) -> Optional[bool]:
    a = P.to_numpy() / rho_f
    v = x.to_numpy()
    scale = max(1.0, float(np.max(np.abs(v))))
    stable = 0
    for _ in range(min(tol.power_iters, 2000)):
        w = a @ v
        nrm = float(np.max(np.abs(w)))
        if not math.isfinite(nrm) or nrm > 1e12 * scale:
            return False
        if float(np.max(np.abs(w - v))) <= 1e-9 * max(1.0, nrm):
            stable += 1
            if stable >= 3:
                return True
        else:
            stable = 0
        v = w
    return None
