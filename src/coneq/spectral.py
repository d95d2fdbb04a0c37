"""Spectral quantities tied to the class structure.

Per-class radii come out exactly whenever a diagonal block has constant row
sums (the radius is that sum); otherwise the block's Perron root is found by
power iteration on (block + I), which is primitive for an irreducible block,
and the scalar silently degrades to a float; the structure record then
compares it with a shift under a tolerance (ClassTaxonomy.radius_sign).

The local spectral radius of x is the largest class radius over classes with
access to supp(x); the order of x is the longest access chain of classes at
that radius inside the smallest initial superset of supp(x).  Both facts are
cross-checked against dense eigendecompositions in the test suite.

``taxonomy`` is the one structure record per (matrix, tolerance): classes,
access, radii, flags and distinguished eigenvalues, kept on the matrix; every
query reads it, and ``condense`` and ``class_radii`` run only to build one.
``fv_eigenvector``, ``eq_type2.tracedown_witness`` and
``eq_type2.solve2_above`` share one back-substitution, handed the classes
whose Perron vectors it takes and covering the classes with access to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp, isfinite, log
from operator import mul
from typing import Sequence

from . import oracle
from .classes import ClassAnalysis, ClassTaxonomy, classify, condense
from .core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    NumericFailure,
    Scalar,
    SpectralPair,
    Tolerance,
    np,
    require_operand,
    solve_linear,
    support,
    zero,
)


def _power_iteration_radius(block_rows, tol: Tolerance):
    """Perron root and positive eigenvector of an irreducible nonneg block,
    via power iteration on (block + I); returns (radius, vector) as floats.

    Iterates stay strictly positive, so min_i (Av)_i/v_i <= rho <= max_i
    (Av)_i/v_i sandwiches the root; the gap certifies the error, unlike a
    Cauchy test on successive estimates.  Python floats, so the digits do
    not depend on a BLAS kernel and exact work never loads numpy.
    """
    m = len(block_rows)
    a = [[float(e) for e in row] for row in block_rows]
    for i in range(m):
        a[i][i] += 1.0
    v = [1.0 / m] * m
    for _ in range(tol.power_iters):
        if 0.0 in v:  # an entry underflowed: no positive Perron vector in floats
            break
        w = [sum(map(mul, row, v)) for row in a]
        ratios = [x / y for x, y in zip(w, v)]
        lo, hi, top = min(ratios), max(ratios), max(w)
        if hi - lo <= tol.eig_tol * max(1.0, abs(hi)):
            return (lo + hi) / 2.0 - 1.0, tuple(x / top for x in w)
        v = [x / top for x in w]
    raise NumericFailure("power iteration did not converge within the iteration cap")


def _block(P: NonnegMatrix, cls) -> list:
    """Diagonal block of P on one class (1-based vertices)."""
    return [[P.rows[i - 1][j - 1] for j in cls] for i in cls]


def _block_exact_row_sum(block_rows):
    """The common row sum if the block has constant row sums, else None."""
    sums = [sum(row) for row in block_rows]
    first = sums[0]
    return first if all(s == first for s in sums) else None


def perron_vector_block(block_rows, tol: Tolerance = DEFAULT_TOL):
    """(radius, positive eigenvector) for an irreducible block; exact with the
    all-ones vector when row sums are constant."""
    s = _block_exact_row_sum(block_rows)
    if s is not None:
        one_entry = Fraction(1) if isinstance(s, Fraction) else 1.0
        return s, tuple(one_entry for _ in block_rows)
    return _power_iteration_radius(block_rows, tol)


@lru_cache(maxsize=512)
def class_radii(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Spectral radius of each diagonal block, in class order.

    Exact scalars where possible (1x1 blocks, constant row sums); float from
    power iteration otherwise, even in rational mode.
    """
    return tuple(perron_vector_block(_block(P, cls), tol)[0] for cls in condense(P).classes)


def spectral_radius(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> Scalar:
    return taxonomy(P, tol).rho if P.n else zero(P.mode)  # the record's rho is the int 0 at n = 0


def taxonomy(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> ClassTaxonomy:
    return P.memoized(("taxonomy", tol), lambda: classify(condense(P), class_radii(P, tol), tol))


def local_spectral_radius(P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL) -> Scalar:
    """max class radius over classes with access to supp(x); zero for x = 0."""
    require_operand(P, x)
    if x.is_zero():
        return zero(P.mode)
    tax = taxonomy(P, tol)
    return tax.radii[tax.local_class(support(x))]


def local_radius_estimate(
    P: NonnegMatrix, x: ConeVector, m: int, tol: Tolerance = DEFAULT_TOL
) -> float:
    """||P^m x||^(1/m) with per-step renormalization (float lane).

    Returns 0.0 when the orbit hits zero exactly (the restriction of P to the
    cyclic subspace of x is then nilpotent).
    """
    if m < 1:
        raise InvalidInput("estimate needs at least one step")
    require_operand(P, x)
    if x.is_zero():
        return 0.0
    a = P.to_numpy()
    v = x.to_numpy()
    nrm = float(np.max(np.abs(v)))
    v = v / nrm
    log_total = 0.0
    for _ in range(m):
        v = a @ v
        nrm = float(np.max(np.abs(v)))
        if nrm == 0.0:
            return 0.0
        if not isfinite(nrm):
            raise NumericFailure("orbit overflow despite renormalization")
        v = v / nrm
        log_total += log(nrm)
    return exp(log_total / m)


def distinguished_eigenvalues(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Radii of distinguished classes, deduplicated, ascending.

    These are exactly the eigenvalues admitting a nonnegative eigenvector.
    """
    return taxonomy(P, tol).distinguished_eigenvalues


def _back_substitute(P, tax, targets, lam, share=0) -> tuple:
    """(x, b) >= 0 with (P - lam*I)x = b, supported on the classes with
    access to one of the classes `targets`, each of radius lam.

    Classes are solved downstream first.  Let inflow_c be the sum over the
    classes d already solved of P_cd x_d.  A target takes its block's Perron
    vector, and b_c = inflow_c.  Any other class puts the share `share` of
    its inflow into b_c and solves (lam*I - B_c)x_c for the rest, by exact
    elimination in rational mode.  So the result is exact when P is
    rational, lam is a Fraction and each target's radius is a Fraction (its
    block is a singleton or has constant row sums, and its Perron vector is
    the all-ones vector); floats otherwise.
    """
    an = tax.analysis
    aimed = sum(1 << c for c in targets)
    involved = an.accessors_mask(aimed)
    exact = P.mode == RATIONAL and isinstance(lam, Fraction) and all(
        isinstance(tax.radii[c], Fraction) for c in targets
    )
    mode = RATIONAL if exact else FLOAT
    work = P if mode == P.mode else P.to_float()
    lam_s, share = (lam, Fraction(share)) if exact else (float(lam), float(share))
    keep = 1 - share
    x = [zero(mode)] * P.n
    b = [zero(mode)] * P.n
    solved = []
    for c in reversed(range(an.class_count)):
        if not involved >> c & 1:
            continue
        cls = an.classes[c]
        block = _block(work, cls)
        inflow = [zero(mode) for _ in cls]
        for dcls in solved:
            for bi, i in enumerate(cls):
                row = work.rows[i - 1]
                inflow[bi] += sum(row[j - 1] * x[j - 1] for j in dcls if row[j - 1] != 0)
        solved.append(cls)
        if aimed >> c & 1:
            xs, bs = perron_vector_block(block, tax.tol)[1], inflow
        else:
            mrows = oracle.shifted_image_rows(block, lam_s, sign=-1)  # lam*I - B_c
            xs = solve_linear(mrows, [keep * e for e in inflow], mode)
            if xs is None:
                raise NumericFailure("singular block during back-substitution")
            bs = [share * e for e in inflow]
        for v, xv, bv in zip(cls, xs, bs):
            x[v - 1], b[v - 1] = xv, bv
    return ConeVector(tuple(x), mode), ConeVector(tuple(b), mode)


def fv_eigenvector(
    P: NonnegMatrix, class_index: int, tol: Tolerance = DEFAULT_TOL
) -> ConeVector:
    """Nonnegative eigenvector attached to a distinguished class.

    The class's own block contributes its Perron vector; each class strictly
    above it gets the unique back-substituted block solution.  The support is
    exactly the set of vertices with access to the class.  Exact in rational
    mode whenever the class's own block is a singleton or has constant row
    sums; otherwise the whole vector degrades to floats.
    """
    tax = taxonomy(P, tol)
    k = tax.analysis.class_count
    if not 0 <= class_index < k:
        raise InvalidInput(f"class index {class_index} outside 0..{k - 1}")
    if not tax.distinguished[class_index]:
        raise InvalidInput("eigenvector construction requires a distinguished class")
    return _back_substitute(P, tax, (class_index,), tax.radii[class_index])[0]


def _longest_chain(analysis: ClassAnalysis, members: Sequence[int]) -> int:
    """Longest access chain within the given class indices."""
    if not members:
        return 0
    member_set = set(members)
    best = {}
    for c in sorted(member_set, reverse=True):  # downstream first
        best[c] = 1 + max(
            (best[d] for d in member_set if d != c and analysis.has_access(c, d)),
            default=0,
        )
    return max(best.values())


def spectral_pair(
    P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> SpectralPair:
    """(local spectral radius of x, order of x); (0, 0) for x = 0.

    The order is the longest access chain of classes at the local radius
    inside the smallest initial superset of supp(x).
    """
    require_operand(P, x)
    if x.is_zero():
        return SpectralPair(zero(P.mode), 0)
    tax = taxonomy(P, tol)
    mask = tax.analysis.accessors_mask(tax.analysis.classes_meeting(support(x)))
    members = [c for c in range(tax.analysis.class_count) if mask >> c & 1]
    rho_x = tax.radii[tax.peak_class(mask)]
    at_radius = [c for c in members if tax.radius_sign(c, rho_x) == 0]
    return SpectralPair(rho_x, _longest_chain(tax.analysis, at_radius))


def eigenvalue_index(P: NonnegMatrix, lam: Scalar, tol: Tolerance = DEFAULT_TOL) -> int:
    """Longest access chain of classes whose radius equals lam (0 when none).

    At lam = spectral_radius(P) this is the true index of the eigenvalue (the
    longest chain of basic classes); below the spectral radius it measures
    only the class-level structure visible to the nonnegative orthant, not
    Jordan data hidden inside individual blocks.
    """
    tax = taxonomy(P, tol)
    return _longest_chain(tax.analysis, tax.classes_at(lam))


def max_distinguished_order(
    P: NonnegMatrix, lam: Scalar, tol: Tolerance = DEFAULT_TOL
) -> int:
    """Largest order among nonnegative generalized eigenvectors at lam.

    Computed on the largest initial subset whose classes all have radius at
    most lam: the longest access chain of radius-lam classes inside it.
    Requires lam to be a distinguished eigenvalue.
    """
    tax = taxonomy(P, tol)
    if not tax.is_distinguished_eigenvalue(lam):
        raise InvalidInput("order bound requires a distinguished eigenvalue")
    inside = tax.initial_below(lam, strict=False)
    members = [c for c in inside if tax.radius_sign(c, lam) == 0]
    return _longest_chain(tax.analysis, members)


@dataclass(frozen=True)
class SpectralReport:
    rho: Scalar
    radii: tuple
    distinguished: tuple
    index_at: tuple  # (eigenvalue, chain index) pairs
    max_order_at: tuple  # (eigenvalue, distinguished order bound) pairs


def spectral_report(P: NonnegMatrix, tol: Tolerance = DEFAULT_TOL) -> SpectralReport:
    tax = taxonomy(P, tol)
    rho = spectral_radius(P, tol)
    dvals = tax.distinguished_eigenvalues
    probe_vals = list(dvals)
    if not tax.is_distinguished_eigenvalue(rho):
        probe_vals.append(rho)
    index_at = tuple((v, eigenvalue_index(P, v, tol)) for v in probe_vals)
    max_order_at = tuple((v, max_distinguished_order(P, v, tol)) for v in dvals)
    return SpectralReport(rho, tax.radii, dvals, index_at, max_order_at)
