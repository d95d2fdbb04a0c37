"""Alternating sequences for shifted matrices s*I - P with P nonnegative.

The sequence attached to x is w_r = (P - s*I)^r x; it is alternating up to
length k when every iterate through w_k is nonnegative and none before w_k is
zero.  An infinite alternating sequence exists iff s < rho(P) -- the witness
is any nonnegative eigenvector with eigenvalue above s -- and this is the
exact complement of s*I - P being an M-matrix.

Finite computation can certify length >= bound by iterating, but infinity
only through the eigenvector witness; results are tagged accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import oracle
from .core import (
    DEFAULT_TOL,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    Scalar,
    Tolerance,
    as_scalar,
    require_operand,
)
from .spectral import (
    max_distinguished_order,
    spectral_pair,
    taxonomy,
)


@dataclass(frozen=True)
class ZMatrix:
    """The shifted matrix s*I - P; s may be any real scalar."""

    s: Scalar
    P: NonnegMatrix

    @staticmethod
    def make(s, P: NonnegMatrix) -> "ZMatrix":
        return ZMatrix(as_scalar(s, P.mode), P)


FINITE = "finite"
AT_LEAST = "at_least"
INFINITE_CERTIFIED = "infinite_certified"


@dataclass(frozen=True)
class AltResult:
    kind: str  # FINITE | AT_LEAST | INFINITE_CERTIFIED
    value: Optional[int]  # the exact length, or the verified lower bound
    iterates_checked: int


def _split_nonneg(entries, mode, tol: Tolerance):
    """(is_nonneg, snapped entries); float entries within eq_tol of zero are
    snapped exactly to it so supports stay meaningful."""
    if mode == RATIONAL:
        return all(e >= 0 for e in entries), tuple(entries)
    scale = max([1.0] + [abs(float(e)) for e in entries])
    out = []
    for e in entries:
        e = float(e)
        if abs(e) <= tol.eq_tol * scale:
            e = 0.0
        if e < 0:
            return False, tuple(entries)
        out.append(e)
    return True, tuple(out)


def _eigenvector_witness(P: NonnegMatrix, x: ConeVector) -> Optional[Fraction]:
    """The exact eigenvalue when x is precisely a rational eigenvector."""
    if P.mode != RATIONAL:
        return None
    img = P.apply(x.entries)
    pivot = next(i for i, e in enumerate(x.entries) if e != 0)
    mu = img[pivot] / x.entries[pivot]
    if all(i == mu * e for i, e in zip(img, x.entries)):
        return mu
    return None


def _alternating_run(P: NonnegMatrix, s, entries, max_steps: int, tol: Tolerance) -> tuple:
    """(length, iterates checked) of the alternating sequence of entries
    under s*I - P, cut at max_steps: a length below max_steps is exact."""
    checked = 0
    for r in range(max_steps):
        if all(e == 0 for e in entries):
            # w_r = 0: length r is maximal (longer runs need w_r nonzero)
            return r, checked
        checked += 1
        ok, entries = _split_nonneg(P.shifted_apply(entries, s, 1), P.mode, tol)
        if not ok:
            return r, checked
    return max_steps, checked


def alt_length(
    Z: ZMatrix, x: ConeVector, max_steps: Optional[int] = None, tol: Tolerance = DEFAULT_TOL
) -> AltResult:
    """Length of the alternating sequence of x under s*I - P.

    Returns the exact finite length when an iterate goes negative or the
    sequence hits zero; otherwise a verified lower bound of max_steps,
    upgraded to a certified infinite sequence when x is exactly an
    eigenvector with eigenvalue above s.
    """
    P, s = Z.P, Z.s
    require_operand(P, x)
    if x.is_zero():
        raise InvalidInput("alternating sequences need a nonzero start vector")
    if max_steps is None:
        max_steps = P.n + 2
    if max_steps < 0:
        raise InvalidInput("step bound must be nonnegative")
    mu = _eigenvector_witness(P, x)
    if mu is not None and mu > s:
        return AltResult(INFINITE_CERTIFIED, None, 0)
    length, checked = _alternating_run(P, s, x.entries, max_steps, tol)
    return AltResult(AT_LEAST if length == max_steps else FINITE, length, checked)


def exists_infinite(Z: ZMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Some x >= 0 has an infinite alternating sequence iff s < rho(P)."""
    return taxonomy(Z.P, tol).local_sign(range(1, Z.P.n + 1), Z.s) > 0


def is_m_matrix(Z: ZMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """s*I - P is an M-matrix iff s >= rho(P), i.e. iff every alternating
    sequence is finite."""
    return not exists_infinite(Z, tol)


@dataclass(frozen=True)
class AlternatingBoundReport:
    """Observed alternating run at the local radius against the two
    structural bounds: the order of x and the largest order of a nonnegative
    generalized eigenvector at that radius.

    gamma_deduction refines the bound by the orders of peripheral
    non-real-radius components of x when the oracle's decomposition is
    clean; None when no such components exist or the ranks were ambiguous.
    """

    m_observed: int
    ord: int
    nu: int
    gamma_deduction: Optional[bool]


def alternating_bound_report(
    P: NonnegMatrix, x: ConeVector, tol: Tolerance = DEFAULT_TOL
) -> AlternatingBoundReport:
    require_operand(P, x)
    if x.is_zero():
        raise InvalidInput("bound report needs a nonzero vector")
    pair = spectral_pair(P, x, tol)
    rho_x = pair.rho
    m_observed = _alternating_run(P, rho_x, x.entries, P.n + 2, tol)[0]
    nu = max_distinguished_order(P, rho_x, tol)
    gamma = _gamma_deduction(P, x, rho_x, pair.order, m_observed, tol)
    return AlternatingBoundReport(m_observed, pair.order, nu, gamma)


def _gamma_deduction(P, x, rho_x, ord_x, m_observed, tol) -> Optional[bool]:
    dec = oracle.decompose_generalized(P, x, tol)
    if dec.ambiguous or dec.merged:
        return None
    # the components on the circle of radius rho_x, but not at rho_x itself
    peripheral_orders = [c.order for c in dec.present() if c.relative_to(float(rho_x), tol) == (0, False)]
    if not peripheral_orders:
        return None
    return m_observed <= ord_x - max(peripheral_orders)
