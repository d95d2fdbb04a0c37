"""Scalars, vectors, matrices and tolerances shared by every other module.

Numbers run in one of two modes: exact rational arithmetic over
``fractions.Fraction`` ("rational") or binary64 floats ("float").  Every
container carries its mode, and operations that combine containers reject
mixed modes at entry.  Eigen-quantities that have no exact representation
(irrational Perron roots) may come back as floats even inside a rational
computation.  Ints and Fractions compare exactly; the comparison helpers
fall back to tolerance-based tests only when an operand is a float.  Public
entry points read a shift with ``as_scalar``, as the CLI reads --lambda.

Vertex indices are 1-based throughout the public API: supports, classes and
initial subsets are sets of integers drawn from {1, .., n}.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
from dataclasses import dataclass, fields, is_dataclass
from decimal import Decimal
from fractions import Fraction
from numbers import Rational, Real
from typing import Iterable, Sequence, Union


def _lazy_numpy():
    """numpy if it is imported already, else a module that imports numpy on
    its first attribute access (the importlib.util.LazyLoader recipe): every
    module takes its ``np`` from here, so exact work never executes numpy."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

Scalar = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"


class InvalidInput(ValueError):
    """Malformed or out-of-contract data: negative entries, shape or mode
    mismatches, violated preconditions."""


class NumericFailure(RuntimeError):
    """A float computation could not reach the requested accuracy."""


@dataclass(frozen=True)
class Tolerance:
    """Numeric knobs used by the float lane.

    eq_tol      entrywise / residual equality threshold
    eig_tol     eigenvalue comparison threshold
    power_iters iteration cap for power-type loops; for the iterative checks
                c and d of the type-1 condition battery, a horizon counted
                in terms of the series, reached by repeated squaring
    """

    eq_tol: float = 1e-9
    eig_tol: float = 1e-8
    power_iters: int = 10000

    def __post_init__(self):
        if isinstance(self.power_iters, bool) or not isinstance(self.power_iters, int):
            raise InvalidInput("power_iters must be an int")
        if not (self.eq_tol > 0 and self.eig_tol > 0 and self.power_iters > 0):  # NaN fails too
            raise InvalidInput("tolerance fields must be strictly positive")


DEFAULT_TOL = Tolerance()


# ---------------------------------------------------------------------------
# scalar helpers


def as_scalar(value, mode: str) -> Scalar:
    """Coerce ``value`` into the requested mode; anything that is not a
    finite real number there (booleans, NumPy's too, included) raises
    InvalidInput.

    Rational mode reads floats and numeric strings as *decimal* literals
    ("0.1" means 1/10, not the nearest binary double); strings of the form
    "p/q" are exact rationals in both modes, and integers of any type and
    Decimals exactly.
    """
    if isinstance(value, bool):
        raise InvalidInput("booleans are not scalars")
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, float):
            if not math.isfinite(value):
                raise InvalidInput("non-finite scalar")
            value = repr(float(value))  # float's repr, for NumPy's float64 too
        elif not isinstance(value, (int, str, Decimal)):
            try:
                value = operator.index(value)  # NumPy's integer types too, exactly
            except TypeError:
                raise InvalidInput(f"cannot read scalar of type {type(value).__name__}") from None
    elif mode != FLOAT:
        raise InvalidInput(f"unknown mode {mode!r}")
    elif not isinstance(value, (float, int, str, Real, Decimal)):  # NumPy's bool is not Real
        raise InvalidInput(f"cannot read scalar of type {type(value).__name__}")
    try:
        if mode == RATIONAL:
            return Fraction(value)
        out = float(Fraction(value) if isinstance(value, str) else value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidInput(f"cannot read scalar {value!r}") from exc
    if not math.isfinite(out):
        raise InvalidInput("non-finite scalar")
    return out


def zero(mode: str) -> Scalar:
    return Fraction(0) if mode == RATIONAL else 0.0


def one(mode: str) -> Scalar:
    return Fraction(1) if mode == RATIONAL else 1.0


def exact_fraction(s: Scalar) -> Fraction:
    """Binary-exact rationalization (floats map to their exact binary value)."""
    return s if isinstance(s, Fraction) else Fraction(s)


def format_scalar(s: Scalar):
    """JSON-friendly form: integers stay numbers, other rationals become
    'p/q' strings (never lossy floats), the infinities become 'inf' and
    '-inf'."""
    if isinstance(s, Fraction):
        return f"{s.numerator}/{s.denominator}" if s.denominator != 1 else int(s)
    if math.isinf(s):
        return "inf" if s > 0 else "-inf"
    return s


def to_json(value):
    """The one JSON encoding of every report: a scalar goes through
    format_scalar, a tuple or list becomes a list, a dict a dict, a
    ConeVector its formatted entries and a dataclass an object of its
    fields; anything else (bools, ints, strings, None) is returned
    unchanged."""
    if value is None or isinstance(value, (int, str)):  # bools are ints
        return value
    if isinstance(value, (Fraction, float)):
        return format_scalar(value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, ConeVector):
        return to_json(value.entries)
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    return value


def scalars_equal(a: Scalar, b: Scalar, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Exact when both sides are rational (ints of any type included),
    |a-b| <= eig_tol*max(1,|a|,|b|) otherwise."""
    # the type test is the fast path: isinstance against an ABC is slow
    if (type(a) is Fraction or isinstance(a, Rational)) and (type(b) is Fraction or isinstance(b, Rational)):
        return a == b
    try:
        fa, fb = float(a), float(b)
    except OverflowError:  # a rational beyond the float range: the same rule, exactly
        fa, fb = Fraction(a), Fraction(b)
        return abs(fa - fb) <= Fraction(tol.eig_tol) * max(1, abs(fa), abs(fb))
    return abs(fa - fb) <= tol.eig_tol * max(1.0, abs(fa), abs(fb))


def scalar_lt(a: Scalar, b: Scalar, tol: Tolerance = DEFAULT_TOL) -> bool:
    if scalars_equal(a, b, tol):
        return False
    return a < b


def scalar_le(a: Scalar, b: Scalar, tol: Tolerance = DEFAULT_TOL) -> bool:
    return scalars_equal(a, b, tol) or a < b


@dataclass(frozen=True, order=False)
class SpectralPair:
    """(local spectral radius, order); compared lexicographically via lex_leq."""

    rho: Scalar
    order: int


def lex_leq(a: SpectralPair, b: SpectralPair, tol: Tolerance = DEFAULT_TOL) -> bool:
    if scalars_equal(a.rho, b.rho, tol):
        return a.order <= b.order
    return a.rho < b.rho


# ---------------------------------------------------------------------------
# vectors


def _read_entries(entries, mode) -> tuple:
    return tuple(as_scalar(e, mode) for e in entries)


@dataclass(frozen=True)
class ConeVector:
    """A vector constrained to the nonnegative orthant.

    Negative entries are input errors, never clamped.  Membership of an index
    in the support requires an exactly nonzero entry in both modes.
    """

    entries: tuple
    mode: str

    def __post_init__(self):
        for e in self.entries:
            if e < 0:
                raise InvalidInput(f"negative entry {e} in nonnegative vector")

    @staticmethod
    def make(entries: Iterable, mode: str = RATIONAL) -> "ConeVector":
        return ConeVector(_read_entries(entries, mode), mode)

    @staticmethod
    def zero_vector(n: int, mode: str = RATIONAL) -> "ConeVector":
        return ConeVector(tuple(zero(mode) for _ in range(n)), mode)

    @staticmethod
    def unit(n: int, i: int, mode: str = RATIONAL) -> "ConeVector":
        """Standard basis vector e_i (1-based i)."""
        if not 1 <= i <= n:
            raise InvalidInput(f"unit index {i} outside 1..{n}")
        return ConeVector(
            tuple(one(mode) if k == i - 1 else zero(mode) for k in range(n)), mode
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def inf_norm(self) -> Scalar:
        if not self.entries:
            return zero(self.mode)
        return max(self.entries)

    def to_numpy(self) -> np.ndarray:
        return np.array([float(e) for e in self.entries], dtype=float)

    def to_float(self) -> "ConeVector":
        if self.mode == FLOAT:
            return self
        return ConeVector(tuple(float(e) for e in self.entries), FLOAT)


def support(v) -> frozenset:
    """{i : v_i != 0}, 1-based."""
    return frozenset(i + 1 for i, e in enumerate(v.entries) if e != 0)


def vec_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def snap_cone(entries: Sequence, mode: str, tol: Tolerance = DEFAULT_TOL) -> ConeVector:
    """Wrap float entries that are nonnegative up to eq_tol noise as a ConeVector.

    Only for internally constructed vectors; genuinely negative entries still
    raise.  Rational entries are never snapped.
    """
    if mode == RATIONAL:
        return ConeVector(tuple(entries), mode)
    scale = max([1.0] + [abs(float(e)) for e in entries])
    out = []
    for e in entries:
        e = float(e)
        if e < 0:
            if -e > tol.eq_tol * scale:
                raise InvalidInput(f"negative entry {e} beyond snapping tolerance")
            e = 0.0
        out.append(e)
    return ConeVector(tuple(out), mode)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class NonnegMatrix:
    """A square entrywise-nonnegative matrix tagged with its numeric mode."""

    rows: tuple  # tuple of n tuples of Scalar
    mode: str

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise InvalidInput("matrix must be square")
            for e in row:
                if e < 0:
                    raise InvalidInput(f"negative entry {e} in nonnegative matrix")

    def __hash__(self) -> int:
        # memoised on first use, not at construction: most matrices built
        # along the way (transposes, submatrices, shifted copies) are never
        # hashed, while the structure caches hash the same matrix many times
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.rows, self.mode))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # only the fields travel: str hashes are salted per process, so the
        # memoised hash must not, and memoized values are rebuilt on demand
        return {"rows": self.rows, "mode": self.mode}

    def memoized(self, key, build):
        """build(), computed on the first call with this key and kept on
        this matrix for as long as it lives.  Only for values derived from
        the matrix and the key alone: the memo sits outside the fields, so
        ==, hash and repr ignore it, and it is not pickled or copied."""
        memo = self.__dict__.get("_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        if key not in memo:
            memo[key] = build()
        return memo[key]

    @staticmethod
    def make(rows: Iterable[Iterable], mode: str = RATIONAL) -> "NonnegMatrix":
        return NonnegMatrix(tuple(_read_entries(r, mode) for r in rows), mode)

    @staticmethod
    def zero_matrix(n: int, mode: str = RATIONAL) -> "NonnegMatrix":
        z = zero(mode)
        return NonnegMatrix(tuple(tuple(z for _ in range(n)) for _ in range(n)), mode)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Scalar:
        """1-based access."""
        return self.rows[i - 1][j - 1]

    def transpose(self) -> "NonnegMatrix":
        return NonnegMatrix(tuple(zip(*self.rows)) if self.rows else (), self.mode)

    def submatrix(self, indices: Sequence[int]) -> "NonnegMatrix":
        """Principal submatrix on the given sorted 1-based indices."""
        idx = [i - 1 for i in indices]
        return NonnegMatrix(
            tuple(tuple(self.rows[i][j] for j in idx) for i in idx), self.mode
        )

    def apply(self, entries: Sequence) -> tuple:
        """Matrix times column vector, on raw entry tuples."""
        return tuple(
            sum((a * x for a, x in zip(row, entries) if a != 0), zero(self.mode))
            for row in self.rows
        )

    def shifted_apply(self, entries: Sequence, lam: Scalar, sign: int) -> tuple:
        """sign*(P - lam*I) times raw entries, sign = +-1: the one product of
        the shifted matrix with a vector.  Sign -1 computes lam*x_i - (Px)_i
        rather than negating (Px)_i - lam*x_i, so a float zero stays +0.0."""
        img = self.apply(entries)
        if sign > 0:
            return tuple(p - lam * e for p, e in zip(img, entries))
        return tuple(lam * e - p for p, e in zip(img, entries))

    def to_numpy(self) -> np.ndarray:
        """The entries as one read-only float array, built once per matrix."""
        return self.memoized("numpy", self._read_only_numpy)

    def _read_only_numpy(self) -> np.ndarray:
        a = np.array([[float(e) for e in row] for row in self.rows], dtype=float)
        a.flags.writeable = False
        return a

    def to_float(self) -> "NonnegMatrix":
        if self.mode == FLOAT:
            return self
        return NonnegMatrix(
            tuple(tuple(float(e) for e in row) for row in self.rows), FLOAT
        )


def require_operand(P: NonnegMatrix, x: ConeVector) -> None:
    """x can meet P in one computation: the same mode and the same size."""
    if P.mode != x.mode:
        raise InvalidInput(f"mixed numeric modes in one computation: {sorted({P.mode, x.mode})}")
    if P.n != x.n:
        raise InvalidInput(f"dimension mismatch: matrix {P.n}, vector {x.n}")


def saturate(P: NonnegMatrix, x: ConeVector) -> ConeVector:
    """Apply (I + P)^(n-1) to x.

    The result has the same local spectral radius and order as x, and its
    support spans the smallest P-invariant face of the orthant containing x.
    When only that support is needed, use the class-graph closure instead;
    this dense form is for numeric cross-checks.
    """
    require_operand(P, x)
    entries = x.entries
    for _ in range(P.n - 1):
        entries = vec_add(entries, P.apply(entries))
    return ConeVector(entries, x.mode)


# ---------------------------------------------------------------------------
# exact / float dense linear solve (shared plumbing)


def solve_linear(rows: Sequence[Sequence], rhs: Sequence, mode: str):
    """Solve a square linear system; returns a list of entries or None if the
    matrix is singular (rational) / numerically singular (float)."""
    n = len(rhs)
    if mode == RATIONAL:
        a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
            inv = Fraction(1) / a[col][col]
            a[col] = [e * inv for e in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [e - f * p for e, p in zip(a[r], a[col])]
        return [a[i][n] for i in range(n)]
    m = np.array([[float(e) for e in r] for r in rows], dtype=float)
    v = np.array([float(e) for e in rhs], dtype=float)
    try:
        sol = np.linalg.solve(m, v)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return [float(s) for s in sol]
