"""Frozen, seeded instance generator for the benchmark.

Pure Python over ``fractions.Fraction``: it imports neither coneq nor numpy,
so raw data can be made before the set-up clock starts, and it does not
share code with ``tests/fuzz.py``, so changes to the test fuzzers cannot
shift benchmark inputs.  Do not change the order of random draws here
without expecting every benchmark input (and its digest) to change.

Matrices are block upper-triangular in a topological order with
irreducible diagonal blocks, so the blocks are exactly the classes of the
matrix and their access relation is known here without asking coneq.
"Regular" blocks have constant row sums (an exact rational radius, as in
the acceptance generator); "irregular" blocks do not, so their Perron root
is in general irrational and coneq falls back to a float radius.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction

ROW_SUMS = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)]
COUPLINGS = [F(1, 2), F(1), F(2)]
WEIGHTS = [F(1, 2), F(1), F(3, 2), F(2), F(3)]
THIRD = F(1, 3)


@dataclass(frozen=True)
class Instance:
    """Raw rows plus the class facts the generator knows by construction.

    blocks  per class, its 0-based vertex indices, in topological order
    radii   per class, its radius (Fraction, or float for irregular blocks)
    reach   per class, bitmask of the classes it has access to (self included)
    """

    rows: tuple
    blocks: tuple
    radii: tuple
    reach: tuple

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def rho(self):
        return max(self.radii)

    def classes_meeting(self, support) -> int:
        mask = 0
        for c, blk in enumerate(self.blocks):
            if any(support[v] for v in blk):
                mask |= 1 << c
        return mask

    def accessors(self, target_mask: int) -> int:
        return sum(1 << c for c, r in enumerate(self.reach) if r & target_mask)

    def local_radius(self, b) -> object:
        """max radius over classes with access to supp(b); 0 for b = 0."""
        mask = self.accessors(self.classes_meeting([e != 0 for e in b]))
        return max((self.radii[c] for c in range(len(self.blocks)) if mask >> c & 1), default=F(0))

    def tracedown_classes(self) -> int:
        """Classes that are basic and distinguished for the transposed access
        relation (every other class they reach has a smaller radius)."""
        k = len(self.blocks)
        return sum(
            self.radii[c] == self.rho
            and all(self.radii[d] < self.radii[c] for d in range(k) if d != c and self.reach[c] >> d & 1)
            for c in range(k)
        )

    def float_eigenvector_at(self, lam) -> bool:
        """Some class of radius lam has an irregular (float-radius) class with
        access to it, so coneq builds that class's eigenvector in floats."""
        k = len(self.blocks)
        return any(
            self.radii[c] == lam and not isinstance(self.radii[d], Fraction) and self.reach[d] >> c & 1
            for c in range(k)
            for d in range(k)
            if d != c
        )

    def peak_chain(self) -> bool:
        """Two classes of radius rho, one with access to the other: rho is
        then a defective (repeated, non-semisimple) eigenvalue."""
        k = len(self.blocks)
        return any(
            self.radii[c] == self.rho == self.radii[d] and self.reach[c] >> d & 1
            for c in range(k)
            for d in range(k)
            if d != c
        )

    def closure(self, vertices) -> frozenset:
        """Smallest initial superset of a set of 1-based vertices."""
        flags = [False] * self.n
        for v in vertices:
            flags[v - 1] = True
        mask = self.accessors(self.classes_meeting(flags))
        return frozenset(
            v + 1 for c, blk in enumerate(self.blocks) if mask >> c & 1 for v in blk
        )


def _regular_rows(rnd: random.Random, m: int, s: Fraction) -> list:
    """m x m irreducible block with every row summing to s."""
    if m == 1:
        return [[s]]
    keep = _irreducible_pattern(rnd, m)
    rows = []
    for i in range(m):
        cols = [j for j in range(m) if keep[i][j]]
        shares = [F(rnd.randint(1, 4)) for _ in cols]
        total = sum(shares)
        row = [F(0)] * m
        for j, share in zip(cols, shares):
            row[j] = s * share / total
        rows.append(row)
    return rows


def _irregular_rows(rnd: random.Random, m: int) -> list:
    """m x m irreducible block (m >= 2) whose row sums are not all equal."""
    keep = _irreducible_pattern(rnd, m)
    rows = [[F(rnd.randint(1, 4), 2) if keep[i][j] else F(0) for j in range(m)] for i in range(m)]
    if len({sum(r) for r in rows}) == 1:
        rows[0][1 % m] += F(1, 2)
    return rows


def _irreducible_pattern(rnd: random.Random, m: int) -> list:
    keep = [[False] * m for _ in range(m)]
    for i in range(m):
        keep[i][(i + 1) % m] = True  # a full cycle guarantees irreducibility
    for i in range(m):
        for j in range(m):
            if not keep[i][j] and rnd.random() < 0.4:
                keep[i][j] = True
    return keep


def perron_root(rows) -> float:
    """Perron root of an irreducible nonnegative block by power iteration on
    block + I (primitive), stopped when the Collatz-Wielandt bounds meet."""
    m = len(rows)
    a = [[float(e) + (1.0 if i == j else 0.0) for j, e in enumerate(r)] for i, r in enumerate(rows)]
    v = [1.0] * m
    for _ in range(100000):
        w = [sum(a[i][j] * v[j] for j in range(m)) for i in range(m)]
        ratios = [w[i] / v[i] for i in range(m)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= 1e-13 * hi:
            return (lo + hi) / 2.0 - 1.0
        top = max(w)
        v = [e / top for e in w]
    raise RuntimeError("power iteration did not converge")


def block_matrix(
    rnd: random.Random, n_min: int, n_max: int, max_block: int = 3, irregular: float = 0.0
) -> Instance:
    """The acceptance generator (irregular=0, max_block=3), optionally with a
    share of irregular blocks among blocks of size >= 2."""
    n = rnd.randint(n_min, n_max)
    sizes = []
    left = n
    while left:
        m = rnd.randint(1, min(max_block, left))
        sizes.append(m)
        left -= m
    blocks, radii = [], []
    for m in sizes:
        if m == 1 and rnd.random() < 0.2:
            s = F(0)  # an occasional zero singleton class
            blocks.append(_regular_rows(rnd, m, s))
            radii.append(s)
        elif m > 1 and irregular and rnd.random() < irregular:
            rows = _irregular_rows(rnd, m)
            blocks.append(rows)
            radii.append(perron_root(rows))
        else:
            s = rnd.choice(ROW_SUMS)
            blocks.append(_regular_rows(rnd, m, s))
            radii.append(s)
    rows = [[F(0)] * n for _ in range(n)]
    offsets, off = [], 0
    for b in blocks:
        offsets.append(off)
        off += len(b)
    for bi, b in enumerate(blocks):
        o = offsets[bi]
        for i in range(len(b)):
            for j in range(len(b)):
                rows[o + i][o + j] = b[i][j]
    k = len(blocks)
    direct = [0] * k
    # couple earlier blocks to later ones only: access goes forward
    for bi in range(k):
        for bj in range(bi + 1, k):
            for i in range(len(blocks[bi])):
                for j in range(len(blocks[bj])):
                    if rnd.random() < 0.35:
                        rows[offsets[bi] + i][offsets[bj] + j] = rnd.choice(COUPLINGS)
                        direct[bi] |= 1 << bj
    reach = [0] * k
    for c in range(k - 1, -1, -1):
        mask = 1 << c
        for d in range(c + 1, k):
            if direct[c] >> d & 1:
                mask |= reach[d]
        reach[c] = mask
    members = tuple(tuple(range(offsets[c], offsets[c] + len(blocks[c]))) for c in range(k))
    return Instance(
        tuple(tuple(r) for r in rows), members, tuple(radii), tuple(reach)
    )


def cone_vector(rnd: random.Random, n: int, density: float = 0.5) -> tuple:
    while True:
        entries = tuple(rnd.choice(WEIGHTS) if rnd.random() < density else F(0) for _ in range(n))
        if any(entries):
            return entries


def shifts_around(radii) -> list:
    """Every class radius -+ 1/3, positive ones only, deduplicated, in class
    order (the acceptance sweep).  Float radii give the nearby rational
    shift ``Fraction(r).limit_denominator(1000) -+ 1/3``."""
    out = []
    for r in radii:
        base = r if isinstance(r, Fraction) else Fraction(r).limit_denominator(1000)
        for d in (-THIRD, THIRD):
            lam = base + d
            if lam > 0 and lam not in out:
                out.append(lam)
    return out


def digest(obj) -> str:
    """Short stable hash of raw inputs (Fractions, floats, strings, tuples)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]
