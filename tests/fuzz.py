"""Seeded random instances.

Matrices come out block upper-triangular in a topological order, with
irreducible constant-row-sum diagonal blocks, so every class radius is an
exact rational (the row sum) and LP cross-checks stay exact.  irregular()
rescales entries so that most blocks lose their constant row sums.
"""

import random
from fractions import Fraction

from coneq.core import DEFAULT_TOL, RATIONAL, ConeVector, NonnegMatrix
from coneq.spectral import class_radii

ROW_SUMS = [
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(5, 2),
    Fraction(3),
]
COUPLINGS = [Fraction(1, 2), Fraction(1), Fraction(2)]
WEIGHTS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def _irreducible_rows(rnd: random.Random, m: int, s: Fraction) -> list:
    """m x m irreducible block with every row summing to s (radius = s)."""
    if m == 1:
        return [[s]]
    keep = [[False] * m for _ in range(m)]
    for i in range(m):
        keep[i][(i + 1) % m] = True  # a full cycle guarantees irreducibility
    for i in range(m):
        for j in range(m):
            if not keep[i][j] and rnd.random() < 0.4:
                keep[i][j] = True
    rows = []
    for i in range(m):
        cols = [j for j in range(m) if keep[i][j]]
        shares = [Fraction(rnd.randint(1, 4)) for _ in cols]
        total = sum(shares)
        row = [Fraction(0)] * m
        for j, share in zip(cols, shares):
            row[j] = s * share / total
        rows.append(row)
    return rows


def fuzz_matrix(rnd: random.Random, n_max: int = 6, n_min: int = 2) -> NonnegMatrix:
    n = rnd.randint(n_min, n_max)
    sizes = []
    left = n
    while left:
        m = rnd.randint(1, min(3, left))
        sizes.append(m)
        left -= m
    blocks = []
    for m in sizes:
        if m == 1 and rnd.random() < 0.2:
            s = Fraction(0)  # an occasional zero singleton class
        else:
            s = rnd.choice(ROW_SUMS)
        blocks.append(_irreducible_rows(rnd, m, s))
    rows = [[Fraction(0)] * n for _ in range(n)]
    offsets = []
    off = 0
    for b in blocks:
        offsets.append(off)
        off += len(b)
    for bi, b in enumerate(blocks):
        o = offsets[bi]
        for i in range(len(b)):
            for j in range(len(b)):
                rows[o + i][o + j] = b[i][j]
    # couple earlier blocks to later ones only: access goes forward
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            for i in range(len(blocks[bi])):
                for j in range(len(blocks[bj])):
                    if rnd.random() < 0.35:
                        rows[offsets[bi] + i][offsets[bj] + j] = rnd.choice(COUPLINGS)
    return NonnegMatrix.make(rows, RATIONAL)


def irregular(rnd: random.Random, P: NonnegMatrix) -> NonnegMatrix:
    """P with every entry scaled by 1 or 2: most blocks lose their constant
    row sums, so their radii come out as floats (irrational in general)."""
    return NonnegMatrix.make([[e * rnd.choice((1, 2)) for e in row] for row in P.rows], RATIONAL)


def fuzz_irreducible(rnd: random.Random, n_max: int = 5) -> NonnegMatrix:
    m = rnd.randint(2, n_max)
    return NonnegMatrix.make(_irreducible_rows(rnd, m, rnd.choice(ROW_SUMS)), RATIONAL)


def fuzz_nilpotent(rnd: random.Random, n_max: int = 5) -> NonnegMatrix:
    n = rnd.randint(2, n_max)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < 0.5:
                rows[i][j] = rnd.choice(COUPLINGS)
    return NonnegMatrix.make(rows, RATIONAL)


def fuzz_vector(rnd: random.Random, n: int, density: float = 0.5) -> ConeVector:
    while True:
        entries = [
            rnd.choice(WEIGHTS) if rnd.random() < density else Fraction(0)
            for _ in range(n)
        ]
        if any(entries):
            return ConeVector.make(entries, RATIONAL)


def lambda_sweep(P: NonnegMatrix, tol=DEFAULT_TOL) -> list:
    """Every class radius +- 1/3, positive ones only, deduplicated."""
    out = []
    for r in class_radii(P, tol):
        for d in (Fraction(-1, 3), Fraction(1, 3)):
            lam = r + d
            if lam > 0 and lam not in out:
                out.append(lam)
    return out
