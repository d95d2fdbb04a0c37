"""Combinatorial structure of a nonnegative matrix over the orthant.

The digraph of P has an edge i -> j exactly when P_ij != 0.  Its strongly
connected components are the *classes*; "alpha has access to beta" means a
path leads from alpha into beta (every class has access to itself).  A set of
vertices is *initial* when it is a union of classes closed under "has access
to": whatever can reach the set is already inside it.  Initial subsets are in
bijection with the P-invariant faces of the orthant, which is why almost all
solvability questions in the other modules reduce to computations here.

Classes are listed in a fixed topological order: access only goes forward
(class c can access class d only if c <= d).  ``condense`` is memoised per
matrix (a matrix hashes once, on first use), so repeated lookups are O(1).

``ClassTaxonomy`` is the one structure record per matrix: the classes and
their access relation, the class radii, the basic, final, initial,
distinguished and semi-distinguished flags, the distinguished eigenvalues,
and the derived sets every decision procedure asks for (the accessors of a
set of classes, and at a shift the flagged classes whose radius equals it
and the classes outside the largest initial set below it).
It keeps the tolerance it was built with and decides every comparison of a
shift with a radius, so no other module compares the two itself; ``_sign``
is the one rule for both those comparisons and the comparisons of two radii
that build the record's flags.  ``spectral.taxonomy`` builds it once per
(matrix, tolerance).

The one-pass rule: a query computes each fact about (P, lambda, b) once and
passes it on.  ``classify`` compares each pair of classes with access once;
``ClassTaxonomy.signs`` compares each class radius it is asked about with a
shift once, ``classes_at`` and ``blocked_mask`` read the class sets at a
shift off those signs, and ``peak_class`` reads the first class of a bitmask
in the record's order by radius instead of comparing radii per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Optional, Sequence

from .core import (
    DEFAULT_TOL,
    InvalidInput,
    NonnegMatrix,
    Tolerance,
    _sign_key,
    scalars_equal,
)


@dataclass(frozen=True)
class ClassAnalysis:
    """Classes of a matrix, their topological order and access relation.

    classes       tuple of classes; each class is a sorted tuple of 1-based vertices
    vertex_class  0-based position v-1 -> index of the class containing vertex v
    reach         per class, a bitmask of the classes it has access to (self included)
    """

    n: int
    classes: tuple
    vertex_class: tuple
    reach: tuple

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_of_vertex(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise InvalidInput(f"vertex {v} outside 1..{self.n}")
        return self.vertex_class[v - 1]

    def has_access(self, c_from: int, c_to: int) -> bool:
        return bool(self.reach[c_from] >> c_to & 1)

    def classes_meeting(self, vertices: Iterable[int]) -> int:
        """Bitmask of classes containing at least one of the given vertices."""
        n, vertex_class = self.n, self.vertex_class
        mask = 0
        for v in vertices:
            if not 1 <= v <= n:
                raise InvalidInput(f"vertex {v} outside 1..{n}")
            mask |= 1 << vertex_class[v - 1]
        return mask

    def accessors_mask(self, target_mask: int) -> int:
        """Bitmask of classes having access to at least one class in target_mask."""
        out = 0
        for c in range(self.class_count):
            if self.reach[c] & target_mask:
                out |= 1 << c
        return out

    def reached_mask(self, source_mask: int) -> int:
        """Bitmask of classes that at least one class in source_mask has access to."""
        return reduce(or_, (r for c, r in enumerate(self.reach) if source_mask >> c & 1), 0)

    def vertices_of_mask(self, mask: int) -> frozenset:
        verts = []
        for c in range(self.class_count):
            if mask >> c & 1:
                verts.extend(self.classes[c])
        return frozenset(verts)


def _tarjan_sccs(adj: Sequence[Sequence[int]]) -> list:
    """Iterative Tarjan; components come out with every component after all
    components it can reach (reverse topological order)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


@lru_cache(maxsize=512)
def condense(P: NonnegMatrix) -> ClassAnalysis:
    """Classes, topological order and transitive access for a matrix."""
    n = P.n
    adj = [[j for j in range(n) if P.rows[i][j] != 0] for i in range(n)]
    sccs = _tarjan_sccs(adj)
    sccs.reverse()  # topological: access goes forward
    classes = tuple(tuple(sorted(v + 1 for v in comp)) for comp in sccs)
    vertex_class = [0] * n
    for ci, comp in enumerate(classes):
        for v in comp:
            vertex_class[v - 1] = ci
    k = len(classes)
    # direct edges between classes, then reachability by reverse-topological DP
    direct = [0] * k
    for i in range(n):
        ci = vertex_class[i]
        for j in adj[i]:
            cj = vertex_class[j]
            if cj != ci:
                direct[ci] |= 1 << cj
    reach = [0] * k
    for c in range(k - 1, -1, -1):
        mask = 1 << c
        rest = direct[c]
        while rest:
            d = (rest & -rest).bit_length() - 1
            mask |= reach[d]
            rest &= rest - 1
        reach[c] = mask
    return ClassAnalysis(n, classes, tuple(vertex_class), tuple(reach))


def smallest_initial_superset(analysis: ClassAnalysis, vertices: Iterable[int]) -> frozenset:
    """Union of all classes having access to the given vertex set."""
    target = analysis.classes_meeting(vertices)
    return analysis.vertices_of_mask(analysis.accessors_mask(target))


def is_initial(analysis: ClassAnalysis, vertices: Iterable[int]) -> bool:
    vs = frozenset(vertices)
    for v in vs:
        if not 1 <= v <= analysis.n:
            raise InvalidInput(f"vertex {v} outside 1..{analysis.n}")
    return smallest_initial_superset(analysis, vs) == vs


def dual_face(vertices: Iterable[int], n: int) -> frozenset:
    """Complementary support set {1..n} minus the given set."""
    vs = frozenset(vertices)
    return frozenset(range(1, n + 1)) - vs


@dataclass(frozen=True)
class ClassTaxonomy:
    """The structure record of a matrix: classes, radii and flags.

    analysis       the classes and their access relation (see condense)
    radii          per-class spectral radius; rho is the largest
    basic          radius equals the spectral radius of the whole matrix
    final          no access to any other class
    initial        no access from any other class
    distinguished  radius strictly exceeds that of every other accessor class
    distinguished_transpose  the same for the transposed access relation
    semi_distinguished       every accessor class has radius <= its own
    eigen_classes  one distinguished class per distinguished eigenvalue (the
                   radii admitting a nonnegative eigenvector), by ascending
                   radius
    by_radius      every class, by descending radius, ties by ascending
                   index: the first class of a mask in this order is the one
                   max(key=radii) picks among its classes
    tol            the tolerance the record was built with: the flags above
                   compare two radii, and radius_sign, which every query
                   below reads, compares a class radius with a shift, both
                   by the rule _sign under this tolerance
    """

    analysis: ClassAnalysis
    radii: tuple
    rho: object
    basic: tuple
    final: tuple
    initial: tuple
    distinguished: tuple
    distinguished_transpose: tuple
    semi_distinguished: tuple
    eigen_classes: tuple
    by_radius: tuple
    tol: Tolerance

    @property
    def distinguished_eigenvalues(self) -> tuple:
        """Radii of distinguished classes, deduplicated, ascending."""
        return tuple(self.radii[c] for c in self.eigen_classes)

    def radius_sign(self, c: Optional[int], lam) -> int:
        """Sign of radius_c - lam: 0 when they are equal under the record's
        tolerance (exactly, when both are rational).  c = None stands for
        no class, whose radius is the exact 0, compared exactly."""
        if c is None:
            return (lam < 0) - (lam > 0)  # the sign of 0 - lam
        return _sign(self.radii[c], lam, self.tol)

    def signs(self, lam, flags: Optional[Sequence[bool]] = None) -> dict:
        """radius_sign of each class the flags mark (every class when flags
        is None), by class index: the one comparison of each of those class
        radii with lam that a query reads."""
        return {c: self.radius_sign(c, lam) for c in range(len(self.radii)) if flags is None or flags[c]}

    def classes_at(self, signs: dict, flags: Optional[Sequence[bool]] = None) -> tuple:
        """Indices of the classes whose radius equals lam, read off signs =
        self.signs(lam, ...) (signs[c] == 0), among those the flags mark
        (every class of signs when flags is None)."""
        return tuple(c for c, s in signs.items() if s == 0 and (flags is None or flags[c]))

    def is_distinguished_eigenvalue(self, lam) -> bool:
        """Does lam equal a distinguished eigenvalue (see radius_sign)?"""
        return any(self.radius_sign(c, lam) == 0 for c in self.eigen_classes)

    def local_class(self, vertices: Iterable[int]) -> Optional[int]:
        """The first class of largest radius among those with access to the
        vertices (None for none): its radius is their local spectral radius."""
        an = self.analysis
        return self.peak_class(an.accessors_mask(an.classes_meeting(vertices)))

    def peak_class(self, mask: int) -> Optional[int]:
        """The first class of largest radius in the bitmask (None for none)."""
        return next((c for c in self.by_radius if mask >> c & 1), None)

    def local_sign(self, vertices: Iterable[int], lam) -> int:
        """Sign of (local spectral radius of the vertices) - lam."""
        return self.radius_sign(self.local_class(vertices), lam)

    def accessor_vertices(self, classes: Iterable[int]) -> frozenset:
        """Vertices of the classes with access to one of the given classes:
        the smallest initial set containing them."""
        mask = 0
        for c in classes:
            mask |= 1 << c
        return self.analysis.vertices_of_mask(self.analysis.accessors_mask(mask))

    def blocked_mask(self, signs: dict, cut: int = 0) -> int:
        """The classes some class c with signs[c] >= cut has access to, as a
        bitmask, where signs = self.signs(lam) holds the sign of every class
        radius minus lam: the complement of the largest initial set of
        classes below lam (strictly when cut = 0, at most lam when cut = 1)."""
        return self.analysis.reached_mask(sum(1 << c for c, s in signs.items() if s >= cut))


def _sign(r, s, tol: Tolerance) -> int:
    """Sign of r - s: 0 when they are equal under tol (exactly, when both are
    rational; two Fractions by one integer, never a Fraction comparison)."""
    if type(r) is Fraction and type(s) is Fraction:
        d = _sign_key(r, s)
        return (d > 0) - (d < 0)
    if scalars_equal(r, s, tol):
        return 0
    return -1 if r < s else 1


def classify(
    analysis: ClassAnalysis, radii: Sequence, tol: Tolerance = DEFAULT_TOL
) -> ClassTaxonomy:
    """Flag every class given its radius (see spectral.class_radii).  Each
    pair of classes with access, d to c, is compared once, s = _sign(radius_d,
    radius_c), and the flags are read off bitmasks of the classes failing
    them: c is not distinguished when s >= 0, nor semi-distinguished when
    s > 0, and d is not distinguished for the transpose when -s >= 0."""
    k = analysis.class_count
    if len(radii) != k:
        raise InvalidInput("one radius per class required")
    rho = max(radii) if k else 0
    reach = analysis.reach
    not_initial = not_dist = not_dist_t = not_semi = 0
    for d in range(k):
        not_initial |= reach[d] & ~(1 << d)
        for c in range(d + 1, k):  # access goes forward
            if reach[d] >> c & 1:
                s = _sign(radii[d], radii[c], tol)
                not_dist |= (s >= 0) << c
                not_semi |= (s > 0) << c
                not_dist_t |= (-s >= 0) << d

    def unset(mask):
        return tuple(not mask >> c & 1 for c in range(k))

    distinguished = unset(not_dist)
    eigen_classes = []
    for c in sorted((c for c in range(k) if distinguished[c]), key=radii.__getitem__):
        if not eigen_classes or _sign(radii[eigen_classes[-1]], radii[c], tol) != 0:
            eigen_classes.append(c)
    basic = tuple(_sign(radii[c], rho, tol) == 0 for c in range(k))
    final = tuple(reach[c] == 1 << c for c in range(k))
    by_radius = tuple(sorted(range(k), key=radii.__getitem__, reverse=True))
    return ClassTaxonomy(
        analysis, tuple(radii), rho, basic, final, unset(not_initial), distinguished,
        unset(not_dist_t), unset(not_semi), tuple(eigen_classes), by_radius, tol,
    )
