from collections import Counter
from fractions import Fraction

import pytest

from coneq import cli
from coneq.core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    scalars_equal,
    to_json,
)
from coneq.classes import _sign as record_sign
from coneq.classes import (
    classify,
    condense,
    dual_face,
    is_initial,
    smallest_initial_superset,
)
from coneq.spectral import local_spectral_radius, taxonomy

from fuzz import fuzz_matrix, irregular, rng


def mat(rows):
    return NonnegMatrix.make(rows, RATIONAL)


def scalar_lt(a, b):
    """The removed core.scalar_lt: a < b, and not equal under the tolerance."""
    if scalars_equal(a, b):
        return False
    return a < b


def scalar_le(a, b):
    """The removed core.scalar_le: a < b, or equal under the tolerance."""
    return scalars_equal(a, b) or a < b


def _sign(a, lam):
    """Sign of a - lam by the scalar comparison helpers."""
    return 0 if scalars_equal(a, lam) else (-1 if scalar_lt(a, lam) else 1)


class TestCondense:
    def test_triangular_three_classes(self):
        an = condense(mat([[2, 1, 0], [0, 1, 0], [0, 0, 1]]))
        assert set(an.classes) == {(1,), (2,), (3,)}
        c1, c2, c3 = (an.class_of_vertex(v) for v in (1, 2, 3))
        assert an.has_access(c1, c2)
        assert not an.has_access(c2, c1)
        assert not an.has_access(c1, c3) and not an.has_access(c3, c1)
        assert all(an.has_access(c, c) for c in range(3))
        # topological: access only goes forward
        assert c1 < c2

    def test_swap_is_one_class(self):
        an = condense(mat([[0, 1], [1, 0]]))
        assert an.classes == ((1, 2),)

    def test_zero_matrix_splits_into_singletons(self):
        an = condense(NonnegMatrix.zero_matrix(3, RATIONAL))
        assert set(an.classes) == {(1,), (2,), (3,)}
        for c in range(3):
            for d in range(3):
                assert an.has_access(c, d) == (c == d)

    def test_sources_come_first(self):
        an = condense(mat([[2, 0], [1, 1]]))
        assert an.classes == ((2,), (1,))
        assert an.has_access(0, 1)

    def test_vertex_lookup(self):
        an = condense(mat([[2, 0], [1, 1]]))
        assert an.class_of_vertex(2) == 0
        assert an.class_of_vertex(1) == 1
        with pytest.raises(InvalidInput):
            an.class_of_vertex(0)
        with pytest.raises(InvalidInput):
            an.class_of_vertex(3)

    def test_json_dict_shape(self):
        # the classes and their access relation, as analyze prints them
        d = to_json(cli._cmd_analyze(mat([[1, 1], [0, 1]]), DEFAULT_TOL))
        assert {k: d[k] for k in ("classes", "access")} == {
            "classes": [[1], [2]],
            "access": [[True, True], [False, True]],
        }


def test_access_is_the_reachability_of_the_digraph():
    # condense against a transitive closure of the digraph of P (Warshall,
    # vertex by vertex): u's class has access to v's class iff a path leads
    # from u to v, and two vertices share a class iff each reaches the other
    rnd = rng(37)
    pairs = Counter()
    for _ in range(150):
        P = fuzz_matrix(rnd, n_max=8)
        n = P.n
        reach = [{i} | {j for j in range(n) if P.rows[i][j] != 0} for i in range(n)]
        for k in range(n):
            for i in range(n):
                if k in reach[i]:
                    reach[i] |= reach[k]
        an = condense(P)
        for u in range(n):
            for v in range(n):
                cu, cv = an.vertex_class[u], an.vertex_class[v]
                assert an.has_access(cu, cv) == (v in reach[u]), (P.rows, u + 1, v + 1)
                assert (cu == cv) == (v in reach[u] and u in reach[v]), (P.rows, u + 1, v + 1)
        k = an.class_count
        pairs["with access"] += sum(an.has_access(c, d) for c in range(k) for d in range(c + 1, k))
        pairs["without"] += sum(not an.has_access(c, d) for c in range(k) for d in range(c + 1, k))
    assert min(pairs.values()) >= 100, pairs


class TestInitialSets:
    def test_closure_pulls_in_accessing_vertices(self):
        P = mat([[1, 1], [0, 1]])
        an = condense(P)
        assert smallest_initial_superset(an, {2}) == {1, 2}
        assert smallest_initial_superset(an, set()) == frozenset()

    def test_closure_direction(self):
        an = condense(mat([[1, 0], [1, 2]]))
        assert smallest_initial_superset(an, {1}) == {1, 2}
        assert smallest_initial_superset(an, {2}) == {2}

    def test_is_initial_examples(self):
        an = condense(mat([[1, 1], [0, 1]]))
        assert is_initial(an, {1})
        assert not is_initial(an, {2})
        assert is_initial(an, {1, 2})
        assert is_initial(an, set())

    def test_closure_is_idempotent_and_monotone(self):
        rnd = rng(31)
        for _ in range(40):
            P = fuzz_matrix(rnd)
            an = condense(P)
            small = {i for i in range(1, P.n + 1) if rnd.random() < 0.3}
            big = small | {i for i in range(1, P.n + 1) if rnd.random() < 0.3}
            cs = smallest_initial_superset(an, small)
            cb = smallest_initial_superset(an, big)
            assert smallest_initial_superset(an, cs) == cs
            assert is_initial(an, cs)
            assert cs <= cb

    def test_initial_family_is_a_lattice(self):
        rnd = rng(32)
        for _ in range(40):
            P = fuzz_matrix(rnd)
            an = condense(P)
            a = smallest_initial_superset(an, {i for i in range(1, P.n + 1) if rnd.random() < 0.4})
            b = smallest_initial_superset(an, {i for i in range(1, P.n + 1) if rnd.random() < 0.4})
            assert is_initial(an, a | b)
            assert is_initial(an, a & b)

    def test_relabeling_permutes_the_closure(self):
        rnd = rng(33)
        for _ in range(25):
            P = fuzz_matrix(rnd)
            n = P.n
            perm = list(range(1, n + 1))
            rnd.shuffle(perm)  # perm[i-1] = image of vertex i
            rows = [[P.entry(perm.index(i) + 1, perm.index(j) + 1) for j in range(1, n + 1)]
                    for i in range(1, n + 1)]
            Q = NonnegMatrix.make(rows, RATIONAL)
            S = {i for i in range(1, n + 1) if rnd.random() < 0.4}
            mapped = {perm[i - 1] for i in S}
            lhs = {perm[i - 1] for i in smallest_initial_superset(condense(P), S)}
            rhs = smallest_initial_superset(condense(Q), mapped)
            assert lhs == rhs


def test_dual_face_is_the_complementary_support():
    assert dual_face({1}, 3) == {2, 3}
    assert dual_face(set(), 2) == {1, 2}
    assert dual_face({1, 2}, 2) == frozenset()


class TestTaxonomy:
    def test_triangular(self):
        t = taxonomy(mat([[2, 1, 0], [0, 1, 0], [0, 0, 1]]))
        # classes in topological order: {3}, {1}, {2}
        assert t.radii == (Fraction(1), Fraction(2), Fraction(1))
        assert t.rho == 2
        assert t.basic == (False, True, False)
        assert t.final == (True, False, True)
        assert t.initial == (True, True, False)
        assert t.distinguished == (True, True, False)
        assert t.distinguished_transpose == (True, True, True)
        assert t.semi_distinguished == (True, True, False)

    def test_identity_everything_flags(self):
        t = taxonomy(mat([[1, 0], [0, 1]]))
        for field in (t.basic, t.final, t.initial, t.distinguished,
                      t.distinguished_transpose, t.semi_distinguished):
            assert field == (True, True)

    def test_jordan_like_pair(self):
        t = taxonomy(mat([[1, 1], [0, 1]]))
        # classes {1} -> {2}, both radius 1
        assert t.basic == (True, True)
        assert t.distinguished == (True, False)
        assert t.distinguished_transpose == (False, True)
        assert t.semi_distinguished == (True, True)

    def test_semi_distinguished_at_rho_is_exactly_basic(self):
        rnd = rng(34)
        for _ in range(40):
            P = fuzz_matrix(rnd)
            t = taxonomy(P)
            at_rho = set(t.classes_at(t.rho, t.semi_distinguished))
            assert at_rho == {c for c, b in enumerate(t.basic) if b}

    def test_derived_sets_match_brute_force_loops(self):
        rnd = rng(36)
        reached = Counter()
        for _ in range(60):
            P = fuzz_matrix(rnd)
            for M in (P, irregular(rnd, P), P.to_float()):
                t = taxonomy(M)
                an = t.analysis
                assert an == condense(M)
                k = an.class_count
                dedup = []
                for r in sorted(r for r, d in zip(t.radii, t.distinguished) if d):
                    if not dedup or not scalars_equal(dedup[-1], r):
                        dedup.append(r)
                assert t.distinguished_eigenvalues == tuple(dedup)
                shifts = [r + d for r in t.radii for d in (0, Fraction(-1, 3), Fraction(1, 3))]
                shifts += [float(r) + d for r in t.radii for d in (-1e-12, 1e-12, 1e-6)]
                for lam in shifts:
                    for c, r in enumerate(t.radii):
                        assert t.radius_sign(c, lam) == _sign(r, lam)
                    for flags in (None, t.distinguished, t.semi_distinguished):
                        at = tuple(
                            c
                            for c in range(k)
                            if (flags is None or flags[c]) and scalars_equal(t.radii[c], lam)
                        )
                        assert t.classes_at(lam, flags) == at
                    at = t.classes_at(lam, t.distinguished)
                    reached["distinguished at"] += bool(at)
                    is_dval = any(scalars_equal(lam, v) for v in t.distinguished_eigenvalues)
                    assert t.is_distinguished_eigenvalue(lam) == is_dval
                    reached["distinguished eigenvalue"] += is_dval
                    for v in range(1, M.n + 1):
                        rho_x = local_spectral_radius(M, ConeVector.unit(M.n, v, M.mode))
                        assert t.radii[t.local_class({v})] is rho_x
                        assert t.local_sign({v}, lam) == _sign(rho_x, lam)
                    # no vertex: the local radius of the zero vector is the
                    # exact 0, compared exactly even with a float shift
                    assert t.local_sign((), lam) == (0 > lam) - (0 < lam)
                    for strict, below in ((True, scalar_lt), (False, scalar_le)):
                        inside = tuple(
                            c
                            for c in range(k)
                            if all(below(t.radii[d], lam) for d in range(k) if an.has_access(d, c))
                        )
                        assert t.initial_below(lam, strict=strict) == inside
                        reached["proper initial"] += 0 < len(inside) < k
                for classes in [(), *((c,) for c in range(k)), tuple(rnd.sample(range(k), rnd.randint(0, k)))]:
                    want = frozenset(
                        v
                        for c in range(k)
                        if any(an.has_access(c, d) for d in classes)
                        for v in an.classes[c]
                    )
                    assert t.accessor_vertices(classes) == want
                    assert t.accessor_vertices(iter(classes)) == want
                    seed = [v for d in classes for v in an.classes[d]]
                    assert want == smallest_initial_superset(an, seed)
        assert reached["distinguished at"] >= 500 and reached["proper initial"] >= 500, reached
        assert reached["distinguished eigenvalue"] >= 500, reached

    def test_classify_rejects_radius_count_mismatch(self):
        an = condense(mat([[1, 0], [0, 1]]))
        with pytest.raises(InvalidInput):
            classify(an, (Fraction(1),))

    def test_json_dict(self):
        d = to_json(cli._cmd_analyze(mat([[2, 0], [1, 1]]), DEFAULT_TOL))["taxonomy"]
        assert d["radii"] == [1, 2]
        assert d["rho"] == 2
        assert d["basic"] == [False, True]
        assert d["distinguished"] == [True, True]
        assert d["distinguished_transpose"] == [False, True]
        assert d["final"] == [False, True]


# B has characteristic polynomial t^3 - 4t^2 + 5t - 8, so an irrational
# radius; C = D B D^-1 has the same radius, which power iteration reads a
# few ulps apart from B's: 3.218776590093319 for B, 3.218776586613453 for
# D = diag(1,2,3) and 3.2187765913590507 for D = diag(1,3,2)
TIED_B = [[1, 2, 0], [0, 1, 3], [1, 0, 2]]


def _tied_pair(d, linked, mode):
    """diag(B, D B D^-1), with entry (1, 4) set to 1 when linked (B's class
    then has access to C's)."""
    rows = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            rows[i][j] = Fraction(TIED_B[i][j])
            rows[i + 3][j + 3] = Fraction(d[i] * TIED_B[i][j], d[j])
    rows[0][3] = Fraction(int(linked))
    return NonnegMatrix.make(rows, mode)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("d", [(1, 2, 3), (1, 3, 2)])
def test_flags_on_radii_tied_under_the_tolerance(d, mode):
    # the two radii differ as floats, yet the record compares them under its
    # tolerance: one distinguished eigenvalue, and neither class strictly
    # above the other
    t = taxonomy(_tied_pair(d, False, mode))
    assert t.radii[0] != t.radii[1] and scalars_equal(t.radii[0], t.radii[1])
    assert len(t.eigen_classes) == 1
    t = taxonomy(_tied_pair(d, True, mode))
    assert t.analysis.classes == ((1, 2, 3), (4, 5, 6)) and t.analysis.has_access(0, 1)
    assert t.basic == (True, True)
    assert t.distinguished == (True, False)
    assert t.distinguished_transpose == (False, True)
    assert t.semi_distinguished == (True, True)
    assert t.eigen_classes == (0,)


def _tied_fuzz(rnd):
    """Blocks drawn from B, its two conjugates above (radii tied under the
    tolerance) and singletons and 2-cycles of row sum 1 or 2 (radii tied
    exactly), each block given an edge into some later blocks."""
    blocks = []
    for _ in range(rnd.randint(2, 5)):
        kind = rnd.randrange(5)
        if kind < 3:
            d = ((1, 1, 1), (1, 2, 3), (1, 3, 2))[kind]
            blocks.append([[Fraction(d[i] * TIED_B[i][j], d[j]) for j in range(3)] for i in range(3)])
        else:
            s = Fraction(rnd.choice((1, 2)))
            blocks.append([[s]] if kind == 3 else [[0, s], [s, 0]])
    offsets = [sum(map(len, blocks[:k])) for k in range(len(blocks) + 1)]
    rows = [[0] * offsets[-1] for _ in range(offsets[-1])]
    for k, block in enumerate(blocks):
        for i, row in enumerate(block):
            rows[offsets[k] + i][offsets[k]:offsets[k + 1]] = row
        for later in offsets[k + 1:-1]:
            if rnd.random() < 0.5:
                rows[offsets[k] + rnd.randrange(len(block))][later] = 1
    return mat(rows)


def _ref_classify(analysis, radii, tol) -> tuple:
    """The flags basic, final, initial, distinguished, distinguished_transpose
    and semi_distinguished as classify computed them before it compared each
    pair of classes once: one pass over the pairs per flag."""
    k = analysis.class_count
    rho = max(radii) if k else 0

    def above_others(c, cut, transpose=False):  # d has access to c (c to d when transpose)
        return all(
            record_sign(radii[d], radii[c], tol) < cut
            for d in range(k)
            if d != c and (analysis.has_access(c, d) if transpose else analysis.has_access(d, c))
        )

    return (
        tuple(record_sign(radii[c], rho, tol) == 0 for c in range(k)),
        tuple(analysis.reach[c] == 1 << c for c in range(k)),
        tuple(all(not analysis.has_access(d, c) for d in range(k) if d != c) for c in range(k)),
        tuple(above_others(c, 0) for c in range(k)),
        tuple(above_others(c, 0, True) for c in range(k)),
        tuple(above_others(c, 1) for c in range(k)),
    )


def _ref_local_class(tax, vertices):
    """ClassTaxonomy.local_class as it was before the record kept its classes
    in order by radius: max by key over the accessor classes."""
    an = tax.analysis
    mask = an.accessors_mask(an.classes_meeting(vertices))
    members = (c for c in range(len(tax.radii)) if mask >> c & 1)
    return max(members, key=tax.radii.__getitem__, default=None)


def test_record_matches_the_three_pass_flags_and_the_max_local_class():
    # fuzz matrices with radii tied exactly and under the tolerance, their
    # irregular twins (float radii) and the float twins of both
    rnd = rng(3301)
    seen = Counter()
    for _ in range(40):
        P = _tied_fuzz(rnd)
        Q = irregular(rnd, P)
        for M in (P, Q, P.to_float(), Q.to_float()):
            tax = taxonomy(M)
            an, radii = tax.analysis, tax.radii
            flags = (tax.basic, tax.final, tax.initial, tax.distinguished, tax.distinguished_transpose,
                     tax.semi_distinguished)
            assert flags == _ref_classify(an, radii, tax.tol), M.rows
            seen[M.mode, "tolerance tie"] += any(
                radii[c] != radii[d] and scalars_equal(radii[c], radii[d])
                for c in range(len(radii)) for d in range(c)
            )
            vertex_sets = [(), *((v,) for v in range(1, M.n + 1)), rnd.sample(range(1, M.n + 1), rnd.randint(1, M.n))]
            for vs in vertex_sets:
                c = tax.local_class(vs)
                assert c == _ref_local_class(tax, vs), (M.rows, vs)
                if c is None:
                    continue
                # no accessor of the local class has a larger radius, so the
                # class is semi-distinguished: eq_type1._query reads its sign
                # among theirs
                assert tax.semi_distinguished[c], (M.rows, vs)
                mask = an.accessors_mask(an.classes_meeting(vs))
                seen[M.mode, "exact tie"] += sum(mask >> d & 1 and radii[d] == radii[c] for d in range(len(radii))) > 1
    assert min(seen[m, t] for m in (RATIONAL, FLOAT) for t in ("tolerance tie", "exact tie")) >= 20, seen
