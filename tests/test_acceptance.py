"""Acceptance gate: one test per criterion, one verdict line per criterion.

Each test prints ``criterion <name>: PASS (...)`` or ``FAIL`` straight to the
terminal (capture suspended) so a ``pytest -v`` log carries an explicit
verdict line for every criterion alongside the per-test outcome.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from coneq.core import DEFAULT_TOL as TOL, FLOAT, ConeVector, NonnegMatrix, support
from coneq.classes import condense, smallest_initial_superset
from coneq import (
    alternating,
    cli,
    collatz_wielandt,
    eq_type1,
    eq_type2,
    oracle,
    spectral,
)

from fuzz import fuzz_irreducible, fuzz_matrix, fuzz_vector, lambda_sweep, rng

F = Fraction

# One shared pool: criteria reuse prefixes of it, which also keeps the
# per-matrix condensation/radii caches hot across tests.
_prnd = rng(2026)
POOL = [fuzz_matrix(_prnd) for _ in range(1000)]


@contextmanager
def criterion(name: str, stats: dict, cap):
    def report(verdict):
        joined = ", ".join(f"{k}={v}" for k, v in stats.items())
        with cap.disabled():
            print(f"criterion {name}: {verdict} ({joined})")

    try:
        yield
    except BaseException:
        report("FAIL")  # with the stats gathered before the failure
        raise
    report("PASS")


def _rhs(b):
    return list(b.entries)


def _peak_class(P):
    """A distinguished class attaining the spectral radius (always exists)."""
    tax = spectral.taxonomy(P)
    rho = spectral.spectral_radius(P)
    for c, flag in enumerate(tax.distinguished):
        if flag and tax.radii[c] == rho:
            return c
    return None


def test_diagonal_gap_instance_decides_fast(capsys):
    stats = {}
    with criterion("diagonal-gap-instance", stats, capsys):
        P = NonnegMatrix.make(
            [[F(0), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(2)]], "rational"
        )
        b = ConeVector.make([F(0), F(0), F(1)], "rational")
        assert eq_type1.solvable1(P, F(1), b) is False
        assert spectral.local_spectral_radius(P, b) == F(2)
        # the sign-unconstrained system is solvable all the same
        rows = oracle.shifted_image_rows(P, F(1), sign=-1)
        signed = oracle.solve_signed(rows, _rhs(b))
        assert signed is not None
        assert all(
            sum(rows[i][j] * signed[j] for j in range(3)) == b.entries[i]
            for i in range(3)
        )
        assert any(e < 0 for e in signed)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            eq_type1.solvable1(P, F(1), b)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, best
        stats["decision_us"] = round(best * 1e6, 1)


def test_shift_sweep_battery_matches_lp_oracle(capsys):
    stats = {}
    with criterion("shift-sweep-battery-vs-lp", stats, capsys):
        t0 = time.perf_counter()
        vrnd = rng(3001)
        cases = 0
        for P in POOL:
            for lam in lambda_sweep(P):
                b = fuzz_vector(vrnd, P.n)
                rep = eq_type1.solvability_conditions(P, lam, b)
                lp = oracle.feasible_nonneg_solution(
                    oracle.shifted_image_rows(P, lam, sign=-1), _rhs(b)
                ).feasible
                assert rep.consistent, (P.rows, lam, b.entries)
                assert (rep.b, rep.g, rep.h, rep.j) == (lp,) * 4, (P.rows, lam)
                cases += 1
        elapsed = time.perf_counter() - t0
        stats.update(matrices=len(POOL), cases=cases, seconds=round(elapsed, 2))
        assert cases >= 1000
        assert elapsed < 20.0, elapsed


def test_minimal_solution_structure(capsys):
    stats = {}
    with criterion("minimal-solution-structure", stats, capsys):
        vrnd = rng(3003)
        solvable_cases = eigen_cases = unique_cases = 0
        for P in POOL[:200]:
            analysis = condense(P)
            dvals = [v for v in spectral.distinguished_eigenvalues(P) if v > 0]
            shifts = lambda_sweep(P)
            shifts += [v for v in dvals if v not in shifts]
            for lam in shifts:
                b = fuzz_vector(vrnd, P.n)
                rep = eq_type1.solve1(P, lam, b)
                if not rep.solvable:
                    continue
                solvable_cases += 1
                x0 = rep.x0
                img = P.apply(x0.entries)
                assert all(
                    lam * x0.entries[i] - img[i] - b.entries[i] == 0 for i in range(P.n)
                )
                assert rep.residual_norm == 0
                assert support(x0) == smallest_initial_superset(analysis, support(b))
                if any(v == lam for v in dvals):
                    # a free eigenvector direction must extend the solution
                    eigen_cases += 1
                    assert rep.unique is False and rep.eigen_freedom
                    v = spectral.fv_eigenvector(P, rep.eigen_freedom[0])
                    y = [x0.entries[i] + v.entries[i] for i in range(P.n)]
                    imgy = P.apply(y)
                    assert all(
                        lam * y[i] - imgy[i] - b.entries[i] == 0 for i in range(P.n)
                    )
                else:
                    # no nonzero kernel direction inside the cone
                    unique_cases += 1
                    assert rep.unique is True and rep.eigen_freedom == ()
                    n = P.n
                    rows = [
                        (
                            [(lam if i == j else F(0)) - P.rows[i][j] for j in range(n)],
                            F(0),
                        )
                        for i in range(n)
                    ]
                    rows.append(([F(1)] * n, F(1)))
                    assert not oracle.lp_feasible(
                        oracle.LPProblem.build(n, eq_rows=rows)
                    ).feasible
        assert solvable_cases >= 200 and eigen_cases >= 20 and unique_cases >= 150
        stats.update(
            solvable=solvable_cases, eigen_freedom=eigen_cases, unique=unique_cases
        )


def test_above_shift_regime_matches_lp_oracle(capsys):
    stats = {}
    with criterion("above-shift-regime-vs-lp", stats, capsys):
        vrnd = rng(3004)
        cases = constructed = 0
        for P in POOL:
            b = fuzz_vector(vrnd, P.n)
            rho_b = spectral.local_spectral_radius(P, b)
            rho = spectral.spectral_radius(P)
            lams = [rho_b + F(1, 3)]
            mid = (rho_b + rho) / 2
            if mid > rho_b and mid not in lams:
                lams.append(mid)
            for v in spectral.distinguished_eigenvalues(P):
                if v > rho_b and v not in lams:
                    lams.append(v)
            for lam in lams:
                comb = eq_type2.combinatorial_solvable_above(P, lam, b)
                lp = oracle.feasible_nonneg_solution(
                    oracle.shifted_image_rows(P, lam, sign=1), _rhs(b)
                ).feasible
                assert comb == lp, (P.rows, lam, b.entries)
                cases += 1
                if comb:
                    constructed += 1
                    x = eq_type2.solve2_above(P, lam, b)
                    img = P.apply(x.entries)
                    assert all(
                        img[i] - lam * x.entries[i] - b.entries[i] == 0
                        for i in range(P.n)
                    )
                    pair = spectral.spectral_pair(P, x)
                    assert pair.rho == lam and pair.order == 1
        assert cases >= 1000 and constructed >= 50
        stats.update(cases=cases, constructed=constructed)


def test_face_probe_at_peak_radius_and_tracedown(capsys):
    stats = {}
    with criterion("face-probe-at-peak-radius", stats, capsys):
        witnesses = 0
        for P in POOL[:500]:
            rho = spectral.spectral_radius(P)
            probe = eq_type2.solvable_face_probe(P, rho)
            analysis = condense(P)
            assert smallest_initial_superset(analysis, probe) == eq_type2.necessary_face(
                P, rho
            )
            tax = spectral.taxonomy(P)
            for c in range(analysis.class_count):
                if not (tax.basic[c] and tax.distinguished_transpose[c]):
                    continue
                witnesses += 1
                x, b = eq_type2.tracedown_witness(P, c)
                img = P.apply(x.entries)
                assert all(
                    img[i] - rho * x.entries[i] - b.entries[i] == 0 for i in range(P.n)
                )
                for d in range(analysis.class_count):
                    verts = analysis.classes[d]
                    has_b = any(b.entries[v - 1] != 0 for v in verts)
                    if analysis.has_access(d, c):
                        assert all(x.entries[v - 1] > 0 for v in verts)
                        assert has_b == (d != c)
                    else:
                        assert all(x.entries[v - 1] == 0 for v in verts)
                        assert not has_b
        assert witnesses >= 300
        stats.update(matrices=500, tracedown_witnesses=witnesses)


def test_certified_shifts_below_peak_match_basic_reach(capsys):
    stats = {}
    with criterion("certified-shifts-below-peak", stats, capsys):
        suite = cli.PROPERTY_SUITES["cor4.20"]
        probed = 0
        for P in POOL[:200]:
            out = suite(P, TOL)
            assert out["pass"], out
            # three positive shifts below rho, none when rho = 0
            shifts = [F(s) for s in out["samples"]]
            assert len(shifts) == (3 if spectral.spectral_radius(P, TOL) > 0 else 0)
            assert all(s > 0 for s in shifts)
            probed += len(shifts)
        stats.update(matrices=200, shifts=probed)


def test_resolvent_window_on_irreducibles(capsys):
    stats = {}
    with criterion("resolvent-window-bisection", stats, capsys):
        irnd = rng(4007)
        vrnd = rng(4008)
        deepest = 0
        for _ in range(100):
            P = fuzz_irreducible(irnd)
            rho = spectral.spectral_radius(P)
            found = None
            for k in range(1, 21):
                lam = rho * (1 - F(1, 2**k))
                if lam <= 0:
                    continue
                rs = eq_type2.resolvent_sign(P, lam)
                if rs.inverse_positive and rs.adjugate_positive:
                    found = lam
                    deepest = max(deepest, k)
                    break
            assert found is not None, P.rows
            for _ in range(5):
                b = fuzz_vector(vrnd, P.n)
                assert oracle.feasible_nonneg_solution(
                    oracle.shifted_image_rows(P, found, sign=1), _rhs(b)
                ).feasible
        stats.update(matrices=100, rhs_each=5, deepest_halving=deepest)


def test_positive_subinvariant_attainment(capsys):
    stats = {}
    with criterion("positive-subinvariant-attainment", stats, capsys):
        attained = 0
        for P in POOL[:500]:
            flag = collatz_wielandt.rho_in_sigma1(P)
            rho = spectral.spectral_radius(P)
            n = P.n
            rows = [([F(1) if j == i else F(0) for j in range(n)], F(1)) for i in range(n)]
            rows += [
                ([(rho if j == i else F(0)) - P.rows[i][j] for j in range(n)], F(0))
                for i in range(n)
            ]
            lp = oracle.lp_feasible(oracle.LPProblem.build(n, ge_rows=rows)).feasible
            assert flag == lp, P.rows
            # independent face route: accessors of distinguished basic classes
            # plus classes out of reach of every basic class exhaust everything
            analysis = condense(P)
            tax = spectral.taxonomy(P)
            k = analysis.class_count
            dist_basic = basic_reach = 0
            for c in range(k):
                if tax.basic[c]:
                    basic_reach |= analysis.reach[c]
                    if tax.distinguished[c]:
                        dist_basic |= 1 << c
            i1 = analysis.accessors_mask(dist_basic)
            i2 = ~basic_reach & ((1 << k) - 1)
            assert flag == ((i1 | i2) == (1 << k) - 1)
            attained += flag
        assert 0 < attained < 500
        stats.update(matrices=500, attained=attained)


def test_zero_intersection_equivalence(capsys):
    stats = {}
    with criterion("zero-intersection-equivalence", stats, capsys):
        trues = 0
        for P in POOL[:300]:
            rep = collatz_wielandt.zero_intersection_conditions(P)
            assert rep.a == rep.b == rep.c, P.rows
            trues += rep.a
        assert 0 < trues < 300
        stats.update(matrices=300, holds=trues)


def test_sandwich_and_eigen_decompositions(capsys):
    stats = {}
    with criterion("sandwich-and-decompositions", stats, capsys):
        vrnd = rng(5010)
        pairs = 0
        for P in POOL:
            for _ in range(2):
                x = fuzz_vector(vrnd, P.n)
                rep = collatz_wielandt.cw_numbers(P, x)
                assert rep.r_lower <= rep.rho_x
                assert rep.R_upper == math.inf or rep.rho_x <= rep.R_upper
                pairs += 1
        assert pairs == 2000

        # engineered splits: eigenvector + strictly-subcritical remainder
        srnd = rng(5011)
        sub_splits = 0
        for P in POOL[:150]:
            rho = spectral.spectral_radius(P)
            if rho == 0:
                continue
            c = _peak_class(P)
            if c is None:
                continue
            u = spectral.fv_eigenvector(P, c)
            if u.mode != P.mode:
                continue
            sset = eq_type1.solvable_set(P, rho)
            if sset:
                raw = fuzz_vector(srnd, P.n)
                b = ConeVector.make(
                    [e if i + 1 in sset else F(0) for i, e in enumerate(raw.entries)],
                    P.mode,
                )
            else:
                b = ConeVector.zero_vector(P.n, P.mode)
            if b.is_zero():
                x = u
            else:
                w = eq_type1.minimal_solution(P, rho, b)
                x = ConeVector.make(
                    [a + e for a, e in zip(u.entries, w.entries)], P.mode
                )
            x1, x2 = collatz_wielandt.decompose_subinvariant(P, x)
            assert all(a == p + q for a, p, q in zip(x.entries, x1.entries, x2.entries))
            img1 = P.apply(x1.entries)
            assert all(img1[i] == rho * x1.entries[i] for i in range(P.n))
            if not x2.is_zero():
                assert spectral.local_spectral_radius(P, x2) < rho
                img2 = P.apply(x2.entries)
                assert all(img2[i] <= rho * x2.entries[i] for i in range(P.n))
                sub_splits += 1
        assert sub_splits >= 40

        srnd = rng(5012)
        super_splits = 0
        for P in POOL[:300]:
            if super_splits >= 25:
                break
            rho = spectral.spectral_radius(P)
            if rho == 0:
                continue
            c = _peak_class(P)
            if c is None:
                continue
            u = spectral.fv_eigenvector(P, c)
            if u.mode != P.mode:
                continue
            sset = eq_type1.solvable_set(P, rho)
            usupp = support(u)
            raw = fuzz_vector(srnd, P.n)
            b = ConeVector.make(
                [
                    e if (i + 1 in sset and i + 1 in usupp) else F(0)
                    for i, e in enumerate(raw.entries)
                ],
                P.mode,
            )
            if b.is_zero():
                continue
            w = eq_type1.minimal_solution(P, rho, b)
            if support(w) - usupp:
                continue
            scale = min(
                u.entries[i] / (2 * w.entries[i]) for i in range(P.n) if w.entries[i] != 0
            )
            x = ConeVector.make(
                [a - scale * e for a, e in zip(u.entries, w.entries)], P.mode
            )
            pair = spectral.spectral_pair(P, x)
            if pair.order != 1 or pair.rho != rho:
                continue
            x1, x2 = collatz_wielandt.decompose_superinvariant(P, x)
            assert all(a == p - q for a, p, q in zip(x.entries, x1.entries, x2.entries))
            img1 = P.apply(x1.entries)
            assert all(img1[i] == rho * x1.entries[i] for i in range(P.n))
            if not x2.is_zero():
                assert spectral.local_spectral_radius(P, x2) < rho
                super_splits += 1
        assert super_splits >= 25

        # attainment forces a simple peak: index one whenever a positive
        # subinvariant vector exists
        attained = 0
        for P in POOL[:500]:
            if collatz_wielandt.rho_in_sigma1(P):
                assert spectral.eigenvalue_index(P, spectral.spectral_radius(P)) == 1
                attained += 1
        assert attained > 0
        stats.update(
            pairs=pairs,
            sub_splits=sub_splits,
            super_splits=super_splits,
            index_checked=attained,
        )


def test_alternating_bounds_and_m_matrix_detection(capsys):
    stats = {}
    with criterion("alternating-bounds-and-m-matrix", stats, capsys):
        vrnd = rng(5013)
        pairs = 0
        for P in POOL[:250]:
            for _ in range(2):
                x = fuzz_vector(vrnd, P.n)
                rep = alternating.alternating_bound_report(P, x)
                assert rep.m_observed <= rep.ord <= rep.nu
                assert rep.gamma_deduction in (None, True)
                pairs += 1
        assert pairs == 500

        checked = 0
        for P in POOL[:100]:
            rho = spectral.spectral_radius(P)
            tax = spectral.taxonomy(P)
            for s, expect_m in ((rho + F(1, 3), True), (rho / 2, False)):
                if s <= 0:
                    continue
                Z = alternating.ZMatrix.make(s, P)
                assert alternating.is_m_matrix(Z) == expect_m
                assert alternating.exists_infinite(Z) == (not expect_m)
                detected = False
                for i in range(1, P.n + 1):
                    r = alternating.alt_length(Z, ConeVector.unit(P.n, i, P.mode))
                    if r.kind == alternating.INFINITE_CERTIFIED:
                        detected = True
                for c, flag in enumerate(tax.distinguished):
                    if flag and tax.radii[c] > s:
                        v = spectral.fv_eigenvector(P, c)
                        if v.mode == P.mode:
                            r = alternating.alt_length(Z, v)
                            if r.kind == alternating.INFINITE_CERTIFIED:
                                detected = True
                assert detected == (not expect_m), (P.rows, s)
                checked += 1
        assert checked >= 150
        stats.update(pairs=pairs, shift_checks=checked)


def test_orbit_estimator_accuracy(capsys):
    stats = {}
    with criterion("orbit-estimator-accuracy", stats, capsys):
        vrnd = rng(5014)
        worst = 0.0
        for P in POOL[:100]:
            Q = P.to_float()
            x = fuzz_vector(vrnd, P.n)
            xf = ConeVector.make([float(e) for e in x.entries], FLOAT)
            est = spectral.local_radius_estimate(Q, xf, 5000)
            truth = float(spectral.local_spectral_radius(P, x))
            rho = float(spectral.spectral_radius(P))
            err = abs(est - truth)
            assert err <= 0.05 * max(1.0, rho), (P.rows, err)
            worst = max(worst, err / max(1.0, rho))
        stats.update(pairs=100, steps=5000, worst_rel_err=f"{worst:.2e}")
