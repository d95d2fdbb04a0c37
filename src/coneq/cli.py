"""Command-line front door: JSON files in, one JSON document on stdout.

Verbs: analyze, solve1, solve2, cw, alt, check.  Exit codes: 0 = command
completed (an "unsolvable" verdict is a completed command), 2 = bad input,
3 = numeric failure (a value outside the float range included).
"""

import argparse
import json
import sys
from fractions import Fraction

from . import alternating, collatz_wielandt, eq_type1, eq_type2, oracle, spectral
from .classes import smallest_initial_superset
from .core import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    ConeVector,
    InvalidInput,
    NonnegMatrix,
    NumericFailure,
    as_scalar,
    one,
    scalars_equal,
    support,
    to_json,
    vec_sub,
)

# ---------------------------------------------------------------------------
# input readers


# parse_float/parse_constant keep decimal literals intact so rational mode can
# read "0.1" as 1/10 rather than the nearest double; json.loads with keywords
# would build a new decoder on every call
_DECODER = json.JSONDecoder(parse_float=str, parse_constant=str)


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    try:
        if text.startswith("\ufeff"):  # json.loads's own check, with its message
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad JSON in {path}: {exc}") from exc


def _entries_from_path(path: str, kind: str) -> list:
    """The entries of a matrix or vector document: a JSON object with no
    keys but 'entries', a list, and an optional 'n', its length."""
    doc = _load_doc(path)
    if not isinstance(doc, dict):
        raise InvalidInput(f"{path}: {kind} document must be a JSON object")
    extra = set(doc) - {"n", "entries"}
    if extra:
        raise InvalidInput(f"{path}: unknown {kind} keys {sorted(extra)}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise InvalidInput(f"{path}: 'entries' must be a list")
    n = doc.get("n")
    if n is not None and (isinstance(n, bool) or n != len(entries)):
        raise InvalidInput(f"{path}: 'n' disagrees with the entries")
    return entries


def _matrix_from_path(path: str, mode: str) -> NonnegMatrix:
    entries = _entries_from_path(path, "matrix")
    if not all(isinstance(r, list) for r in entries):
        raise InvalidInput(f"{path}: 'entries' must be a list of rows")
    return NonnegMatrix.make(entries, mode)


def _vector_from_path(path: str, mode: str, n: int) -> ConeVector:
    vec = ConeVector.make(_entries_from_path(path, "vector"), mode)
    if vec.n != n:
        raise InvalidInput(f"{path}: vector length {vec.n} != matrix size {n}")
    return vec


# ---------------------------------------------------------------------------
# verbs


def _cmd_analyze(P: NonnegMatrix, tol) -> dict:
    tax = spectral.taxonomy(P, tol)
    an = tax.analysis
    rep = spectral.spectral_report(P, tol)
    k = an.class_count
    return {
        "classes": an.classes,
        "access": [[an.has_access(c, d) for d in range(k)] for c in range(k)],
        # every field of the structure record but the analysis (printed as
        # classes and access), eigen_classes, by_radius and tol
        "taxonomy": {
            name: getattr(tax, name)
            for name in ("radii", "rho", "basic", "final", "initial", "distinguished",
                         "distinguished_transpose", "semi_distinguished")
        },
        "spectral": {
            "rho": rep.rho,
            "class_radii": rep.radii,
            "distinguished_eigenvalues": rep.distinguished,
            # a JSON key is a string: the eigenvalue's encoding as text
            "index": {str(to_json(v)): i for v, i in rep.index_at},
            "max_distinguished_order": {str(to_json(v)): m for v, m in rep.max_order_at},
        },
        "faces": [
            {
                "eigenvalue": lam,
                "eigenvector_face": sorted(tax.accessor_vertices(tax.classes_at(tax.signs(lam, tax.distinguished)))),
                "necessary_face": sorted(eq_type2.necessary_face(P, lam, tol)),
            }
            for lam in tax.distinguished_eigenvalues
        ],
    }


# ---------------------------------------------------------------------------
# check property suites; each runs on the given matrix alone, with test
# vectors and shifts derived deterministically from it


def _sample_vectors(P: NonnegMatrix) -> list:
    """The unit vectors and, when n > 1, the all-ones vector: distinct and nonzero."""
    vecs = [ConeVector.unit(P.n, i, P.mode) for i in range(1, P.n + 1)]
    if P.n > 1:
        vecs.append(ConeVector.make([one(P.mode)] * P.n, P.mode))
    return vecs


def _shift_sweep(P: NonnegMatrix, tol, offsets) -> list:
    """Per-class radius +- 1/3 (positive shifts only), deduplicated."""
    radii = spectral.taxonomy(P, tol).radii
    out = []
    for r in radii:
        for d in offsets:
            lam = r + (d if isinstance(r, Fraction) else float(d))
            if lam <= 0:
                continue
            if not any(scalars_equal(lam, seen, tol) for seen in out):
                out.append(lam)
    return out


def _sampled_report(counterexamples) -> dict:
    """A sampled suite's report from each case's counterexample (None for a
    good case): every case is judged, and the first counterexample kept."""
    found = list(counterexamples)
    bad = next((c for c in found if c is not None), None)
    return {"pass": bad is None, "cases": len(found), "counterexample": bad}


def _solves_type2(P: NonnegMatrix, lam, x: ConeVector, b: ConeVector, tol) -> bool:
    """(P - lambda*I)x = b: exact in the rational lane, tolerance-based for floats."""
    resid = vec_sub(P.shifted_apply(x.entries, lam, 1), b.entries)
    return all(r == 0 if isinstance(r, Fraction) else scalars_equal(r, 0.0, tol) for r in resid)


def _check_type1_battery(P: NonnegMatrix, tol) -> dict:
    def judge(lam, b):
        rep = eq_type1.solvability_conditions(P, lam, b, tol)
        rows = oracle.shifted_image_rows(P, lam, sign=-1)  # lambda*I - P
        lp = oracle.feasible_nonneg_solution(rows, b.entries).feasible
        if not rep.consistent or any(v != lp for v in (rep.b, rep.g, rep.h, rep.j)):
            return {"lambda": lam, "b": b, "battery": rep, "lp": lp}
        return None

    offsets = (Fraction(-1, 3), Fraction(1, 3))
    return _sampled_report(judge(lam, b) for lam in _shift_sweep(P, tol, offsets) for b in _sample_vectors(P))


def _check_above_regime(P: NonnegMatrix, tol) -> dict:
    sweep = _shift_sweep(P, tol, (Fraction(1, 3),))
    rho = spectral.spectral_radius(P, tol)
    sweep.append(rho + (Fraction(1) if isinstance(rho, Fraction) else 1.0))
    tax = spectral.taxonomy(P, tol)

    def judge(lam, b):
        comb = eq_type2.combinatorial_solvable_above(P, lam, b, tol)
        rows = oracle.shifted_image_rows(P, lam, sign=1)  # P - lambda*I
        lp = oracle.feasible_nonneg_solution(rows, b.entries).feasible
        issue = None
        if comb != lp:
            issue = "combinatorial test disagrees with the LP"
        elif comb:
            x = eq_type2.solve2_above(P, lam, b, tol)
            pair = spectral.spectral_pair(P, x, tol)
            if not _solves_type2(P, lam, x, b, tol):
                issue = "constructed solution has a nonzero residual"
            elif not (tax.local_sign(support(x), lam) == 0 and pair.order == 1):
                issue = "constructed solution has the wrong spectral pair"
        return None if issue is None else {"lambda": lam, "b": b, "issue": issue}

    return _sampled_report(
        judge(lam, b) for lam in sweep for b in _sample_vectors(P) if tax.local_sign(support(b), lam) < 0
    )


def _verify_tracedown(P: NonnegMatrix, analysis, rho, c: int, tol):
    """Residual and support pattern of one trace-down witness; None if good."""
    x, b = eq_type2.tracedown_witness(P, c, tol)
    if not _solves_type2(P, rho, x, b, tol):
        return "residual"
    for d in range(analysis.class_count):
        verts = analysis.classes[d]
        has_b = any(b.entries[v - 1] != 0 for v in verts)
        pos_x = all(x.entries[v - 1] > 0 for v in verts)
        zero_x = all(x.entries[v - 1] == 0 for v in verts)
        if analysis.has_access(d, c):
            if not pos_x:
                return "x not positive on an accessor class"
            if has_b != (d != c):
                return "b support breaks the strict-access pattern"
        elif not zero_x or has_b:
            return "support leaks outside the accessors"
    return None


def _check_face_at_rho(P: NonnegMatrix, tol) -> dict:
    rho = spectral.spectral_radius(P, tol)
    probe = eq_type2.solvable_face_probe(P, rho, tol)
    tax = spectral.taxonomy(P, tol)
    closure = smallest_initial_superset(tax.analysis, probe)
    # the 0x0 matrix has no class, so no distinguished eigenvalue; its face is empty
    necessary = eq_type2.necessary_face(P, rho, tol) if P.n else frozenset()
    issues = []
    if closure != necessary:
        issues.append("probe closure differs from the necessary face")
    witnesses = 0
    for c in range(tax.analysis.class_count):
        if tax.basic[c] and tax.distinguished_transpose[c]:
            witnesses += 1
            problem = _verify_tracedown(P, tax.analysis, rho, c, tol)
            if problem is not None:
                issues.append(f"trace-down witness for class {c}: {problem}")
    return {
        "pass": not issues,
        "probe": sorted(probe),
        "necessary_face": sorted(necessary),
        "tracedown_witnesses": witnesses,
        "issues": issues,
    }


def _check_window_below_rho(P: NonnegMatrix, tol) -> dict:
    rho = spectral.spectral_radius(P, tol)
    if rho == 0:  # no positive shift lies below rho
        return {"pass": True, "samples": [], "counterexample": None}
    tax = spectral.taxonomy(P, tol)
    expected = tax.accessor_vertices(c for c, flag in enumerate(tax.basic) if flag)
    # (t, rho] holds no eigenvalue but rho, the largest, so every shift in it is certified
    t, _ = next(oracle.root_brackets(oracle.charpoly_exact(P), 1, max(rho - 1, 0), rho))
    samples = []
    bad = None
    for k in (1, 2, 3):
        lam = t + (rho - t) * k / 4
        probe = eq_type2.solvable_face_probe(P, lam, tol)
        samples.append(lam)
        if probe != expected:
            bad = bad or {"lambda": lam, "probe": sorted(probe), "expected": sorted(expected)}
    return {"pass": bad is None, "samples": samples, "counterexample": bad}


def _check_rho_attained(P: NonnegMatrix, tol) -> dict:
    rho = spectral.spectral_radius(P, tol)
    flag = collatz_wielandt.rho_in_sigma1(P, tol)
    n = P.n
    # x_i >= 1 (x > 0 after scaling) and (rho*I - P)x >= 0
    rows = [([int(j == i) for j in range(n)], 1) for i in range(n)]
    rows += [(row, 0) for row in oracle.shifted_image_rows(P, rho, sign=-1)]
    lp = oracle.lp_feasible(oracle.LPProblem.build(n, ge_rows=rows)).feasible
    return {"pass": flag == lp, "rho_in_sigma1": flag, "lp_agrees": flag == lp}


def _check_zero_intersection(P: NonnegMatrix, tol) -> dict:
    rep = collatz_wielandt.zero_intersection_conditions(P, tol)
    return {**vars(rep), "pass": rep.a == rep.b == rep.c}


def _check_alternating_bounds(P: NonnegMatrix, tol) -> dict:
    def judge(x):
        rep = alternating.alternating_bound_report(P, x, tol)
        ok = rep.m_observed <= rep.ord <= rep.nu and rep.gamma_deduction is not False
        return None if ok else {"x": x, "report": rep}

    return _sampled_report(judge(x) for x in _sample_vectors(P))


def _check_membership_gap(P: NonnegMatrix, tol) -> dict:
    """Each exact positive distinguished eigenvalue against each sampled b;
    the irrational ones (carried as floats) are counted as skipped."""
    eigenvalues = spectral.distinguished_eigenvalues(P, tol)
    exact = [lam for lam in eigenvalues if isinstance(lam, Fraction)]
    cases = [
        (lam, b, eq_type2.image_membership(P, lam, b, tol))
        for lam in exact
        if lam > 0
        for b in _sample_vectors(P)
    ]
    report = _sampled_report(
        {"lambda": lam, "b": b} if rep.in_s2 and not rep.in_s3 else None for lam, b, rep in cases
    )
    gaps = sum(rep.in_s3 and not rep.in_s2 for _, _, rep in cases)
    return {**report, "gap_examples": gaps, "skipped_irrational": len(eigenvalues) - len(exact)}


def _guarded(suite, *, rational_mode: bool = False, exact_rho: bool = False):
    """The suite behind the preconditions it names: rational mode, an exact rational radius."""

    def run(P: NonnegMatrix, tol) -> dict:
        if rational_mode and P.mode != RATIONAL:
            raise InvalidInput("this check runs in rational mode only")
        if exact_rho and not isinstance(spectral.spectral_radius(P, tol), Fraction):
            raise InvalidInput("this check needs an exact rational spectral radius")
        return suite(P, tol)

    return run


PROPERTY_SUITES = {
    "thm3.1": _check_type1_battery,
    "cor4.2": _check_above_regime,
    "thm4.13": _guarded(_check_face_at_rho, rational_mode=True, exact_rho=True),
    "cor4.20": _guarded(_check_window_below_rho, rational_mode=True, exact_rho=True),
    "thm5.10": _guarded(_check_rho_attained, exact_rho=True),
    "thm5.11": _check_zero_intersection,
    "cor6.4": _check_alternating_bounds,
    "cor4.8-gap": _guarded(_check_membership_gap, rational_mode=True),
}


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coneq",
        description="Nonnegative solutions of (lambda*I-P)x=b and (P-lambda*I)x=b.",
    )
    parser.add_argument(
        "--mode",
        choices=(RATIONAL, FLOAT),
        default=RATIONAL,
        help="arithmetic mode for all data (default: rational)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="classes, taxonomy, spectrum and faces")
    p.add_argument("matrix")

    for verb, operator in (("solve1", "lambda*I-P"), ("solve2", "P-lambda*I")):
        p = sub.add_parser(verb, help=f"decide/construct x >= 0 with ({operator})x = b")
        p.add_argument("--lambda", dest="lam", required=True)
        p.add_argument("--b", dest="b", required=True)
        p.add_argument("matrix")

    p = sub.add_parser("cw", help="Collatz-Wielandt numbers (with --x) or set extrema")
    p.add_argument("--x", dest="x")
    p.add_argument("matrix")

    p = sub.add_parser("alt", help="alternating sequence length at a shift")
    p.add_argument("--shift", required=True)
    p.add_argument("--x", dest="x", required=True)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("matrix")

    p = sub.add_parser("check", help="run a named property suite on the matrix")
    p.add_argument("--property", dest="prop", required=True, choices=PROPERTY_SUITES)
    p.add_argument("matrix")

    return parser


# argparse keeps no state between parses, so one parser serves every call
_PARSER = _build_parser()


def _dispatch(args):
    """The verb's report or result dict, encoded by to_json in main."""
    mode = args.mode
    tol = DEFAULT_TOL
    P = _matrix_from_path(args.matrix, mode)
    if args.verb == "analyze":
        return _cmd_analyze(P, tol)
    if args.verb in ("solve1", "solve2"):
        solve = eq_type1.solve1 if args.verb == "solve1" else eq_type2.solvable2
        return solve(P, as_scalar(args.lam, mode), _vector_from_path(args.b, mode, P.n), tol)
    if args.verb == "cw":
        if args.x is not None:
            x = _vector_from_path(args.x, mode, P.n)
            return collatz_wielandt.cw_numbers(P, x, tol)
        return collatz_wielandt.cw_sets(P, tol)
    if args.verb == "alt":
        s = as_scalar(args.shift, mode)
        x = _vector_from_path(args.x, mode, P.n)
        Z = alternating.ZMatrix.make(s, P)
        return alternating.alt_length(Z, x, args.max_steps, tol)
    if args.verb == "check":
        return PROPERTY_SUITES[args.prop](P, tol)
    raise InvalidInput(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload = _dispatch(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"numeric failure: a value lies outside the float range ({exc})", file=sys.stderr)
        return 3
    print(json.dumps(to_json(payload), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
