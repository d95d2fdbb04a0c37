"""Golden JSON of every report record, of the CLI's counterexample payloads
and of the `analyze` payload.  core.to_json is the one encoding: each report
prints as the sorted JSON of its fields, and each `check` suite prints its
counterexample (forced here by patching the decider it trusts) and `analyze`
its payload with the same bytes as the hand-written encoders they
replaced."""

import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

from coneq import alternating, cli, eq_type1, eq_type2
from coneq.alternating import ZMatrix, alt_length, alternating_bound_report
from coneq.collatz_wielandt import (
    boundary_report,
    cw_numbers,
    cw_sets,
    power_limit_exists,
    zero_intersection_conditions,
)
from coneq.core import FLOAT, RATIONAL, ConeVector, NonnegMatrix, as_scalar, to_json
from coneq.eq_type1 import solvability_conditions, solve1
from coneq.eq_type2 import image_membership, resolvent_sign, solvable2

T = [[2, 0], [1, 1]]
U = [[1, 1], [0, 1]]
S = [[0, 1], [1, 0]]


def _reports(mode):
    """One or more instances of every report class; rational-only analyses
    (membership, zero intersection) run in rational mode alone."""

    def m(rows):
        return NonnegMatrix.make(rows, mode)

    def v(*entries):
        return ConeVector.make(entries, mode)

    def s(value):
        return as_scalar(value, mode)

    out = {
        "SolveReport1 solvable": solve1(m(T), s(F(3)), v(1, 1)),
        "SolveReport1 unsolvable (None fields)": solve1(m(U), s(F(1)), v(1, 0)),
        "ConditionReport (c, d abstain)": solvability_conditions(m(U), s(F(1)), v(1, 0)),
        "SolveReport2 (nested SpectralPair)": solvable2(m(U), s(F(1)), v(1, 0)),
        "SolveReport2 unsolvable (None fields)": solvable2(m(T), s(F(3, 2)), v(0, 1)),
        "ResolventSign singular (None field)": resolvent_sign(m(S), s(F(1))),
        "ResolventSign": resolvent_sign(m(S), s(F(9, 10))),
        "CWReport R_upper = inf": cw_numbers(m(T), v(1, 0)),
        "CWReport": cw_numbers(m(U), v(1, 2)),
        "CWSets": cw_sets(m(T)),
        "BoundaryReport": boundary_report(m(U), v(1, 1)),
        "PowerLimitReport": power_limit_exists(m(T), v(1, 1)),
        "AltResult finite": alt_length(ZMatrix.make(s(F(1)), m(U)), v(0, 1)),
        "AltResult infinite": alt_length(ZMatrix.make(s(F(1)), m(T)), v(1, 1)),
        "AlternatingBoundReport": alternating_bound_report(m(U), v(0, 1)),
    }
    if mode == RATIONAL:
        out["MembershipReport"] = image_membership(m(U), s(F(1)), v(1, 0))
        out["ZeroIntersectionReport"] = zero_intersection_conditions(m(T))
    return out


REPORT_CASES = [(mode, name) for mode in (RATIONAL, FLOAT) for name in _reports(mode)]

# sorted JSON of each report, as the hand-written to_json_dict methods printed it
GOLDEN_REPORTS = {
    ('rational', 'SolveReport1 solvable'): (
        '{"eigen_freedom": [], "fired_condition": "g", "residual_norm": 0, "rho_b": 2, "solvable": true, "unique": true, "witness_class": null, "x0": [1, 1]}'
    ),
    ('rational', 'SolveReport1 unsolvable (None fields)'): (
        '{"eigen_freedom": [0], "fired_condition": "h", "residual_norm": null, "rho_b": 1, "solvable": false, "unique": null, "witness_class": 0, "x0": null}'
    ),
    ('rational', 'ConditionReport (c, d abstain)'): (
        '{"b": false, "c": null, "consistent": true, "d": null, "e": false, "f": false, "g": false, "h": false, "i": false, "j": false}'
    ),
    ('rational', 'SolveReport2 (nested SpectralPair)'): (
        '{"certificate": "lp", "regime": "at", "rho_b": 1, "solvable": true, "spectral_pair_of_x": {"order": 2, "rho": 1}, "x": [0, 1]}'
    ),
    ('rational', 'SolveReport2 unsolvable (None fields)'): (
        '{"certificate": "cor4_2", "regime": "above", "rho_b": 1, "solvable": false, "spectral_pair_of_x": null, "x": null}'
    ),
    ('rational', 'ResolventSign singular (None field)'): (
        '{"adjugate_positive": true, "inverse_positive": null}'
    ),
    ('rational', 'ResolventSign'): (
        '{"adjugate_positive": true, "inverse_positive": true}'
    ),
    ('rational', 'CWReport R_upper = inf'): (
        '{"R_upper": "inf", "r_lower": 2, "rho_x": 2}'
    ),
    ('rational', 'CWReport'): (
        '{"R_upper": 3, "r_lower": 1, "rho_x": 1}'
    ),
    ('rational', 'CWSets'): (
        '{"inf_sigma": 1, "inf_sigma1": 2, "inf_sigma1_attained": true, "sup_omega": 2, "sup_omega1": 2}'
    ),
    ('rational', 'BoundaryReport'): (
        '{"b": [0, 1], "on_boundary": true, "strict_iff": true}'
    ),
    ('rational', 'PowerLimitReport'): (
        '{"exists": true, "orbit_evidence": true}'
    ),
    ('rational', 'AltResult finite'): (
        '{"iterates_checked": 2, "kind": "finite", "value": 2}'
    ),
    ('rational', 'AltResult infinite'): (
        '{"iterates_checked": 0, "kind": "infinite_certified", "value": null}'
    ),
    ('rational', 'AlternatingBoundReport'): (
        '{"gamma_deduction": null, "m_observed": 2, "nu": 2, "ord": 2}'
    ),
    ('rational', 'MembershipReport'): (
        '{"in_s1": true, "in_s2": true, "in_s3": true}'
    ),
    ('rational', 'ZeroIntersectionReport'): (
        '{"a": false, "b": false, "c": false}'
    ),
    ('float', 'SolveReport1 solvable'): (
        '{"eigen_freedom": [], "fired_condition": "g", "residual_norm": 0.0, "rho_b": 2.0, "solvable": true, "unique": true, "witness_class": null, "x0": [1.0, 1.0]}'
    ),
    ('float', 'SolveReport1 unsolvable (None fields)'): (
        '{"eigen_freedom": [0], "fired_condition": "h", "residual_norm": null, "rho_b": 1.0, "solvable": false, "unique": null, "witness_class": 0, "x0": null}'
    ),
    ('float', 'ConditionReport (c, d abstain)'): (
        '{"b": false, "c": null, "consistent": true, "d": null, "e": false, "f": false, "g": false, "h": false, "i": false, "j": false}'
    ),
    ('float', 'SolveReport2 (nested SpectralPair)'): (
        '{"certificate": "lp", "regime": "at", "rho_b": 1.0, "solvable": true, "spectral_pair_of_x": {"order": 2, "rho": 1.0}, "x": [0.0, 1.0]}'
    ),
    ('float', 'SolveReport2 unsolvable (None fields)'): (
        '{"certificate": "cor4_2", "regime": "above", "rho_b": 1.0, "solvable": false, "spectral_pair_of_x": null, "x": null}'
    ),
    ('float', 'ResolventSign singular (None field)'): (
        '{"adjugate_positive": true, "inverse_positive": null}'
    ),
    ('float', 'ResolventSign'): (
        '{"adjugate_positive": true, "inverse_positive": true}'
    ),
    ('float', 'CWReport R_upper = inf'): (
        '{"R_upper": "inf", "r_lower": 2.0, "rho_x": 2.0}'
    ),
    ('float', 'CWReport'): (
        '{"R_upper": 3.0, "r_lower": 1.0, "rho_x": 1.0}'
    ),
    ('float', 'CWSets'): (
        '{"inf_sigma": 1.0, "inf_sigma1": 2.0, "inf_sigma1_attained": true, "sup_omega": 2.0, "sup_omega1": 2.0}'
    ),
    ('float', 'BoundaryReport'): (
        '{"b": [0.0, 1.0], "on_boundary": true, "strict_iff": true}'
    ),
    ('float', 'PowerLimitReport'): (
        '{"exists": true, "orbit_evidence": true}'
    ),
    ('float', 'AltResult finite'): (
        '{"iterates_checked": 2, "kind": "finite", "value": 2}'
    ),
    ('float', 'AltResult infinite'): (
        '{"iterates_checked": 4, "kind": "at_least", "value": 4}'
    ),
    ('float', 'AlternatingBoundReport'): (
        '{"gamma_deduction": null, "m_observed": 2, "nu": 2, "ord": 2}'
    ),
}


@pytest.mark.parametrize("mode, name", REPORT_CASES)
def test_report_json(mode, name):
    rep = _reports(mode)[name]
    assert json.dumps(to_json(rep), sort_keys=True) == GOLDEN_REPORTS[mode, name]


def test_every_report_class_is_covered():
    classes = {type(rep).__name__ for mode in (RATIONAL, FLOAT) for rep in _reports(mode).values()}
    assert classes == {
        "SolveReport1", "ConditionReport", "SolveReport2", "ResolventSign", "MembershipReport",
        "CWReport", "CWSets", "ZeroIntersectionReport", "BoundaryReport", "PowerLimitReport",
        "AltResult", "AlternatingBoundReport",
    }


# each suite's counterexample, forced by making the decider it trusts lie
FORCED = {
    "thm3.1": (
        eq_type1, "solvability_conditions",
        lambda real: lambda *args: replace(real(*args), consistent=False),
    ),
    "cor4.2": (
        eq_type2, "combinatorial_solvable_above",
        lambda real: lambda *args: not real(*args),
    ),
    "cor4.20": (eq_type2, "solvable_face_probe", lambda real: lambda *args: frozenset()),
    "cor6.4": (
        alternating, "alternating_bound_report",
        lambda real: lambda *args: replace(real(*args), gamma_deduction=False),
    ),
    "cor4.8-gap": (
        eq_type2, "image_membership",
        lambda real: lambda *args: eq_type2.MembershipReport(True, True, False),
    ),
}
CLI_CASES = [
    (prop, mode)
    for prop in FORCED
    for mode in (RATIONAL, FLOAT)
    if mode == RATIONAL or prop in ("thm3.1", "cor4.2", "cor6.4")
]

# stdout of `coneq [--mode float] check --property <prop> T.json`, as printed
# before core.to_json
GOLDEN_CLI = {
    ('thm3.1', 'rational'): (
        '{"cases": 12, "counterexample": {"b": [1, 0], "battery": {"b": false, "c": false, "consistent": false, "d": false, "e": false, "f": false, "g": false, "h": false, "i": false, "j": false}, "lambda": "2/3", "lp": false}, "pass": false}'
    ),
    ('thm3.1', 'float'): (
        '{"cases": 12, "counterexample": {"b": [1.0, 0.0], "battery": {"b": false, "c": false, "consistent": false, "d": false, "e": false, "f": false, "g": false, "h": false, "i": false, "j": false}, "lambda": 0.6666666666666667, "lp": false}, "pass": false}'
    ),
    ('cor4.2', 'rational'): (
        '{"cases": 7, "counterexample": {"b": [0, 1], "issue": "combinatorial test disagrees with the LP", "lambda": "4/3"}, "pass": false}'
    ),
    ('cor4.2', 'float'): (
        '{"cases": 7, "counterexample": {"b": [0.0, 1.0], "issue": "combinatorial test disagrees with the LP", "lambda": 1.3333333333333333}, "pass": false}'
    ),
    ('cor4.20', 'rational'): (
        '{"counterexample": {"expected": [1, 2], "lambda": "5/4", "probe": []}, "pass": false, "samples": ["5/4", "3/2", "7/4"]}'
    ),
    ('cor6.4', 'rational'): (
        '{"cases": 3, "counterexample": {"report": {"gamma_deduction": false, "m_observed": 1, "nu": 1, "ord": 1}, "x": [1, 0]}, "pass": false}'
    ),
    ('cor6.4', 'float'): (
        '{"cases": 3, "counterexample": {"report": {"gamma_deduction": false, "m_observed": 1, "nu": 1, "ord": 1}, "x": [1.0, 0.0]}, "pass": false}'
    ),
    ('cor4.8-gap', 'rational'): (
        '{"cases": 6, "counterexample": {"b": [1, 0], "lambda": 1}, "gap_examples": 0, "pass": false}'
    ),
}


@pytest.mark.parametrize("prop, mode", CLI_CASES)
def test_check_counterexample_json(prop, mode, tmp_path, monkeypatch, capsys):
    path = tmp_path / "T.json"
    path.write_text(json.dumps({"entries": T}))
    module, name, fake = FORCED[prop]
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    assert cli.main(["--mode", mode, "check", "--property", prop, str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["counterexample"] is not None
    assert out == GOLDEN_CLI[prop, mode] + "\n"


# stdout of `coneq [--mode float] analyze A.json` on five classes: one of
# irrational radius (the golden ratio, from power iteration), and two at
# rho = 3, one with access to the other
ANALYZE = [[1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, "1/2", 0, 0, 0], [0, 0, 0, 3, 0, 0], [0, 0, 0, 1, 2, 0], [0, 0, 0, 1, 0, 3]]
GOLDEN_ANALYZE = {
    RATIONAL: (
        '{"access": [[true, false, true, false, false], [false, true, true, false, false], [false, false, true, false, false], [false, false, false, true, true], [false, false, false, false, true]], "classes": [[6], [5], [4], [3], [1, 2]], "faces": [{"eigenvalue": "1/2", "eigenvector_face": [3], "necessary_face": []}, {"eigenvalue": 1.6180339875964775, "eigenvector_face": [1, 2, 3], "necessary_face": [3]}, {"eigenvalue": 2, "eigenvector_face": [5], "necessary_face": []}, {"eigenvalue": 3, "eigenvector_face": [6], "necessary_face": [5, 6]}], "spectral": {"class_radii": [3, 2, 3, "1/2", 1.6180339875964775], "distinguished_eigenvalues": ["1/2", 1.6180339875964775, 2, 3], "index": {"1.6180339875964775": 1, "1/2": 1, "2": 1, "3": 2}, "max_distinguished_order": {"1.6180339875964775": 1, "1/2": 1, "2": 1, "3": 2}, "rho": 3}, "taxonomy": {"basic": [true, false, true, false, false], "distinguished": [true, true, false, true, true], "distinguished_transpose": [false, false, true, false, true], "final": [false, false, true, false, true], "initial": [true, true, false, true, false], "radii": [3, 2, 3, "1/2", 1.6180339875964775], "rho": 3, "semi_distinguished": [true, true, true, true, true]}}'
    ),
    FLOAT: (
        '{"access": [[true, false, true, false, false], [false, true, true, false, false], [false, false, true, false, false], [false, false, false, true, true], [false, false, false, false, true]], "classes": [[6], [5], [4], [3], [1, 2]], "faces": [{"eigenvalue": 0.5, "eigenvector_face": [3], "necessary_face": []}, {"eigenvalue": 1.6180339875964775, "eigenvector_face": [1, 2, 3], "necessary_face": [3]}, {"eigenvalue": 2.0, "eigenvector_face": [5], "necessary_face": []}, {"eigenvalue": 3.0, "eigenvector_face": [6], "necessary_face": [5, 6]}], "spectral": {"class_radii": [3.0, 2.0, 3.0, 0.5, 1.6180339875964775], "distinguished_eigenvalues": [0.5, 1.6180339875964775, 2.0, 3.0], "index": {"0.5": 1, "1.6180339875964775": 1, "2.0": 1, "3.0": 2}, "max_distinguished_order": {"0.5": 1, "1.6180339875964775": 1, "2.0": 1, "3.0": 2}, "rho": 3.0}, "taxonomy": {"basic": [true, false, true, false, false], "distinguished": [true, true, false, true, true], "distinguished_transpose": [false, false, true, false, true], "final": [false, false, true, false, true], "initial": [true, true, false, true, false], "radii": [3.0, 2.0, 3.0, 0.5, 1.6180339875964775], "rho": 3.0, "semi_distinguished": [true, true, true, true, true]}}'
    ),
}


@pytest.mark.parametrize("mode", (RATIONAL, FLOAT))
def test_analyze_json(mode, tmp_path, capsys):
    path = tmp_path / "A.json"
    path.write_text(json.dumps({"entries": ANALYZE}))
    assert cli.main(["--mode", mode, "analyze", str(path)]) == 0
    assert capsys.readouterr().out == GOLDEN_ANALYZE[mode] + "\n"
