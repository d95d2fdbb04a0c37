"""End-to-end checks of the command-line front door: JSON documents in,
one sorted-keys JSON document on stdout, exit codes 0/2/3."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from pytest import raises as assert_raises

import coneq
from coneq import cli, eq_type1, eq_type2, oracle, spectral
from coneq.cli import main
from coneq.core import DEFAULT_TOL, ConeVector, NumericFailure, to_json

from fuzz import fuzz_irreducible, fuzz_matrix, rng


def _write(root, name, payload):
    path = root / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """One shared directory of well-formed and deliberately broken documents."""
    root = tmp_path_factory.mktemp("cli_docs")
    good = {
        "D3.json": {"entries": [[0, 0, 0], [0, 1, 0], [0, 0, 2]]},
        "T.json": {"entries": [[2, 0], [1, 1]]},
        "U.json": {"entries": [[1, 1], [0, 1]]},
        "I2.json": {"entries": [[1, 0], [0, 1]]},
        "tenth.json": {"entries": [[0.1]]},
        "e1.json": {"entries": [1, 0]},
        "e2.json": {"entries": [0, 1]},
        "e1_3.json": {"entries": [1, 0, 0]},
        "e3.json": {"entries": [0, 0, 1]},
        "x12.json": {"entries": [1, 2]},
        "half.json": {"entries": [["1/2"]]},
        "nilpotent.json": {"entries": [[0, 1], [0, 0]]},
        # one class with constant row sums 1 but column sums 1/2 and 3/2
        "stochastic.json": {"entries": [[0, 1], ["1/2", "1/2"]]},
        # one class of radius sqrt(2), an irrational
        "root2.json": {"entries": [[0, 2], [1, 0]]},
        # one class of radius the golden ratio, an irrational
        "golden.json": {"entries": [[1, 1], [1, 0]]},
        "zero1.json": {"entries": [[0]]},
        "empty.json": {"entries": []},
        # two radius-2 classes, neither with access to the other
        "D2.json": {"entries": [[2, 0], [0, 2]]},
        # {2} (radius 1) has access to {1}, distinguished at 4/3 = 1 + 1/3
        "above.json": {"entries": [["4/3", 0], [1, 1]]},
        # at the eigenvalue 2, e1 + e3 lies in S3 but not in S2 (a Cor. 4.8 gap)
        "gap.json": {"entries": [[2, 0, 0], [0, 2, 0], [2, 0, 2]]},
        # two radius-2 classes, {2, 3} with access to {4, 5}: rho = 2 is
        # defective, and float eigenvalues split it by about 1e-8
        "peak.json": {
            "entries": [
                [1, 0, 0, 0, 0],
                [0, "6/5", "4/5", 2, 0],
                [0, 2, 0, 0, 0],
                [0, 0, 0, 0, 2],
                [0, 0, 0, "4/3", "2/3"],
            ]
        },
    }
    # entries beyond the float range, written as strings so rational mode
    # reads them exactly: a tiny entry with an irrational radius, a huge
    # entry beside a radius-2 class, and a huge entry in an irreducible class
    good["tiny.json"] = {"entries": [["1e-400", 1], [1, 0]]}
    good["huge.json"] = {"entries": [["1e400", 1], [0, 2]]}
    good["huge_irreducible.json"] = {"entries": [["1e400", 1], [1, 0]]}
    paths = {name: _write(root, name, payload) for name, payload in good.items()}
    paths["badkey.json"] = _write(root, "badkey.json", {"entries": [[1]], "name": "x"})
    paths["badn.json"] = _write(root, "badn.json", {"entries": [[1, 0], [0, 1]], "n": 3})
    paths["badn_vector.json"] = _write(root, "badn_vector.json", {"entries": [1, 0, 0], "n": 5})
    paths["bool.json"] = _write(root, "bool.json", {"entries": [[1, True], [0, 1]]})
    paths["neg.json"] = _write(root, "neg.json", {"entries": [[1, -1], [0, 1]]})
    paths["list.json"] = _write(root, "list.json", [[1]])
    paths["entries3.json"] = _write(root, "entries3.json", {"entries": 3})
    paths["flat.json"] = _write(root, "flat.json", {"entries": [1, 2]})
    broken = root / "broken.json"
    broken.write_text("not json")
    paths["broken.json"] = str(broken)
    paths["missing.json"] = str(root / "missing.json")
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1  # exactly one JSON document
    return json.loads(lines[0])


class TestDocumentPlumbing:
    @pytest.mark.parametrize(
        "name",
        ["badkey.json", "badn.json", "bool.json", "neg.json", "broken.json", "missing.json"],
    )
    def test_bad_matrix_documents(self, capsys, docs, name):
        code, out, err = run_cli(capsys, ["analyze", docs[name]])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "name,message",
        [
            ("list.json", "matrix document must be a JSON object"),
            ("entries3.json", "'entries' must be a list"),
            ("flat.json", "'entries' must be a list of rows"),
        ],
    )
    def test_malformed_matrix_documents(self, capsys, docs, name, message):
        code, out, err = run_cli(capsys, ["analyze", docs[name]])
        assert (code, out, err) == (2, "", f"error: {docs[name]}: {message}\n")

    def test_numeric_failure_exits_3(self, capsys, docs, monkeypatch):
        def fail(*args):
            raise NumericFailure("forced")

        monkeypatch.setattr(eq_type1, "solve1", fail)
        code, out, err = run_cli(
            capsys, ["solve1", "--lambda", "1", "--b", docs["e3.json"], docs["D3.json"]]
        )
        assert (code, out, err) == (3, "", "numeric failure: forced\n")

    def test_unknown_key_named_in_message(self, capsys, docs):
        _, _, err = run_cli(capsys, ["analyze", docs["badkey.json"]])
        assert "unknown matrix keys ['name']" in err

    def test_vector_length_mismatch(self, capsys, docs):
        code, _, err = run_cli(
            capsys, ["solve1", "--lambda", "1", "--b", docs["e1.json"], docs["D3.json"]]
        )
        assert code == 2
        assert "vector length 2 != matrix size 3" in err

    def test_vector_n_is_checked(self, capsys, docs):
        # a vector document's optional n must match its entries, as a
        # matrix document's must
        code, _, err = run_cli(
            capsys, ["solve1", "--lambda", "1", "--b", docs["badn_vector.json"], docs["D3.json"]]
        )
        assert code == 2
        assert "'n' disagrees with the entries" in err

    def test_decimal_literal_is_exact_in_rational_mode(self, capsys, docs):
        # 0.1 must come through as 1/10, not the nearest double
        doc = run_json(capsys, ["analyze", docs["tenth.json"]])
        assert doc["taxonomy"]["radii"] == ["1/10"]
        doc = run_json(capsys, ["--mode", "float", "analyze", docs["tenth.json"]])
        assert doc["taxonomy"]["radii"] == [0.1]


class TestBeyondFloatRange:
    """Rational input whose values leave the float range: a verdict where
    the exact route reaches one, otherwise a numeric failure (exit 3)."""

    def test_shift_beyond_the_float_range_is_compared_exactly(self, capsys, docs):
        # the float radius 1.0 against lambda = 10^400 in scalars_equal
        P = cli._matrix_from_path(docs["tiny.json"], "rational")
        b = ConeVector.unit(2, 1)
        for verb, sign in (("solve1", -1), ("solve2", 1)):
            doc = run_json(capsys, [verb, "--lambda", "1e400", "--b", docs["e1.json"], docs["tiny.json"]])
            lp = oracle.feasible_nonneg_solution(oracle.shifted_image_rows(P, Fraction(10**400), sign), b.entries)
            assert doc["solvable"] is lp.feasible is (verb == "solve1"), verb

    @pytest.mark.parametrize(
        "argv",
        [["check", "--property", prop, "huge.json"] for prop in ("thm3.1", "cor6.4")]
        + [["check", "--property", prop, "huge_irreducible.json"] for prop in cli.PROPERTY_SUITES]
        + [
            ["analyze", "huge_irreducible.json"],
            ["solve1", "--lambda", "1", "--b", "e1.json", "huge_irreducible.json"],
            ["solve2", "--lambda", "1", "--b", "e1.json", "huge_irreducible.json"],
            ["cw", "huge_irreducible.json"],
            ["cw", "--x", "e1.json", "huge_irreducible.json"],
        ],
    )
    def test_float_overflow_is_a_numeric_failure(self, capsys, docs, argv):
        code, out, err = run_cli(capsys, [docs.get(a, a) for a in argv])
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: a value lies outside the float range"), err

    def test_alt_runs_exactly(self, capsys, docs):
        argv = ["alt", "--shift", "2", "--x", docs["e1.json"], docs["huge_irreducible.json"]]
        assert run_json(capsys, argv) == {"iterates_checked": 4, "kind": "at_least", "value": 4}


class TestSolve1:
    def test_unsolvable_between_class_radii(self, capsys, docs):
        doc = run_json(
            capsys, ["solve1", "--lambda", "1", "--b", docs["e3.json"], docs["D3.json"]]
        )
        assert doc == {
            "eigen_freedom": [1],
            "fired_condition": "h",
            "residual_norm": None,
            "rho_b": 2,
            "solvable": False,
            "unique": None,
            "witness_class": 0,
            "x0": None,
        }

    def test_solvable_with_eigen_freedom(self, capsys, docs):
        doc = run_json(
            capsys, ["solve1", "--lambda", "1", "--b", docs["e1_3.json"], docs["D3.json"]]
        )
        assert doc == {
            "eigen_freedom": [1],
            "fired_condition": "g",
            "residual_norm": 0,
            "rho_b": 0,
            "solvable": True,
            "unique": False,
            "witness_class": None,
            "x0": [1, 0, 0],
        }

    def test_float_mode_snaps_solve_noise(self, capsys, tmp_path):
        # the float solve leaves -3.3e-9 beside entries near 8e9; solve1
        # reports the solution instead of exiting 2 on a negative entry
        from test_eq_type1 import NOISY_B, NOISY_LAM, NOISY_ROWS

        argv = ["--mode", "float", "solve1", "--lambda", repr(NOISY_LAM)]
        argv += ["--b", _write(tmp_path, "b.json", {"entries": NOISY_B})]
        doc = run_json(capsys, [*argv, _write(tmp_path, "P.json", {"entries": NOISY_ROWS})])
        assert doc["solvable"] is True and min(doc["x0"]) >= 0

    def test_float_mode_reports_float_scalars(self, capsys, docs):
        doc = run_json(
            capsys,
            ["--mode", "float", "solve1", "--lambda", "1", "--b", docs["e3.json"], docs["D3.json"]],
        )
        assert doc["solvable"] is False
        assert isinstance(doc["rho_b"], float)
        assert doc["rho_b"] == 2.0


class TestSolve2:
    def test_above_regime(self, capsys, docs):
        doc = run_json(
            capsys, ["solve2", "--lambda", "2", "--b", docs["e2.json"], docs["T.json"]]
        )
        assert doc == {
            "certificate": "cor4_2",
            "regime": "above",
            "rho_b": 1,
            "solvable": True,
            "spectral_pair_of_x": {"order": 1, "rho": 2},
            "x": [1, 0],
        }

    def test_at_regime(self, capsys, docs):
        doc = run_json(
            capsys, ["solve2", "--lambda", "1", "--b", docs["e1.json"], docs["U.json"]]
        )
        assert doc == {
            "certificate": "lp",
            "regime": "at",
            "rho_b": 1,
            "solvable": True,
            "spectral_pair_of_x": {"order": 2, "rho": 1},
            "x": [0, 1],
        }

    def test_zero_shift_rejected(self, capsys, docs):
        code, _, err = run_cli(
            capsys, ["solve2", "--lambda", "0", "--b", docs["e1.json"], docs["U.json"]]
        )
        assert code == 2
        assert err == "error: the shift must be strictly positive\n"


class TestCwAndAlt:
    def test_numbers_with_x(self, capsys, docs):
        doc = run_json(capsys, ["cw", "--x", docs["x12.json"], docs["T.json"]])
        assert doc == {"R_upper": 2, "r_lower": "3/2", "rho_x": 2}

    def test_set_extrema_without_x(self, capsys, docs):
        doc = run_json(capsys, ["cw", docs["T.json"]])
        assert doc == {
            "inf_sigma": 1,
            "inf_sigma1": 2,
            "inf_sigma1_attained": True,
            "sup_omega": 2,
            "sup_omega1": 2,
        }

    def test_set_extrema_print_the_radii_analyze_prints(self, capsys, docs):
        # sup_omega1 is the radius of the one class as P's record holds it,
        # exactly 1, not a power iteration on the transpose's block
        code, out, err = run_cli(capsys, ["cw", docs["stochastic.json"]])
        assert code == 0 and err == ""
        assert '"sup_omega1": 1}' in out
        assert json.loads(out) == {
            "inf_sigma": 1,
            "inf_sigma1": 1,
            "inf_sigma1_attained": True,
            "sup_omega": 1,
            "sup_omega1": 1,
        }
        assert run_json(capsys, ["analyze", docs["stochastic.json"]])["taxonomy"]["radii"] == [1]

    def test_alternating_length(self, capsys, docs):
        doc = run_json(
            capsys, ["alt", "--shift", "1", "--x", docs["e2.json"], docs["U.json"]]
        )
        assert doc == {"iterates_checked": 2, "kind": "finite", "value": 2}


class TestAnalyze:
    def test_identity_two_final_basic_classes(self, capsys, docs):
        doc = run_json(capsys, ["analyze", docs["I2.json"]])
        assert doc == {
            "access": [[True, False], [False, True]],
            "classes": [[2], [1]],
            "faces": [
                {"eigenvalue": 1, "eigenvector_face": [1, 2], "necessary_face": []}
            ],
            "spectral": {
                "class_radii": [1, 1],
                "distinguished_eigenvalues": [1],
                "index": {"1": 1},
                "max_distinguished_order": {"1": 1},
                "rho": 1,
            },
            "taxonomy": {
                "basic": [True, True],
                "distinguished": [True, True],
                "distinguished_transpose": [True, True],
                "final": [True, True],
                "initial": [True, True],
                "radii": [1, 1],
                "rho": 1,
                "semi_distinguished": [True, True],
            },
        }


class TestCheck:
    # (property, matrix, exact payload) — small instances where every suite
    # runs in milliseconds and the expected report is known in full
    CASES = [
        ("thm3.1", "T.json", {"cases": 12, "counterexample": None, "pass": True}),
        ("cor4.2", "T.json", {"cases": 7, "counterexample": None, "pass": True}),
        (
            "thm4.13",
            "T.json",
            {
                "issues": [],
                "necessary_face": [2],
                "pass": True,
                "probe": [2],
                "tracedown_witnesses": 1,
            },
        ),
        (
            "cor4.20",
            "T.json",
            {"counterexample": None, "pass": True, "samples": ["5/4", "3/2", "7/4"]},
        ),
        ("thm5.10", "U.json", {"lp_agrees": True, "pass": True, "rho_in_sigma1": False}),
        ("thm5.10", "I2.json", {"lp_agrees": True, "pass": True, "rho_in_sigma1": True}),
        ("thm5.11", "I2.json", {"a": True, "b": True, "c": True, "pass": True}),
        ("cor6.4", "U.json", {"cases": 3, "counterexample": None, "pass": True}),
        (
            "cor4.8-gap",
            "U.json",
            {"cases": 3, "counterexample": None, "gap_examples": 0, "pass": True, "skipped_irrational": 0},
        ),
        (
            "cor4.20",
            "peak.json",
            {"counterexample": None, "pass": True, "samples": ["5/4", "3/2", "7/4"]},
        ),
        # rho < 1: the shifts stay positive; rho = 0: no positive shift to probe
        (
            "cor4.20",
            "half.json",
            {"counterexample": None, "pass": True, "samples": ["1/8", "1/4", "3/8"]},
        ),
        ("cor4.20", "nilpotent.json", {"counterexample": None, "pass": True, "samples": []}),
        # the matrices TestForcedFailures forces to fail pass unforced
        ("cor4.2", "above.json", {"cases": 7, "counterexample": None, "pass": True}),
        (
            "thm4.13",
            "D2.json",
            {
                "issues": [],
                "necessary_face": [],
                "pass": True,
                "probe": [],
                "tracedown_witnesses": 2,
            },
        ),
        # radius 0: the shift 0 - 1/3 is skipped, and 1/3 meets e1 alone,
        # which is the all-ones vector at n = 1
        ("thm3.1", "zero1.json", {"cases": 1, "counterexample": None, "pass": True}),
        # the one distinguished eigenvalue is irrational, so no case runs and
        # the report counts it as skipped
        (
            "cor4.8-gap",
            "golden.json",
            {"cases": 0, "counterexample": None, "gap_examples": 0, "pass": True, "skipped_irrational": 1},
        ),
        (
            "cor4.8-gap",
            "gap.json",
            {"cases": 4, "counterexample": None, "gap_examples": 1, "pass": True, "skipped_irrational": 0},
        ),
        # the 0x0 matrix has no nonzero vector to sample
        ("thm3.1", "empty.json", {"cases": 0, "counterexample": None, "pass": True}),
        ("cor4.2", "empty.json", {"cases": 0, "counterexample": None, "pass": True}),
        ("cor6.4", "empty.json", {"cases": 0, "counterexample": None, "pass": True}),
        (
            "cor4.8-gap",
            "empty.json",
            {"cases": 0, "counterexample": None, "gap_examples": 0, "pass": True, "skipped_irrational": 0},
        ),
        # the 0x0 matrix has no class, so its necessary face is empty
        (
            "thm4.13",
            "empty.json",
            {"issues": [], "necessary_face": [], "pass": True, "probe": [], "tracedown_witnesses": 0},
        ),
    ]

    @pytest.mark.parametrize("prop,matrix,expected", CASES)
    def test_property_reports(self, capsys, docs, prop, matrix, expected):
        doc = run_json(capsys, ["check", "--property", prop, docs[matrix]])
        assert doc == expected

    def test_rational_only_suites_reject_float_mode(self, capsys, docs):
        code, _, err = run_cli(
            capsys, ["--mode", "float", "check", "--property", "thm4.13", docs["U.json"]]
        )
        assert code == 2
        assert "rational mode only" in err

    @pytest.mark.parametrize(
        "prop,mode,matrix,message",
        [
            ("cor4.20", "float", "U.json", "this check runs in rational mode only"),
            ("cor4.8-gap", "float", "U.json", "this check runs in rational mode only"),
            ("thm4.13", "rational", "root2.json", "this check needs an exact rational spectral radius"),
            ("cor4.20", "rational", "root2.json", "this check needs an exact rational spectral radius"),
            ("thm5.10", "rational", "root2.json", "this check needs an exact rational spectral radius"),
            # thm5.10 asks for the exact radius only, which float mode never has
            ("thm5.10", "float", "U.json", "this check needs an exact rational spectral radius"),
        ],
    )
    def test_preconditions(self, capsys, docs, prop, mode, matrix, message):
        code, out, err = run_cli(capsys, ["--mode", mode, "check", "--property", prop, docs[matrix]])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_property_is_a_usage_error(self, capsys, docs, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        with assert_raises(SystemExit) as exc:
            main(["check", "--property", "nope", docs["U.json"]])
        assert exc.value.code == 2
        # the choices are the suite ids, in their order, byte for byte
        assert capsys.readouterr().err == (
            "usage: coneq check [-h] --property\n"
            "                   {thm3.1,cor4.2,thm4.13,cor4.20,thm5.10,thm5.11,cor6.4,cor4.8-gap}\n"
            "                   matrix\n"
            "coneq check: error: argument --property: invalid choice: 'nope' (choose from "
            "'thm3.1', 'cor4.2', 'thm4.13', 'cor4.20', 'thm5.10', 'thm5.11', 'cor6.4', 'cor4.8-gap')\n"
        )

    def test_missing_required_flag_is_a_usage_error(self, capsys, docs):
        with assert_raises(SystemExit) as exc:
            main(["solve1", "--lambda", "1", docs["D3.json"]])
        assert exc.value.code == 2


def _doubled_solution(real):
    return lambda P, lam, b, tol: ConeVector.make([e + e for e in real(P, lam, b, tol).entries], P.mode)


def _fixed_witness(x, b):
    return lambda real: lambda P, c, tol: (ConeVector.make(x, P.mode), ConeVector.make(b, P.mode))


def _tracedown_failure(c, problem):
    return f"trace-down witness for class {c}: {problem}"


class TestForcedFailures:
    # (mode, property, matrix, (module, name, fake), exact payload): a decider
    # the suite trusts is made to lie, and the suite must name the lie
    CASES = [
        *[
            (
                mode,
                "cor4.2",
                "above.json",
                (module, name, fake),
                {
                    "cases": 7,
                    "counterexample": {"b": b, "issue": issue, "lambda": lam},
                    "pass": False,
                },
            )
            for mode, b, lam in (
                ("rational", [0, 1], "4/3"),
                ("float", [0.0, 1.0], 1.3333333333333333),
            )
            for module, name, fake, issue in (
                (eq_type2, "solve2_above", _doubled_solution, "constructed solution has a nonzero residual"),
                (
                    spectral,
                    "spectral_pair",
                    lambda real: lambda *args: replace(real(*args), order=2),
                    "constructed solution has the wrong spectral pair",
                ),
            )
        ],
        *[
            (
                "rational",
                "thm4.13",
                "T.json",
                (eq_type2, "tracedown_witness", _fixed_witness(x, b)),
                {
                    "issues": [_tracedown_failure(1, problem)],
                    "necessary_face": [2],
                    "pass": False,
                    "probe": [2],
                    "tracedown_witnesses": 1,
                },
            )
            for x, b, problem in (
                ([1, 1], [0, 1], "residual"),
                ([0, 0], [0, 0], "x not positive on an accessor class"),
                ([1, 1], [0, 0], "b support breaks the strict-access pattern"),
            )
        ],
        (
            "rational",
            "thm4.13",
            "D2.json",
            (eq_type2, "tracedown_witness", _fixed_witness([1, 1], [0, 0])),
            {
                "issues": [_tracedown_failure(c, "support leaks outside the accessors") for c in (0, 1)],
                "necessary_face": [],
                "pass": False,
                "probe": [],
                "tracedown_witnesses": 2,
            },
        ),
        (
            "rational",
            "thm4.13",
            "T.json",
            (eq_type2, "solvable_face_probe", lambda real: lambda *args: frozenset()),
            {
                "issues": ["probe closure differs from the necessary face"],
                "necessary_face": [2],
                "pass": False,
                "probe": [],
                "tracedown_witnesses": 1,
            },
        ),
    ]

    @pytest.mark.parametrize("mode,prop,matrix,forced,expected", CASES)
    def test_forced_failure_reports(self, capsys, docs, monkeypatch, mode, prop, matrix, forced, expected):
        module, name, fake = forced
        monkeypatch.setattr(module, name, fake(getattr(module, name)))
        doc = run_json(capsys, ["--mode", mode, "check", "--property", prop, docs[matrix]])
        assert doc == expected


def _window_samples_reference(P):
    """The cor4.20 samples from a halving loop that counts the eigenvalues in
    (t, rho] with oracle.count_real_roots_in, which builds a Sturm chain on
    every call."""
    rho = spectral.spectral_radius(P)
    coeffs = oracle.charpoly_exact(P)
    t = max(rho - 1, Fraction(0))
    while oracle.count_real_roots_in(coeffs, t, rho) > 1:
        t = (t + rho) / 2
    return [t + (rho - t) * k / 4 for k in (1, 2, 3)]


class TestWindowBelowRho:
    def test_samples_match_the_per_step_chain_loop(self):
        rnd = rng(4111)
        halved = checked = 0
        for _ in range(60):
            for P in (fuzz_matrix(rnd, n_max=5), fuzz_irreducible(rnd)):
                rho = spectral.spectral_radius(P)
                if not isinstance(rho, Fraction) or rho == 0:
                    continue
                want = _window_samples_reference(P)
                got = cli.PROPERTY_SUITES["cor4.20"](P, DEFAULT_TOL)["samples"]
                assert json.dumps(to_json(got)) == json.dumps(to_json(want)), P.rows
                checked += 1
                start = max(rho - 1, 0)
                halved += want[0] != start + (rho - start) / 4  # the loop moved t
        assert checked >= 100 and halved >= 15, (checked, halved)


class TestOutputDiscipline:
    def test_byte_stable_reruns(self, capsys, docs):
        _, first, _ = run_cli(capsys, ["analyze", docs["T.json"]])
        _, second, _ = run_cli(capsys, ["analyze", docs["T.json"]])
        assert first == second
        doc = json.loads(first)
        assert first == json.dumps(doc, sort_keys=True) + "\n"

    def test_reused_parser_prints_what_fresh_processes_print(self, capsys, docs):
        # main parses with one parser built at import: a rejected command
        # line, then valid calls to different verbs in a row, must each
        # print what a fresh process prints
        calls = [
            ["solve1", "--lambda", "1", docs["D3.json"]],
            ["analyze", docs["T.json"]],
            ["solve1", "--lambda", "1", "--b", docs["e3.json"], docs["D3.json"]],
            ["check", "--property", "nope", docs["U.json"]],
            ["--mode", "float", "check", "--property", "cor6.4", docs["U.json"]],
            ["cw", docs["T.json"]],
        ]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            cap = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "coneq.cli", *argv], capture_output=True, text=True
            )
            assert (code, cap.out, cap.err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_module_entry_point(self, docs):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "coneq.cli",
                "solve1",
                "--lambda",
                "1",
                "--b",
                docs["e3.json"],
                docs["D3.json"],
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["solvable"] is False
        assert doc["rho_b"] == 2


# runs each command line of the JSON list in argv[1] in one process, then
# prints on stderr the numpy submodules loaded by then: the lazy binding puts
# an unexecuted `numpy` stub in sys.modules, so only submodules show numpy ran
_COLD_CHILD = """
import json, sys
from coneq.cli import main
for argv in json.loads(sys.argv[1]):
    main(argv)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy."))), file=sys.stderr)
"""


def _readme_examples() -> list:
    """(command line, stdout line) of each README CLI example on P.json."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    return [
        (line.split()[2:], lines[k + 1])
        for k, line in enumerate(lines)
        if line.startswith("$ coneq ") and line.endswith(" P.json") and lines[k + 1].startswith("{")
    ]


class TestColdRationalCall:
    @pytest.fixture
    def readme_dir(self, tmp_path):
        _write(tmp_path, "P.json", {"entries": [[0, 1, 0], [0, 0, 1], ["1/2", 0, 0]]})
        _write(tmp_path, "b.json", {"entries": [1, 0, 0]})
        return tmp_path

    def _cold(self, cwd, argvs):
        src = os.path.dirname(os.path.dirname(os.path.abspath(coneq.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_CHILD, json.dumps(argvs)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, json.loads(proc.stderr.splitlines()[-1])

    def test_readme_examples_print_their_bytes_without_executing_numpy(self, capsys, readme_dir):
        examples = _readme_examples()
        assert [argv[0] for argv, _ in examples] == ["solve1", "solve2"]
        analyze = ["analyze", "P.json"]
        main(["analyze", str(readme_dir / "P.json")])  # in this process, where numpy is loaded
        warm = capsys.readouterr().out
        out, loaded = self._cold(readme_dir, [argv for argv, _ in examples] + [analyze])
        assert out == "".join(line + "\n" for _, line in examples) + warm
        assert loaded == []

    def test_readme_thm4_13_example_prints_its_bytes(self, tmp_path):
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        (tmp_path / "T.json").write_text(lines[lines.index("$ cat T.json") + 1])
        k = lines.index("$ coneq check --property thm4.13 T.json")
        out, loaded = self._cold(tmp_path, [lines[k].split()[2:]])
        assert out == lines[k + 1] + "\n"
        assert loaded == []

    def test_float_mode_loads_numpy(self, readme_dir):
        argv, line = _readme_examples()[0]
        out, loaded = self._cold(readme_dir, [["--mode", "float", *argv]])
        assert json.loads(out)["rho_b"] == json.loads(line)["rho_b"]
        assert "numpy.linalg" in loaded
