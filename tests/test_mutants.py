"""Mutants the checks must kill.  Each mutant is a monkeypatch of one src
function and names the check that must fail under it; a mutant that
survives marks a missing check."""

import inspect
import textwrap

import pytest

import test_classes
import test_collatz_wielandt
import test_eq_type2
import test_oracle
import test_shift_reading
import test_shifted_rows
import test_spectral
from coneq import classes, collatz_wielandt, eq_type2, oracle, spectral
from coneq.core import RATIONAL, NonnegMatrix


def _edited(func, old, new):
    """func recompiled against its own module's globals, with the one source
    fragment old replaced by new (a method is recompiled as a plain def)."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec")
    namespace = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


def _first_target_only():
    return _edited(spectral._back_substitute, "if aimed >> c & 1:", "if c == targets[0]:")


def _share_forced_to_zero():
    original = spectral._back_substitute
    return lambda P, tax, targets, lam, share=0: original(P, tax, targets, lam)


@pytest.mark.parametrize(
    "mutant, check",
    [
        (_first_target_only, test_eq_type2.test_solve2_above_matches_the_per_class_eigenvector_sum),
        (_share_forced_to_zero, test_eq_type2.test_tracedown_matches_the_reference_back_substitution),
    ],
    ids=["first-target-only", "share-forced-to-zero"],
)
def test_back_substitution_mutant_is_killed(monkeypatch, mutant, check):
    patched = mutant()
    # eq_type2 imports the name, so both bindings are patched
    for module in (spectral, eq_type2):
        monkeypatch.setattr(module, "_back_substitute", patched)
    with pytest.raises(AssertionError):
        check()


def _exact_sign(monkeypatch):
    edited = _edited(classes._sign, "if scalars_equal(r, s, tol):", "if r == s:")
    monkeypatch.setattr(classes, "_sign", edited)


def _patch_classify(monkeypatch, old, new):
    edited = _edited(classes.classify, old, new)
    # spectral imports the name, so both bindings are patched
    for module in (classes, spectral):
        monkeypatch.setattr(module, "classify", edited)


def _exact_eigen_dedup(monkeypatch):
    old = "_sign(radii[eigen_classes[-1]], radii[c], tol) != 0"
    _patch_classify(monkeypatch, old, "radii[eigen_classes[-1]] != radii[c]")


def _exact_above_others(monkeypatch):
    old = "_sign(radii[d], radii[c], tol)"
    _patch_classify(monkeypatch, old, "(radii[d] > radii[c]) - (radii[d] < radii[c])")


def _ties_to_the_higher_index(monkeypatch):
    # local_class reads the record's order by radius
    old = "sorted(range(k), key=radii.__getitem__, reverse=True)"
    _patch_classify(monkeypatch, old, "sorted(reversed(range(k)), key=radii.__getitem__, reverse=True)")


def _unnegated_transpose(monkeypatch):
    _patch_classify(monkeypatch, "(-s >= 0) << d", "(s >= 0) << d")


def _widened_radius_sign(monkeypatch):
    new = "Tolerance(self.tol.eq_tol, 10 * self.tol.eig_tol, self.tol.power_iters))"
    edited = _edited(classes.ClassTaxonomy.radius_sign, "self.tol)", new)
    monkeypatch.setattr(classes.ClassTaxonomy, "radius_sign", edited)


def _attainment_on_initial_flags(monkeypatch):
    edited = _edited(collatz_wielandt.rho_in_sigma1, "tax.final", "tax.initial")
    # the test module imports the name, so both bindings are patched
    for module in (collatz_wielandt, test_collatz_wielandt):
        monkeypatch.setattr(module, "rho_in_sigma1", edited)


def _basic_chains_ignored(monkeypatch):
    # condition b passes a basic class that another basic class has access to
    old = "tax.distinguished[c] == tax.basic[c]"
    edited = _edited(collatz_wielandt.zero_intersection_conditions, old, "tax.distinguished[c] <= tax.basic[c]")
    monkeypatch.setattr(collatz_wielandt, "zero_intersection_conditions", edited)
    monkeypatch.setattr(test_collatz_wielandt, "zero_intersection_conditions", edited)


def _one_access_edge_dropped(monkeypatch):
    # the direct edge from the first class to the last is not recorded; the
    # edited copy is memoised afresh
    old = "if cj != ci:"
    edited = _edited(classes.condense.__wrapped__, old, "if cj != ci and (ci, cj) != (0, k - 1):")
    # spectral and the test module import the name, so every binding is patched
    for module in (classes, spectral, test_classes):
        monkeypatch.setattr(module, "condense", edited)


@pytest.mark.parametrize(
    "mutant, check",
    [
        (_exact_sign, lambda cap: test_spectral.TestTaxonomyMemo().test_each_tolerance_has_its_own_entry()),
        (_exact_eigen_dedup, lambda cap: test_classes.test_flags_on_radii_tied_under_the_tolerance((1, 2, 3), RATIONAL)),
        (_exact_above_others, lambda cap: test_classes.test_flags_on_radii_tied_under_the_tolerance((1, 2, 3), RATIONAL)),
        (_ties_to_the_higher_index, lambda cap: test_classes.test_record_matches_the_three_pass_flags_and_the_max_local_class()),
        (_unnegated_transpose, lambda cap: test_classes.test_record_matches_the_three_pass_flags_and_the_max_local_class()),
        (
            _widened_radius_sign,
            lambda cap: test_shift_reading.test_float_verdicts_agree_with_the_lp_outside_the_tolerance_band(cap, rounds=20),
        ),
        (
            _attainment_on_initial_flags,
            lambda cap: test_collatz_wielandt.TestAttainment().test_agrees_with_the_positive_subinvariant_lp(),
        ),
        (
            _basic_chains_ignored,
            lambda cap: test_collatz_wielandt.test_zero_intersection_matches_the_transpose_and_submatrix_records(),
        ),
        (_one_access_edge_dropped, lambda cap: test_classes.test_access_is_the_reachability_of_the_digraph()),
    ],
    ids=[
        "exact-sign", "exact-eigen-dedup", "exact-above-others", "ties-to-the-higher-index", "unnegated-transpose",
        "widened-radius-sign", "attainment-on-initial", "basic-chains-ignored", "one-access-edge-dropped",
    ],
)
def test_record_mutant_is_killed(monkeypatch, capsys, mutant, check):
    # records are memoised per matrix, so each check builds its matrices anew
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        check(capsys)


def _bland_tie_break_reversed(monkeypatch):
    edited = _edited(oracle._simplex_min, "basis[r] < basis[best]", "basis[r] > basis[best]")
    monkeypatch.setattr(oracle, "_simplex_min", edited)


def _zero_column_rows_relabelled(monkeypatch):
    # every row the pivot leaves alone is put over the new d, unscaled
    edited = _edited(oracle._pivot, "tableau[row], dens[row] = prow, p", "tableau[row], dens[:] = prow, [p] * len(dens)")
    monkeypatch.setattr(oracle, "_pivot", edited)


def _max_support_one_short(monkeypatch):
    edited = _edited(oracle.max_support, "res.witness[n:]", "res.witness[n:-1]")
    monkeypatch.setattr(oracle, "max_support", edited)


@pytest.mark.parametrize(
    "mutant, check",
    [
        (_bland_tie_break_reversed, lambda mp: test_oracle.TestLP().test_matches_the_fraction_simplex(mp)),
        (
            _zero_column_rows_relabelled,
            lambda mp: test_oracle.TestExactLinearAlgebra().test_kernel_matches_the_fraction_gauss_jordan(),
        ),
        (
            _max_support_one_short,
            lambda mp: test_oracle.TestFaceQuestions().test_face_questions_match_the_per_coordinate_lps(),
        ),
    ],
    ids=["bland-tie-break-reversed", "zero-column-rows-relabelled", "max-support-one-short"],
)
def test_lp_mutant_is_killed(monkeypatch, mutant, check):
    mutant(monkeypatch)
    # the check undoes its own patches, so it gets a monkeypatch of its own
    with pytest.MonkeyPatch.context() as mp, pytest.raises(AssertionError):
        check(mp)


def _negated_shifted_apply(monkeypatch):
    edited = _edited(NonnegMatrix.shifted_apply, "if sign > 0:", "if sign < 0:")
    monkeypatch.setattr(NonnegMatrix, "shifted_apply", edited)


def test_shifted_product_mutant_is_killed(monkeypatch):
    _negated_shifted_apply(monkeypatch)
    # the check patches the product itself, so it gets a monkeypatch of its own
    with pytest.MonkeyPatch.context() as mp, pytest.raises(AssertionError):
        test_shifted_rows.test_vector_products_match_the_hand_written_ones(mp)
