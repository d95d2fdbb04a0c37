"""Mutants the checks must kill.  Each mutant is a monkeypatch of one src
function and names the check that must fail under it; a mutant that
survives marks a missing check."""

import inspect

import pytest

import test_eq_type2
from coneq import eq_type2, spectral


def _edited(func, old, new):
    """func recompiled against its own module's globals, with the one source
    fragment old replaced by new."""
    source = inspect.getsource(func)
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
