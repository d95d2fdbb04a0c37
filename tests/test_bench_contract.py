"""What bench/ relies on in coneq, checked without running the benchmark.

bench/tracer.py wraps the functions its LAYERS table names at every coneq
binding, bench/run.py clears the condense and class_radii caches between
passes and reads their hit ratios, bench/test_smoke.py expects
class_radii to be bound in four modules, and bench/workloads.py hands the
rows of oracle.shifted_image_rows to oracle.feasible_nonneg_solution as
they come, in Sweep.run and in LPMemo.feasible.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402  (imports no coneq module at import time)
import workloads  # noqa: E402  (imports no coneq module at import time)

import coneq  # noqa: E402
from coneq import classes, core, eq_type1, oracle, spectral  # noqa: E402
from fuzz import fuzz_matrix, fuzz_vector, irregular, lambda_sweep, rng  # noqa: E402


def test_every_traced_function_resolves():
    for layer, names in tracer.LAYERS.items():
        mod = importlib.import_module(f"coneq.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{layer}.{name}"
    for key in tracer.FUNCTIONS + tracer.CACHED:
        layer, name = key.split(".")
        assert name in tracer.LAYERS[layer], key


def test_cleared_caches_keep_their_interface():
    for fn in (classes.condense, spectral.class_radii):
        assert callable(fn.cache_clear) and callable(fn.cache_info)
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_class_radii_is_bound_where_the_smoke_test_looks():
    for name in ("coneq", "coneq.spectral", "coneq.eq_type1", "coneq.eq_type2"):
        assert importlib.import_module(name).class_radii is spectral.class_radii, name
    assert coneq.class_radii is spectral.class_radii


def _fraction_verdict(P, lam, b, sign):
    """The exact LP's verdict on sign*(P - lam*I)x = b from rows of Fractions
    written entry by entry."""
    lam = Fraction(lam)
    rows = [
        [sign * (Fraction(e) - (lam if i == j else 0)) for j, e in enumerate(row)]
        for i, row in enumerate(P.rows)
    ]
    return oracle.feasible_nonneg_solution(rows, [Fraction(e) for e in b.entries]).feasible


def test_the_benchmarks_lp_call_shapes_keep_their_verdicts():
    # Sweep.run and LPMemo.feasible, as bench/workloads.py writes them, on
    # rational and float matrices with both signs
    M = SimpleNamespace(core=core, eq_type1=eq_type1, oracle=oracle)
    rnd = rng(2305)
    verdicts = {True: 0, False: 0}
    for _ in range(12):
        P = fuzz_matrix(rnd, n_max=6)
        for Q in (P, irregular(rnd, P)):
            b = fuzz_vector(rnd, Q.n)
            for lam in lambda_sweep(Q):
                for mode in (core.RATIONAL, core.FLOAT):
                    A = Q if mode == core.RATIONAL else Q.to_float()
                    x = b if mode == core.RATIONAL else b.to_float()
                    shift = lam if mode == core.RATIONAL else float(lam)
                    memo = workloads.LPMemo()
                    for sign in (1, -1):
                        want = _fraction_verdict(A, shift, x, sign)
                        assert memo.feasible(M, sign, A, shift, x, sign) is want, (A, shift, sign)
                        verdicts[want] += 1
                    _, lp = workloads.Sweep.run(M, (A, shift, x))
                    assert lp is _fraction_verdict(A, shift, x, -1), (A, shift)
    assert min(verdicts.values()) >= 50, verdicts
