"""What bench/ relies on in coneq, checked without running the benchmark.

bench/tracer.py wraps the functions its LAYERS table names at every coneq
binding, bench/run.py clears the condense and class_radii caches between
passes and reads their hit ratios, and bench/test_smoke.py expects
class_radii to be bound in four modules.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402  (imports no coneq module at import time)

import coneq  # noqa: E402
from coneq import classes, spectral  # noqa: E402


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
