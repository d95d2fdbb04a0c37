"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py      (or: python3 bench/test_smoke.py)

It checks that every metric in BENCHMARK.json is printed exactly once with
its unit, that every workload runs without a failed case, that the
per-layer self times plus the benchmark's own remainder add up to the
traced wall time, and that uninstalling the tracer restores every wrapped
coneq binding.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.02
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    run.SETUP_SAMPLES = 1  # no set-up probes in child processes
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)], scale=SCALE)
    assert code == 0
    lines = out.getvalue().splitlines()
    printed = [line.split() for line in lines if line.startswith("metric ")]
    defects = [line.split()[1] for line in lines if line.startswith("known_defect ")]
    assert sorted(defects) == sorted(workloads.KNOWN_DEFECTS)
    return printed, json.loads(lines[-1])


def _check_names(printed, result, specs, extra=()):
    names = [p[1] for p in printed]
    units = {p[1]: p[3] for p in printed}
    for spec in specs:
        assert names.count(spec["name"]) == 1, spec["name"]
        assert units[spec["name"]] == spec["unit"], spec["name"]
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"], spec["name"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    assert set(names) == {s["name"] for s in specs} | set(extra)
    assert len(names) == len(set(names))


def test_end_to_end_metrics_and_no_failures():
    for workload in ("sweep", "probe", "decide", "cli"):
        printed, result = _run(workload, 0)
        _check_names(printed, result, SPEC["end_to_end"], extra=run.RESULT_LINE_EXCLUDES)
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"] is True, workload
        assert [p for p in printed if p[1] == "error_rate"][0][2] == "0"


def test_traced_metrics_add_up():
    for workload in ("sweep", "cli"):
        printed, result = _run(workload, 1)
        _check_names(printed, result, SPEC["per_layer"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        own = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) + m["bench.self_s"]
        assert math.isclose(own, m["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9)
        assert m["trace.overhead_ratio"] > 0


def test_uninstall_restores_every_binding():
    import coneq.cli  # noqa: F401  (every coneq module is loaded)
    from coneq import eq_type1, eq_type2, spectral

    original = spectral.class_radii
    tr = tracer.Tracer()
    tr.install()
    try:
        holders = {m.__name__ for m, attr, orig in tr.bindings if orig is original}
        assert {"coneq", "coneq.spectral", "coneq.eq_type1", "coneq.eq_type2"} <= holders
        assert eq_type1.class_radii is not original and eq_type2.class_radii is eq_type1.class_radii
    finally:
        tr.uninstall()
    assert tr.restored() and eq_type1.class_radii is original and eq_type2.class_radii is original
    for key, orig in tr.originals.items():
        layer, name = key.split(".", 1)
        assert getattr(sys.modules[f"coneq.{layer}"], name) is orig, key


if __name__ == "__main__":
    test_end_to_end_metrics_and_no_failures()
    test_traced_metrics_add_up()
    test_uninstall_restores_every_binding()
    print("smoke test passed")
