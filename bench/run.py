"""coneq benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload {sweep,probe,decide,cli} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that has ``src/coneq``; the package is
imported from there, never from site-packages.  Inputs come from the seed
alone (``bench/gen.py``).  Every case is checked outside its timed region,
and failures are counted, never filtered out.  The workloads steer around
the known defects of coneq (``KNOWN_DEFECTS`` in ``workloads.py``); each run
reports whether each is still present.

``--trace 0`` measures cases for S seconds of case time and reports the
end-to-end metrics: set-up time (median of seven set-ups, each ``import
coneq`` plus building every input object in a fresh process), throughput,
median and tail case latency, error rate and peak RSS.  ``--trace 1`` runs a
fixed number of cases twice, untraced and then with the span tracer
installed, and reports the per-layer metrics; the caches are cleared
before each of the two passes so both start alike.

Host speed.  On a shared host the speed of one core can change by a factor
of two within seconds, for reasons outside the process.  So the timed
end-to-end metrics are reported at a reference host speed: between cases,
outside the timed region, the run times a fixed pure-Python kernel
(``reference_kernel``, no coneq code) after every PROBE_EVERY_S of case
time, and each case's time is scaled by REF_NOMINAL_S over the median of
the kernel times around it.  The raw, unscaled figures are printed (``raw``
lines) and recorded too.  Set-up time is not scaled: it is mostly module
loading, which does not follow the kernel's speed.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(environment, input digest, failures, raw and scaled metrics) goes to
``bench/results/``, with the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
SETUP_SAMPLES = 7
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 2  # probes on each side of a case's own probe in its speed estimate
REF_NOMINAL_S = 0.001  # reference kernel time that defines the reference host speed
REF_MATRIX = [[Fraction(1, i + j + 1) + (2 if i == j else 0) for j in range(5)] for i in range(5)]
# error_rate is 0 on a correct run, and the result line may carry only
# metrics that are never 0: it reaches the result line as failed/attempted
RESULT_LINE_EXCLUDES = ("error_rate",)
MODULES = ("core", "classes", "spectral", "eq_type1", "eq_type2", "collatz_wielandt", "alternating", "oracle", "cli")

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, LPMemo  # noqa: E402


def setup(wl, raw, workdir):
    """``import coneq`` plus building every input object; returns the module
    namespace, the cases and the seconds taken."""
    start = perf_counter()
    import coneq.cli

    M = SimpleNamespace(**{name: sys.modules[f"coneq.{name}"] for name in MODULES})
    cases = wl.build(M, raw, str(workdir))
    seconds = perf_counter() - start
    if Path(coneq.__file__).resolve().parent != SRC / "coneq":
        raise SystemExit(f"coneq was imported from {coneq.__file__}, not from {SRC}")
    return M, cases, seconds


def reference_kernel():
    """A fixed unit of pure-Python exact arithmetic (Gauss-Jordan inversion
    of a 5x5 rational matrix), independent of coneq."""
    n = len(REF_MATRIX)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(REF_MATRIX)]
    for col in range(n):
        inv = 1 / a[col][col]
        a[col] = [e * inv for e in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [e - f * p for e, p in zip(a[r], a[col])]
    return a


def probe_host() -> float:
    """Fastest of three kernel runs: the first may pay for caches the
    preceding case evicted, which says nothing about the host."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - start)
    return best


def run_pass(wl, M, cases, memo, *, seconds=None, count=None, tr=None):
    """Issue cases in order (cycling) until ``seconds`` of case time or
    ``count`` cases.  Returns per-case seconds, per-case seconds at the
    reference host speed, and the failure messages."""
    times, failures, probes, probe_at = [], [], [], []
    timed = since_probe = 0.0
    i = 0
    while (timed < seconds) if count is None else (i < count):
        idx = i % len(cases)
        case = cases[idx]
        if tr is not None:
            sid = tr.open_case(i)
            tr.enabled = True
        err = out = None
        start = perf_counter()
        try:
            out = wl.run(M, case)
        except Exception as exc:  # a failed case is counted, not fatal
            err = exc
        end = perf_counter()
        if tr is not None:
            tr.enabled = False
            tr.close_case(sid, start, end)
        times.append(end - start)
        timed += end - start
        since_probe += end - start
        if err is not None:
            failures.append(f"case {idx}: {type(err).__name__}: {err}")
        else:
            try:
                problem = wl.check(M, idx, case, out, memo)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(f"case {idx}: {problem}")
        i += 1
        if since_probe >= PROBE_EVERY_S:
            probes.append(probe_host())
            probe_at.append(i)
            since_probe = 0.0
    if not probes or probe_at[-1] < i:
        probes.append(probe_host())
        probe_at.append(i)
    return times, at_reference_speed(times, probes, probe_at), failures


def at_reference_speed(times, probes, probe_at) -> list:
    """Scale each case time by REF_NOMINAL_S over the median kernel time of
    the probes around the first one taken after the case."""
    speed = [
        REF_NOMINAL_S / statistics.median(probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])
        for j in range(len(probes))
    ]
    out, k = [], 0
    for i, t in enumerate(times):
        while probe_at[k] <= i:
            k += 1
        out.append(t * speed[k])
    return out


def tail(times, pct):
    """Nearest-rank percentile (ms) and how many samples lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1] * 1000, len(ordered) - rank


def setup_samples(args) -> list:
    """Set-ups in fresh child processes, run while this process has not
    imported coneq or numpy yet."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def blas_info():
    """BLAS library and thread count, read from the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads", "MKL_Get_Max_Threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in getters:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return {"library": os.path.basename(path), "threads": fn()}
    return {"library": libs[0] if libs else None, "threads": None}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None, scale: float = 1.0) -> int:
    """``scale`` shrinks the inputs and the traced case count (smoke test)."""
    args = parse_args(argv)
    if not (SRC / "coneq" / "__init__.py").is_file():
        print(f"error: no coneq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    raw = wl.raw(args.seed, scale)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [] if args.setup_only or args.trace else setup_samples(args)
        M, cases, seconds = setup(wl, raw, workdir)
        setups.append(seconds)
        if args.setup_only:
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, wl, raw, M, cases, setups, workdir, scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, raw, M, cases, setups, workdir, scale) -> int:
    env = environment(args)
    inputs = {
        "digest": gen.digest((raw["pool"], raw["cases"])),
        "matrices": len(raw["pool"]),
        "cases": len(cases),
        "max_n": max(inst.n for inst in raw["pool"]),
    }
    caches = (M.classes.condense, M.spectral.class_radii)
    memo = LPMemo()
    wl.run(M, wl.warm_case(M, workdir))
    record = {"env": env, "inputs": inputs}
    metrics, raw_metrics = {}, {}
    if args.trace:
        count = max(1, round(wl.trace_cases * scale))
        for cache in caches:
            cache.cache_clear()
        untraced, untraced_ref, failures = run_pass(wl, M, cases, memo, count=count)
        for cache in caches:
            cache.cache_clear()
        tr = tracer.Tracer()
        tr.install()
        try:
            traced, traced_ref, more = run_pass(wl, M, cases, memo, count=count, tr=tr)
        finally:
            tr.uninstall()
        if not tr.restored():
            raise SystemExit("tracer left a wrapped coneq binding behind")
        failures += more
        attempted = len(untraced) + len(traced)
        metrics = tr.summary()
        # the two passes may meet different host speeds: compare them at
        # the reference speed
        metrics["trace.overhead_ratio"] = (sum(traced_ref) / sum(untraced_ref), "ratio")
        record["spans"] = len(tr.spans)
        RESULTS.mkdir(parents=True, exist_ok=True)
        tr.dump(RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
        shown = metrics
    else:
        times, scaled, failures = run_pass(wl, M, cases, memo, seconds=args.seconds)
        attempted = len(times)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        inputs["cache_entries"] = [c.cache_info().currsize for c in caches]
        for out, sample in ((metrics, scaled), (raw_metrics, times)):
            tail_ms, beyond = tail(sample, wl.tail_pct)
            out.update({
                "setup_s": (statistics.median(setups), "s"),
                "cases_per_s": (len(sample) / sum(sample), "cases/s"),
                "case_p50_ms": (statistics.median(sample) * 1000, "ms"),
                "case_tail_ms": (tail_ms, "ms"),
                "error_rate": (len(failures) / attempted, "ratio"),
                "peak_rss_mb": (peak, "MB"),
            })
        record["setup_samples"] = setups
        record["tail"] = {"percentile": wl.tail_pct, "cases": len(times), "beyond": beyond}
        record["host_speed"] = sum(scaled) / sum(times)
        shown = {k: v for k, v in metrics.items() if k not in RESULT_LINE_EXCLUDES}
    # after every measurement, so the reproducers add to no metric
    record["known_defects"] = {name: probe(M, str(workdir)) for name, probe in KNOWN_DEFECTS.items()}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["raw_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()}
    record["failures"] = failures[:20]
    record.update(attempted=attempted, failed=len(failures))
    RESULTS.mkdir(parents=True, exist_ok=True)
    mode = "trace" if args.trace else "e2e"
    with open(RESULTS / f"{args.workload}-seed{args.seed}-{mode}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print("env", json.dumps(env, sort_keys=True))
    print("inputs", json.dumps(inputs, sort_keys=True))
    if "tail" in record:
        t = record["tail"]
        print(f"case_tail_ms is p{t['percentile']} over {t['cases']} cases, {t['beyond']} beyond it")
        print(f"host speed factor {record['host_speed']:.4f} (scaled over raw case time)")
    for name, (value, unit) in raw_metrics.items():
        print(f"raw {name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, present in record["known_defects"].items():
        print(f"known_defect {name} {'present' if present else 'absent'}")
    for line in failures[:5]:
        print("failure", line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
