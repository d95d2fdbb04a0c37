"""Outside-in span tracer for coneq.

``Tracer.install`` wraps a fixed list of public coneq functions at every
``coneq`` module binding that holds them (``class_radii`` is imported by
name into several modules, and each of those bindings is replaced), and
``uninstall`` puts the original objects back.  Wrappers record spans only
while ``enabled`` is set, so the benchmark's own untimed checks do not
show up.  Spans stay in memory; ``summary`` turns them into per-layer and
per-function metrics and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Layer -> wrapped public functions.  Cheap scalar helpers (core.support,
# core.scalars_equal and the like) are left out: they run millions of times
# and a wrapper would cost more than their work.
LAYERS = {
    "core": ("solve_linear", "saturate", "snap_cone"),
    "classes": ("condense", "classify", "smallest_initial_superset", "is_initial"),
    "spectral": (
        "class_radii", "spectral_radius", "taxonomy", "local_spectral_radius",
        "local_radius_estimate", "distinguished_eigenvalues", "fv_eigenvector",
        "spectral_pair", "eigenvalue_index", "max_distinguished_order", "spectral_report",
    ),
    "eq_type1": (
        "solvable1", "minimal_solution", "solve1", "neumann_partial", "solvable_set",
        "solvability_conditions",
    ),
    "eq_type2": (
        "combinatorial_solvable_above", "solve2_above", "solvable2", "necessary_face",
        "solvable_face_probe", "tracedown_witness", "resolvent_sign", "subcritical_window",
        "image_membership",
    ),
    "collatz_wielandt": (
        "cw_numbers", "cw_sets", "rho_in_sigma1", "decompose_subinvariant",
        "decompose_superinvariant", "zero_intersection_conditions", "boundary_report",
        "power_limit_exists",
    ),
    "alternating": ("alt_length", "exists_infinite", "is_m_matrix", "alternating_bound_report"),
    "oracle": (
        "solve_lp", "lp_feasible", "feasible_nonneg_solution", "shifted_image_rows",
        "solve_signed", "nullspace_exact", "matrix_power_exact", "generalized_nullspace_exact",
        "charpoly_exact", "count_real_roots_in", "eig_all", "decompose_generalized",
        "krylov_local_rho",
    ),
    "cli": ("main",),
}
# functions reported one by one (.calls and .self_s)
FUNCTIONS = (
    "oracle.solve_lp", "oracle.matrix_power_exact", "oracle.nullspace_exact",
    "oracle.generalized_nullspace_exact", "oracle.decompose_generalized",
    "eq_type1.solvability_conditions", "classes.condense", "classes.classify",
    "spectral.class_radii", "core.solve_linear", "eq_type2.solvable_face_probe", "cli.main",
)
CACHED = ("classes.condense", "spectral.class_radii")
CASE = "bench.case"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, case, raised)
        self.stack = []
        self.next_id = 0
        self.case = -1
        self.enabled = False
        self.originals = {}  # "layer.function" -> original object
        self.bindings = []  # (module, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "coneq" or name.startswith("coneq.")]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"coneq.{layer}")
            for fname in names:
                key = f"{layer}.{fname}"
                orig = getattr(mod, fname)
                self.originals[key] = orig
                wrapper = self._wrap(orig, key)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self.bindings.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in self.bindings:
            setattr(m, attr, orig)

    def restored(self) -> bool:
        return all(getattr(m, attr) is orig for m, attr, orig in self.bindings)

    def _wrap(self, fn, key):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, key, start, end, parent, self.case, raised))

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def open_case(self, case: int) -> int:
        """Start the root span of one case; its times are the case's own."""
        sid = self.next_id
        self.next_id = sid + 1
        self.case = case
        self.stack.append(sid)
        return sid

    def close_case(self, sid: int, start: float, end: float) -> None:
        self.stack.pop()
        self.spans.append((sid, CASE, start, end, -1, self.case, False))

    def summary(self) -> dict:
        """Per-layer and per-function metrics over all spans so far."""
        child = defaultdict(float)
        name_of = {}
        for sid, name, start, end, parent, _, _ in self.spans:
            name_of[sid] = name
            if parent >= 0:
                child[parent] += end - start
        wall = sum(end - start for _, name, start, end, _, _, _ in self.spans if name == CASE)
        calls, self_s, errors = defaultdict(int), defaultdict(float), defaultdict(int)
        for sid, name, start, end, parent, _, raised in self.spans:
            layer = name.split(".")[0]
            own = end - start - child[sid]
            for key in (layer, name):
                calls[key] += 1
                self_s[key] += own
            if raised and (parent < 0 or name_of[parent].split(".")[0] != layer):
                errors[layer] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.share"] = (self_s[layer] / wall if wall else 0.0, "ratio")
            out[f"{layer}.errors"] = (errors[layer], "count")
        out["bench.self_s"] = (self_s["bench"], "s")
        for key in FUNCTIONS:
            out[f"{key}.calls"] = (calls[key], "count")
            out[f"{key}.self_s"] = (self_s[key], "s")
        for key in CACHED:
            info = self.originals[key].cache_info()
            looked_up = info.hits + info.misses
            out[f"{key}.hit_ratio"] = (info.hits / looked_up if looked_up else 0.0, "ratio")
        out["trace.wall_s"] = (wall, "s")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "case", "raised"], "spans": self.spans},
                fh,
            )
