"""Source hygiene: no module of the package imports a name it never uses,
no private module-level name goes unused by the package, no public def or
class is dead (each is exported, read by a package module or traced by the
benchmark), the float eigen pass has one caller, only the structure
record's builder condenses and classifies, only that record compares a
shift with a radius and it compares radii by one rule, only the record
reads the classes a set reaches, one runner builds the CLI's sampled reports, no
module builds a transpose or a submatrix, one helper reads the float
lane's peripheral band, one generator bisects on a Sturm root count, one
back-substitution is handed its Perron classes, the zero-intersection
battery runs one LP, image_membership's column LP follows a feasible full
LP, a shift is read in one place, the shifted product has one
implementation, every LP reaches the simplex through solve_lp and has its
rows scaled by one helper, every import sits at module level, and numpy is
bound once, lazily, in core."""

import ast
import inspect
import sys
from collections import Counter
from pathlib import Path

import coneq

PACKAGE = Path(coneq.__file__).resolve().parent
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402  (imports no coneq module at import time)


def _unused_imports(path: Path) -> list:
    """Names a module imports and never reads; an import line marked
    `# noqa: F401` is a deliberate binding and exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 9
    unused = {p.name: _unused_imports(p) for p in modules}
    assert not any(unused.values()), {k: v for k, v in unused.items() if v}


def _private_definitions(tree):
    """(name, node) for each module-level def, class or assignment of a
    private name (one leading underscore)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node) -> Counter:
    """Names read under a node: loaded names, attributes and imported names."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _trees() -> dict:
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _unread(definitions) -> list:
    """'module: name' for each (module, name, node) that no package module
    reads outside the definition itself; references from the tests do not
    count."""
    trees = _trees()
    assert len(trees) >= 10
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in definitions(tree)
        if refs[name] <= _references(node)[name]
    )


def test_no_dead_private_helpers():
    dead = _unread(_private_definitions)
    assert not dead, dead


def _public_defs(tree):
    """(name, node) for each module-level def or class of a public name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node


def test_no_dead_public_defs():
    # a public def is dead unless coneq exports it, a package module reads
    # it, or the benchmark traces it (bench/tracer.LAYERS)
    kept = set(coneq.__all__) | {name for names in tracer.LAYERS.values() for name in names}
    dead = [entry for entry in _unread(_public_defs) if entry.split(": ")[1] not in kept]
    assert not dead, dead


def _call_sites(names) -> dict:
    """For each name, the (module, top-level def) pairs of the package that
    call it, by plain name or as an attribute."""
    sites = {name: [] for name in names}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in sites:
                        sites[name].append((path.name, getattr(top, "name", None)))
    return sites


def test_one_float_eigen_pass():
    # every float eigenspace question reads the record oracle._eigenspaces
    # keeps on the matrix, so the eigen pass itself is called there alone
    sites = _call_sites(["_eigen_clusters"])["_eigen_clusters"]
    assert sites == [("oracle.py", "_eigenspaces")], sites


def test_one_structure_builder():
    # every class and radius question reads the record spectral.taxonomy
    # keeps on the matrix, so only building that record condenses the
    # matrix, computes its class radii and classifies
    sites = _call_sites(["classify", "condense", "class_radii"])
    assert sites == {
        "classify": [("spectral.py", "taxonomy")],
        "condense": [("spectral.py", "class_radii"), ("spectral.py", "taxonomy")],
        "class_radii": [("spectral.py", "taxonomy")],
    }, sites


def test_the_structure_record_decides_radius_comparisons():
    # a shift is compared with a class radius only through ClassTaxonomy,
    # which keeps its tolerance: outside classes.py and core.py the scalar
    # comparisons serve only the CLI's shift deduplication and residual test
    names = ["scalars_equal", "lex_leq"]
    allowed = {("cli.py", "_shift_sweep"), ("cli.py", "_solves_type2")}
    stray = [
        (name, site)
        for name, sites in _call_sites(names).items()
        for site in sites
        if site[0] not in ("classes.py", "core.py") and site not in allowed
    ]
    assert not stray, stray
    methods = [
        f
        for name, f in vars(coneq.classes.ClassTaxonomy).items()
        if inspect.isfunction(f) and not name.startswith("__")  # the dataclass __init__ takes it
    ]
    assert len(methods) >= 7
    assert not [f.__name__ for f in methods if "tol" in inspect.signature(f).parameters]


def test_one_rule_compares_radii():
    # classes._sign is the one comparison of two radii, or of a radius and a
    # shift: in classes.py only it calls scalars_equal, and classify calls no
    # scalar helper of core but it
    sites = _innermost_call_sites("scalars_equal")
    assert {site for site in sites if site[0] == "classes.py"} == {("classes.py", "_sign")}, sites
    helpers = {node.name for node in _trees()["core.py"].body if isinstance(node, ast.FunctionDef)}
    classify = next(
        node for node in _trees()["classes.py"].body if isinstance(node, ast.FunctionDef) and node.name == "classify"
    )
    called = {
        node.func.id
        for node in ast.walk(classify)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert called & (helpers | {"_sign"}) == {"_sign"}, called


def test_only_the_record_reads_the_classes_a_set_reaches():
    # the complement of an initial set below a shift is the one question
    # that needs the classes a set reaches; rho-attainment reads final flags
    assert _innermost_call_sites("reached_mask") == {("classes.py", "ClassTaxonomy.blocked_mask")}


def test_a_radius_is_compared_with_a_shift_in_four_places():
    # the one-pass rule: every class set at a shift (the flagged classes at
    # it, the classes blocked at it) is read off the signs that
    # ClassTaxonomy.signs returns; spectral_pair compares radii with rho_x
    assert _innermost_call_sites("radius_sign") == {
        ("classes.py", "ClassTaxonomy.signs"),
        ("classes.py", "ClassTaxonomy.is_distinguished_eigenvalue"),
        ("classes.py", "ClassTaxonomy.local_sign"),
        ("spectral.py", "spectral_pair"),
    }


def test_the_zero_intersection_battery_runs_one_lp():
    # conditions a and b are read off the structure record, so
    # collatz_wielandt takes no exact matrix power or nullspace and runs no
    # LP of its own: its one LP, condition c, is the face probe at rho
    names = ["matrix_power_exact", "nullspace_exact", "max_support", "solve_lp", "lp_feasible",
             "feasible_nonneg_solution", "solvable_face_probe"]
    sites = {
        name: [site for site in found if site[0] == "collatz_wielandt.py"] for name, found in _call_sites(names).items()
    }
    want = {name: [] for name in names}
    want["solvable_face_probe"] = [("collatz_wielandt.py", "zero_intersection_conditions")]
    assert sites == want, sites


def test_the_column_lp_runs_after_a_feasible_full_lp():
    # image_membership's LP on the columns of J runs only when the LP on all
    # columns is feasible: where that one is skipped (rho_b > lambda) no
    # x >= 0 supported in the initial set J has b as its image
    func = next(
        node
        for node in _trees()["eq_type2.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "image_membership"
    )
    assigned = {
        node.targets[0].id: ast.unparse(node.value)
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    assert assigned["in_s2"].startswith("in_s1 and oracle.feasible_nonneg_solution("), assigned["in_s2"]
    assert assigned["in_s1"].startswith("sign <= 0 and oracle.feasible_nonneg_solution("), assigned["in_s1"]


def test_one_sampled_report_builder():
    # the CLI's sampled suites judge their cases through cli._sampled_report,
    # the one place a {"pass", "cases", "counterexample"} report is built
    builders = {
        top.name
        for top in _trees()["cli.py"].body
        for node in ast.walk(top)
        if isinstance(node, ast.Dict) and any(isinstance(k, ast.Constant) and k.value == "cases" for k in node.keys)
    }
    assert builders == {"_sampled_report"}, builders
    assert _innermost_call_sites("_sampled_report") == {
        ("cli.py", "_check_type1_battery"),
        ("cli.py", "_check_above_regime"),
        ("cli.py", "_check_alternating_bounds"),
        ("cli.py", "_check_membership_gap"),
    }


def test_no_module_builds_a_transpose_or_a_submatrix():
    # every question about P^T or a principal block of P is answered from
    # P's own structure record or P's rows, so no second matrix is built
    sites = _call_sites(["transpose", "submatrix"])
    assert sites == {"transpose": [], "submatrix": []}, sites


def test_one_peripheral_band():
    # the power limit and the gamma deduction place each component against
    # rho_x through EigComponent.relative_to, the one reader of that band
    readers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "eig_tol"
    }
    assert not readers & {"collatz_wielandt.py", "alternating.py"}, readers
    assert _innermost_call_sites("relative_to") == {
        ("collatz_wielandt.py", "power_limit_exists"),
        ("alternating.py", "_gamma_deduction"),
    }


def _halving_loops() -> list:
    """(module, top-level def) for each loop of the package that assigns a
    value halved by `/ 2`: a bisection."""
    sites = []
    for name, tree in _trees().items():
        for top in tree.body:
            for loop in ast.walk(top):
                if isinstance(loop, (ast.While, ast.For)) and any(
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Div)
                    and isinstance(node.value.right, ast.Constant)
                    and node.value.right.value == 2
                    for node in ast.walk(loop)
                ):
                    sites.append((name, getattr(top, "name", None)))
    return sites


def test_one_sturm_counter():
    # every exact root count goes through oracle._sturm_counter, so the
    # chain, its sign changes and polynomial values are computed in oracle;
    # root_brackets is the one bisection on a root count, and the counter's
    # only other caller, count_real_roots_in, runs no loop
    names = ["_sturm_chain", "_variations", "_poly_eval"]
    stray = [(name, site) for name, sites in _call_sites(names).items() for site in sites if site[0] != "oracle.py"]
    assert not stray, stray
    assert _innermost_call_sites("_sturm_counter") == {
        ("oracle.py", "root_brackets"),
        ("oracle.py", "count_real_roots_in"),
    }
    assert _halving_loops() == [("oracle.py", "root_brackets")]


def test_one_back_substitution():
    # the eigenvectors, the trace-down witnesses and the above-regime
    # eigenvector sum come from one back-substitution; each caller names the
    # classes that take Perron vectors, so it compares no radius with lambda
    assert _innermost_call_sites("_back_substitute") == {
        ("spectral.py", "fv_eigenvector"),
        ("eq_type2.py", "tracedown_witness"),
        ("eq_type2.py", "_solve2_above"),
    }
    assert ("spectral.py", "_back_substitute") not in _innermost_call_sites("radius_sign")
    assert _innermost_call_sites("perron_vector_block") == {
        ("spectral.py", "class_radii"),
        ("spectral.py", "_back_substitute"),
    }


def test_a_shift_is_read_once():
    # the decision procedures read lambda with as_scalar in one place,
    # _check_inputs, and every entry point rebinds lambda from it
    sites = _call_sites(["as_scalar"])["as_scalar"]
    sites = [site for site in sites if site[0] in ("eq_type1.py", "eq_type2.py")]
    assert sites == [("eq_type1.py", "_check_inputs")], sites


def _innermost_call_sites(name) -> set:
    """(module, dotted path of the innermost enclosing def or class) for each
    call of name, by plain name or as an attribute, in the package."""
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    sites.add((module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return sites


def test_one_shifted_product():
    # sign*(P - lambda*I)x is computed by NonnegMatrix.shifted_apply alone:
    # every other product with P is a plain product, not a shifted one
    assert _innermost_call_sites("apply") == {
        ("core.py", "saturate"),
        ("core.py", "NonnegMatrix.shifted_apply"),
        ("collatz_wielandt.py", "cw_numbers"),
        ("alternating.py", "_eigenvector_witness"),
        ("eq_type1.py", "neumann_partial"),
    }


def test_one_simplex_entry_and_one_row_scaling():
    # every LP is pivoted through solve_lp, the traced entry, and only
    # oracle._integer_rows turns rational rows into integer ones: no other
    # code takes a common denominator or reads a numerator or denominator
    # (but core.format_scalar, which prints a Fraction,
    # oracle.shifted_image_rows, which reads its one shift as p/q, and
    # core._sign_key, which reads a sign off them, never a scale)
    assert _innermost_call_sites("_simplex_min") == {("oracle.py", "solve_lp")}
    assert _innermost_call_sites("lcm") == {("oracle.py", "_integer_rows")}
    assert _innermost_call_sites("as_integer_ratio") == {
        ("oracle.py", "_integer_rows"),
        ("oracle.py", "shifted_image_rows"),
    }
    readers = {
        (name, top.name)
        for name, tree in _trees().items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
    }
    assert readers == {("core.py", "format_scalar"), ("core.py", "_sign_key")}, readers


def test_one_pivot_kernel():
    # the LP's two phases, its artificial drive-out and the exact
    # eliminations all pivot through oracle._pivot, the one kernel that
    # keeps each row over its own denominator
    assert _innermost_call_sites("_pivot") == {
        ("oracle.py", "_simplex_min"),
        ("oracle.py", "solve_lp"),
        ("oracle.py", "_gauss_jordan"),
    }


def test_imports_sit_at_module_level():
    nested = [
        f"{name}: line {node.lineno}"
        for name, tree in _trees().items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, nested


def test_numpy_is_bound_once_in_core():
    # core binds np lazily, so exact work never executes numpy: no module
    # imports numpy itself, and each other module reading np takes core's
    trees = _trees()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "numpy" for a in node.names), (name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "numpy", (name, node.lineno)
    assert any(
        isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "np" for t in node.targets)
        for node in trees["core.py"].body
    )
    for name, tree in trees.items():
        reads_np = any(isinstance(node, ast.Name) and node.id == "np" for node in ast.walk(tree))
        from_core = any(
            isinstance(node, ast.ImportFrom) and node.module == "core" and node.level == 1
            and any(a.name == "np" and a.asname is None for a in node.names)
            for node in tree.body
        )
        assert name == "core.py" or reads_np == from_core, name
