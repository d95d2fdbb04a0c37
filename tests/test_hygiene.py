"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import coneq

PACKAGE = Path(coneq.__file__).resolve().parent


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
