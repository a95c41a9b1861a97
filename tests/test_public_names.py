"""The package's public names: every name in stochwave.__all__ is bound
on the package, and a star import binds exactly those names, so a
deleted object cannot linger as a stale export.  Every module but the
package's __init__ uses each name it imports, unless the import line is
marked `# noqa: F401` (a binding kept for a caller outside the module),
so a name whose last use is deleted cannot linger as an import."""

import ast
from pathlib import Path

import stochwave


def test_every_public_name_resolves_and_star_imports():
    names = stochwave.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(stochwave, n)] == []
    scope = {}
    exec("from stochwave import *", scope)
    assert set(scope) - {"__builtins__"} == set(names)


def unused_imports(path: Path) -> list:
    """(module, name) of each name path imports and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.partition(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(path.name, name) for name in sorted(imported)
            if name not in used]


def test_every_imported_name_is_used():
    package = Path(stochwave.__file__).parent
    modules = sorted(p for p in package.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 1
    assert [u for p in modules for u in unused_imports(p)] == []
