"""The package's public names: every name in stochwave.__all__ is bound
on the package, and a star import binds exactly those names, so a
deleted object cannot linger as a stale export.  Every module but the
package's __init__ uses each name it imports, unless the import line is
marked `# noqa: F401` (a binding kept for a caller outside the module),
so a name whose last use is deleted cannot linger as an import.  Only
the fallback sampler, _native.generator_normals, names numpy.random, so
that no stepping run pays for importing it.  The package imports only
the standard library and its one declared dependency, NumPy."""

import ast
import sys
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


def numpy_random_uses(path: Path) -> list:
    """(module, enclosing function) of each place path names np.random
    or numpy.random, by attribute or by import."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append((path.name, where))
        names = ([f"{node.module}.{a.name}" for a in node.names]
                 if isinstance(node, ast.ImportFrom)
                 else [a.name for a in node.names]
                 if isinstance(node, ast.Import) else [])
        if any(f"{n}.".startswith("numpy.random.") for n in names):
            found.append((path.name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "")
    return found


def test_only_the_fallback_sampler_names_numpy_random():
    package = Path(stochwave.__file__).parent
    uses = {u for p in sorted(package.glob("*.py"))
            for u in numpy_random_uses(p)}
    assert uses == {("_native.py", "generator_normals")}


def absolute_import_roots(path: Path) -> set:
    """The top-level package of each absolute import in path."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_the_package_imports_only_the_standard_library_and_numpy():
    package = Path(stochwave.__file__).parent
    foreign = [(p.name, root) for p in sorted(package.glob("*.py"))
               for root in sorted(absolute_import_roots(p))
               if root not in sys.stdlib_module_names and root != "numpy"]
    assert foreign == []
