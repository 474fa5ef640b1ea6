"""Fail on unused imports and unused definitions in a package.

Usage: python .github/check_unused_imports.py src/framecert src tests perfbench

Every module of the package except ``__init__.py`` (which imports to
re-export) is parsed with ``ast``.  A name bound by ``import`` or
``from ... import`` counts as used when it is read anywhere in the
module.  A function, class or method defined in the package counts as
used when some file under the directories given after the package
names it -- as a variable, an attribute or an imported name -- apart
from its own definition and the package's ``__init__.py``.  Dunder
methods are exempt.  Prints one line per unused name and exits 1 if
there is any.
"""

import ast
import sys
from pathlib import Path


def unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def definitions(tree: ast.AST) -> list[tuple[int, str]]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def named(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def main(package: str, *search: str) -> int:
    pkg = Path(package)
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(pkg.glob("*.py"))
        if path.name != "__init__.py"
    }
    init = (pkg / "__init__.py").resolve()
    used = set()
    for root in search:
        for path in Path(root).rglob("*.py"):
            if path.resolve() != init:
                used |= named(ast.parse(path.read_text(encoding="utf-8"), str(path)))

    found = False
    for path, tree in modules.items():
        for line, name in unused_imports(tree):
            print(f"{path}:{line}: {name} imported but unused")
            found = True
        for line, name in definitions(tree):
            if name not in used:
                print(f"{path}:{line}: {name} defined but never named")
                found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
