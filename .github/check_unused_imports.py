"""Fail on unused imports, definitions and module-level names in a package.

Usage: python .github/check_unused_imports.py src/framecert src tests perfbench

Every module of the package except ``__init__.py`` (which imports to
re-export) is parsed with ``ast``.  A name bound by ``import`` or
``from ... import`` counts as used when it is read anywhere in the
module; this import rule also holds for every other module under the
directories given after the package name, except an ``__init__.py``.
A function, class or method defined in the package counts as used when
some file under the directories given after the package names it -- as
a variable, an attribute or an imported name -- apart from its own
definition and the package's ``__init__.py``.  A name bound by a
module-level assignment counts as used when some such file reads it --
as a loaded variable, an attribute or an imported name.
Dunder names are exempt.  Prints one line per unused name and exits 1
if there is any.
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
        and not _dunder(node.name)
    ]


def assignments(tree: ast.Module) -> list[tuple[int, str]]:
    """Names bound by the module's top-level assignments."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            found += [
                (node.lineno, n.id)
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and not _dunder(n.id)
            ]
    return found


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def named(tree: ast.AST, loaded_only: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not loaded_only or isinstance(node.ctx, ast.Load):
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
    own = {path.resolve() for path in modules} | {init}
    used, read = set(), set()
    found = False
    for root in search:
        for path in sorted(Path(root).rglob("*.py")):
            if path.resolve() != init:
                tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
                used |= named(tree)
                read |= named(tree, loaded_only=True)
                if path.resolve() not in own and path.name != "__init__.py":
                    for line, name in unused_imports(tree):
                        print(f"{path}:{line}: {name} imported but unused")
                        found = True

    for path, tree in modules.items():
        for line, name in unused_imports(tree):
            print(f"{path}:{line}: {name} imported but unused")
            found = True
        for line, name in definitions(tree):
            if name not in used:
                print(f"{path}:{line}: {name} defined but never named")
                found = True
        for line, name in assignments(tree):
            if name not in read:
                print(f"{path}:{line}: {name} assigned but never read")
                found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
