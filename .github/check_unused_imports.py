"""Fail when a module of a package imports a name it never uses.

Usage: python .github/check_unused_imports.py src/framecert

Every module of the directory except ``__init__.py`` (which imports to
re-export) is parsed with ``ast``.  A name bound by ``import`` or
``from ... import`` counts as used when it is read anywhere in the
module.  Prints one line per unused name and exits 1 if there is any.
"""

import ast
import sys
from pathlib import Path


def unused_imports(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
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


def main(package: str) -> int:
    found = False
    for path in sorted(Path(package).glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path):
            print(f"{path}:{line}: {name} imported but unused")
            found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
