"""The package imports only numpy and the standard library (its one declared dependency)."""

import ast
import sys
from pathlib import Path

import mildlab

ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def test_modules_import_only_numpy_and_the_standard_library():
    root = Path(mildlab.__file__).resolve().parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 10
    outside = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module.relative_to(root)}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []
