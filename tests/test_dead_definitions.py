"""Every module-level function and class in the package is named by the package's own code.

A definition no module names is dead weight unless something outside the
package needs it; those few are listed below with the reason.  A name counts
wherever the code reads it (a call, an attribute, an annotation, an import),
except inside the definition's own body, so a function that only calls
itself is still dead.
"""

import ast
from pathlib import Path

import mildlab

# definitions the package does not name, and who names them instead
USED_OUTSIDE = {
    "restrict_path": "tests restrict a fine noise path to a coarser step, bit for bit",
    "load_sidecar_and_resample": "tests regenerate a noise path from its JSON sidecar",
    "inclusion_check": "README names it as the graph-inclusion certificate; tests run it",
}


def _definitions_and_names():
    root = Path(mildlab.__file__).resolve().parent
    trees = [ast.parse(m.read_text(), str(m)) for m in sorted(root.rglob("*.py"))]
    definitions = [node for tree in trees for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    names = []  # (name, node) for every name the code reads
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                names.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                names += [(alias.name, node) for alias in node.names]
    return definitions, names


def test_every_definition_is_named_or_listed():
    definitions, names = _definitions_and_names()
    unnamed = []
    for node in definitions:
        inside = {id(n) for n in ast.walk(node)}
        if not any(name == node.name and id(at) not in inside for name, at in names):
            unnamed.append(node.name)
    assert sorted(set(unnamed) - set(USED_OUTSIDE)) == []
    # and the list holds nothing the package names or no longer defines
    assert sorted(unnamed) == sorted(USED_OUTSIDE)
