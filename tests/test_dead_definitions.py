"""Every definition in the package is read by the package's own code.

A definition is a module-level function, class or name, or a method or
property of a module-level class; dunder names are exempt, since Python
reads them.  A definition no module reads is dead weight unless something
outside the package needs it; those few are listed below with the reason.
A module-level name counts wherever the code reads it (a call, an
attribute, an annotation, an import); a method or property counts only
where the code reads it as an attribute (``x.name``), so a local variable
of the same name does not keep it alive.  Neither counts inside the
definition's own body, so a function that only calls itself is still dead.
"""

import ast
from pathlib import Path

import mildlab

# definitions the package does not read, and who reads them instead
USED_OUTSIDE = {
    "restrict_path": "tests restrict a fine noise path to a coarser step, bit for bit",
    "load_sidecar_and_resample": "tests regenerate a noise path from its JSON sidecar",
    "inclusion_check": "README names it as the graph-inclusion certificate; tests run it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined(node):
    """(name, node, member) for each name a module-level statement defines, methods
    included; member is True for a method or property."""
    if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
        yield node.name, node, False
    if isinstance(node, ast.ClassDef):
        yield from ((item.name, item, True) for item in node.body
                    if isinstance(item, _FUNCTIONS))
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                yield name.id, node, False


def _definitions_and_names():
    root = Path(mildlab.__file__).resolve().parent
    trees = [ast.parse(m.read_text(), str(m)) for m in sorted(root.rglob("*.py"))]
    definitions = [(name, node, member) for tree in trees for stmt in tree.body
                   for name, node, member in _defined(stmt)
                   if not (name.startswith("__") and name.endswith("__"))]
    names = []  # (name, node, attribute) for every name the code reads
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((node.id, node, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.append((node.attr, node, True))
            elif isinstance(node, ast.ImportFrom):
                names += [(alias.name, node, False) for alias in node.names]
    return definitions, names


def test_every_definition_is_named_or_listed():
    definitions, names = _definitions_and_names()
    unread = []
    for defined, node, member in definitions:
        inside = {id(n) for n in ast.walk(node)}
        if not any(name == defined and id(at) not in inside and (attribute or not member)
                   for name, at, attribute in names):
            unread.append(defined)
    assert sorted(set(unread) - set(USED_OUTSIDE)) == []
    # and the list holds nothing the package reads or no longer defines
    assert sorted(unread) == sorted(USED_OUTSIDE)
