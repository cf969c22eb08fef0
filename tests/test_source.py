"""Static checks over the package source, with the standard library's ast.

No linter ships with the project, so two of its checks live here: every
module-level import is used, and every top-level private function, class
or assigned name has a reader in the package besides its own definition.
"""

import ast
from pathlib import Path

import decoyqkd

SRC = Path(decoyqkd.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}
NOQA_UNUSED = "# noqa: F401"


def references(tree, skip=None):
    """Names read in ``tree``: bare names, attributes and from-imports, outside the def ``skip``.

    A name that is only assigned to is not read.
    """
    body = [node for node in tree.body if getattr(node, "name", None) != skip]
    names = set()
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        lines = (SRC / name).read_text(encoding="utf-8").splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and NOQA_UNUSED not in lines[alias.lineno - 1]:
                    unused.append(f"{name}:{alias.lineno} {bound}")
    assert unused == []


def private_top_level_names(tree):
    """(line, name) of each private def, class and assigned name at a module's top level.

    Dunders such as __getattr__ or __version__ are module hooks and metadata, not private.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for bound in names:
            if bound.startswith("_") and not bound.startswith("__"):
                yield node.lineno, bound


def test_every_private_top_level_def_has_a_reader():
    orphans = []
    for name, tree in MODULES.items():
        for lineno, bound in private_top_level_names(tree):
            readers = [other for other, other_tree in MODULES.items()
                       if bound in references(other_tree, bound if other == name else None)]
            if not readers:
                orphans.append(f"{name}:{lineno} {bound}")
    assert orphans == []
