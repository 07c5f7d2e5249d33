"""No leftovers in the library: every import is read, every private function is used.

Each `src/qproj` module is parsed with `ast`.  A name a module imports must be
read somewhere in that module; the package `__init__` imports only to
re-export, so it is exempt.  A private function or method (one leading
underscore, not a dunder) must be referenced somewhere in `src/qproj`.  The
library keeps one per-call memo, `linalg._Memo`: no other class defines
`__missing__` or subclasses `dict`.
"""

import ast
import pathlib

import qproj

SOURCES = sorted(pathlib.Path(qproj.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _referenced(tree):
    """Every name read and every attribute looked up in a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_import_is_read():
    unread = sorted("%s: %s" % (module, name)
                    for module, tree in TREES.items() if module != "__init__.py"
                    for name in set(_imported_names(tree)) - _referenced(tree))
    assert unread == []


def test_every_private_function_is_referenced():
    used = set().union(*map(_referenced, TREES.values()))
    unused = sorted("%s: %s" % (module, node.name)
                    for module, tree in TREES.items() for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _is_private(node.name) and node.name not in used)
    assert unused == []


def test_memo_is_the_only_dict_subclass():
    memos = sorted("%s: %s" % (module, node.name)
                   for module, tree in TREES.items() for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and (any(isinstance(b, ast.Name) and b.id == "dict" for b in node.bases)
                        or any(isinstance(f, ast.FunctionDef) and f.name == "__missing__"
                               for f in node.body)))
    assert memos == ["linalg.py: _Memo"]
