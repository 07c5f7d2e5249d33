"""No leftovers in the library: every import is read, every private function is used.

Each `src/qproj` module is parsed with `ast`.  A name a module imports must be
read somewhere in that module; the package `__init__` imports only to
re-export, so it is exempt.  A private function or method (one leading
underscore, not a dunder) must be referenced somewhere in `src/qproj`, and
every parameter of every function and lambda must be read in its body
(`self` and `cls` exempt).  The library keeps one per-call memo,
`linalg._Memo`: no other class defines `__missing__` or subclasses `dict`.
A private name is imported only from the module that defines it, and only
`qarith` names the Laurent type `QLaurent` (the package `__init__` re-exports
it).
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


def _unread_parameters(tree):
    """(function name, parameter) for each parameter its body never reads;
    `self` and `cls` are exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        for param in params:
            if param not in read and param not in ("self", "cls"):
                yield name, param


def test_every_parameter_is_read():
    # A parameter that no body reads changes no result, so it only doubles
    # the configurations a caller can pass.
    unread = sorted("%s: %s(%s)" % (module, name, param)
                    for module, tree in TREES.items()
                    for name, param in _unread_parameters(tree))
    assert unread == []


def _defined(tree):
    """The names a module binds at its top level other than by importing them."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def test_private_names_are_imported_from_their_home():
    # A helper passed on through a second module hides where it lives.
    defined = {path.stem: _defined(TREES[path.name]) for path in SOURCES}
    relayed = sorted("%s: %s from %s" % (module, alias.name, node.module)
                     for module, tree in TREES.items() for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     for alias in node.names
                     if _is_private(alias.name) and alias.name not in defined[node.module])
    assert relayed == []


def test_only_qarith_names_the_laurent_type():
    named = sorted(module for module, tree in TREES.items()
                   if module not in ("qarith.py", "__init__.py")
                   and "QLaurent" in _referenced(tree) | set(_imported_names(tree)))
    assert named == []
