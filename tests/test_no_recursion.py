"""No library function calls itself: every descent runs on an explicit stack.

A recursive search ends where the interpreter's recursion limit or thread
stack happens to lie, not by a rule of its own, so `src/qproj` keeps the
explicit-stack form of `gtrep._tableaux`, `coordring.monomials` and
`cocycle.build_chains`.  Each module is parsed with `ast`, and a function
whose body (nested functions included) calls its own name fails.
"""

import ast
import pathlib

import qproj

SOURCES = sorted(pathlib.Path(qproj.__file__).parent.glob("*.py"))


def self_calls(tree, module):
    """'module: function' for each function that calls itself by bare name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == node.name
                for stmt in node.body for call in ast.walk(stmt)):
            yield "%s: %s" % (module, node.name)


def test_the_guard_sees_a_nested_self_call():
    tree = ast.parse("def outer():\n    def search(d):\n        return search(d - 1)\n")
    assert list(self_calls(tree, "m.py")) == ["m.py: search"]


def test_no_function_calls_itself():
    found = sorted(name for path in SOURCES
                   for name in self_calls(ast.parse(path.read_text(), str(path)), path.name))
    assert found == []
