"""No `assert` statement in the library: every internal check raises.

`python -O` strips assert statements, so a postcondition written as one
(a tableau count against the Weyl dimension, an exact division, a
factorization re-verified through `normal_order`) silently stops being
checked.  The library raises a typed error with the numbers instead.  Each
`src/qproj` module is parsed with `ast`, and any assert statement fails.
"""

import ast
import pathlib

import qproj

SOURCES = sorted(pathlib.Path(qproj.__file__).parent.glob("*.py"))


def asserts(tree, module):
    """'module:line' for each assert statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield "%s:%d" % (module, node.lineno)


def test_the_guard_sees_a_nested_assert():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'positive'\n")
    assert list(asserts(tree, "m.py")) == ["m.py:3"]


def test_no_assert_statement_in_the_library():
    found = sorted(name for path in SOURCES
                   for name in asserts(ast.parse(path.read_text(), str(path)), path.name))
    assert found == []
