"""Only `linalg` knows how a SparseMatrix stores its entries.

`SparseMatrix._d` holds raw mpmath.libmp tuples, a private choice of
`qproj.linalg`.  Every other `src/qproj` module is parsed with `ast` and must
not look up `_mpf_`, `_d` or `make_mpf`, nor import from mpmath.libmp: each
of these would tie it to the stored form.
"""

import ast
import pathlib

import qproj

SOURCES = sorted(pathlib.Path(qproj.__file__).parent.glob("*.py"))
RAW_ATTRIBUTES = {"_mpf_", "_d", "make_mpf"}


def _raw_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in RAW_ATTRIBUTES:
            yield "%d: .%s" % (node.lineno, node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath.libmp"):
            yield "%d: from %s import" % (node.lineno, node.module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mpmath.libmp"):
                    yield "%d: import %s" % (node.lineno, alias.name)


def test_the_guard_sees_each_kind_of_use():
    source = ("from mpmath.libmp import fzero\nimport mpmath.libmp\n"
              "m._d\nv._mpf_\nmp.make_mpf(x)\n")
    assert list(_raw_uses(ast.parse(source))) == [
        "1: from mpmath.libmp import", "2: import mpmath.libmp",
        "3: ._d", "4: ._mpf_", "5: .make_mpf"]


def test_only_linalg_reads_the_stored_form():
    assert "linalg.py" in {path.name for path in SOURCES}
    found = sorted("%s:%s" % (path.name, use) for path in SOURCES if path.name != "linalg.py"
                   for use in _raw_uses(ast.parse(path.read_text(), str(path))))
    assert found == []
