"""No dead private code in the library: every module of src/discweil, parsed.

A ``_private`` function or class is the package's own business, so when no
module of the package reads it, it has no caller and is deleted.  A name
counts as read when any module loads it as a name, reads it as an
attribute (``self._validate``, ``W._s_sums``) or imports it; dunder names
are exempt, as Python calls them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "discweil"


def private_definitions(tree):
    """(line, name) for every ``_private`` function or class the tree defines, at any depth."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (n.lineno, n.name)
        for n in ast.walk(tree)
        if isinstance(n, kinds) and n.name.startswith("_") and not n.name.endswith("__")
    )


def read_names(tree):
    """Every name the tree loads, reads as an attribute or imports."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def dead_private_code(sources):
    """(module, line, name) for every private definition that no source reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [
        (name, line, defined)
        for name, tree in trees.items()
        for line, defined in private_definitions(tree)
        if defined not in read
    ]


def test_no_dead_private_code_in_src():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_code(sources) == []


def test_guard_flags_each_unread_definition():
    sources = {
        "a.py": (
            "def _unused():\n"
            "    pass\n"
            "class _Shape:\n"
            "    def _area(self):\n"  # an unread method
            "        return 0\n"
            "    def __len__(self):\n"  # dunders are exempt
            "        return 0\n"
            "def _called():\n"
            "    return _Shape()\n"
            "def _imported():\n"
            "    pass\n"
            "def _attribute(self):\n"
            "    pass\n"
            "_called = None\n"  # rebinding is no read
        ),
        "b.py": "from .a import _imported\nimport a\nx = a._attribute\n",
    }
    want = [("a.py", 1, "_unused"), ("a.py", 4, "_area"), ("a.py", 8, "_called")]
    assert dead_private_code(sources) == want


@pytest.mark.parametrize("kind", ["def", "class"])
def test_guard_passes_private_code_that_is_read(kind):
    body = "pass" if kind == "class" else "return 1"
    assert dead_private_code({"a.py": "%s _f():\n    %s\nx = _f\n" % (kind, body)}) == []
