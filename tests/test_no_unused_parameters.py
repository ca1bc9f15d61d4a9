"""No unused parameters in the library: every module of src/discweil, parsed.

A parameter that the body never reads misleads every caller into computing
an argument for nothing, so each parameter of every function, method and
lambda must be loaded somewhere in its body (nested functions count, as they
read it by closure).  ``self`` and ``cls`` are exempt, as Python passes them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "discweil"
EXEMPT = {"self", "cls"}


def parameters(node):
    a = node.args
    args = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
    return [arg.arg for arg in args if arg.arg not in EXEMPT]


def loaded_names(body):
    """Every name loaded in a statement list or an expression, at any depth."""
    roots = body if isinstance(body, list) else [body]
    return {
        n.id
        for root in roots
        for n in ast.walk(root)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def unused_parameters(sources):
    """(module, line, function, parameter) for every parameter its body never reads."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    out = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, kinds):
                read = loaded_names(node.body)
                label = getattr(node, "name", "<lambda>")
                out += [(name, node.lineno, label, p) for p in parameters(node) if p not in read]
    return sorted(out)


def test_no_unused_parameters_in_src():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_parameters(sources) == []


def test_guard_flags_each_unread_parameter():
    source = (
        "def f(a, b, *rest, key=None, **extra):\n"  # b, rest, extra unread
        "    return a + (key or 0)\n"
        "class C:\n"
        "    def m(self, x, y):\n"  # self is exempt; y unread
        "        return x\n"
        "    @classmethod\n"
        "    def k(cls, z=lambda u, v: u):\n"  # the lambda's v unread; z unread
        "        return cls\n"
        "def outer(n, m=0):\n"  # a default is no read: m unread
        "    def inner():\n"
        "        return n\n"  # a closure read counts
        "    return inner\n"
        "def store(w):\n"
        "    w = 1\n"  # rebinding is no read
        "    return None\n"
    )
    want = [
        ("a.py", 1, "f", "b"),
        ("a.py", 1, "f", "extra"),
        ("a.py", 1, "f", "rest"),
        ("a.py", 4, "m", "y"),
        ("a.py", 7, "<lambda>", "v"),
        ("a.py", 7, "k", "z"),
        ("a.py", 9, "outer", "m"),
        ("a.py", 13, "store", "w"),
    ]
    assert unused_parameters({"a.py": source}) == want
