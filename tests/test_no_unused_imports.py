"""No unused imports in the library: every module of src/discweil, parsed.

An import that its module never reads hides what the module depends on and
outlives the code that needed it.  A name counts as read when it is loaded
anywhere in the module (an attribute chain such as ``np.zeros`` loads its
base name).  ``__init__.py`` is exempt: its imports are the package's
public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "discweil"


def unused_imports(source):
    """(line, name) for every name the module's imports bind and it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports_in_src(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_each_unread_name():
    snippet = (
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import gcd, isqrt\n"
        "from .arith import sigma0 as s0\n"
        "gcd = isqrt(4)\n"  # rebinding is no read
    )
    assert unused_imports(snippet) == [(1, "os"), (2, "os"), (3, "np"), (4, "gcd"), (5, "s0")]
    used = "import os.path\nimport numpy as np\nfrom math import gcd as g\nx = np.zeros(g(2, 4)), os.path.sep\n"
    assert unused_imports(used) == []
