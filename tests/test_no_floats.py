"""No floating point in the library: every module of src/discweil, parsed.

The README promises no floating point anywhere in a verification path.
This pins it: no ``cmath``, no call of float, complex or a square root, no
float or complex dtype and no float literal; nor numpy's float routes: no
``weights=`` keyword (``np.bincount`` sums weights in float64) and no call
of ``np.mean``, ``np.average``, ``np.divide``, ``np.true_divide`` or
``np.linalg``.  The one exception is the wall-clock budgets of the
reproduction checks in acceptance.py, seconds compared with time deltas,
which decide no mathematical result.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "discweil"
ALLOWED_LITERALS = {"acceptance.py": {60.0, 120.0, 300.0}}
FLOAT_NAMES = {"float", "complex"}
NUMPY_FLOAT_TYPES = ("float", "complex", "double", "single", "half", "longdouble", "cdouble", "csingle")
FLOAT_DTYPE_CODES = ("f", "c", "d", "e", "g")
NUMPY_FLOAT_CALLS = ("mean", "average", "divide", "true_divide", "linalg")


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_float_dtype(node):
    name = _dotted(node)
    if name in FLOAT_NAMES:
        return True
    if name and name.split(".")[0] in ("np", "numpy") and name.split(".")[-1].startswith(NUMPY_FLOAT_TYPES):
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.lstrip("<>=|")
        return text.startswith(("float", "complex")) or text[:1] in FLOAT_DTYPE_CODES
    return False


def violations(source, filename):
    """(line, reason) for every float construct in one module's source."""
    allowed = ALLOWED_LITERALS.get(filename, set())
    out = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Import):
            if any(a.name == "cmath" for a in node.names):
                out.append((line, "import cmath"))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "cmath":
                out.append((line, "import cmath"))
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            parts = name.split(".") if name else []
            if name in FLOAT_NAMES or name in ("math.sqrt", "np.sqrt", "numpy.sqrt", "sqrt"):
                out.append((line, "call of %s" % name))
            elif len(parts) > 1 and parts[0] in ("np", "numpy") and parts[1] in NUMPY_FLOAT_CALLS:
                out.append((line, "call of %s" % name))
            if name and name.endswith(".astype") and node.args and _is_float_dtype(node.args[0]):
                out.append((line, "float dtype"))
            for kw in node.keywords:
                if kw.arg == "dtype" and _is_float_dtype(kw.value):
                    out.append((line, "float dtype"))
                elif kw.arg == "weights":
                    out.append((line, "weights="))
        elif isinstance(node, ast.Attribute):
            if _is_float_dtype(node):
                out.append((line, "numpy float type %s" % _dotted(node)))
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, (float, complex)) and node.value not in allowed:
                out.append((line, "literal %r" % node.value))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floats_in_src(path):
    assert violations(path.read_text(), path.name) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "import cmath",
        "from cmath import exp",
        "x = float(3)",
        "x = complex(1, 2)",
        "import math\nx = math.sqrt(2)",
        "x = np.sqrt(a)",
        "a = np.zeros(3, dtype=float)",
        "a = np.zeros(3, dtype=np.float64)",
        "a = np.zeros(3, dtype='f8')",
        "a = b.astype(np.complex128)",
        "a = b.astype('float32')",
        "t = np.float64",
        "x = 0.5",
        "budget = 61.0",
        "c = np.bincount(a, weights=w)",
        "m = np.mean(a)",
        "m = numpy.average(a, axis=0)",
        "q = np.divide(a, b)",
        "q = np.true_divide(a, b)",
        "r = np.linalg.matrix_rank(a)",
    ],
)
def test_guard_flags_each_kind(snippet):
    assert violations(snippet, "acceptance.py")


def test_guard_passes_integer_code():
    ok = "import numpy as np\na = np.zeros(3, dtype=np.int64)\nb = a.astype(object)\nc = 7 // 2\nd = 60.0"
    assert violations(ok, "acceptance.py") == []
