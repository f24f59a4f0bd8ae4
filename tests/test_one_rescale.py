"""The package rescales by a power of two in one place: ``np.frexp``, which
reads the exponent, is called only inside ``linalg.pow2_scale``, so each
scale-free decision goes through that one exact helper."""

import ast
from pathlib import Path

import cavitydark


def frexp_callers(source):
    """``(line, function)`` of each ``frexp`` call, ``function`` the name of
    the enclosing top-level function or class, None at module level."""
    tree = ast.parse(source)
    found = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            func = node.func if isinstance(node, ast.Call) else None
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name == "frexp":
                found.append((node.lineno, owner))
    return found


def test_frexp_is_called_only_in_pow2_scale():
    found = [(path.name, owner)
             for path in sorted(Path(cavitydark.__file__).parent.glob("*.py"))
             for _, owner in frexp_callers(path.read_text())]
    assert found == [("linalg.py", "pow2_scale")]


def test_the_guard_flags_a_private_rescale():
    source = ("import math\nimport numpy as np\nfrom numpy import frexp\n"
              "E = np.frexp(2.0)[1]\n"
              "def pow2_scale(x):\n    return np.frexp(x)\n"
              "def f(x):\n    return np.ldexp(x, -frexp(x)[1]) + math.frexp(1.0)[0]\n")
    assert frexp_callers(source) == [(4, None), (6, "pow2_scale"), (8, "f"), (8, "f")]
