"""Every small float literal in the package is a named module constant: a
tolerance or threshold below 1e-6 is read from an UPPER_CASE module-level
assignment, whose name and comment say what it decides and relative to
what, never written inline."""

import ast
from pathlib import Path

import cavitydark

#: nonzero float literals below this in magnitude must be named
SMALL = 1e-6


def _constant_nodes(tree):
    """Every node inside a module-level assignment to UPPER_CASE names."""
    nodes = set()
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        if targets and all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
            nodes.update(map(id, ast.walk(stmt)))
    return nodes


def bare_small_literals(source):
    """``(line, value)`` of each small float literal outside a constant."""
    tree = ast.parse(source)
    named = _constant_nodes(tree)
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < SMALL and id(node) not in named]


def test_no_bare_small_float_literal_in_the_package():
    found = {f"{path.name}:{line}": value
             for path in sorted(Path(cavitydark.__file__).parent.glob("*.py"))
             for line, value in bare_small_literals(path.read_text())}
    assert found == {}


def test_the_guard_flags_an_inline_tolerance():
    source = ("TOL = 1e-12\nTHETA = (2.29e-16, 0.5)\nx = 1e-7\n"
              "def f(a):\n    return a < 1e-9 or a == 0.0 or a > 1e-3\n")
    assert bare_small_literals(source) == [(3, 1e-7), (5, 1e-9)]
