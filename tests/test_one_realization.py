"""The 2x2 matrix realization of su(2) is the oracle, not a second
representation: in the package only algebra.py, which defines it, and
suites.py, whose checks compare the coefficient kernels with it, use it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REALIZATION = {"SIGMA", "bracket", "su2_to_coeffs", "coeffs_to_su2"}
ALLOWED = {"algebra.py", "suites.py"}


def _names(tree):
    """(name, line) of every Name, Attribute and import alias in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def test_two_by_two_realization_stays_in_algebra_and_suites():
    uses = []
    for path in sorted((ROOT / "src/kwlab").glob("*.py")):
        if path.name in ALLOWED:
            continue
        for name, line in _names(ast.parse(path.read_text(), str(path))):
            if name in REALIZATION:
                uses.append(f"{path.name}:{line} {name}")
    assert uses == []
