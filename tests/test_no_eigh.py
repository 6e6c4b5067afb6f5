"""The decaying sector has one definition, ``modes.decaying_sector``, whose
projectors are closed forms of the mode symbol: no module in the package
calls an eigenvector solver ``eigh``.  Eigenvalue-only solvers (``eigvalsh``,
``eigh_tridiagonal``) stay allowed; the tests keep ``eigh`` as their oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_module_calls_eigh():
    calls = []
    for path in sorted((ROOT / "src/kwlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "eigh":
                calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "eigh":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
