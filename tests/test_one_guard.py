"""The operator reads a background's points through one guard: the
background's ``domain_check`` is called in ``operator.covariant_grads``,
the one read of a section, and only in the three entries that read the
background without it.  No other package module calls it, so a new check
goes through ``covariant_grads`` or names its own guard here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARDED = {"covariant_grads", "x_blocks", "spatial_identification", "omega_apply"}


def _guard_calls(path):
    """(top-level definition, line) of every domain_check call in a module."""
    calls = []
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "domain_check"):
                calls.append((getattr(top, "name", None), node.lineno))
    return calls


def test_domain_check_only_in_the_guarded_reads():
    # backgrounds.py defines the guard, and the pole's a_at calls its own
    for path in sorted((ROOT / "src/kwlab").glob("*.py")):
        if path.name != "backgrounds.py":
            calls = _guard_calls(path)
            want = GUARDED if path.name == "operator.py" else set()
            assert {name for name, _ in calls} == want and len(calls) == len(want), calls
