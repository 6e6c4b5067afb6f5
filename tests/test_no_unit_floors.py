"""No relative error or stopping test in the package divides by, or scales
with, a unit floor max(1, value): below amplitude 1 such a floor turns the
relative bound into an absolute one, which small data always passes.

The scan finds every call of max with a constant argument equal to 1.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def _unit_floors(path):
    """(file name, source text) of every max(...) call with a constant 1."""
    text = path.read_text()
    for node in ast.walk(ast.parse(text, str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "max"
                and any(isinstance(arg, ast.Constant) and type(arg.value) in (int, float)
                        and arg.value == 1 for arg in node.args)):
            yield path.name, ast.get_source_segment(text, node)


def test_no_unit_floors():
    found = [site for path in sorted((ROOT / "src/kwlab").glob("*.py"))
             for site in _unit_floors(path)]
    assert found == []


def test_scan_finds_a_planted_floor(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("def rel(a, b):\n    return abs(a - b) / max(1, abs(b), 2.0)\n")
    assert list(_unit_floors(planted)) == [("planted.py", "max(1, abs(b), 2.0)")]
