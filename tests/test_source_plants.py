"""Defects planted in the source of the fixed algebraic tables.

Each case copies the package, changes one entry of the sigma basis or of a
Clifford generator as a wrong line in the source would, and runs
`python -m kwlab all` on the copy.  The run must still write the complete
report, fail the rows that check the table, and exit 1 without a
traceback: nothing is asserted at import, so the report rows are the one
guard of each table.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kwlab.suites import run_suite

SRC = Path(__file__).resolve().parent.parent / "src" / "kwlab"

# name -> (module, anchor, line as written, planted line, rows that fail);
# the first occurrence of the line after the anchor is replaced
PLANTS = {
    # _G1[3][0] = -1: gamma1 is no longer antisymmetric
    "gamma1_entry": (
        "clifford.py", "_G1 = [",
        "[1, 0, 0, 0, 0, 0, 0, 0],", "[-1, 0, 0, 0, 0, 0, 0, 0],",
        {"clifford.gamma1_antisymmetric",
         *(f"clifford.gamma1_gamma{j}_anticommutator" for j in (1, 2, 3)),
         "clifford.gamma2_gamma1_anticommutator", "clifford.gamma3_gamma1_anticommutator",
         *(f"clifford.gamma1_rho{j}_anticommute" for j in (1, 2, 3)),
         "clifford.rho1_rho2_commutes_with_gamma1",
         "clifford.y_square", "clifford.y_componentwise",
         "operator.three_depictions", "operator.symbol_spectrum"}),
    # _PAULI[2] = diag(-1, 1): sigma3 flips sign, so sigma1 sigma2 = +sigma3
    "pauli3_sign": (
        "algebra.py", "_PAULI = (",
        "[[1.0, 0.0], [0.0, -1.0]]", "[[-1.0, 0.0], [0.0, 1.0]]",
        {"algebra.product_table", "algebra.bracket_value",
         "algebra.l_decompose_reconstruct", "algebra.l_eigenspaces",
         "algebra.coeff_kernels_match_matrices"}),
}


@functools.cache
def _check_ids():
    return [c.check_id for c in run_suite("all", seed=1).checks]


def _strict(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_table_entry_fails_its_rows(plant, tmp_path):
    module, anchor, line, planted, rows = PLANTS[plant]
    pkg = tmp_path / "kwlab"
    shutil.copytree(SRC, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    text = (pkg / module).read_text()
    at = text.index(line, text.index(anchor))
    (pkg / module).write_text(text[:at] + planted + text[at + len(line):])

    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-m", "kwlab", "all", "--seed", "1", "--out", "report.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_strict)
    assert [c["check_id"] for c in report["checks"]] == _check_ids()
    assert report["n_checks"] == len(_check_ids())
    failing = {c["check_id"] for c in report["checks"] if c["status"] == "fail"}
    assert rows <= failing, sorted(rows - failing)
