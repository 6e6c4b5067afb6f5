"""Start-up cost: scipy loads only when a spectral solver runs.

Importing scipy.integrate takes most of a cold `import kwlab.cli`, and only
the spectral solvers use it, so every other command must leave scipy
unloaded.  Each stage runs in one fresh interpreter, in order, and reports
the scipy modules loaded after it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

STAGES = r"""
import json, sys

out, cfg = sys.argv[1], sys.argv[2]


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


loaded = {}
import kwlab.cli

loaded["import"] = scipy_modules()
codes = {"algebra": kwlab.cli.main(["verify", "algebra", "--seed", "1",
                                    "--out", out + "/algebra.json"])}
loaded["verify algebra"] = scipy_modules()
codes["flow"] = kwlab.cli.main(["flow", "run", "--config", cfg, "--out", out + "/flow"])
loaded["flow run"] = scipy_modules()
codes["spectral"] = kwlab.cli.main(["verify", "spectral", "--seed", "1",
                                    "--out", out + "/spectral.json"])
loaded["verify spectral"] = scipy_modules()
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_scipy_loads_only_for_the_spectral_solvers(tmp_path):
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"N": 8, "dt": 0.1, "steps": 3, "seed": 0,
                               "init": {"kind": "abelian", "amplitude": 0.05}}))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", STAGES, str(tmp_path), str(cfg)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {"algebra": 0, "flow": 0, "spectral": 0}
    loaded = result["loaded"]
    for stage in ("import", "verify algebra", "flow run"):
        assert loaded[stage] == [], f"{stage} loaded {loaded[stage]}"
    assert "scipy.integrate" in loaded["verify spectral"]
    assert (tmp_path / "flow" / "summary.json").is_file()
    assert json.loads((tmp_path / "spectral.json").read_text())["n_fail"] == 0
