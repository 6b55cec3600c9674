"""The runtime import graph needs numpy only.

scipy is a test-suite dependency (the morphing LP oracle); a fresh
interpreter that imports the package's entry points and runs a
registered experiment must never load it.  The check runs in a
subprocess because this test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import sys
import repro, repro.cli, repro.experiments
code = repro.cli.main([
    "run", "combined_grid", "--seed", "5",
    "--train-duration", "30", "--eval-duration", "20",
    "--train-sessions", "1", "--eval-sessions", "1",
    "--set", "schemes=morphing", "--set", "classifiers=bayes",
])
assert code == 0, code
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_running_an_experiment_loads_no_scipy():
    src = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1] == "scipy modules: []"
