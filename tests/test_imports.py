"""The simulator needs numpy alone; scipy is only a bench and test tool.

A child interpreter whose import system refuses every scipy module runs
the smoke scenario under sja and must reproduce its pinned digest.
"""
import os
import subprocess
import sys
from pathlib import Path

from test_determinism import DIGESTS

ROOT = Path(__file__).resolve().parent.parent

SMOKE_WITHOUT_SCIPY = """
import hashlib
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None


sys.meta_path.insert(0, BlockScipy())

from sjasim import run
from sjasim.cli import events_text, metrics_csv_text
from sjasim.scenarios import SCENARIO_BUILDERS

scenario, cfg = SCENARIO_BUILDERS["smoke"]()
report, log = run(scenario, "sja", cfg, seed=0)
print(hashlib.sha256((events_text(log) + metrics_csv_text(report)).encode()).hexdigest())
"""


def test_smoke_runs_with_scipy_blocked(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SMOKE_WITHOUT_SCIPY], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == DIGESTS[("smoke", "sja")]
