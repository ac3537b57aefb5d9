"""The simulator needs numpy alone; scipy is only a bench and test tool.

A child interpreter whose import system refuses every scipy module runs
the smoke scenario under sja and must reproduce its pinned digest. It then
exports the scenario and runs it through `sjasim run`, whose artifacts must
equal a direct run of the exported file.
"""
import os
import subprocess
import sys
from pathlib import Path

from test_determinism import DIGESTS

ROOT = Path(__file__).resolve().parent.parent

SMOKE_WITHOUT_SCIPY = """
import hashlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None


sys.meta_path.insert(0, BlockScipy())

from sjasim import Scenario, run
from sjasim.cli import events_text, main, metrics_csv_text
from sjasim.scenarios import SCENARIO_BUILDERS, export_scenario


def digest(report, log):
    return hashlib.sha256((events_text(log) + metrics_csv_text(report)).encode()).hexdigest()


scenario, cfg = SCENARIO_BUILDERS["smoke"]()
print(digest(*run(scenario, "sja", cfg, seed=0)))

path = export_scenario(scenario, "scn")
flags = ["--gpus", "1", "--slices-per-gpu", "20480,10240", "--tau-max", "900"]
with redirect_stdout(io.StringIO()):
    assert main(["run", "--scenario", str(path), "--out", "out", "--seed", "0", *flags]) == 0
seed_dir = Path("out", "seed_0000")
text = (seed_dir / "events.jsonl").read_text() + (seed_dir / "metrics.csv").read_text()
print(hashlib.sha256(text.encode()).hexdigest())
print(digest(*run(Scenario.from_file(path), "sja", cfg, seed=0)))
assert "scipy" not in sys.modules
"""


def test_smoke_runs_with_scipy_blocked(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SMOKE_WITHOUT_SCIPY], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pinned, via_cli, direct = done.stdout.split()
    assert pinned == DIGESTS[("smoke", "sja")]
    assert via_cli == direct
