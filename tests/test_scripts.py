"""The example scripts run end to end at a small sample count.

Each script is copied to a temporary directory first, since the scripts
write their CSVs next to their own file, and runs under ``-W error``, so a
warning fails it as ``filterwarnings = error`` fails an in-process test.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = (
    "excision_effect.py",
    "first_eigenvalue_usp.py",
    "one_level_vs_exact.py",
    "small_value_law.py",
)


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_runs(name, tmp_path):
    script = shutil.copy(ROOT / "scripts" / name, tmp_path)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-W", "error", script, "--count", "2000"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
