"""The demos run to completion against the package in ``src/``.

``04_optimizer_shootout.py`` is left out: it takes several times as long
as the others together.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_search_spaces.py",
        "02_screening.py",
        "03_exhaustive_dataset.py",
        "05_screening_vs_standalone.py",
    ],
)
def test_demo_runs(name, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = os.environ | {"PYTHONPATH": os.pathsep.join(path for path in paths if path)}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if name.startswith("03_"):
        assert (tmp_path / "demo-output" / "toystore-dataset.csv").is_file()
