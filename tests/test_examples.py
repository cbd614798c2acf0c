"""Every script in ``examples/`` runs to completion.

The examples are the README's first stop and read the public surface
(``repro.*`` names, scenario presets, the refresh policy a scenario names),
so each one runs in its own interpreter, from a clean import, and must
exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_there_are_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    source = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{source}{os.pathsep}{path}" if path else source)
    finished = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
