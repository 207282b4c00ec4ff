"""The demos run as plain scripts.  The verifier tour calls every public
report function with its documented signature, so it guards them too."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_verifier_tour_runs(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "07_verifier_tour.py")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert "FAIL cone_flipped" in done.stdout
