"""Every demo runs as a plain script.  The verifier tour calls every public
report function with its documented signature, so it guards them too; the
coupled demos guard `march_solve` and `uniqueness_probe` the same way, and
the local demos the grid, contour, initial-geometry and solver layers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_verifier_tour_runs(tmp_path):
    out = _run_demo("07_verifier_tour.py", tmp_path)
    assert "Lipschitz growth fit K =" in out
    assert "FAIL cone_flipped" in out


@pytest.mark.parametrize("name,needle", [
    ("01_grid_and_contours.py", "peanut front:"),
    ("02_initial_geometry.py", "push quotient on band: min 0.2408"),
    ("03_curvature_and_constant_speed.py", "curvature flow gamma = 1"),
])
def test_local_demo_runs(tmp_path, name, needle):
    assert needle in _run_demo(name, tmp_path)


@pytest.mark.parametrize("name,needle", [
    ("04_volume_feedback.py", "one causal march over 6 intervals"),
    ("05_dislocation_probe.py", "probe verdict: unique front"),
    ("06_fitzhugh_nagumo.py", "one causal march over 5 intervals"),
])
def test_coupled_demo_runs(tmp_path, name, needle):
    assert needle in _run_demo(name, tmp_path)
