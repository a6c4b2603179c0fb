"""Every script in ``demos/`` runs to completion."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
# Monte Carlo over growing trial counts: about 11 s on a 2-core host; the
# others take well under a second each.
SLOW_DEMOS = {"monte_carlo_convergence.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name,
                 marks=[pytest.mark.slow] if path.name in SLOW_DEMOS else [])
    for path in sorted(DEMOS.glob("*.py"))])
def test_demo_exits_cleanly(demo, subprocess_env, tmp_path):
    # From a scratch directory: trajectory_samples.py writes a CSV into it.
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
