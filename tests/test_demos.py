"""Smoke test of the demos that exercise the correlation-gap series and the
trajectory-level audits: each must run to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize(
    "demo", ["04_sufficient_conditions_and_decay.py", "06_inequality_audits.py"]
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.abspath(os.path.join(ROOT, "demos", demo))],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
