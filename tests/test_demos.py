"""Smoke test of the demos and of README's library quick start: each must run
to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def run_python(args, cwd):
    """Run a Python child under tier-1's warning gate: dev mode with numpy's
    RuntimeWarnings as errors, which a child does not inherit."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(ROOT, "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    result = run_python([os.path.abspath(os.path.join(ROOT, "demos", demo))], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as handle:
        text = handle.read()
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    # the last line is the pair's stability gain, a supremum over its value at t = 0
    assert float(result.stdout.splitlines()[-1]) >= 1.0
