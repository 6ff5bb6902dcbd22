"""Every demo script and the README's ``python`` block run to exit 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_block_runs(tmp_path):
    assert len(README_BLOCKS) == 1
    proc = _run(["-c", README_BLOCKS[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
