"""The demos and the README tour are the first callers to break when a
public name goes: each one must run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_python_blocks_run():
    assert README_BLOCKS  # the tour is a python block
    for block in README_BLOCKS:
        exec(compile(block, str(ROOT / "README.md"), "exec"), {})
