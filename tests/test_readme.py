"""The README's examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def python_block(section: str) -> str:
    """The first fenced ``python`` block under the README heading ``section``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n{section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def test_python_api_block_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", python_block("## Python API")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert 0.9 < float(done.stdout) <= 1.0
