"""The README's library example runs as written, and its config block loads."""

import os
import re
import subprocess
import sys
from pathlib import Path

from nosreg.cli import load_config

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_config_block_loads(tmp_path):
    blocks = re.findall(r"```jsonc\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "config.json"
    path.write_text(re.sub(r"//.*", "", blocks[0]))
    cfg = load_config(path)
    assert cfg.pole_sets is not None and cfg.intervals is not None
