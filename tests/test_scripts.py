"""The demo script runs as written and plots the columns it means to."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_benchmark_script_writes_csv_and_plot_pairs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_benchmark.py"),
                           "--outdir", str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.iterdir())) == 8
    for name in ("slow", "medium", "fast", "openloop"):
        with open(tmp_path / f"benchmark_{name}.csv") as fh:
            header = fh.readline().rstrip("\n").split(",")
        # gnuplot counts columns from 1: e1 is the 10th, u1 the 11th
        assert header.index("e1") + 1 == 10 and header.index("u1") + 1 == 11
        script = (tmp_path / f"benchmark_{name}.gp").read_text()
        assert "plot csv using 1:10 with lines title 'e1'\n" in script
        assert "plot csv using 1:11 with lines title 'u1'\n" in script
