"""The suite's own pytest settings: a failing test is reported as a failure, not a crash."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # hypothesis reports a falsifying example through libcst, whose import
    # warns; filterwarnings = error must not turn that into an INTERNALERROR
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n")
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                           "test_falsified.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
