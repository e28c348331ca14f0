import os
import subprocess
import sys
from pathlib import Path

import nosreg

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves_once():
    names = nosreg.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(nosreg, name)]
    assert missing == []


def test_import_adds_only_the_package_and_its_stdlib_modules():
    # setup_s times a fresh `import nosreg`; numpy comes first in every
    # workload, so only what the package adds on top of it is its own cost
    probe = ("import sys, numpy; before = set(sys.modules); import nosreg; "
             "print('\\n'.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert {name for name in added if not name.startswith("nosreg.")} == {
        "nosreg", "__future__", "copy", "dataclasses"}
    # the plant-map splicer and the native loop are loaded by the first
    # simulation, not on import
    assert not {"nosreg._inline", "nosreg._native", "ctypes"} & added
