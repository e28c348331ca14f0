"""Print the seconds a fresh interpreter needs to import nosreg and build a workload's objects.

Usage: python3 bench/setup_probe.py <workload>   (run from the repository root)
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import fixtures  # imports nosreg

    fixtures.build(sys.argv[1], ROOT)
    print(repr(time.perf_counter() - t0))
