"""Objects each workload builds once before it serves requests.

``setup_probe.py`` times ``import nosreg`` plus :func:`build` in a fresh
interpreter; that time is the benchmark's ``setup_s``.  Request inputs are
generated later and are not part of set-up.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from nosreg import assemble_mimo, make_chain

# Bundled search configurations used by verify-nonlinear, by band name.
VERIFY_BANDS = ("slow", "medium", "fast")

DESIGN_MAX_CHANNELS = 3
DESIGN_MAX_ORDER = 5


def build(workload: str, root: Path) -> dict:
    """Build the objects ``workload`` serves from: chains, MIMO chains, bundled configs."""
    if workload == "design-quick":
        orders = range(1, DESIGN_MAX_ORDER + 1)
        return {
            "chains": {g: make_chain(g) for g in orders},
            "mimos": {degs: assemble_mimo(degs)
                      for p in range(1, DESIGN_MAX_CHANNELS + 1)
                      for degs in itertools.product(orders, repeat=p)},
        }
    if workload == "search-hard":
        return {}   # requests are (x0, SearchSpec) pairs; nothing to build
    if workload == "verify-nonlinear":
        # the CLI builds plant, exosystem and chains from the config in each request
        return {"configs": {band: json.loads(
            (root / "configs" / f"benchmark_search_{band}.json").read_text())
            for band in VERIFY_BANDS}}
    raise ValueError(f"unknown workload {workload!r}")
