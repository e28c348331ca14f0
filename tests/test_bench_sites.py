"""The benchmark tracer patches library names from outside ``src/``.

``bench/tracing.py`` replaces each ``(module, attribute)`` in ``SITES`` and
each plant callable in ``PLANT_CALLABLES`` with a recording wrapper; a rename
or a removed import in the library would break the traced run.  These checks
catch that in the library's own suite.
"""

import importlib
import importlib.util
from pathlib import Path

from nosreg.plants import benchmark_plant

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_traced_site_resolves():
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_every_plant_callable_exists():
    plant = benchmark_plant()
    for attr in tracing.PLANT_CALLABLES:
        assert callable(getattr(plant, attr, None)), attr
