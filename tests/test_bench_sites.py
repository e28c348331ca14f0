"""The benchmark tracer patches library names from outside ``src/``.

``bench/tracing.py`` replaces each ``(module, attribute)`` in ``SITES`` and
each plant callable in ``PLANT_CALLABLES`` with a recording wrapper; a rename
or a removed import in the library would break the traced run.  These checks
catch that in the library's own suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from nosreg.plants import benchmark_plant

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


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


def _unreferenced_imports(source: str) -> set[str]:
    """Names a module imports but never refers to (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used_or_traced():
    traced = {(module, attr) for module, attr, _, _ in tracing.SITES}
    stray = [f"nosreg.{path.stem}.{name}"
             for path in sorted((ROOT / "src" / "nosreg").glob("*.py"))
             if path.name != "__init__.py"
             for name in _unreferenced_imports(path.read_text())
             if (f"nosreg.{path.stem}", name) not in traced]
    assert stray == []
