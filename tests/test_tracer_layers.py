"""The benchmark's per-layer tracer (``bench/tracer.py``) swaps functions of
the triplaq modules by name; a renamed or deleted function breaks
``bench/run.py --trace 1``.  The tracer file is read, never imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYERS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no LAYERS")


def test_every_traced_name_resolves():
    layers = _traced_layers()
    assert layers
    missing = [f"{module}.{name}" for module, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"triplaq.{module}"),
                                       name, None))]
    assert not missing, f"bench/tracer.py lists functions triplaq lacks: {missing}"
