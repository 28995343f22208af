"""The benchmark's tracer wraps package functions by name; they must exist."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(elt.elts[0].value, elt.elts[1].value)
                    for elt in node.value.elts]
    raise AssertionError("no TARGETS list in perfbench/tracer.py")


def test_every_traced_target_resolves():
    targets = tracer_targets()
    assert ("interleaver", "whiten_error_vector") in targets
    for module, attr in targets:
        mod = importlib.import_module(f"hybridchan.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
