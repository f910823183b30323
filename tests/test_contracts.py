"""Source-level contracts of the library: checks that survive `python -O`,
and the names the benchmark tracer wraps."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "simplestfields"
TRACER = ROOT / "perfbench" / "tracer.py"


def test_library_has_no_bare_assert():
    """Internal checks raise AssertionError explicitly, so `python -O` keeps them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"


def _tracer_layers() -> dict:
    """The tracer's LAYERS table, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS table")


def test_every_traced_function_resolves():
    """The tracer looks each (layer, name) up with getattr and no default, so
    a renamed or deleted function breaks every traced benchmark run."""
    layers = _tracer_layers()
    assert layers
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module(f"simplestfields.{layer}")
        missing += [f"{layer}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"traced names that do not resolve: {missing}"
