"""Structure guards: the names other code reaches into the package by resolve,
and no module imports a sibling's private name."""

import ast
import importlib
import importlib.util
from pathlib import Path

import gridperc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridperc"


def test_traced_names_resolve():
    # the bench's tracer wraps these by name and raises on a missing one
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, module, attribute, cls in tracer.TRACED:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert hasattr(owner, attribute), name


def test_public_names_resolve():
    for name in gridperc.__all__:
        assert hasattr(gridperc, name), name


def test_no_private_imports_between_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").startswith("gridperc"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (path.name, node.module, private)
