"""Every function the benchmark wraps or calls must exist where it looks it
up, so that renaming or deleting one fails here and not only in a bench run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("owner_path, attr", [(o, a) for o, a, _, _ in _patches()])
def test_traced_name_resolves(owner_path, attr):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    original = inspect.getattr_static(owner, attr)   # AttributeError when gone
    assert callable(getattr(original, "__func__", original))


def _sessgraph_lookups(path: Path) -> list[str]:
    """Dotted names of everything `path` imports from sessgraph, and of every
    attribute chain it reads off a name bound by such an import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, str] = {}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sessgraph":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                names.append(f"{node.module}.{alias.name}")

    def chain(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = chain(node.value)
            return owner and f"{owner}.{node.attr}"
        return None

    names += [name for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and (name := chain(node))]
    return sorted(set(names))


def _resolve(dotted: str):
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        owner, _, attr = dotted.rpartition(".")
        return getattr(_resolve(owner), attr)       # AttributeError when gone


@pytest.mark.parametrize("script, dotted", [(path.name, name)
                                             for path in sorted(BENCH.glob("*.py"))
                                             for name in _sessgraph_lookups(path)])
def test_bench_lookup_resolves(script, dotted):
    _resolve(dotted)
