"""Every function the traced benchmark wraps must exist where its callers
look it up, so that renaming one fails here and not only under --trace 1."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
