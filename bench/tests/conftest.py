"""Make ``bench`` and ``repro`` importable however pytest was started."""

import os
import sys
import types

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _p in (os.path.join(_ROOT, "src"), _ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)


@pytest.fixture
def wrapped_leftovers():
    return _wrapped_leftovers


def _wrapped_leftovers():
    """Every repro function or method still carrying a bench wrapper."""
    left = []
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or mod is None:
            continue
        for key, value in vars(mod).items():
            if isinstance(value, types.FunctionType) and hasattr(value, "__bench_original__"):
                left.append(f"{name}.{key}")
            if isinstance(value, type):
                left += [
                    f"{name}.{key}.{attr}" for attr, fn in vars(value).items()
                    if hasattr(fn, "__bench_original__")
                ]
    return left
