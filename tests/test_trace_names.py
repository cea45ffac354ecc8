"""Every name the per-layer tracer wraps exists in bcvhelix.

``perfbench/tracing.py``'s ``Tracer.install`` looks each (module, name) up
with ``getattr`` and each method in the class ``__dict__``, so a renamed or
deleted function breaks ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _module(name):
    return importlib.import_module(f"bcvhelix.{name}")


@pytest.mark.parametrize(
    "mod,fn",
    [(mod, fn) for _, mod, fn in tracing.SPANS]
    + [(mod, fn) for _, mod, fn, _ in tracing.COUNTERS],
)
def test_traced_function_resolves(mod, fn):
    assert callable(getattr(_module(mod), fn))


@pytest.mark.parametrize(
    "mod,cls,method",
    [(mod, cls, method) for _, mod, cls, method in tracing.METHOD_SPANS]
    + [(mod, cls, method) for _, mod, cls, method, _ in tracing.METHOD_COUNTERS],
)
def test_traced_method_resolves(mod, cls, method):
    assert callable(getattr(_module(mod), cls).__dict__[method])
