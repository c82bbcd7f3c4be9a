"""The benchmark's span tracer wraps entry points by name.

``perfbench/spans.py`` lists them in ``ENTRY_POINTS``; a renamed or deleted
one would only show as an AttributeError in a traced benchmark run. The
file is loaded by path, since ``perfbench`` is not a package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = load_spans()
ENTRY_POINTS = SPANS_MODULE.ENTRY_POINTS


@pytest.mark.parametrize("module_name", sorted(ENTRY_POINTS))
def test_every_entry_point_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in ENTRY_POINTS[module_name] if not hasattr(module, name)]
    assert missing == []
    assert all(callable(getattr(module, name)) for name in ENTRY_POINTS[module_name])


def test_generator_spans_wrap_generator_functions():
    # The tracer steps a GENERATORS span with next(); a plain function
    # there would break only traced benchmark runs.
    stepped = [
        (module_name, name)
        for module_name, attrs in ENTRY_POINTS.items()
        for name, span in attrs.items()
        if span in SPANS_MODULE.GENERATORS
    ]
    assert stepped
    for module_name, name in stepped:
        fn = getattr(importlib.import_module(module_name), name)
        assert inspect.isgeneratorfunction(fn), f"{module_name}.{name}"
