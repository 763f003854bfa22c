"""The traced benchmark run wraps package functions by (module, attribute)
name; a rename in the package must fail here, not only under ``--trace 1``."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    if not SPANS.exists():
        pytest.skip("perfbench/spans.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    missing = []
    for module_name, attr, *_ in _load_spans().WRAPS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"perfbench wraps names the package no longer has: {missing}"
