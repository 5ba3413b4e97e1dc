"""The benchmark's span table must still name real functions.

``bench/spans.py`` wraps each (module, attribute) pair in ``PATCHES`` and
silently skips one that no longer exists, so a rename under ``src/`` would
read 0 for that layer's metric without any error.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_spans().PATCHES


@pytest.mark.parametrize(
    "module_name, attr, span", PATCHES, ids=[f"{p[0]}.{p[1]}" for p in PATCHES]
)
def test_span_target_is_callable(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is gone"
