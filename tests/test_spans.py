"""The benchmark's span table must still name real functions and arguments.

``bench/spans.py`` wraps each (module, attribute) pair in ``PATCHES`` and
silently skips one that no longer exists, so a rename under ``src/`` would
read 0 for that layer's metric without any error. Its observers read the
wrapped calls' arguments by name, and its trade-pair replay calls
``execute_round`` by keyword.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from camsim.market import MarketState, execute_round

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _load_spans()
PATCHES = SPANS_MODULE.PATCHES


@pytest.mark.parametrize(
    "module_name, attr, span", PATCHES, ids=[f"{p[0]}.{p[1]}" for p in PATCHES]
)
def test_span_target_is_callable(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is gone"


class _ArgumentRecorder(dict):
    """Bound arguments that remember each name an observer reads."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __missing__(self, name):
        self.read.add(name)
        return ()


@pytest.mark.parametrize("span", sorted(SPANS_MODULE.OBSERVE))
def test_observed_arguments_are_parameters(span):
    """An observer reads its span's arguments by name; a renamed parameter
    would otherwise fail only under ``--trace 1``."""
    args = _ArgumentRecorder()
    SPANS_MODULE.OBSERVE[span](args, (None, None))
    for module_name, attr, name in PATCHES:
        if name == span:
            fn = getattr(importlib.import_module(module_name), attr)
            assert args.read <= set(inspect.signature(fn).parameters), (span, args.read)


def test_replay_call_binds_to_execute_round(golden):
    """The bench replays the rounds with this call to count trading pairs."""
    state = MarketState.from_config(golden)
    inspect.signature(execute_round).bind(golden, state, offers=[], record_detail=True)
