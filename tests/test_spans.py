"""The benchmark's span table must still name real functions and arguments.

``bench/spans.py`` wraps each (module, attribute) pair in ``PATCHES`` and
silently skips one that no longer exists, so a rename under ``src/`` would
read 0 for that layer's metric without any error. Its observers read the
wrapped calls' arguments by name, its trade-pair replay calls
``execute_round`` by keyword, and its layer metrics read config attributes
and report fields of a whole checked run. Every ``bench/*.py`` imports
its names from ``camsim`` by ``from ... import``, which fails each sample
if a name moves.
"""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

from camsim import cli
from camsim.market import MarketState, execute_round

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
DATA = Path(__file__).parent / "data"


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


def test_layer_metrics_read_a_checked_run(tmp_path):
    """Trace ``camsim golden.yaml --check`` as bench/child.py does and read
    every layer metric: once with trade detail, once with only ``wealth``
    and ``savings``, so that the trading pairs come from the replay, and
    once with a walk, whose blocks ``export_csv`` counts as rows. A config
    attribute or report field the metrics read, gone from ``src/``, fails
    here rather than only under ``--trace 1``. The walk run fires every span
    in ``PATCHES``: a caller that stops looking a name up where the span
    wraps it would otherwise read 0 s for that layer."""
    golden = DATA / "golden.yaml"
    outputs = "outputs: [trades, wealth, savings, density]"
    replay = tmp_path / "replay.yaml"
    replay.write_text(golden.read_text().replace(outputs, "outputs: [wealth, savings]"))
    walk = tmp_path / "walk.yaml"
    walk.write_text(
        golden.read_text().replace(
            outputs,
            "outputs: [trades, wealth, savings, density, walk]\n"
            "walk: {true_price: 1.0, eta: 0.5, sigma: 0.1, steps: 5000, traces: 2}",
        )
    )
    runs = []
    for config in (golden, replay, walk):
        tracer = SPANS_MODULE.Tracer()
        tracer.install()
        try:
            entry = tracer.wrap("cli.main", cli.main)
            out = tmp_path / config.stem
            assert entry([str(config), "-o", str(out), "--check"]) == 0
            runs.append(tracer.layer_metrics())
            fired = {span[0] for span in tracer.spans}
        finally:
            tracer.uninstall()
    assert {span for _, _, span in PATCHES} <= fired
    detail, replayed, walked = runs
    assert replayed.keys() == detail.keys() == walked.keys()
    assert all(math.isfinite(v) for run in runs for v in run.values())
    for name in ("pricing.offers_posted", "pricing.atoms", "market.trades"):
        assert replayed[name] == detail[name]
    assert detail["pricing.offer_win_ratio"] == replayed["pricing.offer_win_ratio"] > 0
    assert walked["walk.steps"] == 2 * 5000
    # Each trace's 5,000 steps are written in three blocks.
    assert walked["scenario.csv_rows"] == detail["scenario.csv_rows"] + 2 * 3
    assert walked["scenario.csv_bytes"] > detail["scenario.csv_bytes"] > 0


def test_bench_imports_from_camsim_resolve():
    """Each ``from camsim... import name`` in ``bench/*.py``, such as
    ``artifact_digests`` in every sample, names something that exists."""
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(SPANS.parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "camsim"
        for alias in node.names
    ]
    assert ("child.py", "camsim.scenario", "artifact_digests") in imports
    for file, module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{file}: {module}.{name}"
