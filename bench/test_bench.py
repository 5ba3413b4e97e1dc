"""Self-test of the benchmark's wiring: ``python3 -m pytest bench``.

Each workload runs twice traced, with its default seed. Every span expected
on it must fire, because a wrapper on the wrong module reads 0 without any
error; the exact counts must repeat across the two runs; and the outputs
must match the reference digests. It also pins the shape each workload was
chosen for.
"""

import json
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
import yaml

import run

COMMON_SPANS = {
    "cli.main",
    "scenario.load_config",
    "scenario.run_scenario",
    "scenario.build_economy",
    "assignment.optimal_assignment",
    "market.post_offers",
    "market.execute_round",
    "scenario.export_csv",
    "core.autarky_energy",
    "market.conservation_check",
    "cli.check_variants",
}
EXPECTED_SPANS = {
    "wide_offers": COMMON_SPANS,
    "long_ledger": COMMON_SPANS | {"walk.simulate_walk"},
    "tight_budget": COMMON_SPANS,
}


@pytest.fixture(scope="module")
def traced():
    """Two traced samples per workload, run on first use."""
    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.ROOT / ".bench_tmp"))
    reference = json.loads((run.BENCH / "reference_digests.json").read_text())
    cache = {}

    def get(workload):
        if workload not in cache:
            config = run.workload_config(workload)
            seed = reference[workload]["seed"]
            deadline = time.monotonic() + run.DEADLINE_S
            cache[workload] = [
                run.run_sample(config, seed, tmp, deadline, traced=True) for _ in range(2)
            ]
        return cache[workload], reference[workload]["digests"]

    yield get
    shutil.rmtree(tmp)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_expected_spans_fire(traced, workload):
    samples, _ = traced(workload)
    for sample in samples:
        assert sample is not None, "traced sample crashed; see the captured stderr"
        fired = Counter(span[0] for span in sample["spans"])
        assert EXPECTED_SPANS[workload] <= set(fired), EXPECTED_SPANS[workload] - set(fired)
        assert set(sample["imports"]) == set(run.IMPORTS.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_and_outputs_match_reference(traced, workload):
    samples, digests = traced(workload)
    assert all(run.passed(s, digests) for s in samples)
    assert run.counts_repeat(samples)


def test_workloads_have_the_predicted_shape(traced):
    wide = traced("wide_offers")[0][0]
    assert wide["layers"]["market.post_offers_s"] >= 0.7 * wide["run_s"]
    ledger = traced("long_ledger")[0][0]
    assert ledger["layers"]["market.post_offers_s"] < 0.25 * ledger["run_s"]
    assert ledger["layers"]["market.budget_bound_rounds"] == 0
    tight = traced("tight_budget")[0][0]
    rounds = yaml.safe_load(run.workload_config("tight_budget").read_text())["rounds"]
    assert 0 < tight["layers"]["market.budget_bound_rounds"] < rounds
    assert tight["layers"]["assignment.enumerated"] == 1


def test_exits_nonzero_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "wide_offers", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
