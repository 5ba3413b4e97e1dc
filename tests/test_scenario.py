import copy
import re
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camsim import ConfigError, MarketState, load_config, run_scenario
from camsim.cli import main
from camsim.scenario import (
    OUTPUTS,
    artifact_digests,
    build_economy,
    export_csv,
    parse_mapping,
    to_mapping,
)

DATA = Path(__file__).parent / "data"
GOLDEN = yaml.safe_load((DATA / "golden.yaml").read_text())


def golden_with(snippet: str) -> dict:
    """golden.yaml with the snippet's top-level keys replaced; a population
    replaces the players."""
    raw = copy.deepcopy(GOLDEN)
    raw.update(yaml.safe_load(snippet))
    if "population" in raw:
        del raw["players"]
    return raw


def test_load_golden_config(golden):
    sc = load_config(DATA / "golden.yaml")
    economy = build_economy(sc)
    assert economy.player_ids() == golden.player_ids()
    assert economy.job_ids() == golden.job_ids()
    assert economy.demand == golden.demand
    for pid in golden.player_ids():
        for jid in golden.job_ids():
            assert economy.cost(pid, jid) == golden.cost(pid, jid)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config(DATA / "nope.yaml")


def test_parse_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("jobs: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_validation_collects_all_errors(tmp_path):
    raw = yaml.safe_load((DATA / "golden.yaml").read_text())
    raw["players"][0]["efficiencies"]["x"] = 0.0  # invariant violation
    raw["rounds"] = 0
    raw["mystery_knob"] = 1  # strict schema
    with pytest.raises(ConfigError) as exc:
        parse_mapping(raw, source="inline")
    messages = "\n".join(exc.value.errors)
    assert "players[0]" in messages and "x" in messages
    assert "rounds" in messages
    assert "mystery_knob" in messages
    assert len(exc.value.errors) >= 3


def test_unknown_key_rejected_everywhere():
    raw = yaml.safe_load((DATA / "golden.yaml").read_text())
    raw["jobs"][0]["colour"] = "blue"
    with pytest.raises(ConfigError, match="colour"):
        parse_mapping(raw)


def test_config_round_trip():
    sc = load_config(DATA / "golden.yaml")
    assert parse_mapping(to_mapping(sc)) == sc


def test_money_omitted_is_endowment_and_zero_is_zero():
    raw = yaml.safe_load((DATA / "golden.yaml").read_text())
    raw["initial_money"] = 50.0
    raw["players"][2]["money"] = 0.0
    sc = parse_mapping(raw)
    assert [p.money for p in sc.players] == [None, None, 0.0]
    state = MarketState.from_config(build_economy(sc), sc.initial_money)
    assert state.money == {"P1": 50.0, "P2": 50.0, "P3": 0.0}


def test_to_mapping_omits_unset_money():
    raw = yaml.safe_load((DATA / "golden.yaml").read_text())
    raw["players"][2]["money"] = 0.0
    sc = parse_mapping(raw)
    assert ["money" in p for p in to_mapping(sc)["players"]] == [False, False, True]
    assert parse_mapping(to_mapping(sc)) == sc


@pytest.mark.parametrize(
    "snippet, message",
    [
        ("rounds: true", "rounds must be"),
        ("master_seed: false", "master_seed must be"),
        (
            "population: {count: true, efficiency_distribution: uniform,"
            " params: {low: 0.5, high: 2.0}}",
            "count must be",
        ),
        ("demand: {P1: {x: true}}", r"demand\['P1'\]\['x'\] must be"),
        ("walk: {true_price: 10.0, eta: 0.5, sigma: 1.0, steps: 2.7}", "steps must be"),
        ("walk: {true_price: 10.0, eta: 0.5, sigma: 1.0, traces: true}", "traces must be"),
        ("players: [{player_id: P1, efficiencies: {x: 1.0}, money: true}]", "money must"),
        ("players: [{player_id: P1, efficiencies: {x: 1.0}, money: -5}]", "money must"),
    ],
    ids=[
        "rounds",
        "master_seed",
        "population.count",
        "demand.units",
        "walk.steps-fraction",
        "walk.traces",
        "money",
        "money-negative",
    ],
)
def test_yaml_boolean_is_not_an_integer(snippet, message):
    with pytest.raises(ConfigError, match=message):
        parse_mapping(golden_with(snippet))


GENERATED = golden_with(
    "population: {count: 3, efficiency_distribution: uniform,"
    " params: {low: 0.5, high: 2.0}}\n"
    "walk: {true_price: 10.0, eta: 0.5, sigma: 1.0, steps: 5, traces: 2}\n"
    "outputs: [trades, walk]\n"
)


def _paths(tree, path=()):
    """The path of every value in a parsed YAML tree, the root's included."""
    yield path
    if isinstance(tree, dict):
        children = tree.items()
    elif isinstance(tree, list):
        children = enumerate(tree)
    else:
        return
    for key, value in children:
        yield from _paths(value, path + (key,))


PATHS = [("golden", p) for p in _paths(GOLDEN)]
PATHS += [("generated", p) for p in _paths(GENERATED)]
YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300)
@given(where=st.sampled_from(PATHS), value=YAML_VALUES)
@example(where=("generated", ("population", "params", "low")), value="a")
def test_any_replaced_value_is_rejected_or_round_trips(where, value):
    base, path = where
    raw = copy.deepcopy(GENERATED if base == "generated" else GOLDEN)
    if not path:
        raw = value
    else:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    try:
        sc = parse_mapping(raw)
    except ConfigError:
        return
    assert parse_mapping(to_mapping(sc)) == sc


def test_generated_population_round_trip(tmp_path):
    cfg = tmp_path / "gen.yaml"
    cfg.write_text(
        "jobs: [{job_id: x, workload: 5.0}]\n"
        "population:\n"
        "  count: 10\n"
        "  efficiency_distribution: pareto\n"
        "  params: {alpha: 2.0, minimum: 0.5}\n"
        "conversion: 1.0\nprice_quantum: 0.01\nrounds: 1\nmaster_seed: 3\n"
        "outputs: [savings]\n"
        "walk: {true_price: 10.0, eta: 0.5, sigma: 1.0, steps: 10, traces: 2}\n"
    )
    sc = load_config(cfg)
    assert parse_mapping(to_mapping(sc)) == sc
    economy = build_economy(sc)
    assert len(economy.players) == 10
    # same seed, same draws
    assert build_economy(sc).players == economy.players


def test_run_scenario_matches_fixtures(tmp_path):
    sc = load_config(DATA / "golden.yaml")
    res = run_scenario(sc, tmp_path)
    for name, path in res["paths"].items():
        expected = (DATA / "golden_out" / f"{name}.csv").read_bytes()
        assert Path(path).read_bytes() == expected, f"{name}.csv drifted"


def test_run_scenario_byte_identical(tmp_path):
    sc = load_config(DATA / "golden.yaml")
    d1 = artifact_digests(run_scenario(sc, tmp_path / "a")["paths"])
    d2 = artifact_digests(run_scenario(sc, tmp_path / "b")["paths"])
    assert d1 == d2


def test_zero_cost_scenario_header_only(tmp_path):
    sc = load_config(DATA / "zero_cost.yaml")
    res = run_scenario(sc, tmp_path)
    lines = Path(res["paths"]["trades"]).read_text().splitlines()
    assert lines == [
        "round,buyer,seller,job,units,price,buyer_self_cost,seller_cost,system_energy_saved"
    ]


def test_export_csv_shapes(tmp_path):
    path = export_csv(
        [("1", "a", "2.00"), ("1", "b", "3.00")],
        ["round", "player", "money"],
        tmp_path / "t.csv",
    )
    text = path.read_text()
    assert text == "round,player,money\n1,a,2.00\n1,b,3.00\n"
    empty = export_csv([], ["price", "mass"], tmp_path / "e.csv")
    assert empty.read_text() == "price,mass\n"


def test_cli_runs_and_checks(tmp_path, capsys):
    rc = main(
        [str(DATA / "golden.yaml"), "-o", str(tmp_path / "out"), "--check", "-v"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "trades" in out
    assert (tmp_path / "out" / "trades.csv").exists()


def test_cli_check_exits_1_on_a_conservation_failure(tmp_path, capsys, monkeypatch):
    """The check runs on each round as it ends, on reports that carry the
    trade detail when trades are an output, and a violation exits 1."""
    seen = []

    def fails_round_2(report, config):
        seen.append(report)
        return report.round != 2

    monkeypatch.setattr("camsim.cli.conservation_check", fails_round_2)
    assert main([str(DATA / "golden.yaml"), "-o", str(tmp_path), "--check"]) == 1
    assert capsys.readouterr().err == "check failed: conservation violated in round 2\n"
    assert [r.round for r in seen] == [1, 2]
    assert all(r.trades for r in seen)


@pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
def test_cli_unwritable_output_directory_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([str(DATA / "golden.yaml"), "-o", str(blocker / below)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(blocker) in err


def test_run_scenario_memory_does_not_grow_with_rounds(tmp_path):
    """Each round's rows are written and dropped as the round ends, so ten
    times the rounds may not take ten times the memory."""
    jobs = ", ".join(f"{{job_id: j{k}, workload: {k + 1}.0}}" for k in range(4))

    def peak(rounds: int) -> int:
        sc = parse_mapping(
            golden_with(
                f"jobs: [{jobs}]\n"
                "population:\n"
                "  {count: 50, efficiency_distribution: uniform, params: {low: 0.5, high: 2.0}}\n"
                f"rounds: {rounds}\n"
                "outputs: [trades, wealth, savings]\n"
            )
        )
        tracemalloc.start()
        try:
            run_scenario(sc, tmp_path / str(rounds))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # warm-up, so that one-off caches count in neither run
    assert peak(200) <= 2 * peak(20)


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("jobs: 7\nconversion: 1.0\n")
    assert main([str(bad), "-o", str(tmp_path)]) == 2
    assert "jobs" in capsys.readouterr().err
    assert main([str(tmp_path / "missing.yaml")]) == 2


@pytest.mark.parametrize(
    "snippet, message",
    [
        ("players: [{player_id: P1, efficiencies: {x: 2.0}}]", "no efficiency for job 'y'"),
        ("jobs: [{job_id: x, workload: 1.0}, {job_id: x, workload: 2.0}]", "job_ids must"),
        (
            "players: [{player_id: P1, efficiencies: {x: 1.0, y: 1.0}},"
            " {player_id: P1, efficiencies: {x: 2.0, y: 1.0}}]",
            "player_ids must be",
        ),
        ("demand: {P9: {x: 1}}", "unknown player 'P9'"),
        (
            "population: {count: 5, efficiency_distribution: uniform,"
            " params: {low: a, high: 2}}",
            "low must be",
        ),
        (
            "population: {count: 5, efficiency_distribution: uniform,"
            " params: {low: -1, high: 2}}",
            "low must be",
        ),
        ("conversion: .inf", "conversion must be"),
        ("players: []", "players must not be empty"),
        (
            "players: [{player_id: P1, efficiencies: {x: 1.0e-320, y: 1.0}}]",
            "cost or break-even price of job 'x' is not finite",
        ),
        ("conversion: 1.0e308", "cost or break-even price of job 'x' is not finite"),
        (
            "jobs: [{job_id: x, workload: 1.0e308}, {job_id: y, workload: 10.0}]\n"
            "players: [{player_id: P1, efficiencies: {x: 0.5, y: 1.0}}]",
            "cost or break-even price of job 'x' is not finite",
        ),
        (f"demand: {10**308}", "total demand times the highest cost"),
        ("conversion: 1.0e300\ndemand: 10000000000", "total demand times the highest cost"),
        (
            "jobs: [{job_id: x, workload: 1.0e308}, {job_id: y, workload: 1.0e308}]\n"
            "players: [{player_id: P1, efficiencies: {x: 1.0, y: 1.0}}]",
            "summed over the jobs",
        ),
        (
            "jobs: [{job_id: x, workload: 1.0e306}]\n"
            "players: [{player_id: P1, efficiencies: {x: 1.0}},"
            " {player_id: P2, efficiencies: {x: 2.0}}]\n"
            "rounds: 300",
            "300 rounds times the most one round moves",
        ),
    ],
    ids=[
        "missing-efficiency",
        "duplicate-job",
        "duplicate-player",
        "unknown-demand-player",
        "params-not-a-number",
        "params-negative",
        "conversion-inf",
        "no-players",
        "cost-overflow",
        "break-even-overflow",
        "workload-overflow",
        "demand-overflow",
        "money-overflow",
        "jobs-sum-overflow",
        "ledger-overflow",
    ],
)
def test_cli_every_config_error_exits_2(tmp_path, capsys, snippet, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(golden_with(snippet)))
    out = tmp_path / "out"
    assert main([str(cfg), "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_cli_check_variants_stay_within_the_ledger_bound(tmp_path):
    # One round of 1e308 fits a float, three do not; the no-trade variants
    # run no more rounds than the scenario.
    cfg = tmp_path / "one-round.yaml"
    snippet = (
        "jobs: [{job_id: x, workload: 1.0e308}]\n"
        "players: [{player_id: P1, efficiencies: {x: 1.0}}]\n"
        "rounds: 1"
    )
    cfg.write_text(yaml.safe_dump(golden_with(snippet)))
    assert main([str(cfg), "-o", str(tmp_path / "out"), "--check"]) == 0


def test_cli_negative_seed_exits_2_before_writing(tmp_path, capsys):
    cfg = tmp_path / "walk.yaml"
    snippet = (
        "outputs: [trades, wealth, savings, density, walk]\n"
        "walk: {true_price: 10.0, eta: 0.5, sigma: 1.0, steps: 5}\n"
    )
    cfg.write_text(yaml.safe_dump(golden_with(snippet)))
    out = tmp_path / "out"
    assert main([str(cfg), "-o", str(out), "--seed", "-1"]) == 2
    assert "master_seed must be" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_readme_csv_table_matches_outputs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### CSV artifacts")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)\.csv` \| (.+) \|$", table, re.MULTILINE)
    assert {kind: tuple(columns.split(", ")) for kind, columns in rows} == {
        kind: header for kind, (header, _) in OUTPUTS.items()
    }


def test_cli_seed_override_changes_generated_population(tmp_path):
    cfg = tmp_path / "gen.yaml"
    cfg.write_text(
        "jobs: [{job_id: x, workload: 5.0}]\n"
        "population:\n"
        "  count: 20\n"
        "  efficiency_distribution: uniform\n"
        "  params: {low: 0.5, high: 2.0}\n"
        "conversion: 1.0\nprice_quantum: 0.01\nrounds: 1\nmaster_seed: 3\n"
        "outputs: [density]\n"
    )
    assert main([str(cfg), "-o", str(tmp_path / "a")]) == 0
    assert main([str(cfg), "-o", str(tmp_path / "b"), "--seed", "99"]) == 0
    a = (tmp_path / "a" / "density.csv").read_bytes()
    b = (tmp_path / "b" / "density.csv").read_bytes()
    assert a != b
