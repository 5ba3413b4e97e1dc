import copy
import dataclasses
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camsim import (
    ConfigError,
    JobSpec,
    MarketState,
    Player,
    autarky_energy,
    load_config,
    market,
    run_scenario,
)
from camsim.cli import _no_trade_failures, main
from camsim.config import (
    _LOADER,
    PopulationSpec,
    ScenarioConfig,
    WalkRun,
    build_economy,
    parse_mapping,
)
from camsim.csvtext import HEADERS, OUTPUT_KINDS, export_csv
from camsim.pricing import break_even_atoms
from camsim.scenario import artifact_digests
from camsim.walk import WalkParams
from tests.oracles import run_scenario_by_cell
from tests.test_market import recorded_batches

DATA = Path(__file__).parent / "data"
GOLDEN = yaml.safe_load((DATA / "golden.yaml").read_text())
SCENARIO_FILES = [
    *sorted(DATA.glob("*.yaml")),
    *sorted((Path(__file__).parents[1] / "bench" / "workloads").glob("*.yaml")),
]
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
BAD_YAML = {
    "unclosed-bracket": b"jobs: [unclosed\n",
    "not-utf8": (DATA / "golden.yaml").read_bytes().replace(b"P3", b"P\xff"),
}


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


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.yaml"
    cfg.write_bytes((DATA / "golden.yaml").read_bytes().replace(b"P3", b"P\xff"))
    out = tmp_path / "out"
    assert main([str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not valid YAML" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.skipif(len(LOADERS) == 1, reason="PyYAML without libyaml")
@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_libyaml_and_python_loaders_build_the_same_tree(path):
    """load_config parses with libyaml when PyYAML has it; every scenario
    file in the repository loads to the same tree, types included."""
    assert _LOADER is yaml.CSafeLoader
    trees = [yaml.load(path.read_bytes(), Loader=loader) for loader in LOADERS]
    assert repr(trees[0]) == repr(trees[1])


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text", BAD_YAML.values(), ids=BAD_YAML.keys())
def test_cli_bad_yaml_exits_2_in_one_line_with_either_loader(
    tmp_path, capsys, monkeypatch, loader, text
):
    monkeypatch.setattr("camsim.config._LOADER", loader)
    cfg, out = tmp_path / "bad.yaml", tmp_path / "out"
    cfg.write_bytes(text)
    assert main([str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not valid YAML" in err
    assert not list(out.glob("*.csv"))


def test_uniform_low_must_not_exceed_high():
    population = "population: {count: 5, efficiency_distribution: uniform, params: %s}"
    with pytest.raises(ConfigError, match="population: params: low must be <= high"):
        parse_mapping(golden_with(population % "{low: 2.5, high: 2.0}"))
    sc = parse_mapping(golden_with(population % "{low: 2.0, high: 2.0}"))
    assert set(build_economy(sc).efficiencies.ravel().tolist()) == {2.0}


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


def test_money_omitted_is_endowment_and_zero_is_zero():
    raw = yaml.safe_load((DATA / "golden.yaml").read_text())
    raw["initial_money"] = 50.0
    raw["players"][2]["money"] = 0.0
    sc = parse_mapping(raw)
    assert [p.money for p in sc.players] == [None, None, 0.0]
    state = MarketState.from_config(build_economy(sc), sc.initial_money)
    assert state.money.tolist() == [50.0, 50.0, 0.0]


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
def test_any_replaced_value_parses_or_raises_config_error(where, value):
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
        return  # a rejection; any other exception fails the test
    # The scalar rules run again in __post_init__, and change nothing.
    assert dataclasses.replace(sc) == sc


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
    economy = build_economy(sc)
    assert len(economy.players) == 10
    # same seed, same draws
    again = build_economy(sc)
    assert again.players == economy.players
    assert again.efficiencies.tobytes() == economy.efficiencies.tobytes()


def test_run_scenario_matches_fixtures(tmp_path):
    sc = load_config(DATA / "golden.yaml")
    res = run_scenario(sc, tmp_path)
    for name, path in res["paths"].items():
        expected = (DATA / "golden_out" / f"{name}.csv").read_bytes()
        assert Path(path).read_bytes() == expected, f"{name}.csv drifted"


# P2 sells y to P1 and P3 at 9 each. With what it has after P1's purchase
# it buys 3 units of x at 9, or else 1 unit of z at 9, so the rounds go A, B,
# A, B: each returns to the trades of the round before last, and every round
# has 5 trades and 1 buyer priced out.
ALTERNATING = golden_with(
    "jobs: [{job_id: x, workload: 10.0}, {job_id: y, workload: 10.0},"
    " {job_id: z, workload: 10.0}]\n"
    "players:\n"
    "  - {player_id: P1, efficiencies: {x: 2.0, y: 1.0, z: 1.0}}\n"
    "  - {player_id: P2, efficiencies: {x: 1.0, y: 2.0, z: 1.0}, money: 18}\n"
    "  - {player_id: P3, efficiencies: {x: 1.0, y: 1.0, z: 2.0}}\n"
    "demand: {P1: {x: 1, y: 1, z: 1}, P2: {x: 3, y: 1, z: 1}, P3: {x: 1, y: 1, z: 1}}\n"
    "rounds: 4\n"
    "outputs: [trades, wealth, savings, density, walk]\n"
    "walk: {true_price: 1.0, eta: 0.5, sigma: 0.1, steps: 3, traces: 2}\n"
)


def assert_same_bytes(paths: dict[str, Path], expected: dict[str, Path]) -> None:
    assert paths.keys() == expected.keys()
    for kind, path in paths.items():
        assert path.read_bytes() == expected[kind].read_bytes(), kind


@st.composite
def small_scenarios(draw) -> ScenarioConfig:
    """Up to 4 players x 3 jobs with every output; players on small budgets
    can be priced out part-way through the rounds. Efficiencies drawn from
    {0.5, 1, 2} tie break-evens, so atoms have masses above 1 and sellers
    post equal prices."""
    jobs = [
        JobSpec(f"j{k}", draw(st.sampled_from([0.0, 1.0, 2.5, 10.0])))
        for k in range(draw(st.integers(1, 3)))
    ]
    tied = draw(st.booleans())
    efficiency = st.sampled_from([0.5, 1.0, 2.0]) if tied else st.floats(0.25, 4.0)
    players = [
        Player(
            f"P{i}",
            {j.job_id: draw(efficiency) for j in jobs},
            draw(st.none() | st.floats(0.0, 60.0)),
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    return ScenarioConfig(
        jobs=jobs,
        conversion=draw(st.floats(0.5, 2.0)),
        price_quantum=draw(st.sampled_from([1.0, 0.5, 0.25, 0.125, 0.01, 0.001])),
        rounds=draw(st.integers(1, 6)),
        master_seed=draw(st.integers(0, 2**32)),
        outputs=list(OUTPUT_KINDS),
        players=players,
        demand={
            (p.player_id, j.job_id): draw(st.integers(0, 3)) for p in players for j in jobs
        },
        initial_money=draw(st.floats(1.0, 100.0)),
        walk=WalkRun(WalkParams(1.0, 0.5, 0.1), steps=3, traces=2),
    )


@given(sc=small_scenarios())
@example(sc=parse_mapping(ALTERNATING))
@settings(max_examples=40, deadline=None)
def test_run_scenario_matches_the_per_cell_oracle(sc):
    """Posted offers, the array round and the reused trade lines, composed,
    write the bytes of every offer, the per-cell round and fresh lines."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = run_scenario(sc, Path(tmp) / "run")["paths"]
        assert_same_bytes(paths, run_scenario_by_cell(sc, Path(tmp) / "oracle"))


def test_alternating_rounds_return_to_earlier_trades(tmp_path):
    seen = []
    run_scenario(parse_mapping(ALTERNATING), tmp_path, lambda r, c: seen.append(r))
    a, b, a_again, b_again = (r.trades for r in seen)
    assert a == a_again and a is not a_again
    assert b == b_again and b is not b_again
    assert a != b
    assert {(r.n_trades, r.n_forced) for r in seen} == {(5, 1)}


def test_rounds_that_decide_alike_report_one_trades_tuple(tmp_path):
    """Where no budget binds, every round reports the first round's trades
    tuple, so trades.csv formats their lines once."""
    seen = []
    sc = parse_mapping(golden_with("rounds: 20\n"))
    run_scenario(sc, tmp_path, lambda r, c: seen.append(r))
    assert not any(r.n_forced for r in seen)
    assert seen[0].trades
    assert len({id(r.trades) for r in seen}) == 1


def test_runs_at_other_price_quanta_share_no_lines(tmp_path):
    """Runs over one economy in one process, at other price formats, each
    write the oracle's bytes."""
    for n, quantum in enumerate((0.5, 0.25, 0.5)):
        sc = parse_mapping({**ALTERNATING, "price_quantum": quantum})
        paths = run_scenario(sc, tmp_path / f"run{n}")["paths"]
        assert_same_bytes(paths, run_scenario_by_cell(sc, tmp_path / f"oracle{n}"))


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
        ["1,a,2.00\n", "1,b,3.00\n"],
        ["round", "player", "money"],
        tmp_path / "t.csv",
    )
    text = path.read_text()
    assert text == "round,player,money\n1,a,2.00\n1,b,3.00\n"
    empty = export_csv([], ["price", "mass"], tmp_path / "e.csv")
    assert empty.read_text() == "price,mass\n"


def test_every_csv_line_ends_and_fits_its_header(tmp_path):
    """Each output's lines end in a newline and have one field per column."""
    sc = parse_mapping(
        golden_with(
            "outputs: [trades, wealth, savings, density, walk]\n"
            "walk: {true_price: 1.0, eta: 0.5, sigma: 0.1, steps: 5, traces: 2}\n"
        )
    )
    paths = run_scenario(sc, tmp_path)["paths"]
    assert sorted(paths) == sorted(HEADERS)
    for kind, path in paths.items():
        header = HEADERS[kind]
        lines = path.read_bytes().decode().split("\n")
        assert lines.pop() == "", kind  # the last line ends in a newline too
        assert lines[0] == ",".join(header)
        assert len(lines) > 1, kind
        for line in lines:
            assert len(line.split(",")) == len(header), (kind, line)


def test_walk_csv_memory_per_step(tmp_path):
    """walk.csv is simulated in pieces and printed in blocks, so its memory
    per step stays small."""
    steps = 20_000
    sc = parse_mapping(
        golden_with(
            "outputs: [walk]\n"
            f"walk: {{true_price: 1.0, eta: 0.5, sigma: 0.1, steps: {steps}}}\n"
        )
    )
    run_scenario(sc, tmp_path / "warm-up")  # so that one-off caches do not count
    tracemalloc.start()
    try:
        run_scenario(sc, tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * steps, peak / steps


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


def test_cli_check_fails_a_corrupted_record_after_rounds_that_passed(
    tmp_path, capsys, monkeypatch
):
    """A later, distinct outcome with one corrupted record fails the check,
    though earlier rounds passed and the record's sums meet the totals."""
    config_path = tmp_path / "alternating.yaml"
    config_path.write_text(yaml.safe_dump(ALTERNATING))

    def corrupts_round_3(config, state, offers, record_detail):
        state, report = market.execute_round(config, state, offers, record_detail)
        if report.round == 3:
            t = report.trades[0]
            t = dataclasses.replace(t, price=config.conversion * t.buyer_self_cost)
            report = dataclasses.replace(report, trades=(t, *report.trades[1:]))
        return state, report

    monkeypatch.setattr("camsim.scenario.execute_round", corrupts_round_3)
    assert main([str(config_path), "-o", str(tmp_path / "out"), "--check"]) == 1
    assert capsys.readouterr().err == "check failed: conservation violated in round 3\n"


@pytest.mark.parametrize(
    "economy",
    [
        "{}",
        "population: {count: 200, efficiency_distribution: uniform,"
        " params: {low: 0.5, high: 2.0}}",
    ],
    ids=["golden", "population-200"],
)
def test_cli_check_variants_post_no_offers(monkeypatch, economy):
    """In both no-trade variants every job's density is one atom, so no
    seller can post an offer, not only that no round trades, and posting
    prices one pass of each job's cheapest break-even alone."""
    variants = []

    def run_market(config, rounds, **kwargs):
        variants.append(config)
        return market.run_market(config, rounds, **kwargs)

    monkeypatch.setattr("camsim.cli.run_market", run_market)
    config = build_economy(parse_mapping(golden_with(economy)))
    assert _no_trade_failures(config) == []
    assert len(variants) == 2
    batches = recorded_batches(monkeypatch)
    for variant in variants:
        batches.clear()
        assert market.post_offers(variant) == []
        assert [[len(b) for b in batch] for batch in batches] == [[1] * len(variant.jobs)]


def test_a_drawn_population_and_its_check_variants_build_no_player(monkeypatch):
    """A drawn population reaches EconomyConfig as its efficiency table, and
    the no-trade variants replace tables, so neither builds a Player."""

    def no_player(self):
        raise AssertionError(f"Player {self.player_id!r} built")

    monkeypatch.setattr(Player, "__post_init__", no_player)
    population = (
        "population: {count: 50, efficiency_distribution: uniform,"
        " params: {low: 0.5, high: 2.0}}"
    )
    config = build_economy(parse_mapping(golden_with(population)))
    assert config.efficiencies.shape == (50, 2)
    assert _no_trade_failures(config) == []


def test_a_scalar_demand_and_its_check_variants_store_no_cells(monkeypatch):
    """A scalar demand stays one int. Under tracemalloc, a 2,000 x 20
    config and its two no-trade variants peak at 5.1 MiB; spelling the
    demand out as its 40,000 cells peaked at 8.4 MiB."""
    variants = []

    def run_market(config, rounds, **kwargs):
        variants.append(config)
        return None, [market.RoundReport(1, (), (), 0, 0, 0.0, 0.0, 0.0, 0.0)]

    monkeypatch.setattr("camsim.cli.run_market", run_market)
    jobs = ", ".join(f"{{job_id: j{k}, workload: {k + 1}.0}}" for k in range(20))
    sc = parse_mapping(
        golden_with(
            f"jobs: [{jobs}]\n"
            "population:\n"
            "  {count: 2000, efficiency_distribution: uniform, params: {low: 0.5, high: 2.0}}\n"
        )
    )
    build_economy(sc)  # warm-up, so that one-off caches do not count
    tracemalloc.start()
    try:
        assert _no_trade_failures(build_economy(sc)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(variants) == 2
    assert peak < 6 * 2**20


@given(sc=small_scenarios(), units=st.integers(0, 3))
@example(sc=parse_mapping(ALTERNATING), units=10**30)
@settings(max_examples=25, deadline=None)
def test_a_scalar_demand_runs_as_its_cells_spelled_out(sc, units):
    """An int demand and the mapping of every cell to it build the same
    tables and offers and write the same bytes; the config's demand is
    that mapping, exact ints included."""
    cells = {(p.player_id, j.job_id): units for p in sc.players for j in sc.jobs}
    scalar = dataclasses.replace(sc, demand=units)
    spelled = dataclasses.replace(sc, demand=cells)
    a, b = build_economy(scalar), build_economy(spelled)
    assert a.units.tobytes() == b.units.tobytes()
    assert [a.total_demand(j) for j in a.job_ids()] == [b.total_demand(j) for j in b.job_ids()]
    assert a.round_bound == b.round_bound
    assert autarky_energy(a).hex() == autarky_energy(b).hex()
    assert market.post_offers(a) == market.post_offers(b)
    assert a.demand == cells and len(a.demand) == len(cells)
    assert sorted(a.demand.items()) == sorted(cells.items())
    assert all(cell in a.demand and a.demand[cell] == u for cell, u in cells.items())
    for unknown in [("ghost", sc.jobs[0].job_id), (sc.players[0].player_id, "ghost"), "P0"]:
        assert unknown not in a.demand
        with pytest.raises(KeyError):
            a.demand[unknown]
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_bytes(
            run_scenario(scalar, Path(tmp) / "scalar")["paths"],
            run_scenario(spelled, Path(tmp) / "spelled")["paths"],
        )


def test_each_job_density_is_built_once_per_config(tmp_path, monkeypatch):
    """density.csv takes every job's atoms from one break_even_atoms call,
    and posting, the no-trade variants' included, makes none; export_csv
    gets density.csv as one text whose len() is its lines."""
    calls, rows = [], []

    def counted(costs, conversion):
        calls.append(costs.shape)
        return break_even_atoms(costs, conversion)

    def export(lines, header, path):
        rows.append(len(lines))
        return export_csv(lines, header, path)

    monkeypatch.setattr("camsim.pricing.break_even_atoms", counted)
    monkeypatch.setattr("camsim.scenario.break_even_atoms", counted)
    monkeypatch.setattr("camsim.scenario.export_csv", export)
    sc = parse_mapping(ALTERNATING)
    result = run_scenario(dataclasses.replace(sc, outputs=["density", "savings"]), tmp_path)
    assert calls == [(3, 3)]
    assert rows == [len(result["paths"]["density"].read_text().splitlines()) - 1]
    assert _no_trade_failures(result["config"]) == []  # two configs more
    assert calls == [(3, 3)]


def no_players(jobs: list[JobSpec], outputs: list[str]) -> ScenarioConfig:
    return ScenarioConfig(
        jobs=jobs,
        conversion=1.0,
        price_quantum=0.01,
        rounds=3,
        master_seed=0,
        outputs=outputs,
        players=[],
    )


@pytest.mark.parametrize(
    "outputs", [["wealth"], ["savings"], [], ["trades", "wealth", "savings", "density"]]
)
def test_an_economy_without_players_or_jobs_writes_its_headers(tmp_path, outputs):
    """trades, wealth and density hold their headers alone; savings, as in
    any economy without jobs, one line of zeros per round."""
    sc = no_players([], outputs)
    paths = run_scenario(sc, tmp_path / "run")["paths"]
    assert_same_bytes(paths, run_scenario_by_cell(sc, tmp_path / "oracle"))
    for kind, path in paths.items():
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(HEADERS[kind])
        zeros = [f"{r}" + ",0.000000000" * 4 for r in range(1, sc.rounds + 1)]
        assert lines[1:] == (zeros if kind == "savings" else []), kind


def test_jobs_without_players_is_a_config_error_before_any_output(tmp_path):
    sc = no_players([JobSpec("x", 10.0)], ["trades", "wealth", "savings", "density"])
    with pytest.raises(ConfigError, match="^economy has no players$"):
        run_scenario(sc, tmp_path / "out")
    assert not (tmp_path / "out").exists()


KINDS = f": outputs must be a list drawn from {OUTPUT_KINDS}"
ONE_OF = ": give exactly one of 'players' or 'population'"
# A two-player scenario, built in code and as a YAML tree.
BUILT = dict(
    jobs=[JobSpec("x", 10.0)],
    conversion=1.0,
    price_quantum=0.01,
    rounds=1,
    master_seed=0,
    outputs=["wealth"],
    players=[Player("P1", {"x": 2.0}), Player("P2", {"x": 1.0})],
)
TREE = yaml.safe_load(
    "jobs: [{job_id: x, workload: 10.0}]\n"
    "conversion: 1.0\nprice_quantum: 0.01\nrounds: 1\nmaster_seed: 0\noutputs: [wealth]\n"
    "players: [{player_id: P1, efficiencies: {x: 2.0}}, {player_id: P2, efficiencies: {x: 1.0}}]\n"
)
UNIFORM = {"low": 0.5, "high": 2.0}
WALK = {"true_price": 1.0, "eta": 0.5, "sigma": 0.1}


def drawn(count, distribution, params):
    """The fields and the tree of a population in place of the players."""
    population = {"count": count, "efficiency_distribution": distribution, "params": params}
    return (
        lambda: {"players": None, "population": PopulationSpec(**population)},
        {"players": None, "population": population},
    )


def same(**fields):
    """Fields that read the same in code and in YAML."""
    return lambda: fields, fields


@pytest.mark.parametrize(
    "fields, tree, message",
    [
        (*same(outputs=["wealthh"]), KINDS),
        (*same(outputs="wealth"), KINDS),
        (*same(outputs=["walk"]), ": outputs include 'walk' but no walk block given"),
        (
            lambda: {"population": PopulationSpec(2, "uniform", UNIFORM)},
            {"population": {"count": 2, "efficiency_distribution": "uniform", "params": UNIFORM}},
            ONE_OF,
        ),
        (*same(players=None), ONE_OF),
        (*same(rounds=-3), ": rounds must be an integer >= 1"),
        (*same(rounds=2.5), ": rounds must be an integer >= 1"),
        (*same(rounds=True), ": rounds must be an integer >= 1"),
        (*same(rounds=0), ": rounds must be an integer >= 1"),
        (*same(master_seed=-1), ": master_seed must be an integer >= 0"),
        (*same(initial_money=-5.0), ": initial_money must be a finite number > 0"),
        (*same(initial_money=0.0), ": initial_money must be a finite number > 0"),
        (*same(conversion="x"), ": conversion must be a finite number > 0"),
        (
            lambda: {"walk": WalkRun(WalkParams(**WALK), steps=0, traces=1)},
            {"walk": {**WALK, "steps": 0}},
            ": steps must be an integer >= 1",
        ),
        (
            lambda: {"walk": WalkRun(WalkParams(**WALK), steps=5, traces=-1)},
            {"walk": {**WALK, "traces": -1}},
            ": traces must be an integer >= 1",
        ),
        (
            lambda: {"walk": WalkRun(WalkParams(1.0, 3.0, 0.1), steps=5, traces=1)},
            {"walk": {**WALK, "eta": 3.0}},
            ": eta must be a finite number in (0, 2)",
        ),
        (
            lambda: {"walk": WalkRun(WalkParams(1.0, 0.5, -1.0), steps=5, traces=1)},
            {"walk": {**WALK, "sigma": -1.0}},
            ": sigma must be a finite number >= 0",
        ),
        (
            lambda: {"walk": WalkRun(WalkParams(float("inf"), 0.5, 0.1), steps=5, traces=1)},
            {"walk": {**WALK, "true_price": "inf"}},
            ": true_price must be a finite number >= 0",
        ),
        (
            *drawn(5, "bogus", {"alpha": 2.0, "minimum": 0.5}),
            ": efficiency_distribution must be one of ('uniform', 'log-normal', 'pareto')",
        ),
        (*drawn(5, "uniform", {"low": 0.5}), ": params for uniform must be ['high', 'low']"),
        (*drawn(0, "uniform", UNIFORM), ": count must be an integer >= 1"),
        (*drawn(5, "uniform", {"low": 2.0, "high": 0.5}), ": params: low must be <= high"),
        (
            *drawn(5, "log-normal", {"mu": 0.0, "sigma": -1.0}),
            ": params: sigma must be a finite number >= 0",
        ),
    ],
    ids=[
        "unknown-kind",
        "string",
        "walk-without-block",
        "players-and-population",
        "neither",
        "rounds-negative",
        "rounds-fraction",
        "rounds-bool",
        "rounds-zero",
        "seed-negative",
        "money-negative",
        "money-zero",
        "conversion-string",
        "walk-steps-zero",
        "walk-traces-negative",
        "walk-eta-outside",
        "walk-sigma-negative",
        "walk-true-price-infinite",
        "unknown-distribution",
        "uniform-without-high",
        "count-zero",
        "low-above-high",
        "sigma-negative",
    ],
)
def test_a_scenario_built_in_code_follows_the_yaml_cross_field_rules(
    tmp_path, fields, tree, message
):
    """A ScenarioConfig, PopulationSpec or WalkRun built in code is held to
    each field's YAML rule and to those between fields, before any output
    directory is made; the YAML's message for the same values ends with its
    message. ``fields()`` builds the specs, which check themselves; a None
    in ``tree`` drops that key."""
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as raised:
        run_scenario(ScenarioConfig(**{**BUILT, **fields()}), out)
    assert raised.value.errors == [message]
    assert not out.exists()
    with pytest.raises(ConfigError) as parsed:
        parse_mapping({k: v for k, v in {**TREE, **tree}.items() if v is not None})
    [error] = parsed.value.errors
    assert error.endswith(message)


def test_run_scenario_rejects_an_id_a_csv_cannot_print(tmp_path):
    """A scenario built in code skips the YAML id rule; the config still
    refuses the id, before any CSV is written."""
    sc = ScenarioConfig(
        jobs=[JobSpec("x", 10.0), JobSpec("y", 10.0)],
        conversion=1.0,
        price_quantum=0.01,
        rounds=1,
        master_seed=0,
        outputs=["trades", "wealth", "savings", "density"],
        players=[Player("P,1", {"x": 2.0, "y": 1.0}), Player("P2", {"x": 1.0, "y": 2.0})],
    )
    with pytest.raises(ConfigError, match="player id 'P,1' must not contain a comma"):
        run_scenario(sc, tmp_path / "out")
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "edit",
    [
        lambda raw, zero: raw["jobs"][0].update(workload=zero),
        lambda raw, zero: raw["players"][2].update(money=zero),
    ],
    ids=["workload", "money"],
)
def test_negative_zero_writes_the_bytes_of_zero(tmp_path, edit):
    """-0.0 passes the >= 0 rules; it must not print as -0 in density.csv
    (a zero workload) or wealth.csv (a zero starting balance)."""
    digests = []
    for zero in (-0.0, 0.0):
        raw = copy.deepcopy(GOLDEN)
        edit(raw, zero)
        cfg, out = tmp_path / f"{zero}.yaml", tmp_path / f"out{zero}"
        cfg.write_text(yaml.safe_dump(raw))
        assert main([str(cfg), "-o", str(out), "--check"]) == 0
        digests.append(artifact_digests({p.stem: p for p in out.glob("*.csv")}))
    assert digests[0] == digests[1]
    assert len(digests[0]) == 4


def test_a_walk_from_negative_zero_writes_the_bytes_of_zero(tmp_path):
    """-0.0 passes the true_price >= 0 rule; without noise its walk stays at
    zero and must not print as -0 in walk.csv."""
    raw = copy.deepcopy(GOLDEN)
    walk = {"true_price": -0.0, "eta": 0.5, "sigma": 0.0, "steps": 3}
    raw.update(outputs=["walk"], walk=walk)
    cfg = tmp_path / "walk.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    assert main([str(cfg), "-o", str(tmp_path / "out"), "--check"]) == 0
    zeros = "".join(f"0,{step},0.000000000\n" for step in range(3))
    assert (tmp_path / "out" / "walk.csv").read_text() == "trace,step,value\n" + zeros


@pytest.mark.parametrize(
    "traded, message",
    [
        (lambda c: (c.workloads == 0).all(), "zero-cost"),
        (lambda c: (c.efficiencies == c.efficiencies[0]).all(), "identical-efficiency"),
    ],
    ids=["zero-cost", "identical-efficiency"],
)
def test_cli_check_exits_1_when_a_no_trade_variant_trades(
    tmp_path, capsys, monkeypatch, traded, message
):
    """Each no-trade variant runs one round; a trade in it fails the check."""
    calls = []

    def run_market(config, rounds, **kwargs):
        calls.append(rounds)
        state, reports = market.run_market(config, rounds, **kwargs)
        if traded(config):
            reports = [dataclasses.replace(r, n_trades=1) for r in reports]
        return state, reports

    monkeypatch.setattr("camsim.cli.run_market", run_market)
    assert main([str(DATA / "golden.yaml"), "-o", str(tmp_path), "--check"]) == 1
    assert capsys.readouterr().err == f"check failed: {message} economy executed trades\n"
    assert calls == [1, 1]


@pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
def test_cli_unwritable_output_directory_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([str(DATA / "golden.yaml"), "-o", str(blocker / below)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(blocker) in err


@pytest.mark.parametrize("kind", ["trades", "wealth", "density"])
def test_cli_unwritable_csv_exits_2_naming_it(tmp_path, capsys, kind):
    """A per-round CSV and a whole-file CSV fail with the same message."""
    out = tmp_path / "out"
    (out / f"{kind}.csv").mkdir(parents=True)
    assert main([str(DATA / "golden.yaml"), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"failed writing {out / kind}.csv: ")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("kind", ["savings", "wealth", "density"])
def test_cli_csv_on_a_full_device_exits_2_naming_it(tmp_path, capsys, kind):
    """A CSV that opens but cannot be written (every write to /dev/full fails
    with ENOSPC, here when the buffer is flushed) names the file too."""
    out = tmp_path / "out"
    out.mkdir()
    (out / f"{kind}.csv").symlink_to("/dev/full")
    assert main([str(DATA / "golden.yaml"), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"failed writing {out / kind}.csv: ")


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
        (
            "population: {count: 5, efficiency_distribution: uniform,"
            " params: {low: 3, high: 2}}",
            "population: params: low must be <= high",
        ),
        (
            "jobs: [{job_id: x, workload: 10.0}]\n"
            "players: [{player_id: P1, efficiencies: {x: 2.0, y: 1.0}}]",
            "player 'P1' has an efficiency for unknown job 'y'",
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
        (
            "population: {count: 5, efficiency_distribution: pareto,"
            " params: {alpha: 0.001, minimum: 1.0e300}}",
            "player 'P0001': efficiency for job 'x' must be finite and > 0, got inf",
        ),
        (
            "population: {count: 5, efficiency_distribution: log-normal,"
            " params: {mu: -800.0, sigma: 0.0}}",
            "player 'P0001': efficiency for job 'x' must be finite and > 0, got 0.0",
        ),
        (
            "outputs: [walk]\n"
            "walk: {true_price: 1.0e300, eta: 0.5, sigma: 1.0e308, steps: 100, traces: 1}",
            "walk: true_price + (eta * true_price + 16 * sigma) / min(eta, 1) must be below 2**1020",
        ),
        (
            "players: [{player_id: 'P,1', efficiencies: {x: 1.0, y: 1.0}}]",
            "players[0]: player_id must not contain a comma, a double quote, CR or LF",
        ),
        (
            'players: [{player_id: "P\\n2", efficiencies: {x: 1.0, y: 1.0}}]',
            "players[0]: player_id must not contain a comma, a double quote, CR or LF",
        ),
        (
            "jobs: [{job_id: 'x\"', workload: 1.0}]",
            "jobs[0]: job_id must not contain a comma, a double quote, CR or LF",
        ),
        (
            'jobs: [{job_id: "x\\r", workload: 1.0}]',
            "jobs[0]: job_id must not contain a comma, a double quote, CR or LF",
        ),
    ],
    ids=[
        "missing-efficiency",
        "duplicate-job",
        "duplicate-player",
        "unknown-demand-player",
        "params-not-a-number",
        "params-negative",
        "params-low-above-high",
        "efficiency-for-unknown-job",
        "conversion-inf",
        "no-players",
        "cost-overflow",
        "break-even-overflow",
        "workload-overflow",
        "demand-overflow",
        "money-overflow",
        "jobs-sum-overflow",
        "ledger-overflow",
        "pareto-draw-overflow",
        "log-normal-draw-underflow",
        "walk-overflow",
        "player-id-comma",
        "player-id-newline",
        "job-id-quote",
        "job-id-carriage-return",
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
    # One round of 1e308 fits a float, two do not; each no-trade variant
    # runs one round, no more than the scenario.
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


def test_cli_bad_seed_is_reported_with_the_files_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(golden_with("jobs: 7")))
    assert main([str(cfg), "-o", str(tmp_path / "out"), "--seed", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert any("jobs must be a list" in line for line in err)
    assert "--seed: master_seed must be an integer >= 0" in err


def test_cli_seed_stands_in_for_a_missing_master_seed(tmp_path):
    raw = golden_with(
        "population: {count: 20, efficiency_distribution: uniform,"
        " params: {low: 0.5, high: 2.0}}\n"
        "master_seed: 5\n"
        "outputs: [density]\n"
    )
    seeded = tmp_path / "seeded.yaml"
    seeded.write_text(yaml.safe_dump(raw))
    del raw["master_seed"]
    unseeded = tmp_path / "unseeded.yaml"
    unseeded.write_text(yaml.safe_dump(raw))
    assert main([str(seeded), "-o", str(tmp_path / "a")]) == 0
    assert main([str(unseeded), "-o", str(tmp_path / "b"), "--seed", "5"]) == 0
    a = (tmp_path / "a" / "density.csv").read_bytes()
    assert (tmp_path / "b" / "density.csv").read_bytes() == a


def test_readme_csv_table_matches_outputs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### CSV artifacts")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)\.csv` \| (.+) \|$", table, re.MULTILINE)
    assert {kind: tuple(columns.split(", ")) for kind, columns in rows} == HEADERS


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
