import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from camsim import (
    EconomyConfig,
    JobSpec,
    MarketState,
    Player,
    autarky_energy,
    break_even_price,
)
from camsim.analysis import best_margins
from camsim.assignment import cost_matrix
from camsim.pricing import break_even_atoms
from tests.oracles import (
    autarky_by_cell,
    best_margins_by_cell,
    build_price_density,
    cost_by_cell,
    cost_matrix_by_cell,
    total_demand_by_scan,
)

finite_pos = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def one_cell(efficiency: float, workload: float) -> EconomyConfig:
    return EconomyConfig.of(
        players=[Player("P1", {"x": efficiency})], jobs=[JobSpec("x", workload)]
    )


def cost(efficiency: float, workload: float) -> float:
    return one_cell(efficiency, workload).cost("P1", "x")


def test_energy_cost_examples():
    assert cost(2, 10) == 5
    assert cost(1, 10) == 10
    assert cost(4, 10) == 2.5
    assert cost(4, 10) < cost(2, 10)


def test_energy_cost_zero_workload_is_free():
    # degenerate free-creation limit used by the no-trade theorem
    assert cost(3, 0) == 0


@given(eps=finite_pos, w=finite_pos, k=finite_pos)
def test_energy_cost_scaling_law(eps, w, k):
    assert math.isclose(cost(k * eps, w), cost(eps, w) / k, rel_tol=1e-12)


efficiencies = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-300, max_value=1e-290),
    st.floats(min_value=1e290, max_value=1e300),
)
workloads = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3))


@st.composite
def economy_lists(draw) -> tuple[list[Player], list[JobSpec], dict[tuple[str, str], int]]:
    """Off-grid, tiny and huge efficiencies, zero workloads, zero demand
    cells, and balances omitted or given."""
    n = draw(st.integers(1, 5))
    jobs = [JobSpec(f"j{k}", draw(workloads)) for k in range(draw(st.integers(1, 4)))]
    players = [
        Player(
            f"P{i}",
            {j.job_id: draw(efficiencies) for j in jobs},
            draw(st.none() | st.floats(min_value=0.0, max_value=1e6)),
        )
        for i in range(n)
    ]
    cells = [(p.player_id, j.job_id) for p in players for j in jobs]
    demand = draw(st.dictionaries(st.sampled_from(cells), st.integers(0, 5)))
    return players, jobs, demand


def economies() -> st.SearchStrategy[EconomyConfig]:
    return economy_lists().map(lambda lists: EconomyConfig.of(*lists[:2], demand=lists[2]))


@given(lists=economy_lists(), data=st.data())
def test_the_adapter_and_shuffled_tables_build_the_same_config(lists, data):
    """Player and JobSpec lists, and the same data given as tables with the
    rows and columns in any order, tabulate bit for bit alike."""
    players, jobs, demand = lists
    rows, cols = data.draw(st.permutations(players)), data.draw(st.permutations(jobs))
    adapted = EconomyConfig.of(players, jobs, demand=demand)
    tables = EconomyConfig(
        players=[p.player_id for p in rows],
        jobs=[j.job_id for j in cols],
        efficiencies=np.array([[p.efficiencies[j.job_id] for j in cols] for p in rows]),
        workloads=np.array([j.workload for j in cols]),
        money=[p.money for p in rows],
        demand=demand,
    )
    for name in ("costs", "units"):
        a, b = getattr(adapted, name), getattr(tables, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert repr(tables.starting_money) == repr(adapted.starting_money)
    assert tables.player_ids() == adapted.player_ids()
    assert tables.job_ids() == adapted.job_ids()
    for jid in adapted.job_ids():
        assert tables.total_demand(jid) == adapted.total_demand(jid)
    assert autarky_energy(tables).hex() == autarky_energy(adapted).hex()


@given(config=economies())
def test_table_matches_per_cell_definitions(config):
    for pid in config.player_ids():
        for jid in config.job_ids():
            assert type(config.cost(pid, jid)) is float
            assert config.cost(pid, jid) == cost_by_cell(config, pid, jid)
    for jid in config.job_ids():
        assert config.total_demand(jid) == total_demand_by_scan(config, jid)
    assert autarky_energy(config) == autarky_by_cell(config)
    assert np.array_equal(cost_matrix(config), cost_matrix_by_cell(config))
    assert best_margins(config).tolist() == best_margins_by_cell(config)
    job, prices, masses = break_even_atoms(config.costs, config.conversion)
    for c in range(config.costs.shape[1]):
        density = build_price_density(config.conversion * config.costs[:, c])
        assert prices[job == c].tobytes() == density.prices.tobytes()
        assert masses[job == c].tolist() == density.masses.tolist()
    ids, jobs = config.player_ids(), config.job_ids()
    ids.append("ghost")
    jobs.clear()
    assert "ghost" not in config.player_ids()
    assert config.job_ids() == sorted(config.jobs)


def test_break_even_examples():
    assert break_even_price(5, 1) == 5
    assert break_even_price(0, 1) == 0
    assert break_even_price(7.5, 2) == 15


def test_break_even_zero_iff_zero_cost():
    assert break_even_price(0, 3.7) == 0
    assert break_even_price(1e-12, 3.7) > 0


def test_break_even_rejects_negative_cost():
    with pytest.raises(ValueError):
        break_even_price(-1, 1)
    with pytest.raises(ValueError):
        break_even_price(1, 0)


@given(a=finite_pos, b=finite_pos, c=finite_pos)
def test_break_even_linearity(a, b, c):
    assert math.isclose(
        break_even_price(a + b, c),
        break_even_price(a, c) + break_even_price(b, c),
        rel_tol=1e-12,
    )


def test_autarky_golden(golden):
    assert autarky_energy(golden) == 50


def test_autarky_single_player():
    cfg = EconomyConfig.of(
        players=[Player("P1", {"x": 1.0})],
        jobs=[JobSpec("x", 10.0)],
        demand={("P1", "x"): 1},
    )
    assert autarky_energy(cfg) == 10


def test_autarky_zero_demand(golden):
    cfg = dataclasses.replace(golden, demand={k: 0 for k in golden.demand})
    assert autarky_energy(cfg) == 0


def test_autarky_matches_brute_force_sum(golden):
    expected = 0.0
    for r, pid in enumerate(golden.players):
        for c, jid in enumerate(golden.jobs):
            units = golden.demand.get((pid, jid), 0)
            expected += units * golden.workloads[c] / golden.efficiencies[r, c]
    assert autarky_energy(golden) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "money", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"]
)
def test_player_money_must_be_finite_and_nonnegative(golden, money):
    """The YAML rule's bound holds for players built in code too, and for the
    endowment of those without money: a NaN balance would pass the ledger
    bound and every conservation check."""
    p2 = Player("P2", {"x": 1.0, "y": 2.0})
    with pytest.raises(ValueError, match="'P2': money must be finite and >= 0"):
        dataclasses.replace(p2, money=money)
    assert Player("P2", p2.efficiencies, money=0.0).money == 0.0
    with pytest.raises(ValueError, match="'P2': money must be finite and >= 0"):
        dataclasses.replace(golden, money=[None, money, None])
    with pytest.raises(ValueError, match="^initial money must be finite and >= 0$"):
        MarketState.from_config(golden, money)
    assert MarketState.from_config(golden, 0.0).money.tolist() == [0.0, 0.0, 0.0]


HUGE = 10**400  # an int too large for a float


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: Player("P", {"x": v}), "'P': efficiency for job 'x' must be"),
        (lambda v: Player("P", {"x": 1.0}, money=v), "'P': money must be finite"),
        (lambda v: JobSpec("x", v), "'x': workload must be finite and >= 0"),
        (lambda v: EconomyConfig.of([], [], conversion=v), "conversion must be finite"),
        (lambda v: EconomyConfig.of([], [], price_quantum=v), "price_quantum must be"),
    ],
    ids=["efficiency", "money", "workload", "conversion", "price_quantum"],
)
@pytest.mark.parametrize("value", [HUGE, True], ids=["huge_int", "bool"])
def test_numbers_built_in_code_follow_the_yaml_rules(build, message, value):
    """An int too large for a float is not finite, and a boolean is not a
    number: each raises the constructor's ValueError, as the YAML rules do."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build(value)
    build(1)  # an int that fits is a number


def test_config_validation(golden):
    """Players, jobs and the same cells given as tables are checked alike."""
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Player("P1", {"x": bad})
        table = golden.efficiencies.copy()
        table[1, 0] = bad
        with pytest.raises(ValueError, match=f"'P2': efficiency for job 'x' .* got {bad}"):
            dataclasses.replace(golden, efficiencies=table)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            JobSpec("x", bad)
        with pytest.raises(ValueError, match="'y': workload must be finite and >= 0"):
            dataclasses.replace(golden, workloads=[10.0, bad])
    with pytest.raises(ValueError, match="one row per player and one column per job"):
        dataclasses.replace(golden, workloads=[10.0])
    with pytest.raises(ValueError):
        EconomyConfig.of(
            players=[Player("P1", {"x": 1.0})],
            jobs=[JobSpec("x", 1.0)],
            demand={("ghost", "x"): 1},
        )
    with pytest.raises(ValueError):
        EconomyConfig.of(
            players=[Player("P1", {})],
            jobs=[JobSpec("x", 1.0)],
        )


@pytest.mark.parametrize("bad", ["P,1", 'P"1', "P\r1", "P\n1"])
def test_ids_a_csv_cannot_print_are_rejected_as_the_yaml_rule_words_it(bad):
    """CSVs print ids unquoted, so a config built in code refuses the ids
    the YAML rule refuses, in the rule's words."""
    rule = "must not contain a comma, a double quote, CR or LF"
    with pytest.raises(ValueError, match=re.escape(f"player id {bad!r} {rule}")):
        EconomyConfig([bad, "P2"], ["x"], np.ones((2, 1)), [1.0])
    with pytest.raises(ValueError, match=re.escape(f"job id {bad!r} {rule}")):
        EconomyConfig(["P1"], ["x", bad], np.ones((1, 2)), [1.0, 1.0])
    with pytest.raises(ValueError, match=re.escape(f"player id {bad!r} {rule}")):
        EconomyConfig.of([Player(bad, {"x": 1.0})], [JobSpec("x", 1.0)])


def test_a_scalar_demand_is_a_read_only_view_through_replace(golden):
    """A config built from a scalar demand, or replaced from one over the
    same ids, answers every cell with the int; over other ids the view is
    read as the mapping it is."""
    config = dataclasses.replace(golden, demand=2)
    variant = dataclasses.replace(config, workloads=np.zeros(2), money=None)
    cells = {(pid, jid): 2 for pid in golden.player_ids() for jid in golden.job_ids()}
    for built in (config, variant):
        assert built.demand == cells and len(built.demand) == 6
        assert built.units.tolist() == [[2.0, 2.0]] * 3
        assert [built.total_demand(jid) for jid in built.job_ids()] == [6, 6]
        with pytest.raises(TypeError):
            built.demand["P1", "x"] = 3
    with pytest.raises(TypeError):
        golden.demand["P1", "x"] = 3
    with pytest.raises(ValueError, match="demand references unknown player 'P1'"):
        dataclasses.replace(config, players=["Q1", "Q2", "Q3"])
    for bad in (-1, 1.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="demand must be a nonnegative integer"):
            dataclasses.replace(golden, demand=bad)
        with pytest.raises(ValueError, match=r"demand for \('P1', 'x'\) must be a nonneg"):
            dataclasses.replace(golden, demand={("P1", "x"): bad})
    assert dataclasses.replace(golden, demand=np.int64(2)).total_demand("x") == 6
