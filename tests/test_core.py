import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from camsim import (
    EconomyConfig,
    JobSpec,
    Player,
    autarky_energy,
    break_even_price,
)
from camsim.analysis import best_margins
from camsim.assignment import cost_matrix
from tests.oracles import (
    autarky_by_cell,
    best_margins_by_cell,
    cost_by_cell,
    cost_matrix_by_cell,
    total_demand_by_scan,
)

finite_pos = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def one_cell(efficiency: float, workload: float) -> EconomyConfig:
    return EconomyConfig(
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
def economies(draw) -> EconomyConfig:
    """Off-grid, tiny and huge efficiencies, zero workloads, zero demand cells."""
    n = draw(st.integers(1, 5))
    jobs = [JobSpec(f"j{k}", draw(workloads)) for k in range(draw(st.integers(1, 4)))]
    players = [
        Player(f"P{i}", {j.job_id: draw(efficiencies) for j in jobs}) for i in range(n)
    ]
    cells = [(p.player_id, j.job_id) for p in players for j in jobs]
    demand = draw(st.dictionaries(st.sampled_from(cells), st.integers(0, 5)))
    return EconomyConfig(players=players, jobs=jobs, demand=demand)


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
    assert best_margins(config) == best_margins_by_cell(config)
    ids, jobs = config.player_ids(), config.job_ids()
    ids.append("ghost")
    jobs.clear()
    assert "ghost" not in config.player_ids()
    assert config.job_ids() == sorted(j.job_id for j in config.jobs)


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
    cfg = EconomyConfig(
        players=[Player("P1", {"x": 1.0})],
        jobs=[JobSpec("x", 10.0)],
        demand={("P1", "x"): 1},
    )
    assert autarky_energy(cfg) == 10


def test_autarky_zero_demand(golden):
    cfg = EconomyConfig(
        players=golden.players,
        jobs=golden.jobs,
        demand={k: 0 for k in golden.demand},
        conversion=golden.conversion,
        price_quantum=golden.price_quantum,
    )
    assert autarky_energy(cfg) == 0


def test_autarky_matches_brute_force_sum(golden):
    expected = 0.0
    for p in golden.players:
        for j in golden.jobs:
            units = golden.demand.get((p.player_id, j.job_id), 0)
            expected += units * j.workload / p.efficiencies[j.job_id]
    assert autarky_energy(golden) == pytest.approx(expected, rel=1e-12)


def test_config_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Player("P1", {"x": bad})
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            JobSpec("x", bad)
    with pytest.raises(ValueError):
        EconomyConfig(
            players=[Player("P1", {"x": 1.0})],
            jobs=[JobSpec("x", 1.0)],
            demand={("ghost", "x"): 1},
        )
    with pytest.raises(ValueError):
        EconomyConfig(
            players=[Player("P1", {})],
            jobs=[JobSpec("x", 1.0)],
        )
