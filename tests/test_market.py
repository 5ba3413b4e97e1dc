import dataclasses

import pytest

from camsim import (
    EconomyConfig,
    JobSpec,
    MarketState,
    Offer,
    Player,
    conservation_check,
    execute_round,
    post_offers,
    run_market,
)


def zero_cost_config():
    jobs = [JobSpec("x", 0.0)]
    players = [Player(f"P{i}", {"x": 1.0 + i}) for i in range(4)]
    return EconomyConfig(
        players=players,
        jobs=jobs,
        demand={(p.player_id, "x"): 1 for p in players},
        price_quantum=1.0,
    )


def identical_efficiency_config():
    jobs = [JobSpec("x", 10.0), JobSpec("y", 4.0)]
    players = [Player(f"P{i}", {"x": 1.5, "y": 0.5}) for i in range(5)]
    return EconomyConfig(
        players=players,
        jobs=jobs,
        demand={(p.player_id, j.job_id): 2 for p in players for j in jobs},
    )


def test_post_offers_golden(golden):
    offers = post_offers(golden)
    assert offers == [Offer("P1", "x", 9.0), Offer("P2", "y", 9.0)]


def test_post_offers_degenerate_cases():
    assert post_offers(zero_cost_config()) == []
    assert post_offers(identical_efficiency_config()) == []
    solo = EconomyConfig(
        players=[Player("only", {"x": 1.0})],
        jobs=[JobSpec("x", 10.0)],
        demand={("only", "x"): 1},
    )
    assert post_offers(solo) == []


@pytest.mark.parametrize(
    "price, buys", [(9.0, True), (10.0, False), (11.0, False)], ids=["below", "equal", "above"]
)
def test_buys_only_below_break_even(golden, price, buys):
    """P3's break-even for x is 10: a cheaper offer buys; a tie self-produces."""
    state = MarketState.from_config(golden)
    _, report = execute_round(golden, state, offers=[Offer("P1", "x", price)])
    bought = {(t.buyer, t.job) for t in report.trades}
    made = {(s.player, s.job) for s in report.self_productions if not s.forced}
    assert (("P3", "x") in bought) is buys
    assert (("P3", "x") in made) is not buys


def test_execute_round_golden_trace(golden):
    state, reports = run_market(golden, 1)
    report = reports[0]
    trades = {(t.buyer, t.seller, t.job): t for t in report.trades}
    assert set(trades) == {
        ("P2", "P1", "x"),
        ("P3", "P1", "x"),
        ("P1", "P2", "y"),
        ("P3", "P2", "y"),
    }
    for t in report.trades:
        assert t.price == 9.0
        assert t.units == 1
        assert t.system_energy_saved == 5.0
    assert report.energy_expended_total == 30.0
    assert report.energy_saved_total == 20.0
    assert report.money_delta_total == 0.0
    # buyers save self_cost - price/conversion = 10 - 9 = 1 per unit bought
    assert state.energy_saved == {"P1": 1.0, "P2": 1.0, "P3": 2.0}
    assert state.energy_spent == {"P1": 15.0, "P2": 15.0, "P3": 0.0}
    base = 1e9
    assert state.money["P1"] == base + 9
    assert state.money["P2"] == base + 9
    assert state.money["P3"] == base - 18


def test_zero_cost_economy_never_trades():
    _, reports = run_market(zero_cost_config(), 5)
    assert all(r.n_trades == 0 for r in reports)
    assert all(r.energy_expended_total == 0 for r in reports)


def test_identical_efficiencies_never_trade():
    _, reports = run_market(identical_efficiency_config(), 5)
    assert all(r.n_trades == 0 for r in reports)


def test_individual_rationality(golden):
    _, reports = run_market(golden, 3)
    for r in reports:
        for t in r.trades:
            assert t.price < golden.conversion * t.buyer_self_cost
        assert r.energy_expended_total < r.autarky_energy


def test_conservation_check_golden(golden):
    _, reports = run_market(golden, 3)
    assert all(conservation_check(r, golden) for r in reports)


def test_conservation_check_negative_controls(golden):
    _, reports = run_market(golden, 1)
    report = reports[0]
    bad_money = dataclasses.replace(report, money_delta_total=0.5)
    assert not conservation_check(bad_money, golden)
    bad_energy = dataclasses.replace(
        report, energy_expended_total=report.energy_expended_total + 1.0
    )
    assert not conservation_check(bad_energy, golden)
    # corrupting one trade's price past the buyer's self-cost breaks rationality
    corrupted = list(report.trades)
    corrupted[0] = dataclasses.replace(corrupted[0], price=1e6)
    assert not conservation_check(
        dataclasses.replace(report, trades=tuple(corrupted)), golden
    )


def test_conservation_check_empty_round():
    cfg = zero_cost_config()
    _, reports = run_market(cfg, 1)
    assert conservation_check(reports[0], cfg)


def test_insufficient_money_forces_self_production(golden):
    state = MarketState.from_config(golden)
    state.money["P3"] = 5.0  # cannot afford a 9.0 purchase
    offers = post_offers(golden)
    new, report = execute_round(golden, state, offers=offers)
    assert report.n_forced == 2
    forced = [s for s in report.self_productions if s.forced]
    assert {(s.player, s.job) for s in forced} == {("P3", "x"), ("P3", "y")}
    assert new.money["P3"] == 5.0
    assert conservation_check(report, golden)


def test_explicit_zero_money_starts_at_zero(golden):
    p1, p2, p3 = golden.players
    cfg = dataclasses.replace(golden, players=[p1, p2, dataclasses.replace(p3, money=0.0)])
    state = MarketState.from_config(cfg, initial_money=100.0)
    assert state.money == {"P1": 100.0, "P2": 100.0, "P3": 0.0}
    _, report = execute_round(cfg, state)
    assert report.round == 1
    assert report.n_forced == 2  # P3 has nothing to buy with


def test_determinism(golden):
    s1, r1 = run_market(golden, 5)
    s2, r2 = run_market(golden, 5)
    assert r1 == r2
    assert s1.money == s2.money
    assert s1.energy_spent == s2.energy_spent


def test_energy_spent_monotone(golden):
    state = MarketState.from_config(golden)
    offers = post_offers(golden)
    prev = dict(state.energy_spent)
    for _ in range(4):
        state, _ = execute_round(golden, state, offers=offers)
        for pid, spent in state.energy_spent.items():
            assert spent >= prev[pid]
        prev = dict(state.energy_spent)


def test_record_detail_flag_keeps_totals(golden):
    _, full = run_market(golden, 2)
    _, lean = run_market(golden, 2, record_detail=False)
    for a, b in zip(full, lean):
        assert b.trades == ()
        assert a.n_trades == b.n_trades
        assert a.energy_expended_total == b.energy_expended_total
        assert a.energy_saved_total == b.energy_saved_total
        assert conservation_check(b, golden)
