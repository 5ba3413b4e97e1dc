import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tests.oracles import all_offers


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


# One job in which float rounding makes a dearer producer post the lower price.
FLOAT_TIE = {
    "A": 0.49999999999999994,
    "B": 0.5,
    "C": 2.476761011071421,
    "D": 1.9649734648932393,
}


def one_job_economy(efficiencies: dict[str, float]) -> EconomyConfig:
    return EconomyConfig(
        players=[Player(pid, {"x": eff}) for pid, eff in efficiencies.items()],
        jobs=[JobSpec("x", 5.5)],
        demand={(pid, "x"): 1 for pid in efficiencies},
        conversion=1.1,
        price_quantum=0.5,
    )


@pytest.mark.parametrize(
    "efficiencies, cheapest",
    [(FLOAT_TIE, ["C", "D"]), (FLOAT_TIE | {"E": 2.0}, ["C", "E"])],
    ids=["cheapest-loses", "two-cheapest-lose"],
)
def test_dearer_producer_can_post_the_lower_price(efficiencies, cheapest):
    """C has the lowest cost (2.22) but posts 11.600000000000003; D posts
    11.600000000000001 and sells. With E added, D is only the third cheapest
    and still sells, so pricing only the two cheapest by (cost, id) would
    post the wrong winner."""
    cfg = one_job_economy(efficiencies)
    assert sorted(cfg.player_ids(), key=lambda pid: cfg.cost(pid, "x"))[:2] == cheapest
    assert post_offers(cfg) == [
        Offer("D", "x", 11.600000000000001),
        Offer("C", "x", 11.600000000000003),
    ]
    _, reports = run_market(cfg, 2)
    for report in reports:
        assert {(t.buyer, t.seller) for t in report.trades} == {("A", "D"), ("B", "D")}


@st.composite
def economies(draw):
    """Small economies with near-tied efficiencies and off-grid costs.

    Most efficiencies come from a few base values, each stepped a few floats
    up, so that break-evens and candidate prices sit a few ulps apart and
    float rounding can reorder the sellers' prices against their costs.
    """
    bases = draw(st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3))

    def efficiency() -> float:
        if draw(st.booleans()):
            return draw(st.floats(0.25, 4.0))
        eff = draw(st.sampled_from(bases))
        for _ in range(draw(st.integers(0, 3))):
            eff = math.nextafter(eff, math.inf)
        return eff

    jobs = [JobSpec(f"j{k}", draw(st.floats(0.1, 20.0))) for k in range(draw(st.integers(1, 3)))]
    players = [
        Player(f"P{i}", {job.job_id: efficiency() for job in jobs})
        for i in range(draw(st.integers(1, 8)))
    ]
    return EconomyConfig(
        players=players,
        jobs=jobs,
        demand={(p.player_id, j.job_id): draw(st.integers(0, 3)) for p in players for j in jobs},
        conversion=draw(st.floats(0.37, 3.0)),
        price_quantum=draw(st.floats(0.01, 1.0)),
    )


def ranked_offers(config):
    """Every seller's offer, in the order buyers take them."""
    return sorted(
        all_offers(config),
        key=lambda o: (o.job, o.price, config.cost(o.seller, o.job), o.seller),
    )


@given(config=economies())
@settings(max_examples=300, deadline=None)
def test_post_offers_matches_all_sellers_oracle(config):
    """The first two offers per job of every seller priced against the others."""
    ranked = ranked_offers(config)
    expected = []
    for jid in config.job_ids():
        expected += [o for o in ranked if o.job == jid][:2]
    assert post_offers(config) == expected


def test_post_offers_prices_without_per_candidate_rescans(monkeypatch):
    """300 players x 3 jobs, priced with buyer_count unavailable.

    A per-candidate buyer_count rescan makes posting cubic in the players
    per job; the offers must come from the density's suffix counts alone.
    """
    rng = random.Random(7)
    jobs = [JobSpec(f"j{k}", w) for k, w in enumerate((10.0, 5.5, 2.25))]
    players = [
        Player(f"P{i:03d}", {job.job_id: rng.uniform(0.25, 4.0) for job in jobs})
        for i in range(300)
    ]
    config = EconomyConfig(
        players=players,
        jobs=jobs,
        demand={(p.player_id, j.job_id): 1 for p in players for j in jobs},
        conversion=1.1,
        price_quantum=0.01,
    )
    expected = post_offers(config)

    def rescan(*args, **kwargs):
        raise AssertionError("buyer_count called while posting offers")

    monkeypatch.setattr("camsim.pricing.buyer_count", rescan)
    offers = post_offers(config)
    assert offers == expected
    assert len(offers) == 6
    assert all(type(o.price) is float for o in offers)


@given(
    config=economies(),
    initial_money=st.floats(0.0, 100.0),
    rounds=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_run_market_matches_every_offer_oracle(config, initial_money, rounds):
    """Every offer, ranked, gives the same ledgers and reports as the two
    posted per job; small budgets exercise forced self-production."""
    state = MarketState.from_config(config, initial_money)
    offers = ranked_offers(config)
    reports = []
    for _ in range(rounds):
        state, report = execute_round(config, state, offers)
        reports.append(report)
    assert run_market(config, rounds, initial_money) == (state, reports)


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


def test_execute_round_updates_the_given_state(golden):
    state = MarketState.from_config(golden)
    new, _ = execute_round(golden, state, post_offers(golden))
    assert new is state
    assert state.round == 1
    assert state.money != MarketState.from_config(golden).money


def test_explicit_zero_money_starts_at_zero(golden):
    p1, p2, p3 = golden.players
    cfg = dataclasses.replace(golden, players=[p1, p2, dataclasses.replace(p3, money=0.0)])
    state = MarketState.from_config(cfg, initial_money=100.0)
    assert state.money == {"P1": 100.0, "P2": 100.0, "P3": 0.0}
    _, report = execute_round(cfg, state, post_offers(cfg))
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
