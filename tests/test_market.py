import dataclasses
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camsim import (
    EconomyConfig,
    JobSpec,
    MarketState,
    Offer,
    Player,
    conservation_check,
    execute_round,
    market,
    post_offers,
    pricing,
    run_market,
)
from camsim.config import build_economy, load_config
from tests.oracles import execute_round_by_cell, post_offers_by_full_table, ranked_offers
from tests.test_pricing import nudge


def zero_cost_config():
    jobs = [JobSpec("x", 0.0)]
    players = [Player(f"P{i}", {"x": 1.0 + i}) for i in range(4)]
    return EconomyConfig.of(
        players=players,
        jobs=jobs,
        demand={(p.player_id, "x"): 1 for p in players},
        price_quantum=1.0,
    )


def identical_efficiency_config():
    jobs = [JobSpec("x", 10.0), JobSpec("y", 4.0)]
    players = [Player(f"P{i}", {"x": 1.5, "y": 0.5}) for i in range(5)]
    return EconomyConfig.of(
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
    solo = EconomyConfig.of(
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
    return EconomyConfig.of(
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
    return EconomyConfig.of(
        players=players,
        jobs=jobs,
        demand={(p.player_id, j.job_id): draw(st.integers(0, 3)) for p in players for j in jobs},
        conversion=draw(st.floats(0.37, 3.0)),
        price_quantum=draw(st.floats(0.01, 1.0)),
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


@pytest.mark.parametrize("cells", [1, 40])
def test_post_offers_in_small_blocks_matches_all_sellers_oracle(monkeypatch, cells):
    """With up to 8 players, 1 cell prices one job and one position per
    pass, and 40 cells a few jobs per block with passes cut to fit."""
    monkeypatch.setattr(pricing, "_BLOCK_CELLS", cells)
    test_post_offers_matches_all_sellers_oracle()


def three_hundred_players() -> EconomyConfig:
    """300 players x 3 jobs with uniform efficiencies and unit demand."""
    rng = random.Random(7)
    jobs = [JobSpec(f"j{k}", w) for k, w in enumerate((10.0, 5.5, 2.25))]
    players = [
        Player(f"P{i:03d}", {job.job_id: rng.uniform(0.25, 4.0) for job in jobs})
        for i in range(300)
    ]
    return EconomyConfig.of(
        players=players,
        jobs=jobs,
        demand={(p.player_id, j.job_id): 1 for p in players for j in jobs},
        conversion=1.1,
        price_quantum=0.01,
    )


def recorded_batches(monkeypatch) -> list:
    """Each pricing pass's break-evens, one list per open job, as posted."""
    batches = []
    price_step = pricing._price_step

    def recording(cands, buyers, break_evens):
        batches.append(break_evens.tolist())
        return price_step(cands, buyers, break_evens)

    monkeypatch.setattr(pricing, "_price_step", recording)
    return batches


def assert_sorted_batches(config, batches):
    """Pass k prices the next 1, 1, 2, 4, ... sorted break-evens of each open
    job, and the first pass every job's cheapest."""
    ordered = np.sort(config.conversion * config.costs, axis=0).T.tolist()
    assert batches[0] == [b[:1] for b in ordered]
    first = 0
    for batch in batches:
        size = min(max(first, 1), len(config.player_ids()) - first)
        assert all(any(b == job[first : first + size] for job in ordered) for b in batch)
        first += size


def test_post_offers_prices_sorted_break_evens_in_doubling_batches(monkeypatch):
    """Every job stops within the first two passes, both when its 300
    break-evens are distinct and in a copy where each player takes the
    efficiencies of one of the first three, so that a hundred sellers share
    each of three atoms per job."""
    batches = recorded_batches(monkeypatch)
    config = three_hundred_players()
    eff = config.efficiencies
    repeated = dataclasses.replace(config, efficiencies=eff[np.arange(len(eff)) % 3])
    for cfg in (config, repeated):
        batches.clear()
        offers = post_offers(cfg)
        assert 1 <= len(batches) <= 2
        assert_sorted_batches(cfg, batches)
        ranked = ranked_offers(cfg)
        expected = []
        for jid in cfg.job_ids():
            expected += [o for o in ranked if o.job == jid][:2]
        assert offers == expected


def one_job_of(break_evens: list[float], quantum: float) -> EconomyConfig:
    """One job of workload 1 whose players' costs are about ``break_evens``."""
    return EconomyConfig.of(
        players=[Player(f"P{i:02d}", {"x": 1.0 / b}) for i, b in enumerate(break_evens)],
        jobs=[JobSpec("x", 1.0)],
        demand=1,
        price_quantum=quantum,
    )


@st.composite
def tied_ladders(draw):
    """Atoms b0 < a1 < a2 of masses m0, m1, m2, with a1 - q - b0 = r·q·m2 and
    a2 - q - b0 = r·q·(m1 + m2), give b0 the gain r·q·m2·(m1 + m2) at both
    a1 - q and a2 - q, exactly. Each atom, and then each player, is moved a
    few floats, so that either gain can win by a margin below or above the
    slack; a few other atoms join above b0."""
    q = draw(st.sampled_from([0.25, 0.5, 1.0]))
    b0 = draw(st.integers(1, 8)) * q
    r = draw(st.integers(1, 4))
    m0, m1, m2 = (draw(st.integers(1, 3)) for _ in range(3))
    ladder = [(b0, m0), (b0 + q + r * q * m2, m1), (b0 + q + r * q * (m1 + m2), m2)]
    break_evens = []
    for value, mass in ladder:
        value = nudge(value, draw(st.integers(-24, 24)))
        break_evens += [nudge(value, draw(st.integers(-1, 1))) for _ in range(mass)]
    break_evens += draw(st.lists(st.floats(b0, 4 * ladder[-1][0]), max_size=3))
    return one_job_of(break_evens, q)


@st.composite
def adjacent_candidates(draw):
    """Three to five cheap rows in [1, 2) below two to four atoms one float
    apart, whose candidates have the same buyers, so each cheap row's best
    gains differ by an ulp or less. c - b rounds at four times b's ulp, so
    a tie to even merges two candidates' gains for some rows and not for
    others, and a dearer row can post below a cheaper one (as in
    test_dearer_producer_can_post_the_lower_price)."""
    q = draw(st.sampled_from([0.25, 0.5, 1.0]))
    cheap = draw(st.lists(st.floats(1.0, 2.0, exclude_max=True), min_size=3, max_size=5))
    top = draw(st.floats(q + 6.0, q + 8.0, exclude_max=True))
    return one_job_of(cheap + [nudge(top, i) for i in range(draw(st.integers(2, 4)))], q)


# The cheapest rows, the first that can certify a floor, with their best gain
# a few ulps from the best gain at a lower candidate.
near_tie_economies = st.one_of(tied_ladders(), adjacent_candidates())


@given(config=near_tie_economies)
@settings(max_examples=300, deadline=None)
def test_near_ties_at_the_certified_row_post_the_full_tables_offers(config):
    ranked = ranked_offers(config)
    assert post_offers(config) == post_offers_by_full_table(config) == ranked[:2]


def test_every_job_left_uncertified_posts_the_same_offers(monkeypatch):
    """With a slack no gain can beat no row certifies, so each job, with 300
    distinct and profitable break-evens, is priced in doubling batches until
    its break-evens earn nothing or run out."""
    config = three_hundred_players()
    expected = post_offers(config)
    batches = recorded_batches(monkeypatch)
    monkeypatch.setattr(pricing, "_SLACK", 1.0)
    assert post_offers(config) == expected == post_offers_by_full_table(config)
    assert len(batches) <= math.ceil(math.log2(300)) + 2
    assert_sorted_batches(config, batches)


def test_a_job_whose_cheapest_atom_earns_nothing_posts_after_one_atom(monkeypatch):
    """Break-evens 1, 1.5 and 2 with a quantum of 1: no candidate exceeds 1,
    so the cheapest atom earns nothing, and then no dearer atom can."""
    batches = recorded_batches(monkeypatch)
    config = EconomyConfig.of(
        players=[Player(f"P{i}", {"x": eff}) for i, eff in enumerate((3.0, 2.0, 1.5))],
        jobs=[JobSpec("x", 3.0)],
        demand=1,
        price_quantum=1.0,
    )
    assert config.costs.ravel().tolist() == [1.0, 1.5, 2.0]
    assert post_offers(config) == [] == post_offers_by_full_table(config)
    assert batches == [[[1.0]]]  # one pass, one job, its cheapest break-even


def test_posting_2000_players_by_20_jobs_holds_no_table():
    """The full table's offers, at a tracemalloc peak of 1.34 MiB measured
    here; pricing every atom from the full table, with the densities built
    beforehand, peaked at 2.3 MiB."""
    rng = np.random.default_rng(42)
    config = EconomyConfig(
        [f"P{i:04d}" for i in range(2000)],
        [f"j{k:02d}" for k in range(20)],
        rng.uniform(0.5, 2.0, (2000, 20)),
        np.arange(1.0, 21.0),
        demand=1,
    )
    offers = post_offers(config)
    tracemalloc.start()
    try:
        post_offers(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert offers == post_offers_by_full_table(config)
    assert len(offers) == 40
    assert peak < 2 * 2**20


def test_posting_2000_players_by_20_jobs_left_uncertified_holds_no_table(monkeypatch):
    """With nothing certified every job prices its break-evens to its last
    that earns, at a tracemalloc peak of 3.9 MiB measured here; one job's
    whole table of gains would take 32 MB."""
    rng = np.random.default_rng(42)
    config = EconomyConfig(
        [f"P{i:04d}" for i in range(2000)],
        [f"j{k:02d}" for k in range(20)],
        rng.uniform(0.5, 2.0, (2000, 20)),
        np.arange(1.0, 21.0),
        demand=1,
    )
    monkeypatch.setattr(pricing, "_SLACK", 1.0)
    tracemalloc.start()
    try:
        offers = post_offers(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert offers == post_offers_by_full_table(config)
    assert len(offers) == 40
    assert peak < 8 * 2**20


def test_post_offers_imports_nothing():
    """After ``import camsim.cli``, posting golden.yaml's offers adds no module
    to sys.modules, so pricing adds nothing to a run's imports or memory."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "import camsim.cli\n"
        "from camsim.config import build_economy, load_config\n"
        "from camsim.market import post_offers\n"
        f"config = build_economy(load_config({str(root / 'tests/data/golden.yaml')!r}))\n"
        "before = set(sys.modules)\n"
        "assert post_offers(config)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=os.environ | {"PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

def test_negative_zero_is_stored_as_zero():
    """A config built in code follows the YAML rule: a -0.0 workload costs
    0.0 and a -0.0 starting balance starts at 0.0, so neither prints as -0."""
    players = [Player("P1", {"x": 1.0}, money=-0.0), Player("P2", {"x": 2.0})]
    config = EconomyConfig.of(players=players, jobs=[JobSpec("x", -0.0)])
    assert not np.signbit(config.costs).any()
    assert not np.signbit(MarketState.from_config(config, -0.0).money).any()


def test_post_offers_posts_two_offers_per_job_at_float_prices():
    """300 players x 3 jobs: each job gets its first two offers, and each
    price is a Python float."""
    offers = post_offers(three_hundred_players())
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
    ran, ran_reports = run_market(config, rounds, initial_money)
    assert ran_reports == reports
    assert ledgers_hex(ran) == ledgers_hex(state)
    assert ran.round == state.round


def ledgers_hex(state: MarketState) -> tuple[tuple[str, ...], ...]:
    """Every ledger, in row order, as exact hex floats."""
    return tuple(
        tuple(map(float.hex, ledger.tolist()))
        for ledger in (state.money, state.energy_spent, state.energy_saved)
    )


def state_with(config, money):
    """A fresh state whose balances are ``money`` for the players it names."""
    state = MarketState.from_config(config)
    ids = config.player_ids()
    for pid, balance in money.items():
        state.money[ids.index(pid)] = balance
    return state


def assert_rounds_match_the_oracle(config, offers, money, rounds, record_detail):
    """execute_round and the per-cell loop, from equal states, agree on every
    ledger bit for bit and on every report, round after round."""
    fast = state_with(config, money)
    slow = state_with(config, money)
    reports = []
    for _ in range(rounds):
        fast, report = execute_round(config, fast, offers, record_detail)
        slow, expected = execute_round_by_cell(config, slow, offers, record_detail)
        assert report == expected
        assert ledgers_hex(fast) == ledgers_hex(slow)
        assert fast.round == slow.round
        reports.append(report)
    return reports


@st.composite
def offer_lists(draw, config):
    """Offers as post_offers posts them, every seller's ranked, one alone, the
    first seller of each job listed twice, or any sellers at any prices."""
    kind = draw(st.sampled_from(["posted", "ranked", "single", "twice", "drawn"]))
    if kind == "posted":
        return post_offers(config)
    if kind == "drawn":
        offer = st.builds(
            Offer,
            st.sampled_from(config.player_ids()),
            st.sampled_from(config.job_ids()),
            st.floats(-5.0, 50.0),
        )
        return draw(st.lists(offer, max_size=6))
    ranked = ranked_offers(config)
    if kind == "single":
        return ranked[:1]
    if kind == "ranked":
        return ranked
    twice = []
    for o in ranked:
        twice.append(o)
        if [x.job for x in twice].count(o.job) == 1:
            twice.append(Offer(o.seller, o.job, draw(st.floats(0.0, 50.0))))
    return twice


@given(
    config=economies(),
    data=st.data(),
    rounds=st.integers(1, 6),
    record_detail=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_execute_round_matches_the_per_cell_loop(config, data, rounds, record_detail):
    """Balances of 0-100 let budgets bind in some rounds and not in others;
    a balance equal to a purchase's total price must still afford it."""
    offers = data.draw(offer_lists(config))
    money = {pid: data.draw(st.floats(0.0, 100.0)) for pid in config.player_ids()}
    first = {o.job: o for o in reversed(offers)}  # the offer most buyers take
    priced = [
        (o, pid)
        for o in first.values()
        for pid in money
        if pid != o.seller and config.demand[pid, o.job]
    ]
    if priced and data.draw(st.booleans()):
        o, pid = data.draw(st.sampled_from(priced))
        money[pid] = o.price * config.demand[pid, o.job]
    assert_rounds_match_the_oracle(config, offers, money, rounds, record_detail)


def test_reused_detail_then_a_binding_budget(golden):
    """P3 pays 18 a round: rounds 1 and 2 decide alike and share their
    records, round 3 finds 4 left and binds, and round 4 decides as round 3."""
    offers = post_offers(golden)
    reports = assert_rounds_match_the_oracle(golden, offers, {"P3": 40.0}, 4, True)
    assert [r.n_forced for r in reports] == [0, 0, 2, 2]
    assert reports[1].trades is reports[0].trades
    assert reports[3].self_productions is reports[2].self_productions


def count_repeats(monkeypatch) -> list[bool]:
    """Whether each round's decide passed by the repeat check, in round order."""
    passed = []
    decide = market._RoundPlan.decide

    def counting(plan, money):
        repeat = plan.last and plan.last.repeat
        buy = decide(plan, money)
        passed.append(bool(repeat) and buy is repeat[0])
        return buy

    monkeypatch.setattr(market._RoundPlan, "decide", counting)
    return passed


@given(
    config=economies(),
    data=st.data(),
    rounds=st.integers(3, 8),
    record_detail=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_rounds_that_repeat_until_a_budget_binds_match_the_per_cell_loop(
    config, data, rounds, record_detail
):
    """Each buyer starts with k >= 2 rounds of its purchases and a part of
    one more, so its budget binds only after k rounds that decide alike and
    pass the repeat check. Some sellers start with less than one round's
    purchases, so they are short until what they earn covers them."""
    offers = data.draw(st.sampled_from([post_offers, ranked_offers]))(config)
    plan = market._RoundPlan(config, tuple(offers))
    spend = plan.total.sum(axis=1).tolist()
    sellers = set(plan.sellers.tolist())
    money = {}
    for r, pid in enumerate(config.player_ids()):
        if r in sellers and data.draw(st.booleans()):
            rounds_held = data.draw(st.floats(0.0, 1.0))
        else:
            rounds_held = data.draw(st.integers(2, rounds - 1)) + data.draw(st.floats(0.0, 1.0))
        money[pid] = spend[r] * rounds_held
    assert_rounds_match_the_oracle(config, offers, money, rounds, record_detail)


def test_the_repeat_check_passes_most_rounds_of_a_tight_budget(monkeypatch):
    """tight_budget's economy decides 9 of its 1,000 rounds afresh: the
    first, and each round in which another budget binds. Every other round
    passes the repeat check."""
    sc = load_config(Path(__file__).parents[1] / "bench" / "workloads" / "tight_budget.yaml")
    config = build_economy(sc)
    passed = count_repeats(monkeypatch)
    state, offers = MarketState.from_config(config, sc.initial_money), post_offers(config)
    forced = []
    for _ in range(sc.rounds):
        state, report = execute_round(config, state, offers, record_detail=False)
        forced.append(report.n_forced)
    assert len(passed) == 1000 and sum(passed) >= 990
    assert forced[0] == 0 and forced[-1] > 0  # budgets do bind


def test_a_negative_price_decides_its_seller_in_row_order(golden):
    """P3 sells x at -5, so P1 and P2 each take 5 from it before its own row:
    its 9 no longer buys y at 9, though its start balance would have."""
    offers = [Offer("P3", "x", -5.0), Offer("P2", "y", 9.0)]
    [report] = assert_rounds_match_the_oracle(golden, offers, {"P3": 9.0}, 1, True)
    assert [(s.player, s.job) for s in report.self_productions if s.forced] == [("P3", "y")]


def test_execute_round_reads_no_cost_per_cell(monkeypatch):
    """One round of 300 players x 3 jobs with EconomyConfig.cost unavailable:
    the round reads the cost table, never a per-cell lookup."""
    config = three_hundred_players()
    offers = post_offers(config)
    expected = execute_round_by_cell(config, MarketState.from_config(config), offers)

    def lookup(*args, **kwargs):
        raise AssertionError("EconomyConfig.cost called during a round")

    monkeypatch.setattr(EconomyConfig, "cost", lookup)
    state, report = execute_round(config, MarketState.from_config(config), offers)
    assert report == expected[1]
    assert ledgers_hex(state) == ledgers_hex(expected[0])


def test_the_round_plan_is_kept_per_config(golden):
    """A state that ran a round under one config runs the next under another
    with the same ids and offers but other costs: P3 now makes x itself,
    cheaper than the 9 offered, and pays 20 a unit of y. The second round
    must not reuse the first config's plan."""
    offers = post_offers(golden)
    faster = golden.efficiencies.copy()
    faster[2] = 4.0, 0.5  # P3's x and y
    other = dataclasses.replace(golden, efficiencies=faster)
    state, _ = execute_round(golden, MarketState.from_config(golden), offers)
    slow, _ = execute_round_by_cell(golden, MarketState.from_config(golden), offers)
    state, report = execute_round(other, state, offers)
    slow, expected = execute_round_by_cell(other, slow, offers)
    assert report == expected
    assert ("P3", "x") in {(s.player, s.job) for s in report.self_productions}
    assert ledgers_hex(state) == ledgers_hex(slow)


@given(
    config=economies(),
    initial_money=st.floats(0.0, 100.0),
    rounds=st.integers(2, 4),
)
@settings(max_examples=200, deadline=None)
def test_a_round_without_trades_repeats(config, initial_money, rounds):
    """A buyer's choice reads only the fixed offers and its own money, and
    only a trade moves money, so a first round without trades is every
    round: the reason one round decides the --check no-trade variants."""
    state, reports = run_market(config, rounds, initial_money)
    if reports[0].n_trades == 0:
        assert all(r.n_trades == 0 for r in reports)
        assert all(r.n_forced == reports[0].n_forced for r in reports)
        start = MarketState.from_config(config, initial_money)
        assert state.money.tobytes() == start.money.tobytes()


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
    assert state.energy_saved.tolist() == [1.0, 1.0, 2.0]  # P1, P2, P3
    assert state.energy_spent.tolist() == [15.0, 15.0, 0.0]
    base = 1e9
    assert state.money.tolist() == [base + 9, base + 9, base - 18]


def test_zero_cost_economy_never_trades():
    _, reports = run_market(zero_cost_config(), 5)
    assert all(r.n_trades == 0 for r in reports)
    assert all(r.energy_expended_total == 0 for r in reports)


def test_identical_efficiencies_never_trade():
    _, reports = run_market(identical_efficiency_config(), 5)
    assert all(r.n_trades == 0 for r in reports)


def economy_of(quantum: float, conversion: float, columns: list[list[float]]) -> EconomyConfig:
    """Demand 1 everywhere, and job j's costs about ``columns[j]``: its
    smallest target as the workload over efficiencies of at most 1."""
    n = len(columns[0])
    workloads = np.array([min(col) for col in columns])
    eff = np.ones((n, len(columns)))
    for j, col in enumerate(columns):
        if workloads[j] > 0:
            eff[:, j] = workloads[j] / np.array(col)
    return EconomyConfig(
        [f"P{i:02d}" for i in range(n)],
        [f"j{j}" for j in range(len(columns))],
        eff,
        workloads,
        demand=1,
        conversion=conversion,
        price_quantum=quantum,
    )


@st.composite
def claim_economies(draw):
    """2-11 players and 1-4 jobs whose costs sit a few steps above a base,
    the steps near the quantum, some columns identical. The float edges are
    drawn too: tiny quanta, bases so large that subtracting the quantum can
    give them back, subnormal bases and steps, and zero costs."""
    quantum = draw(st.one_of(st.floats(0.01, 1.0), st.sampled_from([2.0**-60, 1e-300, 5e-324])))
    n = draw(st.integers(2, 11))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["near", "absorbing", "subnormal", "zero"]))
        if kind == "zero":
            columns.append([0.0] * n)
            continue
        if kind == "near":
            base = draw(st.floats(0.05, 20.0))
            step = draw(st.one_of(st.just(quantum), st.floats(0.5, 1.5).map(quantum.__mul__)))
        elif kind == "absorbing":
            base = quantum * 2.0**53 * draw(st.floats(0.25, 4.0))
            step = quantum * draw(st.floats(0.5, 8.0))
        else:
            base = draw(st.floats(5e-324, 2.0**-1022, exclude_max=True))
            step = draw(st.floats(0.0, 2.0**-1022))
        ks = [0] * n if draw(st.booleans()) else draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        columns.append([base + k * step for k in ks])
    conversion = draw(st.one_of(st.just(1.0), st.floats(0.37, 3.0)))
    return economy_of(quantum, conversion, columns)


@given(config=claim_economies())
@example(config=economy_of(1e-300, 1.0, [[1.0, 2.0]]))
@settings(max_examples=400, deadline=None)
def test_round_one_trades_exactly_when_a_candidate_lies_inside_a_jobs_break_evens(config):
    """The paper's claim both ways. With demand 1 everywhere and budgets
    that cover every price, round 1 trades exactly when some job has a
    candidate, a break-even less one quantum, strictly between its smallest
    and largest break-even. That is when its largest break-even less one
    quantum exceeds its smallest, unless the subtraction gives the largest
    back: then that candidate has no buyer, and another must lie inside, as
    none does at break-evens 1 and 2 with a quantum of 1e-300."""
    quantum, inside, exceeds, absorbed = config.price_quantum, False, False, False
    for c in range(len(config.jobs)):
        atoms = np.sort(config.conversion * config.costs[:, c])
        cands = atoms - quantum
        inside |= bool(((cands > atoms[0]) & (cands < atoms[-1])).any())
        exceeds |= bool(cands[-1] > atoms[0])
        absorbed |= bool(cands[-1] == atoms[-1])
    _, [report] = run_market(config, 1, config.round_bound, record_detail=False)
    assert (report.n_trades > 0) == inside
    if not absorbed:
        assert inside == exceeds


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


def test_conservation_check_checks_each_set_of_records_until_it_passes(golden):
    """Records that passed under a config are not checked again, but a
    corrupted copy of them is, though its sums still meet the totals, and
    so are the same records under another config."""
    _, [first, second] = run_market(golden, 2)
    assert second.trades is first.trades
    assert conservation_check(first, golden) and conservation_check(second, golden)
    t = second.trades[0]
    unimproved = dataclasses.replace(t, price=golden.conversion * t.buyer_self_cost)
    corrupted = dataclasses.replace(second, trades=(unimproved, *second.trades[1:]))
    assert not conservation_check(corrupted, golden)
    assert not conservation_check(corrupted, golden)
    assert conservation_check(second, golden)
    assert not conservation_check(second, dataclasses.replace(golden, conversion=0.5))


def test_conservation_check_empty_round():
    cfg = zero_cost_config()
    _, reports = run_market(cfg, 1)
    assert conservation_check(reports[0], cfg)


def test_insufficient_money_forces_self_production(golden):
    state = MarketState.from_config(golden)
    state.money[2] = 5.0  # P3 cannot afford a 9.0 purchase
    offers = post_offers(golden)
    new, report = execute_round(golden, state, offers=offers)
    assert report.n_forced == 2
    forced = [s for s in report.self_productions if s.forced]
    assert {(s.player, s.job) for s in forced} == {("P3", "x"), ("P3", "y")}
    assert new.money[2] == 5.0
    assert conservation_check(report, golden)


def test_execute_round_updates_the_given_state(golden):
    state = MarketState.from_config(golden)
    new, _ = execute_round(golden, state, post_offers(golden))
    assert new is state
    assert state.round == 1
    assert state.money.tolist() != MarketState.from_config(golden).money.tolist()


def test_explicit_zero_money_starts_at_zero(golden):
    cfg = dataclasses.replace(golden, money=[None, None, 0.0])
    state = MarketState.from_config(cfg, initial_money=100.0)
    assert state.money.tolist() == [100.0, 100.0, 0.0]
    _, report = execute_round(cfg, state, post_offers(cfg))
    assert report.round == 1
    assert report.n_forced == 2  # P3 has nothing to buy with


@pytest.mark.parametrize("rounds", [0, True, 2.5], ids=["zero", "bool", "fraction"])
def test_run_market_rounds_must_be_an_integer_of_at_least_one(golden, rounds):
    """As in the YAML rule: True would run one round, and 2.5 would post
    offers before range() refused it."""
    with pytest.raises(ValueError, match="^rounds must be an integer >= 1$"):
        run_market(golden, rounds)


def test_determinism(golden):
    s1, r1 = run_market(golden, 5)
    s2, r2 = run_market(golden, 5)
    assert r1 == r2
    assert ledgers_hex(s1) == ledgers_hex(s2)


def test_energy_spent_monotone(golden):
    state = MarketState.from_config(golden)
    offers = post_offers(golden)
    prev = state.energy_spent.copy()
    for _ in range(4):
        state, _ = execute_round(golden, state, offers=offers)
        assert (state.energy_spent >= prev).all()
        prev = state.energy_spent.copy()


def test_record_detail_flag_keeps_totals(golden):
    _, full = run_market(golden, 2)
    _, lean = run_market(golden, 2, record_detail=False)
    for a, b in zip(full, lean):
        assert b.trades == ()
        assert a.n_trades == b.n_trades
        assert a.energy_expended_total == b.energy_expended_total
        assert a.energy_saved_total == b.energy_saved_total
        assert conservation_check(b, golden)
