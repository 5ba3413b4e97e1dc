"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.

All randomness is seeded; the whole suite is deterministic and finishes
in well under five minutes.
"""

from pathlib import Path

import numpy as np

from camsim import (
    EconomyConfig,
    JobSpec,
    Player,
    WalkParams,
    build_price_density,
    buyer_count,
    conservation_check,
    efficiency_wealth_correlation,
    gini,
    load_config,
    optimal_assignment,
    pareto_tail_fit,
    run_market,
    run_scenario,
    simulate_walk,
    stationary_stats,
)
from camsim.scenario import artifact_digests
from tests.oracles import (
    atoms,
    brute_force_min_assignment,
    buyer_counts,
    optimal_price,
    p_max,
    stationarity_check,
    total_mass,
)

DATA = Path(__file__).parent / "data"


def _random_economy(rng, n_players, n_jobs, max_units=3, zero_workload=False):
    jobs = [
        JobSpec(f"j{k:02d}", 0.0 if zero_workload else float(rng.uniform(1, 20)))
        for k in range(n_jobs)
    ]
    players = [
        Player(
            f"p{i:03d}",
            {j.job_id: float(rng.uniform(0.5, 2.0)) for j in jobs},
        )
        for i in range(n_players)
    ]
    demand = {
        (p.player_id, j.job_id): int(rng.integers(0, max_units + 1))
        for p in players
        for j in jobs
    }
    return EconomyConfig.of(players=players, jobs=jobs, demand=demand)


def _random_density(rng, quantum=0.5, max_atoms=40, max_price_steps=200):
    n = int(rng.integers(1, max_atoms + 1))
    steps = rng.choice(max_price_steps, size=n, replace=False)
    costs = [float(s) * quantum for s in steps for _ in range(int(rng.integers(1, 4)))]
    return build_price_density(costs)


def test_criterion_1_conservation():
    rng = np.random.default_rng(1001)
    for i in range(100):
        if i == 0:
            n_players, n_jobs = 100, 20
        else:
            n_players = int(rng.integers(3, 31))
            n_jobs = int(rng.integers(2, 9))
        cfg = _random_economy(rng, n_players, n_jobs)
        _, reports = run_market(cfg, 100, record_detail=False)
        for rep in reports:
            assert rep.money_delta_total == 0.0
            assert conservation_check(rep, cfg), f"economy {i} round {rep.round}"
    print("PASS criterion 1: conservation holds over 100 economies x 100 rounds")


def test_criterion_2_no_trade_theorem():
    rng = np.random.default_rng(1002)
    for i in range(20):
        zero_cost = _random_economy(
            rng, int(rng.integers(2, 20)), int(rng.integers(1, 6)), zero_workload=True
        )
        _, reports = run_market(zero_cost, 30, record_detail=False)
        assert all(r.n_trades == 0 for r in reports), f"zero-cost economy {i} traded"

        jobs = [JobSpec(f"j{k}", float(rng.uniform(1, 20))) for k in range(3)]
        shared = {j.job_id: float(rng.uniform(0.5, 2.0)) for j in jobs}
        players = [Player(f"p{n}", dict(shared)) for n in range(int(rng.integers(2, 20)))]
        identical = EconomyConfig.of(
            players=players,
            jobs=jobs,
            demand={(p.player_id, j.job_id): 1 for p in players for j in jobs},
        )
        _, reports = run_market(identical, 30, record_detail=False)
        assert all(r.n_trades == 0 for r in reports), f"identical-eps economy {i} traded"
    print("PASS criterion 2: zero-cost and identical-efficiency economies never trade")


def test_criterion_3_assignment_oracle():
    rng = np.random.default_rng(1003)
    for i in range(100):
        cfg = _random_economy(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        _, e_opt = optimal_assignment(cfg)
        _, e_oracle = brute_force_min_assignment(cfg)
        assert e_opt == e_oracle, f"instance {i}"
    for i in range(5):
        big = _random_economy(rng, 50, 15)
        assignment, _ = optimal_assignment(big)
        assert stationarity_check(assignment, big), f"large instance {i}"
    print("PASS criterion 3: assignment equals brute force on 100 small instances; "
          "large results stationary")


def test_criterion_4_pricing_oracle():
    rng = np.random.default_rng(1004)
    quantum = 0.5
    for i in range(200):
        density = _random_density(rng, quantum)
        break_even = float(rng.integers(0, 80)) * quantum
        sol = optimal_price(break_even, density, quantum)
        grid = np.arange(0.0, p_max(density) + quantum / 2, quantum)
        grid = grid[grid >= break_even]
        profits = (grid - break_even) * buyer_counts(density, grid)
        scan_best = float(profits.max()) if len(profits) else 0.0
        scan_best = max(scan_best, 0.0)
        assert sol.profit == scan_best, f"density {i}"
    print("PASS criterion 4: optimal_price equals exhaustive grid scan on 200 densities")


def test_criterion_5_buyer_count_identities():
    rng = np.random.default_rng(1005)
    for i in range(1000):
        n_costs = int(rng.integers(1, 60))
        costs = (rng.integers(0, 150, size=n_costs) * 0.5).tolist()
        density = build_price_density(costs)
        assert total_mass(density) == n_costs
        p1, p2 = sorted(rng.uniform(0, 80, size=2))
        assert buyer_count(density, p1) >= buyer_count(density, p2)
        posted = float(rng.uniform(0, 80))
        below = sum(m for p, m in atoms(density) if p <= posted)
        assert buyer_count(density, posted) + below == n_costs
    print("PASS criterion 5: normalization, complementarity, monotonicity on 1000 densities")


def test_criterion_6_individual_rationality():
    rng = np.random.default_rng(1006)
    for i in range(20):
        cfg = _random_economy(rng, int(rng.integers(3, 20)), int(rng.integers(2, 6)))
        _, reports = run_market(cfg, 20)
        for rep in reports:
            for t in rep.trades:
                assert t.price < cfg.conversion * t.buyer_self_cost
            assert rep.energy_expended_total <= rep.autarky_energy + 1e-9
            if rep.n_trades:
                assert rep.energy_expended_total < rep.autarky_energy
    print("PASS criterion 6: every trade strictly improves the buyer; "
          "traded rounds beat autarky")


def test_criterion_7_wealth_concentration():
    rng = np.random.default_rng(1007)
    jobs = [JobSpec(f"j{k:02d}", float(rng.uniform(1, 20))) for k in range(20)]
    players = [
        Player(f"p{i:03d}", {j.job_id: float(rng.uniform(0.5, 2.0)) for j in jobs})
        for i in range(100)
    ]
    cfg = EconomyConfig.of(
        players=players,
        jobs=jobs,
        demand={(p.player_id, j.job_id): 1 for p in players for j in jobs},
    )
    state, _ = run_market(cfg, 500, record_detail=False)
    wealth = state.money - state.money.min()
    g = gini(wealth.tolist())
    rho = efficiency_wealth_correlation(state.money, cfg)
    assert g > 0
    assert rho >= 0.8
    for alpha in (1.5, 2.0, 3.0):
        sample_rng = np.random.default_rng(int(alpha * 100))
        samples = (1.0 + sample_rng.pareto(alpha, 10_000)).tolist()
        est = pareto_tail_fit(samples, 0.2)
        assert abs(est - alpha) <= 0.15 * alpha
    print(f"PASS criterion 7: gini={g:.3f} > 0, spearman rho={rho:.3f} >= 0.8, "
          "Hill recovers alpha in {1.5, 2, 3} within 15%")


def test_criterion_8_estimation_walk():
    for eta in (0.1, 0.5, 1.0):
        params = WalkParams(true_price=100.0, eta=eta, sigma=10.0)
        trace = simulate_walk(params, 1_000_000, seed=int(eta * 1000))
        mean, variance = stationary_stats(params)
        sample_mean = float(trace.values.mean())
        sample_var = float(trace.values.var())
        assert abs(sample_mean - mean) <= 0.01 * mean, f"eta={eta}"
        assert abs(sample_var - variance) <= 0.10 * variance, f"eta={eta}"
    print("PASS criterion 8: 1e6-step traces match stationary mean within 1% "
          "and variance within 10% for eta in {0.1, 0.5, 1.0}")


def test_criterion_9_determinism(tmp_path):
    for name in ("golden.yaml", "zero_cost.yaml"):
        sc = load_config(DATA / name)
        d1 = artifact_digests(run_scenario(sc, tmp_path / f"{name}.a")["paths"])
        d2 = artifact_digests(run_scenario(sc, tmp_path / f"{name}.b")["paths"])
        assert d1 == d2, name
    print("PASS criterion 9: repeated runs produce byte-identical artifacts")
