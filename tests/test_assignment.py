import dataclasses

import numpy as np
import pytest

from camsim import (
    EconomyConfig,
    JobSpec,
    Player,
    autarky_energy,
    brute_force_min_assignment,
    optimal_assignment,
)
from tests.oracles import net_energy, stationarity_check


def random_economy(rng, n_players, n_jobs, eff_low=0.5, eff_high=2.0):
    jobs = [JobSpec(f"j{k}", float(rng.uniform(1, 20))) for k in range(n_jobs)]
    players = [
        Player(
            f"p{i}",
            {j.job_id: float(rng.uniform(eff_low, eff_high)) for j in jobs},
        )
        for i in range(n_players)
    ]
    demand = {
        (p.player_id, j.job_id): int(rng.integers(0, 4)) for p in players for j in jobs
    }
    return EconomyConfig.of(players=players, jobs=jobs, demand=demand)


def dyadic_economy(rng, n_players, n_jobs):
    """Powers-of-two efficiencies and integer workloads: every energy sum is
    exact and ties between producers are common."""
    jobs = [JobSpec(f"j{k}", float(rng.integers(1, 9))) for k in range(n_jobs)]
    players = [
        Player(f"p{i}", {j.job_id: float(rng.choice([0.5, 1.0, 2.0, 4.0])) for j in jobs})
        for i in range(n_players)
    ]
    demand = {
        (p.player_id, j.job_id): int(rng.integers(0, 4)) for p in players for j in jobs
    }
    return EconomyConfig.of(players=players, jobs=jobs, demand=demand)


def test_net_energy_golden(golden):
    assert net_energy({"x": "P1", "y": "P2"}, golden) == 30
    assert net_energy({"x": "P3", "y": "P3"}, golden) == 60


def test_net_energy_missing_job_is_error(golden):
    with pytest.raises(ValueError):
        net_energy({"x": "P1"}, golden)


def test_net_energy_empty_jobs():
    cfg = EconomyConfig.of(players=[Player("P1", {})], jobs=[])
    assert net_energy({}, cfg) == 0


def test_brute_force_golden(golden):
    best, energy = brute_force_min_assignment(golden)
    assert best == {"x": "P1", "y": "P2"}
    assert energy == 30


def test_brute_force_single_player():
    cfg = EconomyConfig.of(
        players=[Player("solo", {"x": 1.0, "y": 2.0})],
        jobs=[JobSpec("x", 5.0), JobSpec("y", 5.0)],
        demand={("solo", "x"): 1, ("solo", "y"): 1},
    )
    best, _ = brute_force_min_assignment(cfg)
    assert best == {"x": "solo", "y": "solo"}


def test_brute_force_identical_players_ties_lexicographically():
    players = [Player(pid, {"x": 1.0, "y": 1.0}) for pid in ("a", "b", "c")]
    cfg = EconomyConfig.of(
        players=players,
        jobs=[JobSpec("x", 3.0), JobSpec("y", 3.0)],
        demand={(p.player_id, "x"): 1 for p in players},
    )
    best, energy = brute_force_min_assignment(cfg)
    assert best == {"x": "a", "y": "a"}
    assert energy == net_energy({"x": "c", "y": "b"}, cfg)


def test_brute_force_cap():
    rng = np.random.default_rng(0)
    cfg = random_economy(rng, n_players=10, n_jobs=8)  # 10^8 candidates
    with pytest.raises(ValueError, match=r"10\^8 = 100000000 candidates exceeds cap"):
        brute_force_min_assignment(cfg)


def test_optimal_matches_brute_force_golden(golden):
    assert optimal_assignment(golden) == brute_force_min_assignment(golden)


def test_optimal_oracle_equivalence_random():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        cfg = random_economy(
            rng, n_players=int(rng.integers(1, 7)), n_jobs=int(rng.integers(1, 7))
        )
        _, e_opt = optimal_assignment(cfg)
        _, e_oracle = brute_force_min_assignment(cfg)
        assert e_opt == e_oracle
    # With exact sums the oracle's lexicographic tie rule is the per-job one,
    # so the chosen producers must agree too.
    for _ in range(100):
        cfg = dyadic_economy(
            rng, n_players=int(rng.integers(1, 7)), n_jobs=int(rng.integers(1, 7))
        )
        assert optimal_assignment(cfg) == brute_force_min_assignment(cfg)


def test_optimal_never_above_autarky_with_dominant_producers():
    # every job has a producer weakly cheaper than all consumers' self-cost
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = random_economy(rng, n_players=5, n_jobs=3)
        _, e = optimal_assignment(cfg)
        assert e <= autarky_energy(cfg) + 1e-9


def test_optimal_large_instance_is_stationary():
    rng = np.random.default_rng(99)
    cfg = random_economy(rng, n_players=50, n_jobs=20)
    best, energy = optimal_assignment(cfg)
    assert stationarity_check(best, cfg)
    per_job_minimum = sum(
        cfg.total_demand(jid) * min(cfg.cost(pid, jid) for pid in cfg.player_ids())
        for jid in cfg.job_ids()
    )
    assert energy == per_job_minimum


def test_stationarity_golden(golden):
    best, _ = optimal_assignment(golden)
    assert stationarity_check(best, golden)
    assert not stationarity_check({"x": "P3", "y": "P3"}, golden)


def test_stationarity_single_player():
    cfg = EconomyConfig.of(
        players=[Player("solo", {"x": 1.0})],
        jobs=[JobSpec("x", 5.0)],
        demand={("solo", "x"): 2},
    )
    assert stationarity_check({"x": "solo"}, cfg)


def test_player_relabel_invariance():
    rng = np.random.default_rng(42)
    cfg = random_economy(rng, n_players=4, n_jobs=3)
    best, energy = brute_force_min_assignment(cfg)
    renamed = {pid: f"z{pid}" for pid in cfg.players}
    cfg2 = dataclasses.replace(
        cfg,
        players=[renamed[pid] for pid in cfg.players],
        demand={(renamed[pid], jid): u for (pid, jid), u in cfg.demand.items()},
    )
    best2, energy2 = brute_force_min_assignment(cfg2)
    assert energy2 == energy
    assert {j: renamed[p] for j, p in best.items()} == best2
