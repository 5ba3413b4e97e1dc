import pytest

from camsim import EconomyConfig, JobSpec, Player


def golden_config(price_quantum: float = 1.0) -> EconomyConfig:
    """3 players, 2 jobs, workload 10, unit demand everywhere, conversion 1.

    Per-unit costs: P1 -> (x: 5, y: 10), P2 -> (x: 10, y: 5), P3 -> (10, 10).
    Autarky energy 50; optimal assignment {x: P1, y: P2} at 30.
    """
    jobs = [JobSpec("x", 10.0), JobSpec("y", 10.0)]
    players = [
        Player("P1", {"x": 2.0, "y": 1.0}),
        Player("P2", {"x": 1.0, "y": 2.0}),
        Player("P3", {"x": 1.0, "y": 1.0}),
    ]
    demand = {(p.player_id, j.job_id): 1 for p in players for j in jobs}
    return EconomyConfig.of(
        players=players,
        jobs=jobs,
        demand=demand,
        conversion=1.0,
        price_quantum=price_quantum,
    )


@pytest.fixture
def golden():
    return golden_config()
