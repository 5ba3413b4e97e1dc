"""Reference checks that only the tests use.

Each restates a property of the model from its definition, one case at a
time, so the faster code in ``camsim`` can be held to it.
"""

from __future__ import annotations

import numpy as np

from camsim import Assignment, EconomyConfig, PriceDensity, buyer_count, optimal_price


def validate(assignment: Assignment, config: EconomyConfig) -> None:
    """Every job has exactly one producer, and every producer is a player."""
    jobs = set(config.job_ids())
    if set(assignment.producer_of) != jobs:
        missing = jobs - set(assignment.producer_of)
        extra = set(assignment.producer_of) - jobs
        raise ValueError(f"assignment job mismatch: missing={missing} extra={extra}")
    players = set(config.player_ids())
    for jid, pid in assignment.producer_of.items():
        if pid not in players:
            raise ValueError(f"job {jid!r} assigned to unknown player {pid!r}")


def net_energy(assignment: Assignment, config: EconomyConfig) -> float:
    """Total system energy under one assignment."""
    validate(assignment, config)
    return float(
        sum(
            config.total_demand(jid) * config.cost(pid, jid)
            for jid, pid in assignment.producer_of.items()
        )
    )


def stationarity_check(assignment: Assignment, config: EconomyConfig) -> bool:
    """True iff no single-job reassignment strictly lowers net energy."""
    validate(assignment, config)
    for jid in config.job_ids():
        d = config.total_demand(jid)
        here = d * config.cost(assignment.producer_of[jid], jid)
        for pid in config.player_ids():
            if d * config.cost(pid, jid) < here:
                return False
    return True


def total_mass(density: PriceDensity) -> int:
    """Number of players represented by the density."""
    return sum(mass for _, mass in density.atoms)


def buyer_counts(density: PriceDensity, posted: np.ndarray) -> np.ndarray:
    """Vectorized buyer_count over an array of posted prices."""
    prices = np.array([p for p, _ in density.atoms])
    masses = np.array([m for _, m in density.atoms], dtype=np.int64)
    above = np.concatenate([np.cumsum(masses[::-1])[::-1], [0]])
    idx = np.searchsorted(prices, posted, side="right")
    return above[idx]


def no_trade_witness(
    density: PriceDensity, break_even: float, quantum: float
) -> bool:
    """True iff this seller can induce no trade at any posting.

    Holds for the delta density at zero cost and whenever every atom sits
    at the seller's own break-even: no posting above break-even finds a
    single buyer.
    """
    if optimal_price(break_even, density, quantum).profit != 0:
        return False
    for atom_price, _ in density.atoms:
        cand = atom_price - quantum
        if cand > break_even and buyer_count(density, cand) > 0:
            return False
    return True
