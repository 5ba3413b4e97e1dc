"""Reference checks that only the tests use.

Each restates a property of the model from its definition, one case at a
time, so the faster code in ``camsim`` can be held to it.
"""

from __future__ import annotations

import math

import numpy as np

from camsim import (
    Assignment,
    EconomyConfig,
    Offer,
    PriceDensity,
    break_even_price,
    build_price_density,
    buyer_count,
    optimal_price,
)


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


def all_offers(config: EconomyConfig) -> list[Offer]:
    """One offer per (player, job) with positive expected profit.

    Sellers price against the density of everyone else's break-evens; a
    seller for whom no posting can attract a buyer posts nothing.
    """
    players = config.player_ids()
    offers: list[Offer] = []
    for jid in config.job_ids():
        break_evens = [
            break_even_price(config.cost(pid, jid), config.conversion) for pid in players
        ]
        for i, pid in enumerate(players):
            density = build_price_density(break_evens[:i] + break_evens[i + 1 :])
            sol = optimal_price(break_evens[i], density, config.price_quantum)
            if sol.profit > 0:
                offers.append(Offer(seller=pid, job=jid, price=sol.price))
    return offers


def cost_by_cell(config: EconomyConfig, pid: str, jid: str) -> float:
    """Per-unit energy cost from its definition: workload / efficiency."""
    return config.job(jid).workload / config.player(pid).efficiencies[jid]


def total_demand_by_scan(config: EconomyConfig, jid: str) -> int:
    return sum(u for (_, j), u in config.demand.items() if j == jid)


def autarky_by_cell(config: EconomyConfig) -> float:
    return math.fsum(
        units * cost_by_cell(config, pid, jid)
        for (pid, jid), units in config.demand.items()
        if units
    )


def cost_matrix_by_cell(config: EconomyConfig) -> np.ndarray:
    """Jobs x players: each job's total demand times each producer's cost."""
    jobs = config.job_ids()
    players = config.player_ids()
    out = np.empty((len(jobs), len(players)))
    for r, jid in enumerate(jobs):
        d = total_demand_by_scan(config, jid)
        for c, pid in enumerate(players):
            out[r, c] = d * cost_by_cell(config, pid, jid)
    return out


def best_margins_by_cell(config: EconomyConfig) -> dict[str, float]:
    players = config.player_ids()
    jobs = config.job_ids()
    mean_cost = {
        jid: math.fsum(cost_by_cell(config, pid, jid) for pid in players) / len(players)
        for jid in jobs
    }
    return {
        pid: max(mean_cost[jid] - cost_by_cell(config, pid, jid) for jid in jobs)
        for pid in players
    }
