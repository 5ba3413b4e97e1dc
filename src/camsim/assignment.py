"""Globally energy-minimizing distribution of jobs among producers.

An assignment gives every job type exactly one producer, who covers the
whole system demand for that job. The net energy of an assignment is the
sum over jobs of total demand times the producer's per-unit cost.

That sum separates per job, so the exact optimum gives each job to its
cheapest producer: the row-wise argmin of ``cost_matrix``, ties to the
lowest player_id. ``brute_force_min_assignment`` enumerates all
``players ** jobs`` candidates under a cap and is kept as the oracle
that the per-job solver is tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, EconomyConfig

ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class Assignment:
    """Map from job_id to the player_id producing that job's full demand."""

    producer_of: dict[str, str]

    def validate(self, config: EconomyConfig) -> None:
        jobs = set(config.job_ids())
        if set(self.producer_of) != jobs:
            missing = jobs - set(self.producer_of)
            extra = set(self.producer_of) - jobs
            raise ValueError(f"assignment job mismatch: missing={missing} extra={extra}")
        players = set(config.player_ids())
        for jid, pid in self.producer_of.items():
            if pid not in players:
                raise ValueError(f"job {jid!r} assigned to unknown player {pid!r}")


def cost_matrix(config: EconomyConfig) -> np.ndarray:
    """Energy to cover each job's full demand, per candidate producer.

    Rows follow sorted job_ids, columns sorted player_ids.
    """
    jobs = config.job_ids()
    players = config.player_ids()
    out = np.empty((len(jobs), len(players)))
    for r, jid in enumerate(jobs):
        d = config.total_demand(jid)
        for c, pid in enumerate(players):
            out[r, c] = d * config.cost(pid, jid)
    return out


def net_energy(assignment: Assignment, config: EconomyConfig) -> float:
    """Total system energy under one assignment."""
    assignment.validate(config)
    return float(
        sum(
            config.total_demand(jid) * config.cost(pid, jid)
            for jid, pid in assignment.producer_of.items()
        )
    )


def brute_force_min_assignment(
    config: EconomyConfig, cap: int = ENUMERATION_CAP
) -> tuple[Assignment, float]:
    """Exhaustively enumerate every producer choice per job; exact oracle.

    Raises CapacityError when players**jobs exceeds ``cap``.
    """
    jobs = config.job_ids()
    players = config.player_ids()
    if not jobs:
        return Assignment({}), 0.0
    if not players:
        raise ValueError("economy has no players")
    n_candidates = len(players) ** len(jobs)
    if n_candidates > cap:
        raise CapacityError(
            f"{len(players)}^{len(jobs)} = {n_candidates} candidates exceeds cap {cap}"
        )
    rows = cost_matrix(config)
    # Chained outer sums build the full players**jobs energy tensor; argmin's
    # first-occurrence rule is exactly the lexicographic (job, player) tie-break.
    total = functools.reduce(np.add.outer, rows)
    flat = int(np.argmin(total))
    choice = np.unravel_index(flat, total.shape)
    best = Assignment({jid: players[c] for jid, c in zip(jobs, choice)})
    return best, float(total.reshape(-1)[flat])


def optimal_assignment(config: EconomyConfig) -> tuple[Assignment, float]:
    """Minimize net energy exactly: each job goes to its cheapest producer.

    argmin's first-occurrence rule breaks ties toward the lowest player_id.
    The energy is summed in job order, as the oracle's chained outer sum
    is, and rounding is monotone, so both report the same float.
    """
    jobs = config.job_ids()
    players = config.player_ids()
    if not jobs:
        return Assignment({}), 0.0
    if not players:
        raise ValueError("economy has no players")
    choice = np.argmin(cost_matrix(config), axis=1)
    assignment = Assignment({jid: players[c] for jid, c in zip(jobs, choice)})
    return assignment, net_energy(assignment, config)


def stationarity_check(assignment: Assignment, config: EconomyConfig) -> bool:
    """True iff no single-job reassignment strictly lowers net energy."""
    assignment.validate(config)
    for jid in config.job_ids():
        d = config.total_demand(jid)
        here = d * config.cost(assignment.producer_of[jid], jid)
        for pid in config.player_ids():
            if d * config.cost(pid, jid) < here:
                return False
    return True
