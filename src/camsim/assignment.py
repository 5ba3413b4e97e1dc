"""Globally energy-minimizing distribution of jobs among producers.

An assignment gives every job type exactly one producer, who covers the
whole system demand for that job. The net energy of an assignment is the
sum over jobs of total demand times the producer's per-unit cost.

That sum separates per job, so the exact optimum gives each job to its
cheapest producer: the row-wise argmin of ``cost_matrix``, ties to the
lowest player_id. ``brute_force_min_assignment`` enumerates all
``players ** jobs`` candidates under ``ENUMERATION_CAP``. It is the oracle
the per-job solver is tested against, and it stays in the package because
the benchmark reads the cap. The checks that only tests use (the net
energy of an arbitrary assignment, single-move stationarity) live in
``tests/oracles.py``.
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


def cost_matrix(config: EconomyConfig) -> np.ndarray:
    """Energy to cover each job's full demand, per candidate producer.

    Rows follow sorted job_ids, columns sorted player_ids: each job's total
    demand, as a float, times the config's cost column for that job.
    """
    totals = [float(config.total_demand(jid)) for jid in config.job_ids()]
    return np.array(totals)[:, None] * config.costs.T


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
    The energy is the Python ``sum`` of each job's minimum in job order,
    the order in which the oracle's chained outer sum adds them
    (``ndarray.sum`` may pair them differently); rounding is monotone, so
    both report the same float.
    """
    jobs = config.job_ids()
    players = config.player_ids()
    if not jobs:
        return Assignment({}), 0.0
    if not players:
        raise ValueError("economy has no players")
    costs = cost_matrix(config)
    choice = np.argmin(costs, axis=1)
    assignment = Assignment({jid: players[c] for jid, c in zip(jobs, choice)})
    return assignment, sum(costs.min(axis=1).tolist())
