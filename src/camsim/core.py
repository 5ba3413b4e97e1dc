"""Domain types and the efficiency -> energy -> price mappings.

An economy is a set of players, each characterised by a per-job efficiency
vector, a set of jobs with intrinsic workloads, and a per-round demand
matrix. Executing one unit of a job costs ``workload / efficiency`` energy
units; the lowest price a producer can post without losing is that cost
times a global money<->energy conversion rate.

An ``EconomyConfig`` tabulates its costs once, when it is built: every
per-unit cost, each job's total demand and the autarky energy. Everything
else reads that table. The functions here are pure value-level functions:
no shared state, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class CapacityError(RuntimeError):
    """A solver or estimator was asked for more than its configured limit."""


@dataclass(frozen=True)
class JobSpec:
    """A job type with an intrinsic per-unit workload in energy units.

    ``workload == 0`` is the degenerate free-creation limit used by the
    no-trade theorem tests; negative workloads are rejected.
    """

    job_id: str
    workload: float

    def __post_init__(self) -> None:
        if not (self.workload >= 0 and math.isfinite(self.workload)):
            raise ValueError(f"job {self.job_id!r}: workload must be finite and >= 0")


@dataclass
class Player:
    """A market participant with job-specific efficiencies.

    ``money`` is the starting balance; ``None`` means the market's
    endowment. The running ledgers live in ``market.MarketState``.
    """

    player_id: str
    efficiencies: dict[str, float]
    money: float | None = None

    def __post_init__(self) -> None:
        for job_id, eff in self.efficiencies.items():
            if not (eff > 0 and math.isfinite(eff)):
                raise ValueError(
                    f"player {self.player_id!r}: efficiency for job {job_id!r} "
                    f"must be finite and > 0, got {eff}"
                )


@dataclass
class EconomyConfig:
    """Immutable description of an economy.

    ``demand`` maps ``(player_id, job_id)`` to integer units wanted per
    round. ``conversion`` is the global currency-per-energy rate;
    ``price_quantum`` is the smallest representable price step.

    Building a config checks it and tabulates it once: ``costs`` is a
    read-only players x jobs array of ``workload / efficiency``, rows in
    sorted player_id order and columns in sorted job_id order, and the ids,
    each job's total demand and the autarky energy are stored beside it.
    ``round_bound`` is the most one round can move into any ledger, in
    energy or money. The table is never updated: to change an economy,
    build a new config with ``dataclasses.replace``, never mutate one.
    """

    players: list[Player]
    jobs: list[JobSpec]
    demand: dict[tuple[str, str], int] = field(default_factory=dict)
    conversion: float = 1.0
    price_quantum: float = 0.01

    def __post_init__(self) -> None:
        if not (self.conversion > 0 and math.isfinite(self.conversion)):
            raise ValueError("conversion must be finite and > 0")
        if not (self.price_quantum > 0 and math.isfinite(self.price_quantum)):
            raise ValueError("price_quantum must be finite and > 0")
        ids = [p.player_id for p in self.players]
        if len(set(ids)) != len(ids):
            raise ValueError("player_ids must be unique")
        job_ids = [j.job_id for j in self.jobs]
        if len(set(job_ids)) != len(job_ids):
            raise ValueError("job_ids must be unique")
        self._players = {p.player_id: p for p in self.players}
        self._jobs = {j.job_id: j for j in self.jobs}
        # Row and column of each id in the cost table, in sorted id order.
        self._row = {pid: r for r, pid in enumerate(sorted(ids))}
        self._col = {jid: c for c, jid in enumerate(sorted(job_ids))}
        self._totals = dict.fromkeys(self._col, 0)
        for (pid, jid), units in self.demand.items():
            if pid not in self._players:
                raise ValueError(f"demand references unknown player {pid!r}")
            if jid not in self._jobs:
                raise ValueError(f"demand references unknown job {jid!r}")
            if units < 0 or units != int(units):
                raise ValueError(f"demand for {(pid, jid)} must be a nonnegative integer")
            self._totals[jid] += units
        for p in self.players:
            for jid in self._jobs:
                if jid not in p.efficiencies:
                    raise ValueError(
                        f"player {p.player_id!r} has no efficiency for job {jid!r}"
                    )
        efficiencies = np.array(
            [[self._players[p].efficiencies[j] for j in self._col] for p in self._row],
            dtype=float,
        ).reshape(len(self._row), len(self._col))
        workloads = np.array([self._jobs[j].workload for j in self._col], dtype=float)
        with np.errstate(over="ignore"):
            self.costs = workloads / efficiencies
            highest = self.costs * max(self.conversion, 1.0)
        self.costs.flags.writeable = False
        bad = np.argwhere(~np.isfinite(highest))
        if len(bad):
            r, c = bad[0]
            raise ValueError(
                f"player {self.player_ids()[r]!r}: cost or break-even price of job"
                f" {self.job_ids()[c]!r} is not finite"
            )
        # A round moves at most each job's total demand times its highest
        # per-unit cost in energy, or break-even in money; summed over the
        # jobs, that must be a finite float. An int too large for a float
        # counts as infinite.
        try:
            totals = np.array([float(t) for t in self._totals.values()])
            with np.errstate(over="ignore"):
                self.round_bound = float(totals @ highest.max(axis=0, initial=0.0))
        except OverflowError:
            self.round_bound = math.inf
        if not math.isfinite(self.round_bound):
            raise ValueError(
                "total demand times the highest cost or break-even price,"
                " summed over the jobs, is not finite"
            )
        self._autarky = math.fsum(
            units * self.cost(pid, jid) for (pid, jid), units in self.demand.items()
        )

    def player(self, player_id: str) -> Player:
        return self._players[player_id]

    def job(self, job_id: str) -> JobSpec:
        return self._jobs[job_id]

    def player_ids(self) -> list[str]:
        return list(self._row)

    def job_ids(self) -> list[str]:
        return list(self._col)

    def cost(self, player_id: str, job_id: str) -> float:
        """Per-unit energy cost of ``player_id`` executing ``job_id``."""
        return float(self.costs[self._row[player_id], self._col[job_id]])

    def total_demand(self, job_id: str) -> int:
        """System-wide per-round demand for one job, in units."""
        return self._totals[job_id]


def break_even_price(cost: float, conversion: float) -> float:
    """Lowest profitable selling price for a given per-unit energy cost."""
    if cost < 0 or not math.isfinite(cost):
        raise ValueError(f"cost must be finite and >= 0, got {cost}")
    if not (conversion > 0 and math.isfinite(conversion)):
        raise ValueError(f"conversion must be finite and > 0, got {conversion}")
    return conversion * cost


def autarky_energy(config: EconomyConfig) -> float:
    """Total system energy per round if every player self-produces all demand.

    The config sums it once, exactly, when it is built; this reads it.
    """
    return config._autarky
