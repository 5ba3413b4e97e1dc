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


def _finite(x: float, positive: bool = False) -> bool:
    """Whether x is a finite number, > 0 if ``positive`` and >= 0 otherwise.

    As in the YAML rules, a boolean is not a number, and an int too large
    for a float is not finite.
    """
    if isinstance(x, bool):
        return False
    try:
        return (x > 0 if positive else x >= 0) and math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class JobSpec:
    """A job type with an intrinsic per-unit workload in energy units.

    ``workload == 0`` is the degenerate free-creation limit used by the
    no-trade theorem tests; negative workloads are rejected.
    """

    job_id: str
    workload: float

    def __post_init__(self) -> None:
        if not _finite(self.workload):
            raise ValueError(f"job {self.job_id!r}: workload must be finite and >= 0")


@dataclass
class Player:
    """A market participant with job-specific efficiencies.

    ``money`` is the starting balance, finite and >= 0; ``None`` means
    the market's endowment. The running ledgers live in ``market.MarketState``.
    """

    player_id: str
    efficiencies: dict[str, float]
    money: float | None = None

    def __post_init__(self) -> None:
        if self.money is not None and not _finite(self.money):
            raise ValueError(f"player {self.player_id!r}: money must be finite and >= 0")
        for job_id, eff in self.efficiencies.items():
            if not _finite(eff, positive=True):
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
    read-only players x jobs array of ``workload / efficiency`` (never
    -0.0), rows in sorted player_id order and columns in sorted job_id
    order; the ids, each job's total demand and the autarky energy are
    stored beside it. ``units`` is the same table of ``demand`` as floats;
    ``demand`` keeps the exact integers. ``starting_money`` is each
    player's ``money`` in the row order ``market.MarketState`` keeps its
    ledgers in. ``round_bound`` is the most one round can move into any
    ledger, in energy or money. Nothing on a config changes after it is
    built: to change an economy, build a new one with ``dataclasses.replace``.
    """

    players: list[Player]
    jobs: list[JobSpec]
    demand: dict[tuple[str, str], int] = field(default_factory=dict)
    conversion: float = 1.0
    price_quantum: float = 0.01

    def __post_init__(self) -> None:
        if not _finite(self.conversion, positive=True):
            raise ValueError("conversion must be finite and > 0")
        if not _finite(self.price_quantum, positive=True):
            raise ValueError("price_quantum must be finite and > 0")
        players = sorted(self.players, key=lambda p: p.player_id)
        jobs = sorted(self.jobs, key=lambda j: j.job_id)
        # Row and column of each id in the cost table, in sorted id order.
        self._row = {p.player_id: r for r, p in enumerate(players)}
        self._col = {j.job_id: c for c, j in enumerate(jobs)}
        if len(self._row) != len(players):
            raise ValueError("player_ids must be unique")
        if len(self._col) != len(jobs):
            raise ValueError("job_ids must be unique")
        self._totals = dict.fromkeys(self._col, 0)
        for (pid, jid), units in self.demand.items():
            if pid not in self._row:
                raise ValueError(f"demand references unknown player {pid!r}")
            if jid not in self._col:
                raise ValueError(f"demand references unknown job {jid!r}")
            if units < 0 or units != int(units):
                raise ValueError(f"demand for {(pid, jid)} must be a nonnegative integer")
            self._totals[jid] += units
        for p in self.players:
            who = f"player {p.player_id!r} has"
            for jid in self._col:
                if jid not in p.efficiencies:
                    raise ValueError(f"{who} no efficiency for job {jid!r}")
            for jid in p.efficiencies:
                if jid not in self._col:
                    raise ValueError(f"{who} an efficiency for unknown job {jid!r}")
        self.starting_money = tuple(p.money for p in players)
        efficiencies = np.array(
            [[p.efficiencies[j] for j in self._col] for p in players], dtype=float
        ).reshape(len(players), len(jobs))
        workloads = np.array([j.workload for j in jobs], dtype=float)
        with np.errstate(over="ignore"):
            self.costs = workloads / efficiencies + 0.0  # a -0.0 workload costs 0.0
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
        # Past the guard every total converts to a float, so every cell does.
        self.units = np.zeros_like(self.costs)
        for (pid, jid), units in self.demand.items():
            self.units[self._row[pid], self._col[jid]] = float(units)
        self.units.flags.writeable = False
        self._autarky = math.fsum((self.units * self.costs).ravel().tolist())

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
