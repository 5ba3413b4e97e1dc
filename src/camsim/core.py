"""Domain types and the efficiency -> energy -> price mappings.

An economy is a set of players, each characterised by a per-job efficiency
vector, a set of jobs with intrinsic workloads, and a per-round demand
matrix. Executing one unit of a job costs ``workload / efficiency`` energy
units; the lowest price a producer can post without losing is that cost
times a global money<->energy conversion rate.

Everything here is a pure value-level function: no shared state, safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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
        for pid, jid in self.demand:
            if pid not in self._players:
                raise ValueError(f"demand references unknown player {pid!r}")
            if jid not in self._jobs:
                raise ValueError(f"demand references unknown job {jid!r}")
        for key, units in self.demand.items():
            if units < 0 or units != int(units):
                raise ValueError(f"demand for {key} must be a nonnegative integer")
        for p in self.players:
            for jid in self._jobs:
                if jid not in p.efficiencies:
                    raise ValueError(
                        f"player {p.player_id!r} has no efficiency for job {jid!r}"
                    )
        # A round moves at most each job's total demand times its highest
        # per-unit cost in energy, or break-even in money; summed over the
        # jobs, that must be a finite float. An int too large for a float
        # counts as infinite.
        totals = dict.fromkeys(self._jobs, 0)
        for (_, jid), units in self.demand.items():
            totals[jid] += units
        scale = max(self.conversion, 1.0)
        bound = 0.0
        for jid, total in totals.items():
            highest = 0.0
            for pid in self._players:
                cost = self.cost(pid, jid)
                if not math.isfinite(cost * scale):
                    raise ValueError(
                        f"player {pid!r}: cost or break-even price of job {jid!r}"
                        " is not finite"
                    )
                highest = max(highest, cost * scale)
            try:
                bound += float(total) * highest
            except OverflowError:
                bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(
                "total demand times the highest cost or break-even price,"
                " summed over the jobs, is not finite"
            )

    def player(self, player_id: str) -> Player:
        return self._players[player_id]

    def job(self, job_id: str) -> JobSpec:
        return self._jobs[job_id]

    def player_ids(self) -> list[str]:
        return sorted(self._players)

    def job_ids(self) -> list[str]:
        return sorted(self._jobs)

    def cost(self, player_id: str, job_id: str) -> float:
        """Per-unit energy cost of ``player_id`` executing ``job_id``."""
        return energy_cost(
            self._players[player_id].efficiencies[job_id], self._jobs[job_id].workload
        )

    def total_demand(self, job_id: str) -> int:
        """System-wide per-round demand for one job, in units."""
        return sum(u for (pid, jid), u in self.demand.items() if jid == job_id)


def energy_cost(efficiency: float, workload: float) -> float:
    """Energy spent executing one unit of a job: workload / efficiency.

    Strictly decreasing in efficiency, strictly increasing in workload.
    """
    if not (efficiency > 0 and math.isfinite(efficiency)):
        raise ValueError(f"efficiency must be finite and > 0, got {efficiency}")
    if not (workload >= 0 and math.isfinite(workload)):
        raise ValueError(f"workload must be finite and >= 0, got {workload}")
    return workload / efficiency


def break_even_price(cost: float, conversion: float) -> float:
    """Lowest profitable selling price for a given per-unit energy cost."""
    if cost < 0 or not math.isfinite(cost):
        raise ValueError(f"cost must be finite and >= 0, got {cost}")
    if not (conversion > 0 and math.isfinite(conversion)):
        raise ValueError(f"conversion must be finite and > 0, got {conversion}")
    return conversion * cost


def autarky_energy(config: EconomyConfig) -> float:
    """Total system energy per round if every player self-produces all demand."""
    return math.fsum(
        units * config.cost(pid, jid)
        for (pid, jid), units in config.demand.items()
        if units
    )
