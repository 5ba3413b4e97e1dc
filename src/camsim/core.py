"""Domain types and the efficiency -> energy -> price mappings.

An economy is a set of tables: each player's efficiency at each job, each
job's intrinsic workload, and each (player, job) cell's demand per round.
Executing one unit of a job costs ``workload / efficiency`` energy units;
the lowest price a producer can post without losing is that cost times a
global money<->energy conversion rate.

An ``EconomyConfig`` tabulates its costs once, when it is built: every
per-unit cost, each job's total demand and the autarky energy. Everything
else reads that table; ``pricing`` sorts each job's break-evens from it
where they are used. The functions here are pure value-level functions:
no shared state, safe to call concurrently.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

import numpy as np

# CSVs print ids unquoted, so an id holds none of these characters.
ID_RULE = " must not contain a comma, a double quote, CR or LF"
_ID_SPECIALS = ',"\r\n'


def is_amount(x: float, positive: bool = False) -> bool:
    """Whether x is an amount: a finite number, > 0 if ``positive`` and >= 0 otherwise.

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
        if not is_amount(self.workload):
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
        if self.money is not None and not is_amount(self.money):
            raise ValueError(f"player {self.player_id!r}: money must be finite and >= 0")
        for job_id, eff in self.efficiencies.items():
            if not is_amount(eff, positive=True):
                raise ValueError(
                    f"player {self.player_id!r}: efficiency for job {job_id!r} "
                    f"must be finite and > 0, got {eff}"
                )


def csv_safe(text: str) -> bool:
    """Whether an id can be printed unquoted in a CSV cell (see ``ID_RULE``)."""
    return not any(c in text for c in _ID_SPECIALS)


def _sorted(ids: Sequence[str], what: str) -> tuple[np.ndarray, dict[str, int]]:
    """The positions of ``ids`` in sorted order, and each id's place in it.

    ``what`` is "player" or "job"; the ids must be unique and ``csv_safe``.
    """
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    place = {ids[k]: r for r, k in enumerate(order.tolist())}
    if len(place) != len(ids):
        raise ValueError(f"{what}_ids must be unique")
    if not csv_safe("".join(place)):
        bad = next(x for x in place if not csv_safe(x))
        raise ValueError(f"{what} id {bad!r}{ID_RULE}")
    return order, place


def is_count(x: Any, low: int) -> bool:
    """Whether x is an integer >= low: a Python or numpy int, never a bool
    (YAML booleans load as ints) or a float, so that the records print it
    exactly."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= low


class _Uniform(Mapping):
    """Read-only demand of ``units`` in every cell of the id maps ``rows``
    and ``cols``, answered without storing a cell."""

    def __init__(self, units: int, rows: dict[str, int], cols: dict[str, int]):
        self.units, self._rows, self._cols = units, rows, cols

    def __getitem__(self, cell: tuple[str, str]) -> int:
        if isinstance(cell, tuple) and len(cell) == 2:
            if cell[0] in self._rows and cell[1] in self._cols:
                return self.units
        raise KeyError(cell)

    def __len__(self) -> int:
        return len(self._rows) * len(self._cols)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return itertools.product(self._rows, self._cols)


# The rows whose products exact_sum converts to Python floats at a time.
_SUM_ROWS = 4096


def exact_sum(*factors: np.ndarray) -> float:
    """The sum of the cellwise product of ``factors``, arrays of one shape,
    rounded once: ``math.fsum`` of the products, made and converted to
    Python floats ``_SUM_ROWS`` rows at a time. fsum is exact, so the blocks
    add as one list of every product would, without the list."""
    blocks = (
        functools.reduce(np.multiply, [f[r : r + _SUM_ROWS] for f in factors]).ravel().tolist()
        for r in range(0, len(factors[0]), _SUM_ROWS)
    )
    return math.fsum(itertools.chain.from_iterable(blocks))


@dataclass(eq=False)
class EconomyConfig:
    """Immutable description of an economy, as tables.

    ``players`` and ``jobs`` are the ids, in any order; ``efficiencies`` is
    the players x jobs table in that order, ``workloads`` each job's, and
    ``money`` each player's starting balance (None, or a None table, for the
    market's endowment). ``demand`` is the integer units per round of each
    ``(player_id, job_id)`` cell: one int for every cell, or a mapping of
    cells (a cell it leaves out demands nothing). ``conversion`` is the
    currency-per-energy rate and ``price_quantum`` the smallest price step.
    Ids must be unique and ``csv_safe``. ``EconomyConfig.of`` builds one
    from lists of ``Player`` and ``JobSpec``.

    Building a config checks every cell, with the messages of ``Player`` and
    ``JobSpec``, keeps the tables as read-only float64 copies, and tabulates
    it once. ``costs`` is the read-only players x jobs array of ``workload /
    efficiency`` (never -0.0), rows and columns in sorted id order, and
    ``units`` the same table of ``demand`` as floats. ``demand`` is then a
    read-only mapping of the exact integers; an int becomes a view that
    answers each cell with it, so no cell is stored, and a config built from
    that view over the same ids reads the int from it. ``starting_money`` is
    ``money`` in that row order, which ``market.MarketState`` keeps its
    ledgers in, and ``round_bound`` the most one round can move into any
    ledger, in energy or money. Its tables never change: build a changed
    config with ``dataclasses.replace``. Only ``_passed`` is written, by
    ``market.conservation_check``, which keeps there the last records it
    passed against this config, and their sums.
    """

    players: Sequence[str]
    jobs: Sequence[str]
    efficiencies: np.ndarray
    workloads: np.ndarray
    money: Sequence[float | None] | None = None
    demand: int | Mapping[tuple[str, str], int] = field(default_factory=dict)
    conversion: float = 1.0
    price_quantum: float = 0.01
    # The records that last passed market.conservation_check against this
    # config, and their sums.
    _passed: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def of(cls, players: Sequence[Player], jobs: Sequence[JobSpec], **rest: Any) -> EconomyConfig:
        """The config of ``players``, each with an efficiency for every one of
        ``jobs`` and no other; ``rest`` holds the fields from ``demand`` on."""
        ids, job_ids = [p.player_id for p in players], [j.job_id for j in jobs]
        _sorted(ids, "player")
        _, known = _sorted(job_ids, "job")
        for p in players:
            who = f"player {p.player_id!r} has"
            for jid in [*known, *p.efficiencies]:
                if jid not in p.efficiencies:
                    raise ValueError(f"{who} no efficiency for job {jid!r}")
                if jid not in known:
                    raise ValueError(f"{who} an efficiency for unknown job {jid!r}")
        table = np.array([[p.efficiencies[j] for j in job_ids] for p in players], dtype=float)
        money = [p.money for p in players]
        workloads = [j.workload for j in jobs]
        return cls(ids, job_ids, table.reshape(len(ids), len(jobs)), workloads, money, **rest)

    def __post_init__(self) -> None:
        rows, self._row = _sorted(self.players, "player")
        cols, self._col = _sorted(self.jobs, "job")
        self.efficiencies = eff = np.array(self.efficiencies, dtype=float)
        self.workloads = np.array(self.workloads, dtype=float)
        eff.flags.writeable = self.workloads.flags.writeable = False
        n, m = len(rows), len(cols)
        money = (None,) * n if self.money is None else self.money
        if eff.shape != (n, m) or self.workloads.shape != (m,) or len(money) != n:
            raise ValueError("the tables must have one row per player and one column per job")
        bad = np.flatnonzero(~(np.isfinite(self.workloads) & (self.workloads >= 0)))
        if bad.size:
            raise ValueError(f"job {self.jobs[bad[0]]!r}: workload must be finite and >= 0")
        for pid, cash in zip(self.players, money):
            if cash is not None and not is_amount(cash):
                raise ValueError(f"player {pid!r}: money must be finite and >= 0")
        bad = np.argwhere(~(np.isfinite(eff) & (eff > 0)))
        if len(bad):
            r, c = bad[0]
            raise ValueError(
                f"player {self.players[r]!r}: efficiency for job {self.jobs[c]!r} "
                f"must be finite and > 0, got {float(eff[r, c])}"
            )
        if not is_amount(self.conversion, positive=True):
            raise ValueError("conversion must be finite and > 0")
        if not is_amount(self.price_quantum, positive=True):
            raise ValueError("price_quantum must be finite and > 0")
        # An int, or the view of one over these ids that dataclasses.replace
        # passes on, is one count for every cell.
        uniform = self.demand
        if (
            isinstance(uniform, _Uniform)
            and uniform._rows.keys() == self._row.keys()
            and uniform._cols.keys() == self._col.keys()
        ):
            uniform = uniform.units
        if isinstance(uniform, Mapping):
            # One pass checks, totals and places every cell; the units are
            # converted to floats only past the overflow guard below.
            demand, at, uniform = dict(uniform), [], None
            self._totals = dict.fromkeys(self._col, 0)
            for (pid, jid), units in demand.items():
                if pid not in self._row:
                    raise ValueError(f"demand references unknown player {pid!r}")
                if jid not in self._col:
                    raise ValueError(f"demand references unknown job {jid!r}")
                if not is_count(units, 0):
                    raise ValueError(f"demand for {(pid, jid)} must be a nonnegative integer")
                self._totals[jid] += units
                at.append(self._row[pid] * m + self._col[jid])
            self.demand = MappingProxyType(demand)
        else:
            if not is_count(uniform, 0):
                raise ValueError("demand must be a nonnegative integer")
            self._totals = dict.fromkeys(self._col, uniform * n)
            self.demand = _Uniform(uniform, self._row, self._col)
        self.starting_money = tuple(map(money.__getitem__, rows.tolist()))
        with np.errstate(over="ignore"):  # a -0.0 workload costs 0.0
            self.costs = self.workloads[cols] / eff[rows[:, None], cols] + 0.0
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
        if uniform is None:
            self.units = np.zeros((n, m))
            np.put(self.units, at, np.array(list(demand.values()), dtype=float))
        else:
            self.units = np.full((n, m), float(uniform) if n * m else 0.0)
        self.units.flags.writeable = False
        self._autarky = exact_sum(self.units, self.costs)

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
