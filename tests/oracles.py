"""Reference checks that only the tests use.

Each restates a property of the model from its definition, one case at a
time, so the faster code in ``camsim`` can be held to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from camsim import (
    EconomyConfig,
    MarketState,
    Offer,
    PriceDensity,
    RoundReport,
    TradeRecord,
    autarky_energy,
    break_even_price,
    build_price_density,
    buyer_count,
    derive_trace_seed,
    optimal_price_arrays,
    simulate_walk,
)
from camsim.assignment import ENUMERATION_CAP, cost_matrix
from camsim.market import SelfProduction
from camsim.scenario import (
    HEADERS,
    ScenarioConfig,
    _price_decimals,
    _savings_line,
    _trade_lines,
    build_economy,
)


@dataclass(frozen=True)
class PriceSolution:
    """A posted price with its realized buyer count and profit."""

    price: float
    buyers: int
    profit: float


def optimal_prices(
    break_evens: list[float] | np.ndarray, density: PriceDensity, quantum: float
) -> list[PriceSolution]:
    """Profit-maximizing posting over quantized prices, for each break-even.

    Because buying requires a strict improvement and the density is atomic,
    the profit maximum over the quantized grid is always attained one
    quantum below some atom (or nowhere). Ties go to the lowest price;
    when no posting earns a positive profit, the break-even itself is
    returned with profit 0. The solutions are ``optimal_price_arrays``'s.
    """
    arrays = optimal_price_arrays(break_evens, density, quantum)
    return [PriceSolution(*sol) for sol in zip(*(a.tolist() for a in arrays))]


def optimal_price(
    break_even: float, density: PriceDensity, quantum: float
) -> PriceSolution:
    """``optimal_prices`` for one seller."""
    return optimal_prices([break_even], density, quantum)[0]


def validate(producer_of: dict[str, str], config: EconomyConfig) -> None:
    """Every job has exactly one producer, and every producer is a player."""
    jobs = set(config.job_ids())
    if set(producer_of) != jobs:
        missing = jobs - set(producer_of)
        extra = set(producer_of) - jobs
        raise ValueError(f"assignment job mismatch: missing={missing} extra={extra}")
    players = set(config.player_ids())
    for jid, pid in producer_of.items():
        if pid not in players:
            raise ValueError(f"job {jid!r} assigned to unknown player {pid!r}")


def brute_force_min_assignment(
    config: EconomyConfig, cap: int = ENUMERATION_CAP
) -> tuple[dict[str, str], float]:
    """Exhaustively enumerate every producer choice per job; exact oracle.

    Raises ValueError when players**jobs exceeds ``cap``.
    """
    jobs = config.job_ids()
    players = config.player_ids()
    if not jobs:
        return {}, 0.0
    if not players:
        raise ValueError("economy has no players")
    n_candidates = len(players) ** len(jobs)
    if n_candidates > cap:
        raise ValueError(
            f"{len(players)}^{len(jobs)} = {n_candidates} candidates exceeds cap {cap}"
        )
    rows = cost_matrix(config)
    # Chained outer sums build the full players**jobs energy tensor; argmin's
    # first-occurrence rule is exactly the lexicographic (job, player) tie-break.
    total = functools.reduce(np.add.outer, rows)
    flat = int(np.argmin(total))
    choice = np.unravel_index(flat, total.shape)
    best = {jid: players[c] for jid, c in zip(jobs, choice)}
    return best, float(total.reshape(-1)[flat])


def net_energy(producer_of: dict[str, str], config: EconomyConfig) -> float:
    """Total system energy under one assignment (job_id -> producer)."""
    validate(producer_of, config)
    return float(
        sum(
            config.total_demand(jid) * config.cost(pid, jid)
            for jid, pid in producer_of.items()
        )
    )


def stationarity_check(producer_of: dict[str, str], config: EconomyConfig) -> bool:
    """True iff no single-job reassignment strictly lowers net energy."""
    validate(producer_of, config)
    for jid in config.job_ids():
        d = config.total_demand(jid)
        here = d * config.cost(producer_of[jid], jid)
        for pid in config.player_ids():
            if d * config.cost(pid, jid) < here:
                return False
    return True


def atoms(density: PriceDensity) -> list[tuple[float, int]]:
    """The density's (price, mass) pairs, in price order."""
    return list(zip(density.prices.tolist(), density.masses.tolist()))


def p_max(density: PriceDensity) -> float:
    """Largest break-even in the population; 0 for an empty density."""
    return atoms(density)[-1][0] if atoms(density) else 0.0


def total_mass(density: PriceDensity) -> int:
    """Number of players represented by the density."""
    return sum(mass for _, mass in atoms(density))


def buyer_counts(density: PriceDensity, posted: np.ndarray) -> np.ndarray:
    """Vectorized buyer_count over an array of posted prices."""
    prices = np.array([p for p, _ in atoms(density)])
    masses = np.array([m for _, m in atoms(density)], dtype=np.int64)
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
    for atom_price, _ in atoms(density):
        cand = atom_price - quantum
        if cand > break_even and buyer_count(density, cand) > 0:
            return False
    return True


def optimal_price_by_scan(
    break_even: float, density: PriceDensity, quantum: float
) -> PriceSolution:
    """optimal_price by its definition: try every candidate, count its buyers.

    Each candidate is one quantum below an atom; the first of the highest
    gains wins, and no positive gain posts the break-even with profit 0.
    """
    if not (quantum > 0 and math.isfinite(quantum)):
        raise ValueError(f"quantum must be finite and > 0, got {quantum}")
    if break_even < 0:
        raise ValueError(f"break_even must be >= 0, got {break_even}")
    best: PriceSolution | None = None
    for atom_price, _ in atoms(density):
        cand = atom_price - quantum
        if cand <= break_even:
            continue
        buyers = buyer_count(density, cand)
        gain = (cand - break_even) * buyers
        if best is None or gain > best.profit:
            best = PriceSolution(cand, buyers, gain)
    if best is None or best.profit <= 0:
        return PriceSolution(break_even, buyer_count(density, break_even), 0.0)
    return best


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
            sol = optimal_price_by_scan(break_evens[i], density, config.price_quantum)
            if sol.profit > 0:
                offers.append(Offer(seller=pid, job=jid, price=sol.price))
    return offers


def ranked_offers(config: EconomyConfig) -> list[Offer]:
    """Every seller's offer, in the order buyers take them."""
    return sorted(
        all_offers(config),
        key=lambda o: (o.job, o.price, config.cost(o.seller, o.job), o.seller),
    )


def cost_by_cell(config: EconomyConfig, pid: str, jid: str) -> float:
    """Per-unit energy cost from its definition: workload / efficiency."""
    r, c = list(config.players).index(pid), list(config.jobs).index(jid)
    return float(config.workloads[c]) / float(config.efficiencies[r, c])


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


def best_margins_by_cell(config: EconomyConfig) -> list[float]:
    """Each player's best margin, in player_ids() order."""
    players = config.player_ids()
    jobs = config.job_ids()
    mean_cost = {
        jid: math.fsum(cost_by_cell(config, pid, jid) for pid in players) / len(players)
        for jid in jobs
    }
    return [
        max(mean_cost[jid] - cost_by_cell(config, pid, jid) for jid in jobs)
        for pid in players
    ]


def execute_round_by_cell(
    config: EconomyConfig,
    state: MarketState,
    offers: list[Offer],
    record_detail: bool = True,
) -> tuple[MarketState, RoundReport]:
    """execute_round by its definition: one cell at a time, buyer by buyer
    in row order and job by job, updating the ledgers as each cell decides.
    """
    best_offers: dict[str, list[Offer]] = {}
    for off in offers:
        best_offers.setdefault(off.job, []).append(off)
    row = {pid: r for r, pid in enumerate(config.player_ids())}

    state.round += 1
    transfers: list[float] = []
    production_energy: list[float] = []
    system_saved: list[float] = []
    trades: list[TradeRecord] = []
    selfs: list[SelfProduction] = []
    n_trades = 0
    n_forced = 0

    for buyer in config.player_ids():
        for jid in config.job_ids():
            units = config.demand.get((buyer, jid), 0)
            if not units:
                continue
            self_cost = config.cost(buyer, jid)
            best = next(
                (o for o in best_offers.get(jid, ()) if o.seller != buyer), None
            )
            # Buy only on a strict improvement; ties self-produce.
            buy = best is not None and best.price < config.conversion * self_cost
            forced = False
            if buy:
                total_price = best.price * units
                if state.money[row[buyer]] < total_price:
                    buy = False
                    forced = True
                    n_forced += 1
            if buy:
                seller_cost = config.cost(best.seller, jid)
                state.money[row[buyer]] -= total_price
                state.money[row[best.seller]] += total_price
                transfers.append(-total_price)
                transfers.append(total_price)
                state.energy_spent[row[best.seller]] += units * seller_cost
                state.energy_saved[row[buyer]] += units * (
                    self_cost - best.price / config.conversion
                )
                production_energy.append(units * seller_cost)
                saved = units * (self_cost - seller_cost)
                system_saved.append(saved)
                n_trades += 1
                if record_detail:
                    trades.append(
                        TradeRecord(
                            buyer=buyer,
                            seller=best.seller,
                            job=jid,
                            units=units,
                            price=best.price,
                            buyer_self_cost=self_cost,
                            seller_cost=seller_cost,
                            system_energy_saved=saved,
                        )
                    )
            else:
                energy = units * self_cost
                state.energy_spent[row[buyer]] += energy
                production_energy.append(energy)
                if record_detail:
                    selfs.append(
                        SelfProduction(buyer, jid, units, energy, forced=forced)
                    )

    report = RoundReport(
        round=state.round,
        trades=tuple(trades),
        self_productions=tuple(selfs),
        n_trades=n_trades,
        n_forced=n_forced,
        money_delta_total=math.fsum(transfers),
        energy_expended_total=math.fsum(production_energy),
        energy_saved_total=math.fsum(system_saved),
        autarky_energy=autarky_energy(config),
    )
    return state, report


def run_scenario_by_cell(sc: ScenarioConfig, out_dir: Path) -> dict[str, Path]:
    """run_scenario's CSVs from the slow references: every seller's offer,
    the per-cell round, and each round's lines built afresh, the trades one
    line at a time, and every wealth, walk and density cell by its own
    f-string. Returns the path of each output written.
    """
    config = build_economy(sc)
    state = MarketState.from_config(config, sc.initial_money)
    offers = ranked_offers(config)
    d = _price_decimals(sc.price_quantum)
    texts = {}
    for kind in sc.outputs:
        if kind == "walk":
            rows = walk_lines(sc)
        elif kind == "density":
            rows = density_lines(sc, config)
        else:
            rows = []
        texts[kind] = [",".join(HEADERS[kind]) + "\n", *rows]
    for _ in range(sc.rounds):
        state, report = execute_round_by_cell(config, state, offers)
        for kind, lines in texts.items():
            if kind == "trades":
                lines += [f"{report.round},{t}\n" for t in _trade_lines(d, report.trades)]
            elif kind == "wealth":
                lines += wealth_lines(d, config, state)
            elif kind == "savings":
                lines.append(_savings_line(report))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for kind, lines in texts.items():
        paths[kind] = out_dir / f"{kind}.csv"
        paths[kind].write_bytes("".join(lines).encode())
    return paths


def wealth_lines(d: int, config: EconomyConfig, state: MarketState) -> list[str]:
    """One round's wealth.csv lines, a cell at a time."""
    ledgers = (a.tolist() for a in (state.money, state.energy_spent, state.energy_saved))
    return [
        f"{state.round},{pid},{money:.{d}f},{spent:.9f},{saved:.9f}\n"
        for pid, money, spent, saved in zip(config.player_ids(), *ledgers)
    ]


def walk_lines(sc: ScenarioConfig) -> list[str]:
    """walk.csv's lines, each trace simulated whole and printed a cell at a time."""
    lines = []
    for i in range(sc.walk.traces):
        seed = derive_trace_seed(sc.master_seed, i)
        values = simulate_walk(sc.walk.params, sc.walk.steps, seed).values.tolist()
        lines += [f"{i},{step},{v:.9f}\n" for step, v in enumerate(values)]
    return lines


def density_lines(sc: ScenarioConfig, config: EconomyConfig) -> list[str]:
    """density.csv's lines, each job's density built afresh and printed a cell at a time."""
    d, lines = _price_decimals(sc.price_quantum), []
    for c, jid in enumerate(config.job_ids()):
        density = build_price_density(config.conversion * config.costs[:, c])
        lines += [f"{jid},{price:.{d}f},{mass}\n" for price, mass in atoms(density)]
    return lines
