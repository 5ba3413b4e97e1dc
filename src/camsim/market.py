"""Round-based market loop with strict conservation ledgers.

Every player prices every job against the density of the job's break-evens,
and the two offers a buyer can take are posted per job: the first and
second in (price, seller cost, seller id) order. Each round, every
demanding player either buys the first of them not its own or
self-produces. Money transfers are zero-sum by construction and verified
exactly; energy expended plus energy saved must partition the round's
autarky energy.

Offers depend only on efficiencies and workloads, never on balances, so
they are posted once and reused across rounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .core import EconomyConfig, autarky_energy
from .pricing import build_price_density, optimal_prices

DEFAULT_ENDOWMENT = 1e9


@dataclass(frozen=True)
class Offer:
    seller: str
    job: str
    price: float


@dataclass(frozen=True)
class TradeRecord:
    """One executed trade; system_energy_saved is buyer cost minus seller cost."""

    buyer: str
    seller: str
    job: str
    units: int
    price: float
    buyer_self_cost: float
    seller_cost: float
    system_energy_saved: float


@dataclass(frozen=True)
class SelfProduction:
    player: str
    job: str
    units: int
    energy: float
    forced: bool = False  # buyer wanted to trade but could not afford it


@dataclass(frozen=True)
class RoundReport:
    round: int
    trades: tuple[TradeRecord, ...]
    self_productions: tuple[SelfProduction, ...]
    n_trades: int
    n_forced: int
    money_delta_total: float
    energy_expended_total: float
    energy_saved_total: float
    autarky_energy: float


@dataclass
class MarketState:
    """Per-player ledgers, which execute_round updates in place."""

    money: dict[str, float]
    energy_spent: dict[str, float]
    energy_saved: dict[str, float]
    round: int = 0

    @classmethod
    def from_config(
        cls, config: EconomyConfig, initial_money: float = DEFAULT_ENDOWMENT
    ) -> "MarketState":
        ids = config.player_ids()
        money = {}
        for pid in ids:
            start = config.player(pid).money
            money[pid] = initial_money if start is None else start
        return cls(
            money=money,
            energy_spent=dict.fromkeys(ids, 0.0),
            energy_saved=dict.fromkeys(ids, 0.0),
        )


def check_ledger_bound(config: EconomyConfig, state: MarketState, rounds: int) -> None:
    """Raise ValueError if ``rounds`` rounds from ``state`` could overflow a ledger.

    One round moves at most ``config.round_bound`` into any ledger, so after
    ``rounds`` of them no ledger exceeds that many bounds plus the largest
    starting balance.
    """
    try:
        top = rounds * config.round_bound + max(state.money.values(), default=0.0)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(
            f"{rounds} rounds times the most one round moves, plus the largest"
            " starting balance, is not finite"
        )


def post_offers(config: EconomyConfig) -> list[Offer]:
    """Per job, in job_id order, the first two offers in the order buyers take them.

    Every seller is priced against the density of all the job's break-evens.
    Its own atom sits at its break-even, where optimal_prices neither posts
    nor counts a buyer, so the density of the others would give the same
    price. Of the offers with positive profit, the first two by (price,
    seller cost, seller id) are kept: a buyer takes the first offer from
    someone else, which is one of these two.

    Per job, optimal_prices makes one pass over the density's atoms, then
    one argmax per seller over the candidate prices above its break-even.
    """
    players = config.player_ids()
    offers: list[Offer] = []
    for c, jid in enumerate(config.job_ids()):
        costs = config.costs[:, c]
        break_evens = (config.conversion * costs).tolist()
        density = build_price_density(break_evens)
        sols = optimal_prices(break_evens, density, config.price_quantum)
        ranked = [
            (sol.price, cost, pid)
            for pid, cost, sol in zip(players, costs.tolist(), sols)
            if sol.profit > 0
        ]
        offers += [Offer(pid, jid, price) for price, _, pid in heapq.nsmallest(2, ranked)]
    return offers


def execute_round(
    config: EconomyConfig,
    state: MarketState,
    offers: list[Offer],
    record_detail: bool = True,
) -> tuple[MarketState, RoundReport]:
    """Run one simultaneous-buying round against posted offers.

    The round updates the ledgers of ``state`` in place and returns that
    same object with the round's report, so a caller that needs an earlier
    round's ledgers must read them before the next round.

    Pass ``offers`` in the order post_offers returns them: per job, a buyer
    takes the first offer from another player in the order given, buys on a
    strict money improvement, and falls back to self-production otherwise.
    A buyer who cannot afford the purchase self-produces and is flagged.
    The round draws no randomness. With record_detail=False only the
    ledger totals are kept (trade/self-production lists stay empty).
    """
    best_offers: dict[str, list[Offer]] = {}
    for off in offers:
        best_offers.setdefault(off.job, []).append(off)

    state.round += 1
    transfers: list[float] = []
    production_energy: list[float] = []
    system_saved: list[float] = []
    trades: list[TradeRecord] = []
    selfs: list[SelfProduction] = []
    n_trades = 0
    n_forced = 0

    jobs = config.job_ids()
    for buyer, self_costs in zip(config.player_ids(), config.costs.tolist()):
        for jid, self_cost in zip(jobs, self_costs):
            units = config.demand.get((buyer, jid), 0)
            if not units:
                continue
            best = next(
                (o for o in best_offers.get(jid, ()) if o.seller != buyer), None
            )
            # Buy only on a strict improvement; ties self-produce.
            buy = best is not None and best.price < config.conversion * self_cost
            forced = False
            if buy:
                total_price = best.price * units
                if state.money[buyer] < total_price:
                    buy = False
                    forced = True
                    n_forced += 1
            if buy:
                seller_cost = config.cost(best.seller, jid)
                state.money[buyer] -= total_price
                state.money[best.seller] += total_price
                transfers.append(-total_price)
                transfers.append(total_price)
                state.energy_spent[best.seller] += units * seller_cost
                state.energy_saved[buyer] += units * (
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
                state.energy_spent[buyer] += energy
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


def conservation_check(report: RoundReport, config: EconomyConfig) -> bool:
    """Runtime assertion of the conservation ledgers for one round.

    Money transfers must net to exactly zero; energy expended plus energy
    saved must equal the round's autarky energy within 1e-9 relative. When
    trade detail was recorded, each record must also be internally
    consistent (strict buyer improvement, correct saved energy) and the
    recorded detail must reproduce the ledger totals.
    """
    if report.money_delta_total != 0.0:
        return False
    autarky = autarky_energy(config)
    gap = abs(report.energy_expended_total + report.energy_saved_total - autarky)
    if gap > 1e-9 * autarky:
        return False
    if report.trades or report.self_productions:
        for t in report.trades:
            if t.price >= config.conversion * t.buyer_self_cost:
                return False
            if t.system_energy_saved != t.units * (t.buyer_self_cost - t.seller_cost):
                return False
        expended = math.fsum(
            [t.units * t.seller_cost for t in report.trades]
            + [s.energy for s in report.self_productions]
        )
        saved = math.fsum(t.system_energy_saved for t in report.trades)
        if abs(expended - report.energy_expended_total) > 1e-9 * max(autarky, 1.0):
            return False
        if abs(saved - report.energy_saved_total) > 1e-9 * max(autarky, 1.0):
            return False
    return True


def run_market(
    config: EconomyConfig,
    rounds: int,
    initial_money: float = DEFAULT_ENDOWMENT,
    record_detail: bool = True,
) -> tuple[MarketState, list[RoundReport]]:
    """Run the market loop for a number of rounds from a fresh state.

    Raises ValueError when the rounds could overflow a ledger.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    state = MarketState.from_config(config, initial_money)
    check_ledger_bound(config, state, rounds)
    offers = post_offers(config)
    reports: list[RoundReport] = []
    for _ in range(rounds):
        state, report = execute_round(
            config, state, offers=offers, record_detail=record_detail
        )
        reports.append(report)
    return state, reports
