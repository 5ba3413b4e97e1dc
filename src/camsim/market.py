"""Round-based market loop with strict conservation ledgers.

Every player prices every job against the density of the job's break-evens,
and the two offers a buyer can take are posted per job: the first and
second in (price, seller cost, seller id) order. Each round, every
demanding player either buys the first of them not its own or
self-produces. Money transfers are zero-sum by construction and verified
exactly; energy expended plus energy saved must partition the round's
autarky energy.

Offers depend only on efficiencies and workloads, never on balances, so
they are posted once and reused across rounds. A round is decided in
arrays: the offers fix which offer each (player, job) cell would take, and
only the buyers' balances decide whether it can. The ledgers get the float
additions of a loop over the cells, in its order, so they equal that loop's
bit for bit; the loop is kept as the tests' oracle. Most rounds decide as
the one before: such a round is verified in one array pass and pays the
transfers the last round's outcome kept (see ``_RoundPlan.decide``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EconomyConfig, autarky_energy, exact_sum, is_amount, is_count
from .pricing import first_offers

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


@dataclass(eq=False)
class MarketState:
    """Per-player ledgers, which execute_round updates in place.

    Each ledger is a float64 array in ``config.player_ids()`` order, the row
    order of ``config.costs``. The state keeps its last round's plan for a
    next round with the same config object and equal offers. States compare
    by identity; compare their ledgers.
    """

    money: np.ndarray
    energy_spent: np.ndarray
    energy_saved: np.ndarray
    round: int = 0
    _plan: _RoundPlan | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_config(
        cls, config: EconomyConfig, initial_money: float = DEFAULT_ENDOWMENT
    ) -> "MarketState":
        """A fresh state; players without money start with ``initial_money``."""
        if not is_amount(initial_money):
            raise ValueError("initial money must be finite and >= 0")
        starts = [initial_money if m is None else m for m in config.starting_money]
        money = np.array(starts, dtype=float) + 0.0  # -0.0 starts as 0.0
        return cls(money, np.zeros_like(money), np.zeros_like(money))


def check_ledger_bound(config: EconomyConfig, state: MarketState, rounds: int) -> None:
    """Raise ValueError if ``rounds`` rounds from ``state`` could overflow a ledger.

    One round moves at most ``config.round_bound`` into any ledger, so after
    ``rounds`` of them no ledger exceeds that many bounds plus the largest
    starting balance.
    """
    try:
        top = rounds * config.round_bound + float(state.money.max(initial=0.0))
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValueError(
            f"{rounds} rounds times the most one round moves, plus the largest"
            " starting balance, is not finite"
        )


def post_offers(config: EconomyConfig) -> list[Offer]:
    """Per job, in job_id order, the first two offers in the order buyers take them.

    Every seller is priced against the density of all the job's break-evens,
    ``config.conversion * config.costs``, the atoms ``density.csv`` prints.
    Its own atom sits at its break-even, where pricing neither posts nor
    counts a buyer, so the density of the others would give the same price.
    Of the offers with positive profit, the first two by (price, seller
    cost, seller id) are kept: a buyer takes the first offer from someone
    else, which is one of these two. ``pricing.first_offers`` finds them
    from each job's sorted break-evens, pricing them cheapest first in
    batches of 1, 1, 2, 4, ... until no dearer seller can rank first or
    second; the rows run in sorted-id order, so the row is the id
    tie-break.
    """
    players, jobs = config.player_ids(), config.job_ids()
    cols, rows, prices = first_offers(config.costs, config.conversion, config.price_quantum)
    return [
        Offer(players[r], jobs[c], p)
        for c, r, p in zip(cols.tolist(), rows.tolist(), prices.tolist())
    ]


_NO_DETAIL = {"trades": (), "self_productions": ()}


@dataclass(frozen=True)
class _Outcome:
    """What one round's decisions fix, besides the transfers.

    ``spent`` and ``saved`` are the (players, amounts) to add to those
    ledgers, in cell order; ``counts`` and ``detail`` are RoundReport fields.
    ``repeat``, when every seller afforded all its wanted cells, is what
    ``_RoundPlan.decide`` needs to verify and pay a round that decides the
    same: the bought cells, each cell's paid total (0.0 where not bought),
    and the players and amounts of the round's transfers.
    """

    decisions: bytes
    spent: tuple[np.ndarray, np.ndarray]
    saved: tuple[np.ndarray, np.ndarray]
    counts: dict[str, int | float]
    detail: dict[str, tuple] | None = None
    repeat: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None


class _RoundPlan:
    """What every round against one list of offers shares, cell by cell.

    The cells are the config's players x jobs, in the cost table's order.
    A cell's offer is the first offer for its job or, in the row of that
    offer's own seller, the first offer from someone else; ``seller`` is
    the offer's row, -1 without one. A cell ``wants`` to buy when it has
    demand and an offer priced strictly below the buyer's break-even, and
    then costs it ``total``, the price times its units. Every amount is the
    expression the per-cell loop evaluates for the cell.
    """

    def __init__(self, config: EconomyConfig, offers: tuple[Offer, ...]):
        self.config, self.offers = config, offers
        row = config._row  # the config's own map: read it, never change it
        costs, units = config.costs, config.units
        listed: dict[str, list[Offer]] = {}
        for off in offers:
            listed.setdefault(off.job, []).append(off)
        self.seller = np.full(costs.shape, -1)
        self.price = np.zeros(costs.shape)
        for c, jid in enumerate(config.job_ids()):
            if jid not in listed:
                continue
            first = listed[jid][0]
            own = row[first.seller]
            self.seller[:, c], self.price[:, c] = own, first.price
            other = next((o for o in listed[jid] if o.seller != first.seller), None)
            if other is not None:
                self.seller[own, c], self.price[own, c] = row[other.seller], other.price
            else:
                self.seller[own, c] = -1
        below = self.price < config.conversion * costs
        self.wants = (self.seller >= 0) & (units > 0) & below
        self.total = np.zeros_like(units)
        np.multiply(self.price, units, out=self.total, where=self.wants)
        # The rows that can earn in a round, at most two per job. Offers
        # priced below zero make earnings negative; then every seller is
        # decided in row order (see decide).
        self.sellers = np.flatnonzero(np.bincount(self.seller[self.wants]))
        self.earn_only = not (self.total < 0).any()
        self.last: _Outcome | None = None

    def decide(self, money: np.ndarray) -> np.ndarray:
        """The cells that buy, given each player's balance as the round starts.

        Adds the round's transfers to ``money`` as the per-cell loop does:
        per bought cell in cell order, the buyer's ``-total``, then the
        seller's ``+total``. ``np.add.at`` applies repeated indices one at a
        time in the order given, so each balance receives the loop's
        additions in the loop's order, and ends bit for bit equal.

        A buyer can afford a cell if its balance at that moment is not below
        the cell's total. A player nobody buys from earns nothing in the
        round, so that balance is its start balance minus its own purchases
        in job order, whatever the order of the rows; all players are first
        decided that way together, one job column at a time. A seller's
        balance also holds what the rows before its own paid it. When no
        price is negative, that only raises it, and rounding to nearest is
        monotone, so a larger balance stays at least as large after each
        purchase: a seller that afforded every purchase from its start
        balance affords them all. The other sellers (there are at most two
        per job) are decided again, one at a time in row order, each once
        the transfers of every earlier row are in ``money``.

        A round that decides as the one before is verified in one pass. When
        the last outcome kept its ``repeat`` (no price is negative and no
        seller was short), every row's balance before each column is taken
        under the guess B, the last bought cells: one ``np.subtract.accumulate``
        over the jobs, from the start balance, of the kept totals, ``total``
        where B buys and 0.0 elsewhere. Subtracting 0.0 leaves any float as
        it is, so each step is the column pass's ``left - total`` where B
        buys and ``left`` where it does not. If ``wants & ~(left < total)``
        equals B in every cell, then by induction over the columns the
        column pass gives B: column 0 reads the start balance, and if the
        columns before c gave B, column c reads the balance the guess gave,
        so it gives B too. B left no seller short, so no row is decided
        again, and the round's one remaining step is ``_transfer`` of every
        row, whose players and amounts the outcome kept. Otherwise the round
        is decided as above.
        """
        wants, total = self.wants, self.total
        repeat = self.last and self.last.repeat
        if repeat:
            bought, kept, at, amounts = repeat
            left = np.subtract.accumulate(np.concatenate((money[None], kept)))[:-1].T
            if not ((wants & ~(left < total)) != bought).any():
                np.add.at(money, at, amounts)
                return bought
        buy = np.zeros_like(wants)
        left = money
        for c in range(wants.shape[1]):
            buy[:, c] = wants[:, c] & ~(left < total[:, c])
            left = np.where(buy[:, c], left - total[:, c], left)
        short = self.sellers
        if self.earn_only:
            short = short[(wants[short] & ~buy[short]).any(axis=1)]
        done = 0
        for r in short.tolist():
            self._transfer(buy, money, done, r)
            done, left = r, money[r]
            for c in np.flatnonzero(wants[r]).tolist():
                buy[r, c] = not left < total[r, c]
                if buy[r, c]:
                    left = left - total[r, c]
        self._transfer(buy, money, done, len(buy))
        return buy

    def _transfer(self, buy: np.ndarray, money: np.ndarray, lo: int, hi: int) -> None:
        """Pay for the bought cells of rows lo to hi, in cell order."""
        np.add.at(money, *self._payments(buy, lo, hi))

    def _payments(self, buy: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The players and amounts of ``_transfer(buy, money, lo, hi)``, in order."""
        cells = np.flatnonzero(buy[lo:hi]) + lo * buy.shape[1]
        paid = self.total.ravel()[cells]
        at = np.empty(2 * len(cells), dtype=cells.dtype)
        amounts = np.empty(2 * len(cells))
        at[0::2], at[1::2] = cells // buy.shape[1], self.seller.ravel()[cells]
        amounts[0::2], amounts[1::2] = -paid, paid
        return at, amounts

    def outcome(self, buy: np.ndarray, record_detail: bool):
        """What the decisions ``buy`` fix, besides the transfers.

        The last decisions' outcome is kept, so a round that decides as the
        one before reuses it, its records included: no record carries a
        round number. So a ``trades`` tuple that is the last round's object
        holds the same trades, and a new one means the decisions changed.
        """
        last = self.last
        if (
            last is None
            or last.decisions != buy.tobytes()
            or (record_detail and last.detail is None)
        ):
            last = self.last = self._outcome(buy, record_detail)
        return last

    def _outcome(self, buy: np.ndarray, record_detail: bool) -> _Outcome:
        config, n_jobs = self.config, buy.shape[1]
        costs, units = config.costs.ravel(), config.units.ravel()
        demanded = np.flatnonzero(units > 0)
        b = buy.ravel()[demanded]
        bought, made = demanded[b], demanded[~b]
        seller, price = self.seller.ravel()[bought], self.price.ravel()[bought]
        paid, own_cost = self.total.ravel()[bought], costs[bought]
        seller_cost = config.costs[seller, bought % n_jobs]
        buyer_saved = units[bought] * (own_cost - price / config.conversion)
        system_saved = units[bought] * (own_cost - seller_cost)
        # Each demanded cell adds to one player's energy_spent: the seller's
        # when it buys, the buyer's own when it self-produces.
        spent_at, spent = np.empty(len(b), dtype=bought.dtype), np.empty(len(b))
        spent_at[b], spent_at[~b] = seller, made // n_jobs
        spent[b], spent[~b] = units[bought] * seller_cost, units[made] * costs[made]
        detail = None
        if record_detail:
            ids, jobs = config.player_ids(), config.job_ids()

            def cells(at: np.ndarray) -> list[tuple[str, str, int]]:
                """(player id, job id, units) of each cell in ``at``."""
                rows, cols = (a.tolist() for a in np.divmod(at, n_jobs))
                return [
                    (ids[r], jobs[c], config.demand[ids[r], jobs[c]])
                    for r, c in zip(rows, cols)
                ]

            amounts = (seller, price, own_cost, seller_cost, system_saved)
            trades = zip(cells(bought), *(a.tolist() for a in amounts))
            forced = self.wants.ravel()[made].tolist()
            selfs = zip(cells(made), spent[~b].tolist(), forced)
            detail = {
                "trades": tuple(
                    TradeRecord(buyer, ids[s], job, n, *rest)
                    for (buyer, job, n), s, *rest in trades
                ),
                "self_productions": tuple(
                    SelfProduction(player, job, n, energy, forced=f)
                    for (player, job, n), energy, f in selfs
                ),
            }
        repeat = None
        if self.earn_only and not (self.wants[self.sellers] & ~buy[self.sellers]).any():
            kept = np.where(buy, self.total, 0.0).T.copy()  # jobs x players
            repeat = (buy, kept, *self._payments(buy, 0, len(buy)))
        return _Outcome(
            decisions=buy.tobytes(),
            spent=(spent_at, spent),
            saved=(bought // n_jobs, buyer_saved),
            counts={
                "n_trades": len(bought),
                "n_forced": int(np.count_nonzero(self.wants & ~buy)),
                "money_delta_total": exact_sum(np.concatenate((-paid, paid))),
                "energy_expended_total": exact_sum(spent),
                "energy_saved_total": exact_sum(system_saved),
            },
            detail=detail,
            repeat=repeat,
        )


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

    The round is decided in arrays (see ``_RoundPlan.decide``) and gives
    the ledgers, records and totals of a loop over the cells, buyer by
    buyer and job by job, bit for bit; that loop is the tests' oracle. The
    plan is kept on ``state`` and built again when the config or the offers
    differ from its last round's. A round that decides as the one before
    reports the very ``trades`` and ``self_productions`` tuples it reported,
    so a reused tuple means the same records, and a new one means the
    decisions changed.
    """
    key = tuple(offers)
    plan = state._plan
    if plan is None or plan.config is not config or plan.offers != key:
        plan = state._plan = _RoundPlan(config, key)
    buy = plan.decide(state.money)
    outcome = plan.outcome(buy, record_detail)
    # Each energy ledger gets its additions in cell order, as in the loop.
    np.add.at(state.energy_spent, *outcome.spent)
    np.add.at(state.energy_saved, *outcome.saved)
    state.round += 1
    report = RoundReport(
        round=state.round,
        **(outcome.detail if record_detail else _NO_DETAIL),
        **outcome.counts,
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

    The per-record checks and sums read only the records and the config, so
    records that are the same tuples as the last to pass under this config
    object are not checked again; their sums still meet each round's
    totals. The config keeps those tuples and their sums: the objects are
    held, so `is` cannot match a freed tuple's recycled id.
    """
    if report.money_delta_total != 0.0:
        return False
    autarky = autarky_energy(config)
    gap = abs(report.energy_expended_total + report.energy_saved_total - autarky)
    if gap > 1e-9 * autarky:
        return False
    trades, selfs = report.trades, report.self_productions
    if trades or selfs:
        last_trades, last_selfs, expended, saved = config._passed or (None, None, 0.0, 0.0)
        if not (trades is last_trades and selfs is last_selfs):
            for t in trades:
                if t.price >= config.conversion * t.buyer_self_cost:
                    return False
                if t.system_energy_saved != t.units * (t.buyer_self_cost - t.seller_cost):
                    return False
            expended = math.fsum(
                [t.units * t.seller_cost for t in trades] + [s.energy for s in selfs]
            )
            saved = math.fsum(t.system_energy_saved for t in trades)
            config._passed = (trades, selfs, expended, saved)
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

    Raises ValueError when ``rounds`` is not an integer >= 1, the endowment
    is not finite and >= 0, or the rounds could overflow a ledger.
    """
    if not is_count(rounds, 1):
        raise ValueError("rounds must be an integer >= 1")
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
