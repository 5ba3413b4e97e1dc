"""A scenario's run: its rounds, its walk and its density, written as CSV.

A run is one streaming pass. The per-round outputs (trades, wealth,
savings) are opened once. Each round's trades and savings lines are written
as the round ends, then dropped, and its ledgers, updated in place, are
copied into a block of wealth rows that is written when it fills. A round
that repeats the last round's trades reuses their formatted lines. walk.csv
is simulated in pieces of steps and written in blocks; only density.csv is
built whole.
"""

from __future__ import annotations

import decimal
import hashlib
from collections.abc import Callable, Iterator
from contextlib import ExitStack
from pathlib import Path
from typing import Any

import numpy as np

from .analysis import system_savings_series
from .assignment import optimal_assignment
from .config import ConfigError, ScenarioConfig, build_economy
from .core import EconomyConfig, autarky_energy
from .csvtext import (
    HEADERS,
    _lines,
    _open,
    _Pieces,
    _text_cells,
    _writing,
    export_csv,
)
from .market import (
    MarketState,
    RoundReport,
    TradeRecord,
    check_ledger_bound,
    execute_round,
    post_offers,
)
from .pricing import break_even_atoms
from .walk import check_walk_bound, derive_trace_seed, simulate_walk


# The wealth.csv and walk.csv rows formatted as one block, and the blocks
# of a walk simulated as one piece.
_BLOCK_ROWS = 2048
_PIECE_BLOCKS = 8


def _price_decimals(quantum: float) -> int:
    """Prices print at the price quantum's decimals: 0.01 gives 2."""
    exponent = decimal.Decimal(repr(quantum)).normalize().as_tuple().exponent
    return max(0, -int(exponent))


def _trade_lines(d: int, trades: tuple[TradeRecord, ...]) -> list[str]:
    """One round's trades.csv lines, without the round and the newline."""
    return [
        f"{t.buyer},{t.seller},{t.job},{t.units},{t.price:.{d}f},"
        f"{t.buyer_self_cost:.9f},{t.seller_cost:.9f},{t.system_energy_saved:.9f}"
        for t in trades
    ]


def _savings_line(report: RoundReport) -> str:
    [(rnd, saved, frac)] = system_savings_series([report])
    autarky, expended = report.autarky_energy, report.energy_expended_total
    return f"{rnd},{autarky:.9f},{expended:.9f},{saved:.9f},{frac:.9f}\n"


def _density_lines(config: EconomyConfig, d: int) -> _Pieces:
    """density.csv as one text: each job's atoms, from ``break_even_atoms``."""
    job, prices, masses = break_even_atoms(config.costs, config.conversion)
    ids = _text_cells(config.job_ids())[job]
    text = _lines(job.shape, ids, (prices, d), (masses, 0))
    return _Pieces(job.size, iter([text]))


def _walk_lines(sc: ScenarioConfig) -> _Pieces:
    """walk.csv in blocks of ``_BLOCK_ROWS`` steps. A trace is simulated in
    pieces of ``_PIECE_BLOCKS`` blocks, the last taking any shorter rest, as
    it is written: a trace's pieces draw from one generator, and each starts
    from the last value of the one before, so they are the trace drawn whole."""
    walk = sc.walk
    size = _PIECE_BLOCKS * _BLOCK_ROWS

    def blocks() -> Iterator[str]:
        for i in range(walk.traces):
            trace = _text_cells([str(i)])
            seed = np.random.SeedSequence(derive_trace_seed(sc.master_seed, i))
            rng, last = np.random.default_rng(seed), None
            starts = range(0, max(walk.steps - size, 0) + 1, size)
            for first, end in zip(starts, [*starts[1:], walk.steps]):
                values = simulate_walk(walk.params, end - first, rng, start=last).values
                last = float(values[-1])
                for at in range(0, end - first, _BLOCK_ROWS):
                    block = values[at : at + _BLOCK_ROWS]
                    step = (np.arange(first + at, first + at + block.size), 0)
                    yield _lines(block.shape, trace, step, (block, 9))

    return _Pieces(walk.traces * -(-walk.steps // _BLOCK_ROWS), blocks())


def run_scenario(
    sc: ScenarioConfig,
    out_dir: str | Path,
    observe: Callable[[RoundReport, EconomyConfig], None] | None = None,
) -> dict[str, Any]:
    """Execute a scenario end to end and write every selected output.

    The rounds stream: after each round its lines are appended to the
    trades and savings CSVs, and ``observe(report, config)``, when given,
    sees its report. Each round's ledgers are copied into a block of at
    most ``_BLOCK_ROWS`` wealth rows, whose text is written when the block
    is full and after the last round. No round's state or report outlives
    the round, and only the last distinct trades' lines do, so memory does
    not grow with the number of rounds.

    Returns the paths written (``paths``), the economy (``config``), the
    trades over all rounds (``n_trades``), and the per-round energy of the
    optimal assignment and of autarky. Equal (config, seed) give
    byte-identical outputs. A bad field value, in code as in YAML, raised
    ConfigError when ``sc`` was built. An economy the config cannot
    describe, such as a player without an efficiency for some job, jobs
    without players, or one whose ledgers could overflow a float within
    the rounds, raises ConfigError before any file is written, as does a
    walk whose values could overflow one (``check_walk_bound``).
    """
    try:
        config = build_economy(sc)
        state = MarketState.from_config(config, sc.initial_money)
        check_ledger_bound(config, state, sc.rounds)
        if sc.walk is not None:
            check_walk_bound(sc.walk.params)
        _, assignment_energy = optimal_assignment(config)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    autarky = autarky_energy(config)

    paths = {kind: out_dir / f"{kind}.csv" for kind in HEADERS if kind in sc.outputs}
    offers = post_offers(config)
    d = _price_decimals(sc.price_quantum)
    n_trades = 0
    if "wealth" in paths:
        ids = _text_cells(config.player_ids())
        block = np.empty((min(sc.rounds, max(1, _BLOCK_ROWS // (len(ids) or 1))), 3, len(ids)))
    with ExitStack() as files:
        sinks = {}
        for kind, path in paths.items():
            if kind == "density":
                export_csv(_density_lines(config, d), HEADERS[kind], path)
            elif kind == "walk":
                export_csv(_walk_lines(sc), HEADERS[kind], path)
            else:
                with _writing(path):
                    sinks[kind] = files.enter_context(_open(path, HEADERS[kind]))

        def write(kind: str, text: str) -> None:
            with _writing(paths[kind]):
                sinks[kind].write(text)

        # The trades last formatted, and their lines. A round whose report
        # holds that same tuple repeats its trades (see execute_round). The
        # tuple is held, so `is` cannot match a freed tuple's recycled id.
        last, body = None, []
        for n in range(sc.rounds):
            state, report = execute_round(
                config, state, offers=offers, record_detail="trades" in sinks
            )
            n_trades += report.n_trades
            if observe is not None:
                observe(report, config)
            if "trades" in sinks:
                if report.trades is not last:
                    last, body = report.trades, _trade_lines(d, report.trades)
                r = report.round
                write("trades", f"{r}," + f"\n{r},".join(body) + "\n" if body else "")
            if "wealth" in sinks:
                k = n % len(block) + 1
                block[k - 1] = state.money, state.energy_spent, state.energy_saved
                if k == len(block) or n + 1 == sc.rounds:
                    money, spent, saved = block[:k].transpose(1, 0, 2)
                    first = state.round - k + 1
                    rounds = np.arange(first, first + k)[:, None]
                    fields = (rounds, 0), ids, (money, d), (spent, 9), (saved, 9)
                    write("wealth", _lines((k, len(ids)), *fields))
            if "savings" in sinks:
                write("savings", _savings_line(report))
        for kind, fh in sinks.items():
            with _writing(paths[kind]):
                fh.close()
    return {
        "paths": paths,
        "config": config,
        "n_trades": n_trades,
        "assignment_energy": assignment_energy,
        "autarky_energy": autarky,
    }


def artifact_digests(paths: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of each written artifact, for reproducibility checks."""
    return {
        name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for name, p in sorted(paths.items())
    }
