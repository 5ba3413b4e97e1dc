"""Spans around camsim's public functions, installed from outside the package.

``scenario.py`` and ``cli.py`` bind their imports with ``from .x import y``,
so each function is wrapped at the module attribute its caller looks up,
not where it is defined. A wrapper on the wrong module never fires, and
its metrics would read 0 without any error; bench/test_bench.py checks
that every expected span fires.

A span is ``[name, start, end, parent]``: perf_counter seconds and the
index of the enclosing span (None at the root). Spans stay in memory until
the run ends. A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from camsim.assignment import ENUMERATION_CAP
from camsim.core import break_even_price
from camsim.market import MarketState, execute_round

# (module the caller looks the name up in, attribute, span name)
PATCHES = (
    ("camsim.cli", "load_config", "scenario.load_config"),
    ("camsim.cli", "run_scenario", "scenario.run_scenario"),
    ("camsim.cli", "conservation_check", "market.conservation_check"),
    ("camsim.cli", "run_market", "cli.check_variants"),
    ("camsim.scenario", "build_economy", "scenario.build_economy"),
    ("camsim.scenario", "optimal_assignment", "assignment.optimal_assignment"),
    ("camsim.scenario", "post_offers", "market.post_offers"),
    ("camsim.scenario", "execute_round", "market.execute_round"),
    ("camsim.scenario", "export_csv", "scenario.export_csv"),
    ("camsim.scenario", "simulate_walk", "walk.simulate_walk"),
    ("camsim.scenario", "autarky_energy", "core.autarky_energy"),
    ("camsim.market", "autarky_energy", "core.autarky_energy"),
)

# What each wrapper keeps from its call, given the bound arguments and the
# result. Only objects the program keeps alive anyway, or small values.
OBSERVE = {
    "scenario.load_config": lambda args, result: result,
    "market.post_offers": lambda args, result: (args["config"], result),
    "market.execute_round": lambda args, result: result[1],
    "scenario.export_csv": lambda args, result: (len(args["rows"]), str(result)),
    "walk.simulate_walk": lambda args, result: args["steps"],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if observe:
                bound = signature.bind(*args, **kwargs).arguments
                self.observed[name].append(observe(bound, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every PATCHES entry; a missing attribute is left unwrapped."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times from the spans, and counts from the observed calls."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        round_s = []
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
            if name == "market.execute_round":
                round_s.append(end - start)

        seen = self.observed
        sc = seen["scenario.load_config"][0]
        config, offers = seen["market.post_offers"][0]
        reports = seen["market.execute_round"]
        players = config.player_ids()
        atoms = [
            len({break_even_price(config.cost(p, j), config.conversion) for p in players})
            for j in config.job_ids()
        ]
        demand_cells = sum(1 for units in config.demand.values() if units)
        trades = sum(r.n_trades for r in reports)
        candidates = len(players) ** len(atoms)
        pairs = _trading_pairs(config, offers, sc.initial_money, reports)
        csv_files = seen["scenario.export_csv"]
        return {
            "market.post_offers_s": total["market.post_offers"],
            "pricing.offers_posted": len(offers),
            "pricing.atoms": sum(atoms),
            "pricing.candidate_evals": len(players) * sum(atoms),
            "pricing.offer_win_ratio": len(pairs) / len(offers) if offers else 0.0,
            "market.execute_round_s": total["market.execute_round"],
            "market.round_ms_p50": statistics.median(round_s) * 1e3,
            "market.trades": trades,
            "market.self_productions": demand_cells * len(reports) - trades,
            "market.forced": sum(r.n_forced for r in reports),
            "market.budget_bound_rounds": sum(1 for r in reports if r.n_forced),
            "core.autarky_energy_calls": calls["core.autarky_energy"],
            "core.autarky_energy_s": total["core.autarky_energy"],
            "scenario.load_config_s": total["scenario.load_config"],
            "scenario.build_economy_s": total["scenario.build_economy"],
            "scenario.export_csv_s": total["scenario.export_csv"],
            "scenario.run_scenario_self_s": own["scenario.run_scenario"],
            "scenario.csv_rows": sum(rows for rows, _ in csv_files),
            "scenario.csv_bytes": sum(Path(p).stat().st_size for _, p in csv_files),
            "assignment.optimal_assignment_s": total["assignment.optimal_assignment"],
            "assignment.candidates": float(candidates),
            "assignment.enumerated": int(candidates <= ENUMERATION_CAP),
            "cli.check_s": total["cli.main"]
            - total["scenario.load_config"]
            - total["scenario.run_scenario"],
            "market.conservation_check_s": total["market.conservation_check"],
            "market.conservation_check_calls": calls["market.conservation_check"],
            "cli.check_variants_s": total["cli.check_variants"],
            "walk.simulate_walk_s": total["walk.simulate_walk"],
            "walk.steps": sum(seen["walk.simulate_walk"]),
        }


def _trading_pairs(config, offers, initial_money, reports) -> set[tuple[str, str]]:
    """Distinct (seller, job) pairs that traded in the scenario's rounds.

    Where the run kept no trade detail, the rounds are replayed with detail
    from the same offers and initial money, after the run; the replay must
    reproduce each round's trade and forced counts.
    """
    if any(r.trades for r in reports) or not any(r.n_trades for r in reports):
        return {(t.seller, t.job) for r in reports for t in r.trades}
    pairs = set()
    state = MarketState.from_config(config, initial_money)
    for recorded in reports:
        state, report = execute_round(config, state, offers=offers, record_detail=True)
        if (report.n_trades, report.n_forced) != (recorded.n_trades, recorded.n_forced):
            raise RuntimeError(f"detail replay diverged in round {recorded.round}")
        pairs.update((t.seller, t.job) for t in report.trades)
    return pairs
