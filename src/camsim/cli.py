"""Command-line entry point: run a scenario file, optionally verify it.

Exit codes: 0 success, 1 property violation in --check mode, 2 config
problems (a bad --seed included) or an output directory that cannot be
written.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, load_config
from .core import EconomyConfig
from .market import RoundReport, conservation_check, run_market
from .scenario import run_scenario


def _no_trade_failures(config: EconomyConfig) -> list[str]:
    """The no-trade degeneracies: without a conserved cost, or without
    comparative advantage, nobody trades. The claim holds both ways: with
    demand everywhere and budgets that cover the prices, round 1 trades
    exactly when some job's largest break-even less one quantum exceeds its
    smallest, unless that subtraction gives the largest back (see
    ``pricing``). These variants check the one direction on every run.

    Both variants start every player at the default endowment and run one
    round, which decides the rest: a buyer's choice reads only the offers,
    which never change, and its own money, which only a trade moves. So a
    round without a trade leaves the next one the same.
    """
    same = np.broadcast_to(config.efficiencies[0], config.efficiencies.shape)
    variants = {
        "zero-cost": replace(config, workloads=np.zeros_like(config.workloads), money=None),
        "identical-efficiency": replace(config, efficiencies=same, money=None),
    }
    failures = []
    for name, variant in variants.items():
        _, [report] = run_market(variant, rounds=1, record_detail=False)
        if report.n_trades:
            failures.append(f"{name} economy executed trades")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="camsim",
        description="Deterministic comparative-advantage market simulator",
    )
    parser.add_argument("config", help="scenario YAML file")
    parser.add_argument("-o", "--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run conservation and no-trade property suites; exit 1 on violation",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    failures: list[str] = []

    def check(report: RoundReport, config: EconomyConfig) -> None:
        if not conservation_check(report, config):
            failures.append(f"conservation violated in round {report.round}")

    try:
        sc = load_config(args.config, args.seed)
        result = run_scenario(sc, args.out, check if args.check else None)
    except ConfigError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return 2
    except OSError as exc:
        # A missing config file, or an output directory that cannot be written.
        print(str(exc), file=sys.stderr)
        return 2

    if args.verbose:
        print(f"rounds: {sc.rounds}  trades: {result['n_trades']}")
        print(f"autarky energy/round: {result['autarky_energy']:.9f}")
        print(f"optimal assignment energy/round: {result['assignment_energy']:.9f}")
        for name, path in sorted(result["paths"].items()):
            print(f"wrote {name}: {path}")

    if args.check:
        failures += _no_trade_failures(result["config"])
        if failures:
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
            return 1
        if args.verbose:
            print("check: conservation and no-trade properties hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
