"""Command-line entry point: run a scenario file, optionally verify it.

Exit codes: 0 success, 1 property violation in --check mode, 2 config
problems or an output directory that cannot be written, 3 runtime capacity
errors (reported as a JSON record on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .core import CapacityError, EconomyConfig
from .market import RoundReport, conservation_check, run_market
from .scenario import ConfigError, load_config, parse_mapping, run_scenario, to_mapping


def _no_trade_failures(config: EconomyConfig, rounds: int) -> list[str]:
    """The no-trade degeneracies: without a conserved cost, or without
    comparative advantage, nobody trades.

    Both variants start every player at the default endowment. A trade in
    any round means one in the first, as offers never change. No more
    rounds than the scenario ran keeps their ledgers finite.
    """
    players = [replace(p, money=None) for p in config.players]
    shared = config.players[0].efficiencies
    variants = {
        "zero-cost": replace(
            config, players=players, jobs=[replace(j, workload=0.0) for j in config.jobs]
        ),
        "identical-efficiency": replace(
            config, players=[replace(p, efficiencies=shared) for p in players]
        ),
    }
    failures = []
    for name, variant in variants.items():
        _, reports = run_market(variant, rounds=rounds, record_detail=False)
        if any(r.n_trades for r in reports):
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
        sc = load_config(args.config)
        if args.seed is not None:
            # Back through the rules, so a bad seed fails before any output.
            sc = parse_mapping(to_mapping(sc) | {"master_seed": args.seed}, "--seed")
        result = run_scenario(sc, args.out, check if args.check else None)
    except ConfigError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return 2
    except CapacityError as exc:
        json.dump({"error": "capacity", "message": str(exc)}, sys.stderr)
        print(file=sys.stderr)
        return 3
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
        failures += _no_trade_failures(result["config"], min(3, sc.rounds))
        if failures:
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
            return 1
        if args.verbose:
            print("check: conservation and no-trade properties hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
