"""Command-line entry point: run a scenario file, optionally verify it.

Exit codes: 0 success, 1 property violation in --check mode, 2 config
problems, 3 runtime capacity errors (reported as a JSON record on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .core import CapacityError, EconomyConfig
from .market import conservation_check, run_market
from .scenario import ConfigError, load_config, parse_mapping, run_scenario, to_mapping


def _check_suite(result: dict, verbose: bool) -> list[str]:
    """Conservation on every simulated round plus the no-trade degeneracies."""
    failures: list[str] = []
    config: EconomyConfig = result["config"]
    for report in result["reports"]:
        if not conservation_check(report, config):
            failures.append(f"conservation violated in round {report.round}")

    # Without a conserved cost, or without comparative advantage, nobody
    # trades. Both variants start every player at the default endowment.
    # A trade in any round means one in the first, as offers never change.
    # No more rounds than the scenario ran keeps their ledgers finite.
    rounds = min(3, len(result["reports"]))
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
    for name, variant in variants.items():
        _, reports = run_market(variant, rounds=rounds, record_detail=False)
        if any(r.n_trades for r in reports):
            failures.append(f"{name} economy executed trades")

    if verbose and not failures:
        print("check: conservation and no-trade properties hold")
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

    try:
        sc = load_config(args.config)
        if args.seed is not None:
            # Back through the rules, so a bad seed fails before any output.
            sc = parse_mapping(to_mapping(sc) | {"master_seed": args.seed}, "--seed")
        result = run_scenario(sc, args.out)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ConfigError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return 2
    except CapacityError as exc:
        json.dump({"error": "capacity", "message": str(exc)}, sys.stderr)
        print(file=sys.stderr)
        return 3

    if args.verbose:
        total_trades = sum(r.n_trades for r in result["reports"])
        print(f"rounds: {sc.rounds}  trades: {total_trades}")
        print(f"autarky energy/round: {result['autarky_energy']:.9f}")
        print(f"optimal assignment energy/round: {result['assignment_energy']:.9f}")
        for name, path in sorted(result["paths"].items()):
            print(f"wrote {name}: {path}")

    if args.check:
        failures = _check_suite(result, args.verbose)
        if failures:
            for f in failures:
                print(f"check failed: {f}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
