"""Deterministic comparative-advantage market simulator.

Players with heterogeneous per-job efficiencies trade the outcomes of
jobs whose execution costs energy, a strictly conserved quantity. The
package provides energy-cost accounting, globally energy-minimizing job
assignment, price-density pricing, a round-based market with zero-sum
ledgers, wealth-distribution analysis, and a mean-reverting model of
noisy price estimation. Checks that only the tests use (assignment net
energy, stationarity and brute force, the price density as validated
atoms, buyer counts scalar and vectorized, density mass and largest atom,
the no-trade witness, pricing by a per-candidate scan, by the whole gains
table and as solution records, every seller's offer, posting from the
whole table, the round as a loop over the cells) live in
``tests/oracles.py``.
"""

from .analysis import (
    efficiency_wealth_correlation,
    gini,
    pareto_tail_fit,
    system_savings_series,
)
from .assignment import optimal_assignment
from .config import ConfigError, ScenarioConfig, WalkParams, load_config
from .core import EconomyConfig, JobSpec, Player, autarky_energy, break_even_price
from .market import (
    MarketState,
    Offer,
    RoundReport,
    TradeRecord,
    conservation_check,
    execute_round,
    post_offers,
    run_market,
)
from .scenario import run_scenario
from .walk import (
    WalkTrace,
    derive_trace_seed,
    simulate_walk,
    stationary_stats,
)

__version__ = "0.1.0"
