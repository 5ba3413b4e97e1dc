"""Deterministic comparative-advantage market simulator.

Players with heterogeneous per-job efficiencies trade the outcomes of
jobs whose execution costs energy, a strictly conserved quantity. The
package provides energy-cost accounting, globally energy-minimizing job
assignment, price-density pricing, a round-based market with zero-sum
ledgers, wealth-distribution analysis, and a mean-reverting model of
noisy price estimation. Checks that only the tests use (assignment net
energy, stationarity and brute force, vectorized buyer counts, density
mass and largest atom, the no-trade witness, pricing by a per-candidate
scan and as solution records, every seller's offer, the round as a loop
over the cells) live in ``tests/oracles.py``.
"""

from .analysis import (
    efficiency_wealth_correlation,
    gini,
    pareto_tail_fit,
    system_savings_series,
)
from .assignment import optimal_assignment
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
from .pricing import (
    PriceDensity,
    build_price_density,
    buyer_count,
    optimal_price_arrays,
)
from .scenario import ConfigError, ScenarioConfig, load_config, run_scenario
from .walk import (
    WalkParams,
    WalkTrace,
    derive_trace_seed,
    simulate_walk,
    stationary_stats,
)

__version__ = "0.1.0"
