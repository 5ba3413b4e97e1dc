"""Wealth concentration in a large heterogeneous economy.

A hundred players with uniformly random efficiencies trade twenty jobs
for five hundred rounds. A handful of efficient specialists capture every
sale, so earnings concentrate in under a fifth of the population even
though every single trade makes its buyer strictly better off.

    python3 demos/wealth_distribution.py
"""

import numpy as np

from camsim import (
    EconomyConfig,
    JobSpec,
    Player,
    efficiency_wealth_correlation,
    gini,
    pareto_tail_fit,
    run_market,
    system_savings_series,
)

rng = np.random.default_rng(20)
jobs = [JobSpec(f"j{k:02d}", float(rng.uniform(1, 20))) for k in range(20)]
players = [
    Player(f"p{i:03d}", {j.job_id: float(rng.uniform(0.5, 2.0)) for j in jobs})
    for i in range(100)
]
config = EconomyConfig(
    players=players,
    jobs=jobs,
    demand={(p.player_id, j.job_id): 1 for p in players for j in jobs},
)

state, reports = run_market(config, rounds=500, record_detail=False)

# Wealth relative to the poorest player, so Gini works on nonnegative values.
base = min(state.money.values())
wealth = np.array([state.money[p] - base for p in config.player_ids()])
print(f"Trades per round: {reports[-1].n_trades}")
print(f"Gini of earned wealth: {gini(wealth.tolist()):.3f}")
earners = sum(m > 1e9 for m in state.money.values())
print(f"Players with any earnings: {earners} of 100")

rho = efficiency_wealth_correlation(state.money, config)
print(f"Spearman best-margin vs wealth: {rho:.3f}")

top = sorted(state.money.items(), key=lambda kv: -kv[1])[:5]
print("Top earners:", ", ".join(f"{p} (+{m - 1e9:,.0f})" for p, m in top))

_, saved, frac = system_savings_series(reports)[-1]
print(f"System energy saved per round: {saved:.1f} "
      f"of autarky {reports[-1].autarky_energy:.1f} ({frac:.0%})")

# The Hill estimator recovers a known Pareto tail from synthetic samples.
samples = (1.0 + rng.pareto(2.0, 10_000)).tolist()
print(f"Hill exponent on synthetic Pareto(2.0) tail: "
      f"{pareto_tail_fit(samples, 0.2):.2f}")
