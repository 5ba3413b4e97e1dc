"""Walkthrough of a tiny three-player, two-job economy.

P1 is twice as efficient at job x, P2 twice as efficient at job y, and P3
is average at both. Run it and watch the specialists undercut P3, sell to
everyone, and pocket the spread while total system energy drops below
what autarky would cost.

    python3 demos/three_player_economy.py
"""

from camsim import (
    EconomyConfig,
    JobSpec,
    Player,
    autarky_energy,
    break_even_price,
    optimal_assignment,
    post_offers,
    run_market,
)

jobs = [JobSpec("x", 10.0), JobSpec("y", 10.0)]
players = [
    Player("P1", {"x": 2.0, "y": 1.0}),
    Player("P2", {"x": 1.0, "y": 2.0}),
    Player("P3", {"x": 1.0, "y": 1.0}),
]
config = EconomyConfig.of(
    players=players,
    jobs=jobs,
    demand={(p.player_id, j.job_id): 1 for p in players for j in jobs},
    price_quantum=1.0,
)

print("Energy cost of each job (workload / efficiency):")
for pid in config.player_ids():
    costs = {jid: config.cost(pid, jid) for jid in config.job_ids()}
    print(f"  {pid}: {costs}")
print(f"Autarky energy (everyone self-produces): {autarky_energy(config):.1f}")

producer_of, energy = optimal_assignment(config)
print(f"\nEnergy-minimizing producer per job: {producer_of} "
      f"(total {energy:.1f})")

print("\nHow P1 prices job x against the other break-evens:")
others = [break_even_price(config.cost(p, "x"), config.conversion) for p in ("P2", "P3")]
be = break_even_price(config.cost("P1", "x"), config.conversion)
[price] = [o.price for o in post_offers(config) if o.seller == "P1" and o.job == "x"]
buyers = sum(b > price for b in others)  # buyers need a strictly lower price
print(f"  competitor break-evens: {others}, posted price {price:.0f}, "
      f"{buyers} buyers, profit {(price - be) * buyers:.0f}")

state, reports = run_market(config, rounds=5, initial_money=100.0)
last = reports[-1]
print(f"\nAfter 5 rounds ({last.n_trades} trades/round):")
# The ledgers are arrays in player_ids() order.
for pid, money, spent in zip(config.player_ids(), state.money, state.energy_spent):
    print(f"  {pid}: money {money:8.1f}  energy spent {spent:6.1f}")
print(f"Round energy expended {last.energy_expended_total:.1f} + saved "
      f"{last.energy_saved_total:.1f} = autarky {last.autarky_energy:.1f}")
