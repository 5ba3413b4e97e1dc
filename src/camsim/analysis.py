"""Distributional statistics of simulated wealth and energy savings.

Wealth concentration is reported through the Gini coefficient and a Hill
tail-exponent estimate; the link between being relatively efficient and
ending up wealthy is measured by a Spearman rank correlation between each
player's best cost margin over the population and their final money.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CapacityError, EconomyConfig
from .market import RoundReport


def gini(wealths: list[float]) -> float:
    """Population Gini coefficient: sum((2i - n - 1) x_i) / (n sum(x))."""
    x = np.sort(np.asarray(wealths, dtype=float))
    if (x < 0).any():
        raise ValueError("wealths must be >= 0")
    total = x.sum()
    if total <= 0:
        raise ValueError("gini undefined for an all-zero wealth vector")
    n = len(x)
    i = np.arange(1, n + 1)
    return float(((2 * i - n - 1) * x).sum() / (n * total))


def pareto_tail_fit(wealths: list[float], tail_fraction: float) -> float:
    """Hill estimator over the top tail_fraction of the sample.

    alpha = k / sum(ln(x_i / x_min_tail)) over the k largest values.
    """
    if not (0 < tail_fraction <= 1):
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    x = np.sort(np.asarray(wealths, dtype=float))[::-1]
    k = int(len(x) * tail_fraction)
    if k < 10:
        raise CapacityError(f"tail holds {k} samples; need at least 10")
    tail = x[:k]
    if tail[-1] <= 0:
        raise ValueError("tail contains nonpositive values")
    log_sum = float(np.log(tail / tail[-1]).sum())
    if log_sum == 0.0:
        raise ValueError("constant-value tail; Hill estimator diverges")
    return k / log_sum


def best_margins(config: EconomyConfig) -> dict[str, float]:
    """Each player's best cost edge: max over jobs of mean population cost
    for the job minus the player's own cost.

    Each job's mean is the exact ``math.fsum`` of its cost column over the
    number of players; the edges are one array expression over the table.
    """
    costs = config.costs
    means = np.array([math.fsum(column) / len(costs) for column in costs.T])
    return dict(zip(config.player_ids(), (means - costs).max(axis=1).tolist()))


def _ranks(x: list[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, tie_group, sizes = np.unique(x, return_inverse=True, return_counts=True)
    last = np.cumsum(sizes)
    return (last - (sizes - 1) / 2)[tie_group]


def efficiency_wealth_correlation(
    wealth: dict[str, float], config: EconomyConfig
) -> float:
    """Spearman rank correlation between best margin and wealth (money by
    player id): the Pearson correlation of their ranks."""
    players = config.player_ids()
    if len(players) < 3:
        raise CapacityError("need at least 3 players for a rank correlation")
    margins = best_margins(config)
    m = [margins[pid] for pid in players]
    w = [wealth[pid] for pid in players]
    if len(set(m)) == 1:
        raise ValueError("all margins identical; efficiency ranks undefined")
    a, b = (_ranks(x) for x in (m, w))
    a -= a.mean()
    b -= b.mean()
    scale = math.sqrt(float(a @ a) * float(b @ b))
    if scale == 0.0:
        raise ValueError("all wealths identical; wealth ranks undefined")
    return float(a @ b) / scale


def system_savings_series(
    reports: list[RoundReport],
) -> list[tuple[int, float, float]]:
    """Per round: (round, autarky - expended, saved fraction of autarky)."""
    if not reports:
        raise ValueError("need at least one round report")
    out = []
    for rep in reports:
        saved = rep.autarky_energy - rep.energy_expended_total
        frac = saved / rep.autarky_energy if rep.autarky_energy > 0 else 0.0
        out.append((rep.round, saved, frac))
    return out
