"""Noisy price estimation as a mean-reverting random walk.

Players do not know true prices; each carries a Gaussian-noised estimate
that drifts back toward the true value over time:

    x[t+1] = (1 - eta) * x[t] + eta * true_price + sigma * z[t]

For 0 < eta < 2 the recursion is stable with stationary mean equal to the
true price and stationary variance sigma^2 / (eta * (2 - eta)), which
serves as the closed-form oracle for simulated traces. Estimates are
prices, so negative values are clamped to zero and counted; stationary
statistics are only trusted when sigma is small against the true price
and clamping is vanishingly rare.

``simulate_walk`` generates a trace, ``stationary_stats`` gives the
closed-form moments, and ``derive_trace_seed`` spawns each trace's seed
from the scenario's master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WalkParams:
    true_price: float
    eta: float
    sigma: float

    def __post_init__(self) -> None:
        if not (0 < self.eta < 2):
            raise ValueError(f"eta must be in (0, 2), got {self.eta}")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.true_price < 0 or not math.isfinite(self.true_price):
            raise ValueError(f"true_price must be finite and >= 0, got {self.true_price}")


@dataclass(frozen=True)
class WalkTrace:
    values: np.ndarray
    seed: int
    clamped: int


def simulate_walk(
    params: WalkParams, steps: int, seed: int, start: float | None = None
) -> WalkTrace:
    """Generate a reproducible trace of ``steps`` values after ``start``.

    Steps the recursion one value at a time, clamping and counting each
    negative estimate.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    current = params.true_price if start is None else start
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = params.sigma * rng.standard_normal(steps)
    drive = params.eta * params.true_price + noise
    decay = 1.0 - params.eta
    values = []
    clamped = 0
    for d in drive.tolist():
        current = decay * current + d
        if current < 0:
            current = 0.0
            clamped += 1
        values.append(current)
    return WalkTrace(values=np.array(values), seed=seed, clamped=clamped)


def stationary_stats(params: WalkParams) -> tuple[float, float]:
    """Exact stationary mean and variance of the unclamped recursion."""
    variance = params.sigma**2 / (params.eta * (2.0 - params.eta))
    return params.true_price, variance


def derive_trace_seed(master_seed: int, trace_index: int) -> int:
    """Deterministic per-trace seed from a master seed and trace index."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(2, trace_index))
    return int(ss.generate_state(1)[0])
