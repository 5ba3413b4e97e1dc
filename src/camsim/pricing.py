"""Population price densities, buyer counts, and seller profit maximization.

With a finite population the break-even price distribution is atomic:
point masses at the distinct self-costs. A buyer only trades when the
posted price strictly beats their own cost, so the buyer count at a price
is the total mass strictly above it, and a seller's best posting always
sits one price quantum below some atom. The degenerate all-atoms-at-zero
density makes every positive posting find zero buyers, which is what
kills trade when job execution costs nothing.

The candidates (each atom less one quantum) and their buyer counts depend
only on the density, so ``optimal_prices`` tabulates them in one pass over
the A atoms and then prices each seller with one argmax over the
candidates above its break-even: O(A) per seller, O(N·A) per job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PriceDensity:
    """Sorted point masses at the population's break-even prices."""

    atoms: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        prev = -math.inf
        for price, mass in self.atoms:
            if price <= prev:
                raise ValueError("atom prices must be strictly increasing")
            if price < 0:
                raise ValueError("atom prices must be >= 0")
            if mass < 1:
                raise ValueError("atom masses must be >= 1")
            prev = price


@dataclass(frozen=True)
class PriceSolution:
    """A posted price with its realized buyer count and profit."""

    price: float
    buyers: int
    profit: float


def build_price_density(costs: list[float]) -> PriceDensity:
    """Group break-even prices into atoms, one per distinct price, with its count."""
    for c in costs:
        if c < 0 or not math.isfinite(c):
            raise ValueError(f"costs must be finite and >= 0, got {c}")
    counts: dict[float, int] = {}
    for c in costs:
        counts[c] = counts.get(c, 0) + 1
    return PriceDensity(tuple(sorted(counts.items())))


def buyer_count(density: PriceDensity, posted: float) -> int:
    """Players whose self-cost strictly exceeds the posted price."""
    if posted < 0:
        raise ValueError(f"posted price must be >= 0, got {posted}")
    return sum(mass for price, mass in density.atoms if price > posted)


def optimal_prices(
    break_evens: list[float], density: PriceDensity, quantum: float
) -> list[PriceSolution]:
    """Profit-maximizing posting over quantized prices, for each break-even.

    Because buying requires a strict improvement and the density is atomic,
    the profit maximum over the quantized grid is always attained one
    quantum below some atom (or nowhere). Ties go to the lowest price;
    when no posting earns a positive profit, the break-even itself is
    returned with profit 0.
    """
    if not (quantum > 0 and math.isfinite(quantum)):
        raise ValueError(f"quantum must be finite and > 0, got {quantum}")
    for b in break_evens:
        if not b >= 0:
            raise ValueError(f"break_even must be >= 0, got {b}")
    atoms = np.array([price for price, _ in density.atoms], dtype=float)
    masses = np.array([mass for _, mass in density.atoms], dtype=np.int64)
    # above[i]: the mass of atoms[i:], so the buyers at a price p are
    # above[searchsorted(atoms, p, side="right")].
    above = np.append(np.cumsum(masses[::-1])[::-1], 0)
    cands = atoms - quantum  # non-decreasing, as the atoms increase
    buyers = above[np.searchsorted(atoms, cands, side="right")]
    firsts = np.searchsorted(cands, break_evens, side="right").tolist()
    at_break_even = above[np.searchsorted(atoms, break_evens, side="right")].tolist()
    out = []
    for b, k, n in zip(break_evens, firsts, at_break_even):
        gains = (cands[k:] - b) * buyers[k:]
        i = int(gains.argmax()) if gains.size else -1  # first maximum
        if i >= 0 and gains[i] > 0:
            j = k + i
            out.append(PriceSolution(float(cands[j]), int(buyers[j]), float(gains[i])))
        else:
            out.append(PriceSolution(b, n, 0.0))
    return out


def optimal_price(
    break_even: float, density: PriceDensity, quantum: float
) -> PriceSolution:
    """``optimal_prices`` for one seller."""
    return optimal_prices([break_even], density, quantum)[0]
