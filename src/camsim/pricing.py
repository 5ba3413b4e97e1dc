"""Population price densities, buyer counts, and seller profit maximization.

With a finite population the break-even price distribution is atomic:
point masses at the distinct self-costs. A buyer only trades when the
posted price strictly beats their own cost, so the buyer count at a price
is the total mass strictly above it, and a seller's best posting always
sits one price quantum below some atom. The degenerate all-atoms-at-zero
density makes every positive posting find zero buyers, which is what
kills trade when job execution costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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

    @property
    def p_max(self) -> float:
        """Largest break-even in the population; 0 for an empty density."""
        return self.atoms[-1][0] if self.atoms else 0.0


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


def optimal_price(
    break_even: float, density: PriceDensity, quantum: float
) -> PriceSolution:
    """Profit-maximizing posting over quantized prices.

    Because buying requires a strict improvement and the density is atomic,
    the profit maximum over the quantized grid is always attained one
    quantum below some atom (or nowhere). Ties go to the lowest price;
    when no posting earns a positive profit, the break-even itself is
    returned with profit 0.
    """
    if not (quantum > 0 and math.isfinite(quantum)):
        raise ValueError(f"quantum must be finite and > 0, got {quantum}")
    if break_even < 0:
        raise ValueError(f"break_even must be >= 0, got {break_even}")
    best: PriceSolution | None = None
    for atom_price, _ in density.atoms:
        cand = atom_price - quantum
        if cand <= break_even:
            continue
        buyers = buyer_count(density, cand)
        gain = (cand - break_even) * buyers
        if best is None or gain > best.profit:
            best = PriceSolution(cand, buyers, gain)
    if best is None or best.profit <= 0:
        return PriceSolution(break_even, buyer_count(density, break_even), 0.0)
    return best
