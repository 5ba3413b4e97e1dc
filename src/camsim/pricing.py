"""Population price densities, buyer counts, and seller profit maximization.

With a finite population the break-even price distribution is atomic:
point masses at the distinct self-costs. A buyer only trades when the
posted price strictly beats their own cost, so the buyer count at a price
is the total mass strictly above it, and a seller's best posting always
sits one price quantum below some atom. The degenerate all-atoms-at-zero
density makes every positive posting find zero buyers, which is what
kills trade when job execution costs nothing.

A density is two arrays from one ``np.unique``. ``optimal_price_arrays``
tabulates the candidates (each atom less one quantum) and their buyers, then
takes every break-even's first maximum gain in one array pass over a table
of break-evens by candidates, built in row blocks of a fixed number of cells
so its memory stays O(A). Equal break-evens get equal solutions, so
``market.post_offers`` prices each job's A atoms once, O(A²) time, with no
Python per atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class PriceDensity:
    """Point masses at the distinct break-evens: read-only copies of ``prices``
    (float64, strictly increasing, >= 0) and ``masses`` (int64, >= 1)."""

    prices: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        prices = np.array(self.prices, dtype=float)
        masses = np.array(self.masses, dtype=np.int64)
        if prices.ndim != 1 or prices.shape != masses.shape:
            raise ValueError("atom prices and masses must be 1-D and of one length")
        if not (np.diff(prices) > 0).all():
            raise ValueError("atom prices must be strictly increasing")
        if not (prices >= 0).all():
            raise ValueError("atom prices must be >= 0")
        if not (masses >= 1).all():
            raise ValueError("atom masses must be >= 1")
        for name, a in (("prices", prices), ("masses", masses)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def build_price_density(costs: list[float] | np.ndarray) -> PriceDensity:
    """Group break-even prices into atoms, one per distinct price, with its count."""
    costs = np.asarray(costs, dtype=float)
    bad = costs[~(np.isfinite(costs) & (costs >= 0))]
    if bad.size:
        raise ValueError(f"costs must be finite and >= 0, got {bad[0]}")
    return PriceDensity(*np.unique(costs, return_counts=True))


def buyer_count(density: PriceDensity, posted: float) -> int:
    """Players whose self-cost strictly exceeds the posted price."""
    if posted < 0:
        raise ValueError(f"posted price must be >= 0, got {posted}")
    return int(density.masses[density.prices > posted].sum())


# The most cells of the gains table one block of rows holds, so that pricing
# A atoms takes O(A) memory beyond a fixed block, never the whole A x A table.
_BLOCK_CELLS = 2**17


def optimal_price_arrays(
    break_evens: list[float] | np.ndarray, density: PriceDensity, quantum: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each break-even's best posting: arrays of its price, buyers and profit.
    Ties go to the lowest price; with no positive profit, the break-even and 0.

    Row i of the gains table is ``(cands - b_i) * buyers`` over the
    candidates, each atom less one quantum. The table is built in blocks of
    at most ``max(1, _BLOCK_CELLS // A)`` rows, each block's columns starting
    at the first candidate above the block's lowest break-even. A cell at or
    below its row's break-even is clamped to 0 before the multiply, so it
    stays finite (an infinite break-even would make -inf times 0 buyers, NaN)
    and no positive maximum can pick it: each row's first maximum, when it
    is > 0, is the first maximum over the candidates above its break-even.
    """
    if not (quantum > 0 and math.isfinite(quantum)):
        raise ValueError(f"quantum must be finite and > 0, got {quantum}")
    bs = np.asarray(break_evens, dtype=float)
    if not (bs >= 0).all():
        raise ValueError(f"break_even must be >= 0, got {bs[~(bs >= 0)][0]}")
    atoms = density.prices
    # above[i]: the mass of atoms[i:], so the buyers at a price p are
    # above[searchsorted(atoms, p, side="right")].
    above = np.append(np.cumsum(density.masses[::-1])[::-1], 0)
    cands = atoms - quantum  # non-decreasing, as the atoms increase
    buyers = above[np.searchsorted(atoms, cands, side="right")]
    firsts = np.searchsorted(cands, bs, side="right")
    # Where no posting earns a positive profit: the break-even, its buyers, 0.
    price = bs.copy()
    count = above[np.searchsorted(atoms, bs, side="right")]
    profit = np.zeros(bs.size)
    rows = max(1, _BLOCK_CELLS // max(atoms.size, 1))
    for start in range(0, bs.size, rows):
        block = slice(start, start + rows)
        lo = firsts[block].min()
        if lo == atoms.size:
            continue  # no candidate above any break-even in the block
        gains = cands[lo:] - bs[block, None]
        np.maximum(gains, 0.0, out=gains)
        gains *= buyers[lo:]
        j = gains.argmax(axis=1)  # each row's first maximum
        best = gains[np.arange(j.size), j]
        win = np.flatnonzero(best > 0)
        at, j = start + win, lo + j[win]
        price[at], count[at], profit[at] = cands[j], buyers[j], best[win]
    return price, count, profit
