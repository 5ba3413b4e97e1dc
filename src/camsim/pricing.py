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
so its memory stays O(A), in O(A²) time. ``first_offers`` posts each job's
first two offers without that table: it sorts the job's N break-evens once
and prices its atoms cheapest first, one O(N) pass each, until a
certificate shows that no dearer seller can rank first or second. Two
atoms usually suffice; a job still open after ``_MAX_STEPS`` atoms falls
back to ``optimal_price_arrays``.
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


# A priced row certifies a floor when its best gain G beats every gain at a
# lower candidate by more than _SLACK·G (the bound is in first_offers); a
# job still open after _MAX_STEPS atoms is priced from the whole table.
_SLACK = 16 * 2.0**-53
_MAX_STEPS = 8
_TINY = 2.0**-1022  # the smallest normal float


def first_offers(
    costs: np.ndarray, conversion: float, quantum: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each job's first two sellers with positive profit, by (price, cost, row).

    ``costs`` is the players x jobs table, a seller's break-even is
    ``conversion * cost``, and its price is ``optimal_price_arrays``'
    solution against the density of its job's break-evens. Returns the
    sellers' job columns, rows and prices, by job and then rank.

    Each job's break-evens are sorted once. Its atoms are then priced
    cheapest first, one atom of every open job per step, each in one pass
    over all the candidates with the float expressions of
    ``optimal_price_arrays`` (gain ``max(cand - b, 0) * buyers``, first
    maximum), so a priced atom gets the same price bit for bit. A job stops
    when one of these holds:
    - The second of its priced sellers, ranked by price with one seller per
      unit of mass, posts at or below the floor of a certified row. Every
      dearer seller posts at or above that floor and costs more, so it
      ranks after both.
    - An atom b earns nothing, so no candidate above b has a buyer. Every
      candidate above a dearer b' is above b, and the clamp and the sign of
      a float difference are exact, so no dearer atom earns anything.
    - Every atom is priced.
    A job still open after ``_MAX_STEPS`` atoms is priced whole by
    ``optimal_price_arrays``.

    The floor. Row b's gain at candidate k is g(k, b) = (c_k - b)·n_k. The
    float candidates c_k do not decrease with k and the buyers n_k do not
    increase, so g has increasing differences in (k, b) where c_k > b, and
    by Topkis's monotonicity theorem no dearer row's best candidate lies
    below b's. In floats, with u = 2**-53: each finite computed gain is
    g·(1 + θ) with |θ| ≤ ε = 2u + u² (a subnormal difference or product is
    exact), and computed gains do not increase with b. Let row b's first
    maximum G be at k0 and M be its largest gain below k0, and let
    M < fl(G·(1 - _SLACK)) with that product normal and finite, so that
    M < G·(1 - s) with s = _SLACK - u + _SLACK·u. Suppose a dearer row b'
    earns H > 0 at its first maximum k', with c_k' < c_k0. Then
    c_k0 > c_k' > b' > b, so no cell of the four is clamped, and
    g(k0, b') - g(k', b') ≥ g(k0, b) - g(k', b). The left side is at most
    2εH/(1 - ε²) ≤ 2εG/(1 - ε²), since H ≤ M < G. The right side exceeds
    G·(s(1 + ε) - 2ε)/(1 - ε²), which is at least the left side's bound
    when s(1 + ε) ≥ 4ε: a contradiction, as _SLACK = 16u gives s > 15u
    against 4ε < 8.1u. So every dearer seller that earns anything posts at
    c_k0 or above.

    Jobs are taken in blocks of at most ``_BLOCK_CELLS`` break-evens (one
    job at least), so no temporary holds more than one block's cells.
    """
    if not (quantum > 0 and math.isfinite(quantum)):
        raise ValueError(f"quantum must be finite and > 0, got {quantum}")
    n, m = costs.shape
    width = max(1, _BLOCK_CELLS // max(n, 1))
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for lo in range(0, m if n else 0, width):
        job, row, price = _first_offers(costs[:, lo : lo + width], conversion, quantum)
        found.append((job + lo, row, price))
    return tuple(map(np.concatenate, zip(*found)))


def _first_offers(
    costs: np.ndarray, conversion: float, quantum: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``first_offers`` for one block of jobs."""
    n, m = costs.shape
    be = np.multiply(conversion, costs.T, order="C")  # jobs x players
    atoms = np.sort(be, axis=1)  # each job's break-evens, in order
    # Each candidate's buyers, exact as the float optimal_price_arrays
    # multiplies its int64 counts by.
    buyers, cands = np.empty_like(atoms), atoms - quantum
    for j in range(m):
        buyers[j] = atoms[j].searchsorted(cands[j], side="right")
    np.subtract(n, buyers, out=buyers)
    del cands
    # Per open job: its first position not yet priced, the two lowest prices
    # posted so far (one per seller), and the highest floor a certified row
    # proved; and per profitable atom priced, its job, break-even and price.
    open_, first = np.arange(m), np.zeros(m, np.intp)
    low, second, floor = np.full(m, np.inf), np.full(m, np.inf), np.full(m, -np.inf)
    runs = []
    for _ in range(_MAX_STEPS):
        rows = slice(None) if open_.size == m else open_  # a view while every job is open
        b = atoms[open_, first]
        price, profit, certified = _price_step(atoms[rows], buyers[rows], b, quantum)
        end = np.count_nonzero(atoms[rows] <= b[:, None], axis=1)
        win = profit > 0
        posted = np.where(win, price, np.inf)
        twice = np.where(end - first > 1, posted, np.inf)
        second = np.minimum(np.minimum(second, np.maximum(low, posted)), twice)
        low = np.minimum(low, posted)
        floor = np.where(certified, np.maximum(floor, price), floor)
        runs.append((open_[win], b[win], price[win]))
        keep = win & (second > floor) & (end < n)
        open_, first, low, second, floor = [x[keep] for x in (open_, end, low, second, floor)]
        if not open_.size:
            break
    done = np.ones(m, bool)
    done[open_] = False
    sellers = []
    for job, b, price in runs:  # each atom's sellers, by row
        stopped = done[job]
        at, row = np.nonzero(be[job[stopped]] == b[stopped, None])
        sellers.append((job[stopped][at], row, price[stopped][at]))
    for j in open_.tolist():  # still open: price every atom
        density = build_price_density(atoms[j])
        solved, _, profit = optimal_price_arrays(density.prices, density, quantum)
        at = np.searchsorted(density.prices, be[j])
        row = np.flatnonzero(profit[at] > 0)
        sellers.append((np.full(row.size, j), row, solved[at[row]]))
    job, row, price = map(np.concatenate, zip(*sellers))
    ranked = np.lexsort((row, costs[row, job], price, job))
    job, row, price = job[ranked], row[ranked], price[ranked]
    top = np.arange(job.size) - np.searchsorted(job, job) < 2
    return job[top], row[top], price[top]


def _price_step(
    atoms: np.ndarray, buyers: np.ndarray, break_evens: np.ndarray, quantum: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Break-even i priced against the atoms of row i, as optimal_price_arrays
    prices it: the first maximum's candidate and gain, and whether the row
    certifies that candidate as a floor (see first_offers)."""
    gains = atoms - quantum  # the candidates
    gains -= break_evens[:, None]
    np.maximum(gains, 0.0, out=gains)
    gains *= buyers
    k = gains.argmax(axis=1)
    at = np.arange(k.size)
    best = gains[at, k]
    threshold = best * (1 - _SLACK)  # at most best, so k reaches it
    # Every gain below k is under the threshold when k is the first to reach it.
    first = (gains >= threshold[:, None]).argmax(axis=1)
    certified = (first == k) & (threshold >= _TINY) & (threshold < np.inf)
    return atoms[at, k] - quantum, best, certified

