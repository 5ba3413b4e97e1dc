"""Break-even densities and seller profit maximization.

With a finite population the break-even price distribution is atomic:
point masses at the distinct self-costs. A buyer only trades when the
posted price strictly beats their own cost, so the buyer count at a price
is the total mass strictly above it, and a seller's best posting always
sits one price quantum below some atom. The degenerate all-atoms-at-zero
density makes every positive posting find zero buyers, which is what
kills trade when job execution costs nothing.

The paper's claim holds both ways. A seller at break-even b earns
something exactly when some candidate, an atom less one quantum, lies
above b and below the largest atom, which then buys. So a job has an
offer exactly when some candidate lies strictly between its smallest and
largest break-even: when its largest break-even less one quantum exceeds
its smallest, unless that subtraction rounds back to the largest (a
quantum under half its ulp). That candidate then has no buyer, and
another must lie inside. With demand everywhere and budgets that cover
the prices, round 1 trades exactly when some job has an offer.

``break_even_atoms`` and ``first_offers`` each sort every job's N
break-evens once, into one row per job. ``break_even_atoms`` gives each
job's density, which density.csv prints: a run of equal break-evens is an
atom, and its length the atom's mass. ``first_offers`` posts each job's
first two offers: it prices the sorted break-evens cheapest first, 1, 1,
2, 4, ... of them per pass, each in one O(N) pass over the candidates,
until a certificate shows that no dearer seller can rank first or second.
Two break-evens usually suffice; a job that never certifies is priced
whole, in O(N²) time and O(N) memory beyond a block of ``_BLOCK_CELLS``
gains.
"""

from __future__ import annotations

import math

import numpy as np


def break_even_atoms(
    costs: np.ndarray, conversion: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each job's density of break-evens, ``conversion * cost``: job by job,
    the job column, its distinct break-evens in increasing order and each
    one's number of players. ``costs`` is the players x jobs table."""
    atoms = _sorted_break_evens(costs, conversion)
    first = np.ones(atoms.shape, bool)  # where a run of equal break-evens starts
    np.not_equal(atoms[:, 1:], atoms[:, :-1], out=first[:, 1:])
    job, at = np.nonzero(first)
    return job, atoms[job, at], np.diff(job * atoms.shape[1] + at, append=atoms.size)


def _sorted_break_evens(costs: np.ndarray, conversion: float) -> np.ndarray:
    """The jobs x players table of break-evens, each job's row sorted."""
    atoms = np.multiply(conversion, costs.T, order="C")
    atoms.sort(axis=1)
    return atoms


# The most cells of the gains table one block holds, so that posting N
# players takes O(N) memory beyond a fixed block, never an N x N table.
_BLOCK_CELLS = 2**17

# A priced row certifies a floor when its best gain G beats every gain at a
# lower candidate by more than _SLACK·G (the bound is in first_offers).
_SLACK = 16 * 2.0**-53
_TINY = 2.0**-1022  # the smallest normal float


def first_offers(
    costs: np.ndarray, conversion: float, quantum: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each job's first two sellers with positive profit, by (price, cost, row).

    ``costs`` is the players x jobs table, and a seller's break-even b is
    ``conversion * cost``. Its candidates are its job's break-evens less one
    quantum, a candidate's buyers are the break-evens strictly above it, and
    its gain at candidate c is ``max(c - b, 0) * buyers``. It posts at its
    first maximum gain when that is positive. Returns the sellers' job
    columns, rows and prices, by job and then rank.

    Each job's break-evens are sorted once. Its sorted positions, one unit
    of mass each, are then priced cheapest first, 1, 1, 2, 4, ... positions
    of every open job per pass (fewer where a pass would exceed a block),
    each position in one pass over the candidates. A job stops at the first
    position where one of these holds:
    - The second of its priced positions, ranked by price, posts at or
      below the floor of a certified row. Every dearer seller posts at or
      above that floor and costs more, so it ranks after both.
    - The position earns nothing, so no candidate above its break-even b
      has a buyer. Every candidate above a dearer b' is above b, and the
      clamp and the sign of a float difference are exact, so no dearer
      seller earns anything.
    - It is the job's last position.
    The job's sellers are its rows whose break-even is below the stopping
    one, and at it when that position earns. A stop may fall at any
    position of an atom: equal break-evens get equal prices, so the rows at
    the stopping break-even, priced or not, post its price, and the sellers
    are those that a stop at the atom's last position would find. Each stop
    proves that no dearer seller ranks first or second, so the positions
    priced after the stop in the same batch change no offer, and are
    dropped.

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
    job at least), and a pass prices at most ``_BLOCK_CELLS`` gains (one
    position per job at least), so no temporary holds more than one
    block's cells.
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
    atoms = _sorted_break_evens(costs, conversion)
    cands, buyers = atoms - quantum, np.empty_like(atoms)
    for j in range(m):
        buyers[j] = atoms[j].searchsorted(cands[j], side="right")
    np.subtract(n, buyers, out=buyers)
    # Per open job: the lowest and second lowest prices posted so far, one
    # per position, and the highest floor a certified row proved. Per job:
    # the position it stopped at. Per pass: its open jobs, its first
    # position, and the price of each position (inf where it earns nothing).
    open_, first, stop, runs = np.arange(m), 0, np.empty(m, np.intp), []
    low, second, floor = np.full(m, np.inf), np.full(m, np.inf), np.full(m, -np.inf)
    while open_.size:
        # 1, 1, 2, 4, ... positions per pass, up to a block of gains. The
        # candidates below position `first` are at or below every break-even
        # from there on, so their gains are 0, and the pass skips them.
        size = min(max(first, 1), n - first, max(1, _BLOCK_CELLS // (open_.size * (n - first))))
        rows = slice(None) if open_.size == m else open_  # a view while every job is open
        price, profit, certified = _price_step(
            cands[rows, first:], buyers[rows, first:], atoms[open_, first : first + size]
        )
        posted = np.where(profit > 0, price, np.inf)
        lows = _running(np.minimum, low, posted)
        seconds = _running(np.minimum, second, np.maximum(lows[:, :-1], posted))
        floors = _running(np.maximum, floor, np.where(certified, price, -np.inf))
        ends = (posted == np.inf) | (seconds[:, 1:] <= floors[:, 1:])
        ends[:, -1] |= first + size == n
        hit = ends.any(axis=1)
        stop[open_[hit]] = first + ends[hit].argmax(axis=1)
        runs.append((open_, first, posted))
        keep = ~hit
        open_, low, second, floor = open_[keep], lows[keep, -1], seconds[keep, -1], floors[keep, -1]
        first += size
    del cands, buyers
    table = np.empty((m, first))
    for jobs, at, posted in runs:
        table[jobs, at : at + posted.shape[1]] = posted
    jobs = np.arange(m)
    last = stop - (table[jobs, stop] == np.inf)  # each job's last position that earns
    cut = np.where(last >= 0, atoms[jobs, last], -np.inf)
    # The sellers, and each one's position in its job's sorted order.
    job, row = np.nonzero(np.multiply(conversion, costs.T, order="C") <= cut[:, None])
    by_cost = np.lexsort((costs[row, job], job))
    job, row = job[by_cost], row[by_cost]
    rank = np.arange(job.size) - np.searchsorted(job, job)
    price = table[job, np.minimum(rank, last[job])]
    ranked = np.lexsort((row, costs[row, job], price, job))
    job, row, price = job[ranked], row[ranked], price[ranked]
    top = np.arange(job.size) - np.searchsorted(job, job) < 2
    return job[top], row[top], price[top]


def _running(extreme: np.ufunc, start: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each row's running minimum or maximum of ``start`` then ``values``."""
    return extreme.accumulate(np.concatenate((start[:, None], values), axis=1), axis=1)


def _price_step(
    cands: np.ndarray, buyers: np.ndarray, break_evens: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Break-evens ``break_evens[i]`` priced against the candidates and
    buyers of row i, as first_offers prices them: each first maximum's
    candidate and gain, and whether it certifies that candidate as a floor
    (see first_offers)."""
    gains = cands[:, None, :] - break_evens[:, :, None]
    np.maximum(gains, 0.0, out=gains)
    gains *= buyers[:, None, :]
    gains = gains.reshape(break_evens.size, -1)  # one row per break-even
    k = gains.argmax(axis=1)
    at = np.arange(k.size)
    best = gains[at, k]
    threshold = best * (1 - _SLACK)  # at most best, so k reaches it
    # Every gain below k is under the threshold when k is the first to reach it.
    first = (gains >= threshold[:, None]).argmax(axis=1)
    certified = (first == k) & (threshold >= _TINY) & (threshold < np.inf)
    price = cands[at // break_evens.shape[1], k]
    return tuple(x.reshape(break_evens.shape) for x in (price, best, certified))
