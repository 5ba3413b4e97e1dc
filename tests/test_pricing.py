import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim import pricing
from tests.oracles import (
    PriceDensity,
    atoms,
    build_price_density,
    buyer_count,
    buyer_counts,
    no_trade_witness,
    optimal_price,
    optimal_price_arrays,
    optimal_price_by_scan,
    optimal_prices,
    p_max,
    total_mass,
)

# costs on the quantum grid so the candidate search is exactly comparable
# to a grid scan
grid_costs = st.lists(
    st.integers(min_value=0, max_value=200).map(lambda k: k * 0.5),
    min_size=1,
    max_size=30,
)


def profit(posted: float, break_even: float, density: PriceDensity) -> float:
    """Seller gain (posted - break_even) * buyers at that posting."""
    return (posted - break_even) * buyer_count(density, posted)


def scan_max_profit(break_even: float, density: PriceDensity, quantum: float) -> float:
    """Exhaustive-scan oracle over every quantized price in [0, p_max]."""
    n = int(round(p_max(density) / quantum))
    best = 0.0
    for k in range(n + 1):
        p = k * quantum
        if p < break_even:
            continue
        best = max(best, profit(p, break_even, density))
    return best


def test_build_density_examples():
    d = build_price_density([10, 10])
    assert atoms(d) == [(10, 2)]
    assert p_max(d) == 10

    d = build_price_density([7, 7, 7, 7])
    assert atoms(d) == [(7, 4)]

    d = build_price_density([0, 0, 0])
    assert atoms(d) == [(0, 3)]


def test_build_density_rejects_negative():
    with pytest.raises(ValueError):
        build_price_density([-1.0])


def test_density_arrays_are_read_only_copies():
    prices, masses = np.array([1.0, 3.0]), np.array([2, 1])
    d = PriceDensity(prices, masses)
    for a in (d.prices, d.masses):
        with pytest.raises(ValueError):
            a[0] = 0
    prices[0], masses[0] = 5.0, 7
    assert atoms(d) == [(1.0, 2), (3.0, 1)]
    assert (d.prices.dtype, d.masses.dtype) == (np.float64, np.int64)
    d = build_price_density([3.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        d.prices[0] = 0.0
    with pytest.raises(ValueError):
        d.masses[0] = 0


@pytest.mark.parametrize(
    "prices, masses, message",
    [
        ([2.0, 2.0], [1, 1], "strictly increasing"),
        ([2.0, 1.0], [1, 1], "strictly increasing"),
        ([1.0, math.nan], [1, 1], "strictly increasing"),
        ([-1.0], [1], ">= 0"),
        ([math.nan], [1], ">= 0"),
        ([1.0], [0], "masses must be >= 1"),
        ([1.0, 2.0], [1], "one length"),
        ([[1.0]], [[1]], "1-D"),
    ],
)
def test_density_rejects_bad_atoms(prices, masses, message):
    with pytest.raises(ValueError, match=message):
        PriceDensity(prices, masses)


def test_total_mass():
    assert total_mass(PriceDensity([10.0], [2])) == 2
    assert total_mass(PriceDensity([5.0, 10.0], [1, 2])) == 3
    assert total_mass(PriceDensity([], [])) == 0


def test_buyer_count_examples():
    d = PriceDensity([10.0], [2])
    assert buyer_count(d, 9) == 2
    assert buyer_count(d, 10) == 0  # strict at the boundary
    delta = PriceDensity([0.0], [5])
    assert buyer_count(delta, 0.01) == 0
    assert buyer_count(delta, 100) == 0


def test_buyer_counts_vectorized_matches_scalar():
    d = PriceDensity([2.0, 5.0, 9.0], [1, 3, 2])
    prices = np.array([0.0, 1.9, 2.0, 2.1, 5.0, 8.99, 9.0, 12.0])
    expected = [buyer_count(d, float(p)) for p in prices]
    assert buyer_counts(d, prices).tolist() == expected


def test_profit_examples():
    d = PriceDensity([10.0], [2])
    assert profit(9, 5, d) == 8
    assert profit(5, 5, d) == 0
    assert profit(10, 5, d) == 0
    assert profit(12, 5, d) == 0


def test_optimal_price_examples():
    d = PriceDensity([10.0], [2])
    sol = optimal_price(5, d, 1)
    assert (sol.price, sol.buyers, sol.profit) == (9, 2, 8)

    # two atoms: posting 9 reaches 3 buyers for 12; posting 19 reaches 1 for 14
    d2 = PriceDensity([10.0, 20.0], [2, 1])
    sol = optimal_price(5, d2, 1)
    assert (sol.price, sol.buyers, sol.profit) == (19, 1, 14)
    assert sol.profit == scan_max_profit(5, d2, 1)

    delta = PriceDensity([0.0], [4])
    sol = optimal_price(0, delta, 1)
    assert sol.profit == 0
    assert sol.price == 0


def bits(sol):
    """A solution's fields with their types, floats as exact hex strings."""
    return tuple(
        (type(v), v.hex() if isinstance(v, float) else v)
        for v in (sol.price, sol.buyers, sol.profit)
    )


def test_optimal_price_tie_breaks_low():
    # profit 4 at both candidates: (2-0)*2 and (4-0)*1; lower price wins
    d = PriceDensity([3.0, 5.0], [1, 1])
    sol = optimal_price(0.0, d, 1.0)
    assert sol.profit == 4.0 == scan_max_profit(0.0, d, 1.0)
    assert sol.price == 2.0
    assert bits(sol) == bits(optimal_price_by_scan(0.0, d, 1.0))


def test_optimal_price_break_even_above_every_candidate_posts_nothing():
    d = PriceDensity([3.0, 5.0], [1, 2])
    for break_even in (4.0, 4.5, 5.0, 7.0):
        sol = optimal_price(break_even, d, 1.0)
        assert bits(sol) == bits(optimal_price_by_scan(break_even, d, 1.0))
        assert (sol.price, sol.profit) == (break_even, 0.0)
    assert optimal_price(4.0, d, 1.0).buyers == 2
    assert optimal_price(5.0, d, 1.0).buyers == 0


def test_extreme_break_evens_beside_a_low_one_post_nothing():
    """In one block with a low break-even, the cells of the highest float and
    of infinity are computed too, against a candidate without buyers (1e17
    less 1.0 rounds back to 1e17); they must not overflow or turn NaN."""
    d = PriceDensity([3.0, 1e17], [1, 2])
    break_evens = [0.0, sys.float_info.max, math.inf]
    expected = [bits(optimal_price_by_scan(b, d, 1.0)) for b in break_evens]
    assert [bits(s) for s in optimal_prices(break_evens, d, 1.0)] == expected


def test_optimal_price_rejects_bad_quantum():
    with pytest.raises(ValueError):
        optimal_price(1.0, PriceDensity([], []), 0.0)


@pytest.mark.parametrize("break_even", [-1.0, math.nan])
def test_optimal_prices_rejects_bad_break_even(break_even):
    with pytest.raises(ValueError):
        optimal_prices([1.0, break_even], PriceDensity([2.0], [1]), 0.5)


def test_no_trade_witness():
    assert no_trade_witness(PriceDensity([0.0], [5]), 0, 1)
    assert no_trade_witness(PriceDensity([7.0], [3]), 7, 1)
    assert not no_trade_witness(PriceDensity([10.0], [2]), 5, 1)


@given(costs=grid_costs)
@settings(max_examples=200)
def test_normalization(costs):
    assert total_mass(build_price_density(costs)) == len(costs)


@given(costs=grid_costs, posted=st.integers(0, 220).map(lambda k: k * 0.5))
@settings(max_examples=200)
def test_complementarity(costs, posted):
    d = build_price_density(costs)
    at_or_below = sum(m for p, m in atoms(d) if p <= posted)
    assert buyer_count(d, posted) + at_or_below == len(costs)


@given(
    costs=grid_costs,
    p1=st.floats(0, 120, allow_nan=False),
    p2=st.floats(0, 120, allow_nan=False),
)
@settings(max_examples=200)
def test_monotonicity(costs, p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    d = build_price_density(costs)
    assert buyer_count(d, lo) >= buyer_count(d, hi)


@given(costs=grid_costs, be=st.integers(0, 40).map(lambda k: k * 0.5))
@settings(max_examples=200, deadline=None)
def test_optimal_price_matches_scan_oracle(costs, be):
    d = build_price_density(costs)
    sol = optimal_price(float(be), d, 0.5)
    assert sol.profit == scan_max_profit(float(be), d, 0.5)
    assert sol.profit == (sol.price - be) * sol.buyers


# Off-grid atoms, atoms on a half grid (where gains tie), atoms of 1e17 and
# up (where atom - quantum can round back to the atom itself), and mixtures.
atom_kinds = [
    st.floats(0, 100),
    st.integers(0, 8).map(lambda k: k * 0.5),
    st.floats(1e17, 1e20),
]
atom_lists = st.one_of(
    *(st.lists(kind, max_size=20) for kind in atom_kinds),
    st.lists(st.one_of(*atom_kinds), max_size=20),
)
quanta = st.one_of(st.floats(1e-3, 10), st.sampled_from([0.25, 0.5, 1.0]))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_optimal_prices_match_the_scan_bit_for_bit(data):
    d = build_price_density(data.draw(atom_lists))
    quantum = data.draw(quanta)
    on_atoms = [st.sampled_from([p for p, _ in atoms(d)])] if atoms(d) else []
    break_evens = data.draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0, 1e21), *on_atoms), max_size=10)
    )
    expected = [bits(optimal_price_by_scan(b, d, quantum)) for b in break_evens]
    assert [bits(s) for s in optimal_prices(break_evens, d, quantum)] == expected
    assert [bits(optimal_price(b, d, quantum)) for b in break_evens] == expected


# Cell budgets for the gains table's blocks: with up to 20 atoms, 1 cell
# makes one-row blocks, and 40 cells blocks of 2 to 40 rows.
small_blocks = [1, 40]


@pytest.mark.parametrize("cells", small_blocks)
def test_optimal_prices_match_the_scan_across_blocks(monkeypatch, cells):
    monkeypatch.setattr(pricing, "_BLOCK_CELLS", cells)
    test_optimal_prices_match_the_scan_bit_for_bit()


def assert_scan_bits(break_evens, d, quantum, cells):
    """optimal_prices, in blocks of at most ``cells`` cells, is the scan's."""
    expected = [bits(optimal_price_by_scan(b, d, quantum)) for b in break_evens]
    with mock.patch.object(pricing, "_BLOCK_CELLS", cells):
        assert [bits(s) for s in optimal_prices(break_evens, d, quantum)] == expected


block_cells = st.sampled_from([*small_blocks, pricing._BLOCK_CELLS])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_unsorted_repeated_break_evens_match_the_scan(data):
    """Each block starts at its lowest break-even's first candidate, wherever
    in the block that break-even is."""
    d = build_price_density(data.draw(atom_lists))
    on_atoms = [st.sampled_from(d.prices.tolist())] if d.prices.size else []
    pool = data.draw(
        st.lists(st.one_of(st.floats(0, 1e21), *on_atoms), min_size=1, max_size=4)
    )
    break_evens = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    assert_scan_bits(break_evens, d, data.draw(quanta), data.draw(block_cells))


def nudge(x: float, steps: int) -> float:
    """x moved ``steps`` adjacent floats up, or down when steps < 0."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


# Half-grid values, where gains tie exactly, moved a few floats apart, so
# that gains tie or differ only in their last bits.
near_grid = st.builds(
    lambda k, steps: max(0.0, nudge(k * 0.5, steps)),
    st.integers(0, 8),
    st.integers(-3, 3),
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_near_tied_gains_match_the_scan(data):
    d = build_price_density(data.draw(st.lists(near_grid, max_size=20)))
    quantum = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
    break_evens = data.draw(st.lists(near_grid, max_size=10))
    assert_scan_bits(break_evens, d, quantum, data.draw(block_cells))


def test_pricing_3000_atoms_never_holds_the_whole_table():
    """A 3,000 x 3,000 table of float64 gains would take 72 MB."""
    d = build_price_density(np.linspace(1.0, 100.0, 3000))
    tracemalloc.start()
    try:
        price, _, profit = optimal_price_arrays(d.prices, d, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert (profit > 0).any() and price.shape == (3000,)
