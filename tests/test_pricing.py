import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim import PriceDensity, build_price_density, buyer_count, optimal_price
from tests.oracles import buyer_counts, no_trade_witness, total_mass

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
    n = int(round(density.p_max / quantum))
    best = 0.0
    for k in range(n + 1):
        p = k * quantum
        if p < break_even:
            continue
        best = max(best, profit(p, break_even, density))
    return best


def test_build_density_examples():
    d = build_price_density([5, 10, 10], exclude=0)
    assert d.atoms == ((10, 2),)
    assert d.p_max == 10

    d = build_price_density([7, 7, 7, 7])
    assert d.atoms == ((7, 4),)

    d = build_price_density([0, 0, 0])
    assert d.atoms == ((0, 3),)


def test_build_density_rejects_negative():
    with pytest.raises(ValueError):
        build_price_density([-1.0])


def test_total_mass():
    assert total_mass(PriceDensity(((10, 2),))) == 2
    assert total_mass(PriceDensity(((5, 1), (10, 2)))) == 3
    assert total_mass(PriceDensity(())) == 0


def test_buyer_count_examples():
    d = PriceDensity(((10, 2),))
    assert buyer_count(d, 9) == 2
    assert buyer_count(d, 10) == 0  # strict at the boundary
    delta = PriceDensity(((0, 5),))
    assert buyer_count(delta, 0.01) == 0
    assert buyer_count(delta, 100) == 0


def test_buyer_counts_vectorized_matches_scalar():
    d = PriceDensity(((2.0, 1), (5.0, 3), (9.0, 2)))
    prices = np.array([0.0, 1.9, 2.0, 2.1, 5.0, 8.99, 9.0, 12.0])
    expected = [buyer_count(d, float(p)) for p in prices]
    assert buyer_counts(d, prices).tolist() == expected


def test_profit_examples():
    d = PriceDensity(((10, 2),))
    assert profit(9, 5, d) == 8
    assert profit(5, 5, d) == 0
    assert profit(10, 5, d) == 0
    assert profit(12, 5, d) == 0


def test_optimal_price_examples():
    d = PriceDensity(((10, 2),))
    sol = optimal_price(5, d, 1)
    assert (sol.price, sol.buyers, sol.profit) == (9, 2, 8)

    # two atoms: posting 9 reaches 3 buyers for 12; posting 19 reaches 1 for 14
    d2 = PriceDensity(((10, 2), (20, 1)))
    sol = optimal_price(5, d2, 1)
    assert (sol.price, sol.buyers, sol.profit) == (19, 1, 14)
    assert sol.profit == scan_max_profit(5, d2, 1)

    delta = PriceDensity(((0, 4),))
    sol = optimal_price(0, delta, 1)
    assert sol.profit == 0
    assert sol.price == 0


def test_optimal_price_tie_breaks_low():
    # profit 4 at both candidates: (2-0)*2 and (4-0)*1; lower price wins
    d = PriceDensity(((3.0, 1), (5.0, 1)))
    sol = optimal_price(0.0, d, 1.0)
    assert sol.profit == 4.0 == scan_max_profit(0.0, d, 1.0)
    assert sol.price == 2.0


def test_optimal_price_rejects_bad_quantum():
    with pytest.raises(ValueError):
        optimal_price(1.0, PriceDensity(()), 0.0)


def test_no_trade_witness():
    assert no_trade_witness(PriceDensity(((0, 5),)), 0, 1)
    assert no_trade_witness(PriceDensity(((7, 3),)), 7, 1)
    assert not no_trade_witness(PriceDensity(((10, 2),)), 5, 1)


@given(costs=grid_costs)
@settings(max_examples=200)
def test_normalization(costs):
    assert total_mass(build_price_density(costs)) == len(costs)
    assert total_mass(build_price_density(costs, exclude=0)) == len(costs) - 1


@given(costs=grid_costs, posted=st.integers(0, 220).map(lambda k: k * 0.5))
@settings(max_examples=200)
def test_complementarity(costs, posted):
    d = build_price_density(costs)
    at_or_below = sum(m for p, m in d.atoms if p <= posted)
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
