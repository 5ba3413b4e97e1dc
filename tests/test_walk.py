import numpy as np
import pytest

from camsim import WalkParams, derive_trace_seed, simulate_walk, stationary_stats
from tests.oracles import build_price_density, buyer_count, p_max


def test_params_validation():
    with pytest.raises(ValueError):
        WalkParams(true_price=1.0, eta=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        WalkParams(true_price=1.0, eta=2.0, sigma=1.0)
    with pytest.raises(ValueError):
        WalkParams(true_price=1.0, eta=0.5, sigma=-1.0)


def test_walk_step_fixed_point():
    params = WalkParams(true_price=50.0, eta=0.3, sigma=0.0)
    assert simulate_walk(params, 1, seed=0, start=50.0).values[0] == 50.0


def test_walk_step_geometric_convergence():
    params = WalkParams(true_price=100.0, eta=0.5, sigma=0.0)
    x = simulate_walk(params, 10, seed=0, start=0.0).values
    assert x[0] == 50.0
    assert x[-1] == pytest.approx(100.0 * (1 - 0.5**10))


def test_walk_step_full_correction():
    params = WalkParams(true_price=42.0, eta=1.0, sigma=0.0)
    assert simulate_walk(params, 1, seed=0, start=7.0).values[0] == 42.0


def test_stationary_stats_examples():
    assert stationary_stats(WalkParams(10.0, 1.0, 1.0)) == (10.0, 1.0)
    assert stationary_stats(WalkParams(10.0, 0.5, 0.0)) == (10.0, 0.0)
    mean, var = stationary_stats(WalkParams(10.0, 0.5, 2.0))
    assert var == pytest.approx(4 / 0.75)


def test_trace_reproducible():
    params = WalkParams(true_price=100.0, eta=0.4, sigma=5.0)
    a = simulate_walk(params, 1000, seed=7)
    b = simulate_walk(params, 1000, seed=7)
    assert np.array_equal(a.values, b.values)
    c = simulate_walk(params, 1000, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_trace_monte_carlo_matches_stationary_stats():
    params = WalkParams(true_price=100.0, eta=0.5, sigma=10.0)
    trace = simulate_walk(params, 200_000, seed=11)
    mean, var = stationary_stats(params)
    assert trace.clamped == 0
    assert abs(trace.values.mean() - mean) < 0.01 * mean
    assert abs(trace.values.var() - var) < 0.1 * var


@pytest.mark.parametrize(
    "eta, sigma, start, seed",
    [(0.1, 10.0, None, 1), (0.5, 10.0, 40.0, 2), (1.0, 5.0, None, 3), (1.7, 1.0, 200.0, 4)],
)
def test_unclamped_trace_equals_iir_filter(eta, sigma, start, seed):
    """Without clamping the recursion is the IIR filter y = x / (1 - (1 - eta) z^-1)."""
    signal = pytest.importorskip("scipy.signal")
    params = WalkParams(true_price=100.0, eta=eta, sigma=sigma)
    trace = simulate_walk(params, 5000, seed, start=start)
    x0 = params.true_price if start is None else start
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    drive = eta * params.true_price + sigma * rng.standard_normal(5000)
    expected, _ = signal.lfilter([1.0], [1.0, -(1.0 - eta)], drive, zi=[(1.0 - eta) * x0])
    assert trace.clamped == 0
    assert np.array_equal(trace.values, expected)


def test_noiseless_trace_monotone_convergence():
    params = WalkParams(true_price=100.0, eta=0.2, sigma=0.0)
    trace = simulate_walk(params, 50, seed=0, start=10.0)
    gaps = np.abs(trace.values - 100.0)
    assert (np.diff(gaps) <= 0).all()


def test_clamping_in_traces():
    params = WalkParams(true_price=1.0, eta=0.5, sigma=50.0)
    trace = simulate_walk(params, 2000, seed=3)
    assert trace.clamped > 0
    assert (trace.values >= 0).all()


def test_derive_trace_seed_deterministic():
    assert derive_trace_seed(42, 0) == derive_trace_seed(42, 0)
    assert derive_trace_seed(42, 0) != derive_trace_seed(42, 1)
    assert derive_trace_seed(42, 0) != derive_trace_seed(43, 0)


def test_noisy_endpoints_density_smoke():
    """Walk endpoints fed into a price density keep buyers at 0 far above p_max."""
    params = WalkParams(true_price=100.0, eta=0.5, sigma=10.0)
    endpoints = [
        float(simulate_walk(params, 500, seed=derive_trace_seed(5, i)).values[-1])
        for i in range(50)
    ]
    d = build_price_density(endpoints)
    assert buyer_count(d, p_max(d) + 3 * params.sigma) == 0


def test_a_trace_drawn_in_pieces_is_the_trace_drawn_whole():
    """Pieces from one generator, each starting from the last value of the
    piece before, are the whole trace bit for bit, clamped values included."""
    params = WalkParams(true_price=1.0, eta=0.5, sigma=2.0)
    whole = simulate_walk(params, 100, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(5))
    pieces, last = [], None
    for steps in (1, 30, 69):
        pieces.append(simulate_walk(params, steps, rng, start=last).values)
        last = float(pieces[-1][-1])
    assert whole.clamped > 0
    assert np.concatenate(pieces).tobytes() == whole.values.tobytes()
