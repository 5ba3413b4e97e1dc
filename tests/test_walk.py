from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camsim import WalkParams, derive_trace_seed, simulate_walk, stationary_stats, walk
from camsim.config import load_config
from camsim.scenario import _BLOCK_ROWS, _PIECE_BLOCKS, _walk_lines
from camsim.walk import check_walk_bound
from tests.oracles import build_price_density, buyer_count, p_max, simulate_walk_by_step, walk_lines

LONG_LEDGER = Path(__file__).parents[1] / "bench" / "workloads" / "long_ledger.yaml"
# The steps of one piece of _walk_lines, and the fewest steps at eta 0.5
# that take the lanes.
PIECE = _PIECE_BLOCKS * _BLOCK_ROWS
REACH = walk._MIN_LANES * walk._overlap(0.5)


@pytest.fixture
def stepped(monkeypatch) -> list[int]:
    """The length of every run of simulate_walk's per-step loop."""
    runs: list[int] = []
    by_step = walk._walk_by_step

    def counted(drive, decay, current):
        runs.append(drive.size)
        return by_step(drive, decay, current)

    monkeypatch.setattr(walk, "_walk_by_step", counted)
    return runs


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


def test_a_trace_drawn_in_pieces_is_the_trace_drawn_whole(stepped):
    """Pieces from one generator, each starting from the last value of the
    piece before, are the whole trace bit for bit, clamped values included:
    short pieces by the loop, and pieces of _walk_lines' size or of odd
    sizes by the lanes, without a step of the loop."""
    params = WalkParams(true_price=1.0, eta=0.5, sigma=2.0)
    for cuts in ((1, 30, 69), (PIECE, PIECE, PIECE + 848), (REACH + 1, 12_345, PIECE + 1)):
        whole = simulate_walk(params, sum(cuts), seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(5))
        pieces, clamped, last = [], 0, None
        for steps in cuts:
            piece = simulate_walk(params, steps, rng, start=last)
            pieces.append(piece.values)
            clamped += piece.clamped
            last = float(piece.values[-1])
        assert whole.clamped > 0
        assert clamped == whole.clamped
        assert np.concatenate(pieces).tobytes() == whole.values.tobytes()
    assert stepped == [100, 1, 30, 69]


@st.composite
def walks(draw) -> tuple[WalkParams, int, int, float | None]:
    """A walk and its steps: at the edge of the lanes' reach, at a multiple
    of the lane width, at a piece's size or twice it, or short; each +-1."""
    eta = draw(st.sampled_from([0.001, 0.5, 1.0, 1.999]) | st.floats(0.001, 1.999))
    true_price = draw(st.sampled_from([0.0, 1.0, 100.0]) | st.floats(0.0, 1e6))
    sigma = draw(st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 1e3))
    start = draw(st.none() | st.sampled_from([0.0, 1e300]) | st.floats(-1e6, 1e12))
    edges = [PIECE, 2 * PIECE, 300]
    width = walk._overlap(1.0 - eta)
    if walk._MIN_LANES * width <= 2 * PIECE:
        lanes = draw(st.integers(walk._MIN_LANES, 2 * PIECE // width))
        edges += [walk._MIN_LANES * width, lanes * width]
    steps = draw(st.sampled_from(edges)) + draw(st.integers(-1, 1))
    return WalkParams(true_price, eta, sigma), steps, draw(st.integers(0, 2**32)), start


@given(case=walks())
@example(case=(WalkParams(0.0, 0.5, 1.0), 2 * PIECE + 1, 3, None))  # clamps heavily
@example(case=(WalkParams(100.0, 0.5, 0.0), REACH + 1, 4, 0.0))  # sigma 0
@example(case=(WalkParams(100.0, 0.5, 10.0), REACH - 1, 5, None))  # one step short
@example(case=(WalkParams(100.0, 1.0, 10.0), walk._MIN_LANES, 6, None))  # lanes of one step
@example(case=(WalkParams(100.0, 0.001, 10.0), PIECE - 1, 7, None))
@example(case=(WalkParams(100.0, 1.999, 10.0), PIECE + 1, 8, 1e300))  # starts far off
@example(case=(WalkParams(1.0, 1.5, 3.0), PIECE, 9, 1e300))
@settings(max_examples=150, deadline=None)
def test_the_walk_is_the_recursion_stepped_one_value_at_a_time(case):
    params, steps, seed, start = case
    trace = simulate_walk(params, steps, seed, start=start)
    values, clamped = simulate_walk_by_step(params, steps, seed, start)
    assert trace.values.tobytes() == values.tobytes()
    assert trace.clamped == clamped


def test_a_corrupted_lane_is_stepped_again_from_its_first_value(monkeypatch, stepped):
    params, width = WalkParams(100.0, 0.5, 10.0), walk._overlap(0.5)
    lanes = walk._lanes

    def corrupted(*args):
        values = lanes(*args)
        values[100 * width : 101 * width] += 1.0
        return values

    monkeypatch.setattr(walk, "_lanes", corrupted)
    trace = simulate_walk(params, PIECE, 11)
    values, clamped = simulate_walk_by_step(params, PIECE, 11)
    assert trace.values.tobytes() == values.tobytes()
    assert trace.clamped == clamped
    assert stepped == [PIECE - 100 * width]


@pytest.mark.parametrize("seed", [42, 7])
def test_the_bench_walk_takes_no_step_of_the_loop(stepped, seed):
    """The benchmark's walk is all lanes: a fast path that stopped firing
    would fail here, not only cost time. Its pieces print the whole trace."""
    sc = load_config(LONG_LEDGER, seed)
    text = "".join(_walk_lines(sc))
    assert stepped == []
    assert text == "".join(walk_lines(sc))


@pytest.mark.parametrize("eta", [0.001, 0.5, 1.0, 1.999])
def test_a_walk_at_its_bound_stays_finite(eta):
    """A walk just inside check_walk_bound's B < 2**1020 never overflows,
    with no warning; one at the bound is refused."""
    params = WalkParams(2.0**1017, eta, 2.0**1013 * min(eta, 1.0))
    check_walk_bound(params)
    for steps in (300, walk._MIN_LANES * walk._overlap(1.0 - eta)):
        if steps <= 2 * PIECE:
            assert np.isfinite(simulate_walk(params, steps, seed=1).values).all()
    with pytest.raises(ValueError, match="2\\*\\*1020"):
        check_walk_bound(WalkParams(2.0**1020, eta, 0.0))
