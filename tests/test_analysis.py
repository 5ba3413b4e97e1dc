import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim import (
    CapacityError,
    efficiency_wealth_correlation,
    gini,
    pareto_tail_fit,
    run_market,
    system_savings_series,
)
from camsim.analysis import best_margins
from tests.conftest import golden_config


def test_gini_examples():
    assert gini([5, 5, 5, 5]) == 0
    assert gini([0, 0, 0, 10]) == 0.75
    assert gini([1, 2, 3, 4]) == 0.25


def test_gini_errors():
    with pytest.raises(ValueError):
        gini([0, 0, 0])
    with pytest.raises(ValueError):
        gini([1, -1])


@given(
    wealths=st.lists(st.floats(0.01, 1e6), min_size=2, max_size=50),
    k=st.floats(0.01, 100),
)
def test_gini_scale_invariant(wealths, k):
    assert gini([k * w for w in wealths]) == pytest.approx(gini(wealths), abs=1e-9)


def pareto_samples(alpha, n, seed):
    rng = np.random.default_rng(seed)
    return (1.0 + rng.pareto(alpha, n)).tolist()


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_hill_recovers_pareto_exponent(alpha):
    samples = pareto_samples(alpha, 10_000, seed=int(alpha * 10))
    est = pareto_tail_fit(samples, tail_fraction=0.2)
    assert abs(est - alpha) <= 0.15 * alpha


def test_hill_errors():
    with pytest.raises(CapacityError):
        pareto_tail_fit([1.0] * 20, tail_fraction=0.1)  # tail of 2 samples
    with pytest.raises(ValueError):
        pareto_tail_fit([5.0] * 100, tail_fraction=0.2)  # constant tail
    with pytest.raises(ValueError):
        pareto_tail_fit([0.0] * 50 + [1.0] * 50, tail_fraction=1.0)


def test_hill_drifts_on_exponential_tails():
    # exponential data is not Pareto; the estimate grows as the tail narrows
    rng = np.random.default_rng(0)
    samples = rng.exponential(1.0, 10_000).tolist()
    wide = pareto_tail_fit(samples, 0.5)
    narrow = pareto_tail_fit(samples, 0.05)
    assert narrow > wide


def test_correlation_golden():
    cfg = golden_config()
    state, _ = run_market(cfg, 100)
    assert efficiency_wealth_correlation(state.money, cfg) == 1.0


def test_correlation_negative_control():
    from camsim import EconomyConfig, JobSpec, Player

    # distinct efficiencies so the margin ranking has no ties
    players = [Player(f"P{i}", {"x": 1.0 + i}) for i in range(4)]
    cfg = EconomyConfig(players=players, jobs=[JobSpec("x", 12.0)])
    margins = best_margins(cfg)
    order = sorted(margins, key=margins.get)
    wealth = {pid: float(len(order) - i) for i, pid in enumerate(order)}
    assert efficiency_wealth_correlation(wealth, cfg) == -1.0


@settings(deadline=None)  # the first example pays for importing scipy
@given(
    pairs=st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=3, max_size=40
    )
)
def test_correlation_matches_scipy_spearman(pairs):
    """Tied efficiencies and tied wealths, against scipy's Spearman rho."""
    stats = pytest.importorskip("scipy.stats")
    from camsim import EconomyConfig, JobSpec, Player

    players = [Player(f"P{i:02d}", {"x": float(eff)}) for i, (eff, _) in enumerate(pairs)]
    cfg = EconomyConfig(players=players, jobs=[JobSpec("x", 12.0)])
    wealth = {p.player_id: float(w) for p, (_, w) in zip(players, pairs)}
    margins = best_margins(cfg)
    if len(set(margins.values())) == 1 or len(set(wealth.values())) == 1:
        with pytest.raises(ValueError):
            efficiency_wealth_correlation(wealth, cfg)
        return
    ids = cfg.player_ids()
    rho = stats.spearmanr([margins[p] for p in ids], [wealth[p] for p in ids]).statistic
    assert efficiency_wealth_correlation(wealth, cfg) == pytest.approx(rho, rel=0, abs=1e-15)


def test_correlation_degenerate_efficiencies():
    from camsim import EconomyConfig, JobSpec, Player

    players = [Player(f"P{i}", {"x": 1.0}) for i in range(4)]
    cfg = EconomyConfig(players=players, jobs=[JobSpec("x", 5.0)])
    wealth = {p.player_id: 1.0 for p in players}
    with pytest.raises(ValueError):
        efficiency_wealth_correlation(wealth, cfg)


def test_correlation_too_few_players():
    from camsim import EconomyConfig, JobSpec, Player

    players = [Player("a", {"x": 1.0}), Player("b", {"x": 2.0})]
    cfg = EconomyConfig(players=players, jobs=[JobSpec("x", 5.0)])
    with pytest.raises(CapacityError):
        efficiency_wealth_correlation({"a": 1.0, "b": 2.0}, cfg)


def test_savings_series_golden():
    cfg = golden_config()
    _, reports = run_market(cfg, 2)
    series = system_savings_series(reports)
    # autarky 50, expended 30 with the four executed trades
    assert series == [(1, 20.0, 0.4), (2, 20.0, 0.4)]


def test_savings_series_degenerate():
    from tests.test_market import identical_efficiency_config, zero_cost_config

    _, reports = run_market(zero_cost_config(), 2)
    assert all(s == 0 and f == 0 for _, s, f in system_savings_series(reports))
    _, reports = run_market(identical_efficiency_config(), 2)
    assert all(s == 0 and f == 0 for _, s, f in system_savings_series(reports))


def test_savings_fraction_bounds():
    cfg = golden_config()
    _, reports = run_market(cfg, 5)
    for _, saved, frac in system_savings_series(reports):
        assert 0 <= frac <= 1
        assert saved > 0  # at least one trade every round here


def test_savings_series_empty_errors():
    with pytest.raises(ValueError):
        system_savings_series([])
