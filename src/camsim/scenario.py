"""Scenario configuration, deterministic execution, and CSV export.

A scenario is a YAML file describing an economy (explicit players or a
seeded population generator), a demand pattern, the number of rounds, the
outputs wanted, and optionally the parameters of the price-estimation
walk. Every random draw derives from the single ``master_seed`` through
numpy SeedSequence spawn keys: ``(0,)`` for population generation and
``(2, i)`` for walk trace ``i`` (the market loop itself draws nothing).
Identical config bytes therefore give byte-identical output files.

A run is one streaming pass. The per-round outputs (trades, wealth,
savings) are opened once, and each round's rows are written as the round
ends, then dropped; the round ledgers are updated in place. Only the
outputs that do not depend on the rounds (density, walk) are built whole.
"""

from __future__ import annotations

import decimal
import hashlib
import math
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .analysis import system_savings_series
from .assignment import optimal_assignment
from .core import EconomyConfig, JobSpec, Player, autarky_energy
from .market import (
    DEFAULT_ENDOWMENT,
    MarketState,
    RoundReport,
    check_ledger_bound,
    execute_round,
    post_offers,
)
from .pricing import build_price_density
from .walk import WalkParams, derive_trace_seed, simulate_walk

class ConfigError(Exception):
    """Carries every validation problem found in a scenario file."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class PopulationSpec:
    count: int
    efficiency_distribution: str
    params: dict[str, float]


@dataclass(frozen=True)
class WalkRun:
    params: WalkParams
    steps: int
    traces: int


@dataclass
class ScenarioConfig:
    jobs: list[JobSpec]
    conversion: float
    price_quantum: float
    rounds: int
    master_seed: int
    outputs: list[str] = field(default_factory=list)
    players: list[Player] | None = None
    population: PopulationSpec | None = None
    demand: int | dict[tuple[str, str], int] = 1
    initial_money: float = DEFAULT_ENDOWMENT
    walk: WalkRun | None = None


# A rule returns the checked value of one config entry. It raises ValueError
# for one problem, or ConfigError for several, each worded as the rest of the
# sentence that follows the entry's name (" must be ...", ": unknown key ...").
Rule = Callable[[Any], Any]


def _apply(rule: Rule, value: Any, name: str, errors: list[str]) -> Any:
    """rule(value), or None with each problem appended to errors under name."""
    try:
        return rule(value)
    except ValueError as exc:
        errors.append(f"{name}{exc}")
    except ConfigError as exc:
        errors += [f"{name}{e}" for e in exc.errors]
    return None


def _integer(low: int) -> Rule:
    """An integer >= low. YAML booleans load as ints; a count is never one."""

    def rule(x: Any) -> int:
        if isinstance(x, bool) or not isinstance(x, int) or x < low:
            raise ValueError(f" must be an integer >= {low}")
        return x

    return rule


def _number(bound: str = "", holds: Callable[[float], bool] = lambda v: True) -> Rule:
    """A finite number for which ``holds`` is true; ``bound`` says so in words.

    Numeric strings count, because YAML 1.1 loads ``1e9`` as a string;
    booleans do not.
    """

    def rule(x: Any) -> float:
        try:
            v = math.nan if isinstance(x, bool) else float(x)
        except (TypeError, ValueError, OverflowError):
            v = math.nan
        if not (math.isfinite(v) and holds(v)):
            raise ValueError(f" must be a finite number{bound}")
        return v

    return rule


_POSITIVE = _number(" > 0", lambda v: v > 0)
_NONNEGATIVE = _number(" >= 0", lambda v: v >= 0)


def _mapping(rules: dict[str, Rule], required=(), build: Callable = dict) -> Rule:
    """A mapping with only the keys of ``rules`` and every ``required`` one.

    Each value is checked by its key's rule, and ``build`` gets the checked
    values as keyword arguments.
    """

    def rule(x: Any) -> Any:
        if not isinstance(x, dict):
            raise ValueError(" must be a mapping")
        errors = [f": unknown key {key!r}" for key in x if key not in rules]
        errors += [f": missing required key {key!r}" for key in required if key not in x]
        out = {k: _apply(rules[k], v, f": {k}", errors) for k, v in x.items() if k in rules}
        if errors:
            raise ConfigError(errors)
        return build(**out)

    return rule


def _list_of(rule: Rule, nonempty: bool = False) -> Rule:
    def check(x: Any) -> list:
        if not isinstance(x, list):
            raise ValueError(" must be a list")
        if nonempty and not x:
            raise ValueError(" must not be empty")
        errors: list[str] = []
        out = [_apply(rule, item, f"[{n}]", errors) for n, item in enumerate(x)]
        if errors:
            raise ConfigError(errors)
        return out

    return check


def _by_id(rule: Rule) -> Rule:
    """A mapping from player or job ids to values that each pass ``rule``."""

    def check(x: Any) -> dict[str, Any]:
        if not isinstance(x, dict):
            raise ValueError(" must be a mapping")
        errors: list[str] = []
        out = {str(k): _apply(rule, v, f"[{k!r}]", errors) for k, v in x.items()}
        if errors:
            raise ConfigError(errors)
        return out

    return check


def _demand(x: Any) -> int | dict[tuple[str, str], int]:
    """Units per round: one count for all (player, job), or {player: {job: units}}."""
    if not isinstance(x, dict):
        return _integer(0)(x)
    rows = _by_id(_by_id(_integer(0)))(x)
    return {(pid, jid): units for pid, row in rows.items() for jid, units in row.items()}


def _outputs(x: Any) -> list[str]:
    if not isinstance(x, list) or any(o not in OUTPUT_KINDS for o in x):
        raise ValueError(f" must be a list drawn from {OUTPUT_KINDS}")
    return list(x)


# Each distribution's parameters, and each parameter's rule: every drawn
# efficiency must be finite and > 0.
POPULATION_PARAMS = {
    "uniform": ("low", "high"),
    "log-normal": ("mu", "sigma"),
    "pareto": ("alpha", "minimum"),
}
DISTRIBUTIONS = tuple(POPULATION_PARAMS)
PARAM_RULES = {
    "low": _POSITIVE,
    "high": _POSITIVE,
    "mu": _number(),
    "sigma": _NONNEGATIVE,
    "alpha": _POSITIVE,
    "minimum": _POSITIVE,
}


def _population(
    count: int, efficiency_distribution: str, params: dict[str, float]
) -> PopulationSpec:
    if efficiency_distribution not in DISTRIBUTIONS:
        raise ValueError(f": efficiency_distribution must be one of {DISTRIBUTIONS}")
    names = POPULATION_PARAMS[efficiency_distribution]
    if set(params) != set(names):
        raise ValueError(f": params for {efficiency_distribution} must be {sorted(names)}")
    return PopulationSpec(count, efficiency_distribution, params)


def _walk(
    true_price: float, eta: float, sigma: float, steps: int = 1000, traces: int = 1
) -> WalkRun:
    return WalkRun(WalkParams(true_price, eta, sigma), steps, traces)


def _scenario(**fields: Any) -> ScenarioConfig:
    if ("players" in fields) == ("population" in fields):
        raise ValueError(": give exactly one of 'players' or 'population'")
    if "walk" in fields.get("outputs", ()) and "walk" not in fields:
        raise ValueError(": outputs include 'walk' but no walk block given")
    return ScenarioConfig(**fields)


SCENARIO_RULE = _mapping(
    {
        "jobs": _list_of(
            _mapping(
                {"job_id": str, "workload": _NONNEGATIVE}, ("job_id", "workload"), JobSpec
            )
        ),
        "players": _list_of(
            _mapping(
                {
                    "player_id": str,
                    "efficiencies": _by_id(_POSITIVE),
                    "money": _NONNEGATIVE,
                },
                ("player_id", "efficiencies"),
                Player,
            ),
            nonempty=True,
        ),
        "population": _mapping(
            {
                "count": _integer(1),
                "efficiency_distribution": str,
                "params": _mapping(PARAM_RULES),
            },
            ("count", "efficiency_distribution", "params"),
            _population,
        ),
        "conversion": _POSITIVE,
        "price_quantum": _POSITIVE,
        "demand": _demand,
        "rounds": _integer(1),
        "master_seed": _integer(0),
        "initial_money": _POSITIVE,
        "outputs": _outputs,
        "walk": _mapping(
            {
                "true_price": _NONNEGATIVE,
                "eta": _number(" in (0, 2)", lambda v: 0 < v < 2),
                "sigma": _NONNEGATIVE,
                "steps": _integer(1),
                "traces": _integer(1),
            },
            ("true_price", "eta", "sigma"),
            _walk,
        ),
    },
    ("jobs", "conversion", "price_quantum", "rounds", "master_seed"),
    _scenario,
)


def parse_mapping(raw: Any, source: str = "<config>") -> ScenarioConfig:
    """Validate a parsed YAML tree; raises ConfigError with every problem."""
    errors: list[str] = []
    sc = _apply(SCENARIO_RULE, raw, source, errors)
    if errors:
        raise ConfigError(errors)
    return sc


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and fully validate a scenario file; reports all errors at once."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: not valid YAML: {exc}"]) from exc
    return parse_mapping(raw, source=str(path))


def to_mapping(sc: ScenarioConfig) -> dict:
    """Inverse of parse_mapping; reparsing the result gives an equal config."""
    out = {key: value for key, value in asdict(sc).items() if value is not None}
    for player in out.get("players", []):
        if player["money"] is None:
            del player["money"]
    if "walk" in out:
        out["walk"] |= out["walk"].pop("params")
    if isinstance(sc.demand, dict):
        out["demand"] = {}
        for (pid, jid), units in sc.demand.items():
            out["demand"].setdefault(pid, {})[jid] = units
    return out


def _draw_efficiencies(
    spec: PopulationSpec, n_jobs: int, rng: np.random.Generator
) -> np.ndarray:
    p = spec.params
    if spec.efficiency_distribution == "uniform":
        return rng.uniform(p["low"], p["high"], size=(spec.count, n_jobs))
    if spec.efficiency_distribution == "log-normal":
        return rng.lognormal(p["mu"], p["sigma"], size=(spec.count, n_jobs))
    return p["minimum"] * (1.0 + rng.pareto(p["alpha"], size=(spec.count, n_jobs)))


def build_economy(sc: ScenarioConfig) -> EconomyConfig:
    """Materialize the economy, drawing any generated population."""
    if sc.players is not None:
        players = sc.players
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence(sc.master_seed, spawn_key=(0,))
        )
        job_ids = sorted(j.job_id for j in sc.jobs)
        eff = _draw_efficiencies(sc.population, len(job_ids), rng)
        width = max(4, len(str(sc.population.count)))
        players = [
            Player(
                f"P{i + 1:0{width}d}",
                {jid: float(eff[i, k]) for k, jid in enumerate(job_ids)},
            )
            for i in range(sc.population.count)
        ]
    if isinstance(sc.demand, dict):
        demand = dict(sc.demand)
    else:
        demand = {
            (p.player_id, j.job_id): sc.demand for p in players for j in sc.jobs
        }
    return EconomyConfig(
        players=players,
        jobs=list(sc.jobs),
        demand=demand,
        conversion=sc.conversion,
        price_quantum=sc.price_quantum,
    )


def export_csv(rows: list[tuple], header: Sequence[str], path: str | Path) -> Path:
    """Write rows with a header, LF endings, and no locale formatting.

    Cells must already be strings; numeric formatting is the caller's
    responsibility so that column precision rules stay per output type.
    """
    path = Path(path)
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return path


Rows = list[tuple[str, ...]]


def _fe(x: float) -> str:
    """An energy-valued cell."""
    return f"{x:.9f}"


def _price_format(sc: ScenarioConfig) -> str:
    """Prices print at the price quantum's decimals: 0.01 gives '.2f'."""
    exponent = decimal.Decimal(repr(sc.price_quantum)).normalize().as_tuple().exponent
    return f".{max(0, -int(exponent))}f"


def _trade_rows(
    sc: ScenarioConfig, config: EconomyConfig, state: MarketState, report: RoundReport
) -> Rows:
    pf = _price_format(sc)
    return [
        (
            str(report.round),
            t.buyer,
            t.seller,
            t.job,
            str(t.units),
            format(t.price, pf),
            _fe(t.buyer_self_cost),
            _fe(t.seller_cost),
            _fe(t.system_energy_saved),
        )
        for t in report.trades
    ]


def _wealth_rows(
    sc: ScenarioConfig, config: EconomyConfig, state: MarketState, report: RoundReport
) -> Rows:
    pf = _price_format(sc)
    return [
        (
            str(state.round),
            pid,
            format(state.money[pid], pf),
            _fe(state.energy_spent[pid]),
            _fe(state.energy_saved[pid]),
        )
        for pid in config.player_ids()
    ]


def _savings_rows(
    sc: ScenarioConfig, config: EconomyConfig, state: MarketState, report: RoundReport
) -> Rows:
    [(rnd, saved, frac)] = system_savings_series([report])
    energies = (report.autarky_energy, report.energy_expended_total, saved, frac)
    return [(str(rnd), *map(_fe, energies))]


def _density_rows(sc: ScenarioConfig, config: EconomyConfig) -> Rows:
    rows, pf = [], _price_format(sc)
    for c, jid in enumerate(config.job_ids()):
        break_evens = (config.conversion * config.costs[:, c]).tolist()
        atoms = build_price_density(break_evens).atoms
        rows += [(jid, format(price, pf), str(mass)) for price, mass in atoms]
    return rows


def _walk_rows(sc: ScenarioConfig, config: EconomyConfig) -> Rows:
    rows = []
    for i in range(sc.walk.traces):
        seed = derive_trace_seed(sc.master_seed, i)
        values = simulate_walk(sc.walk.params, sc.walk.steps, seed).values.tolist()
        rows += [(str(i), str(step), _fe(v)) for step, v in enumerate(values)]
    return rows


# Each output kind's CSV header and row builder; a selected kind is written
# to <kind>.csv. The builders of PER_ROUND kinds take one round's
# (sc, config, state, report) and give that round's rows; the others take
# (sc, config) and give the whole file.
OUTPUTS = {
    "trades": (
        (
            "round",
            "buyer",
            "seller",
            "job",
            "units",
            "price",
            "buyer_self_cost",
            "seller_cost",
            "system_energy_saved",
        ),
        _trade_rows,
    ),
    "wealth": (
        ("round", "player", "money", "energy_spent", "energy_saved"),
        _wealth_rows,
    ),
    "savings": (
        ("round", "autarky_energy", "energy_expended", "energy_saved", "saved_fraction"),
        _savings_rows,
    ),
    "density": (("job", "price", "mass"), _density_rows),
    "walk": (("trace", "step", "value"), _walk_rows),
}
OUTPUT_KINDS = tuple(OUTPUTS)
PER_ROUND = ("trades", "wealth", "savings")


def run_scenario(
    sc: ScenarioConfig,
    out_dir: str | Path,
    observe: Callable[[RoundReport, EconomyConfig], None] | None = None,
) -> dict[str, Any]:
    """Execute a scenario end to end and write every selected output.

    The rounds stream: after each round its rows are appended to the
    per-round CSVs, and ``observe(report, config)``, when given, sees its
    report. No round's state, report or rows outlive the round, so memory
    does not grow with the number of rounds.

    Returns the paths written (``paths``), the economy (``config``), the
    trades over all rounds (``n_trades``), and the per-round energy of the
    optimal assignment and of autarky. Equal (config, seed) give
    byte-identical outputs. An economy the config cannot describe, such as
    a player without an efficiency for some job, or one whose ledgers could
    overflow a float within the rounds, raises ConfigError.
    """
    try:
        config = build_economy(sc)
        state = MarketState.from_config(config, sc.initial_money)
        check_ledger_bound(config, state, sc.rounds)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, assignment_energy = optimal_assignment(config)
    autarky = autarky_energy(config)

    paths = {kind: out_dir / f"{kind}.csv" for kind in OUTPUTS if kind in sc.outputs}
    offers = post_offers(config)
    n_trades = 0
    with ExitStack() as files:
        sinks = []
        for kind, path in paths.items():
            header, build = OUTPUTS[kind]
            if kind not in PER_ROUND:
                export_csv(build(sc, config), header, path)
                continue
            fh = files.enter_context(open(path, "w", newline="\n"))
            fh.write(",".join(header) + "\n")
            sinks.append((fh, build))
        for _ in range(sc.rounds):
            state, report = execute_round(
                config, state, offers=offers, record_detail="trades" in paths
            )
            n_trades += report.n_trades
            if observe is not None:
                observe(report, config)
            for fh, build in sinks:
                fh.writelines(",".join(r) + "\n" for r in build(sc, config, state, report))
    return {
        "paths": paths,
        "config": config,
        "n_trades": n_trades,
        "assignment_energy": assignment_energy,
        "autarky_energy": autarky,
    }


def artifact_digests(paths: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of each written artifact, for reproducibility checks."""
    return {
        name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for name, p in sorted(paths.items())
    }
