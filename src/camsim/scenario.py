"""Scenario configuration, deterministic execution, and CSV export.

A scenario is a YAML file describing an economy (explicit players or a
seeded population generator), a demand pattern, the number of rounds, the
outputs wanted, and optionally the parameters of the price-estimation
walk. Every random draw derives from the single ``master_seed`` through
numpy SeedSequence spawn keys: ``(0,)`` for population generation and
``(2, i)`` for walk trace ``i`` (the market loop itself draws nothing).
Identical config bytes therefore give byte-identical output files.
"""

from __future__ import annotations

import decimal
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .analysis import WealthSnapshot, system_savings_series
from .assignment import optimal_assignment
from .core import EconomyConfig, JobSpec, Player, autarky_energy, break_even_price
from .market import (
    DEFAULT_ENDOWMENT,
    MarketState,
    RoundReport,
    execute_round,
    post_offers,
)
from .pricing import build_price_density
from .walk import WalkParams, derive_trace_seed, simulate_walk

OUTPUT_KINDS = ("trades", "wealth", "savings", "density", "walk")
DISTRIBUTIONS = ("uniform", "log-normal", "pareto")


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
    outputs: list[str]
    players: list[Player] | None = None
    population: PopulationSpec | None = None
    demand: int | dict[tuple[str, str], int] = 1
    initial_money: float = DEFAULT_ENDOWMENT
    walk: WalkRun | None = None


def _check_keys(mapping: dict, allowed: set[str], where: str, errors: list[str]) -> None:
    for key in mapping:
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r}")


def _is_int(x: Any) -> bool:
    """YAML booleans load as Python ints; a count, seed or unit is never one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require(mapping: dict, key: str, where: str, errors: list[str]) -> Any:
    if key not in mapping:
        errors.append(f"{where}: missing required key {key!r}")
        return None
    return mapping[key]


def parse_mapping(raw: Any, source: str = "<config>") -> ScenarioConfig:
    """Validate a parsed YAML tree; raises ConfigError with every problem."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError([f"{source}: top level must be a mapping"])
    _check_keys(
        raw,
        {
            "jobs",
            "players",
            "population",
            "conversion",
            "price_quantum",
            "demand",
            "rounds",
            "master_seed",
            "initial_money",
            "outputs",
            "walk",
        },
        source,
        errors,
    )

    jobs: list[JobSpec] = []
    raw_jobs = _require(raw, "jobs", source, errors)
    if isinstance(raw_jobs, list):
        for n, item in enumerate(raw_jobs):
            where = f"{source}: jobs[{n}]"
            if not isinstance(item, dict):
                errors.append(f"{where}: must be a mapping")
                continue
            _check_keys(item, {"job_id", "workload"}, where, errors)
            jid = _require(item, "job_id", where, errors)
            w = _require(item, "workload", where, errors)
            if jid is not None and w is not None:
                try:
                    jobs.append(JobSpec(str(jid), float(w)))
                except (TypeError, ValueError) as exc:
                    errors.append(f"{where}: {exc}")
    elif raw_jobs is not None:
        errors.append(f"{source}: jobs must be a list")

    players: list[Player] | None = None
    if "players" in raw:
        players = []
        if not isinstance(raw["players"], list):
            errors.append(f"{source}: players must be a list")
        else:
            for n, item in enumerate(raw["players"]):
                where = f"{source}: players[{n}]"
                if not isinstance(item, dict):
                    errors.append(f"{where}: must be a mapping")
                    continue
                _check_keys(item, {"player_id", "efficiencies", "money"}, where, errors)
                pid = _require(item, "player_id", where, errors)
                effs = _require(item, "efficiencies", where, errors)
                if pid is None or not isinstance(effs, dict):
                    if effs is not None and not isinstance(effs, dict):
                        errors.append(f"{where}: efficiencies must be a mapping")
                    continue
                money = item.get("money")
                try:
                    players.append(
                        Player(
                            str(pid),
                            {str(j): float(v) for j, v in effs.items()},
                            money=None if money is None else float(money),
                        )
                    )
                except (TypeError, ValueError) as exc:
                    errors.append(f"{where}: {exc}")

    population: PopulationSpec | None = None
    if "population" in raw:
        where = f"{source}: population"
        pop = raw["population"]
        if not isinstance(pop, dict):
            errors.append(f"{where}: must be a mapping")
        else:
            _check_keys(pop, {"count", "efficiency_distribution", "params"}, where, errors)
            count = _require(pop, "count", where, errors)
            dist = _require(pop, "efficiency_distribution", where, errors)
            params = pop.get("params", {})
            if dist is not None and dist not in DISTRIBUTIONS:
                errors.append(
                    f"{where}: efficiency_distribution must be one of {DISTRIBUTIONS}"
                )
            elif count is not None:
                if not _is_int(count) or count < 1:
                    errors.append(f"{where}: count must be a positive integer")
                else:
                    required = {
                        "uniform": {"low", "high"},
                        "log-normal": {"mu", "sigma"},
                        "pareto": {"alpha", "minimum"},
                    }[dist]
                    if not isinstance(params, dict) or set(params) != required:
                        errors.append(f"{where}: params for {dist} must be {sorted(required)}")
                    else:
                        population = PopulationSpec(
                            count, dist, {k: float(v) for k, v in params.items()}
                        )

    if players is None and population is None:
        errors.append(f"{source}: one of 'players' or 'population' is required")
    if players is not None and population is not None:
        errors.append(f"{source}: 'players' and 'population' are mutually exclusive")

    def _positive(key: str, default: float | None = None) -> float:
        if key not in raw:
            if default is not None:
                return default
            errors.append(f"{source}: missing required key {key!r}")
            return 1.0
        try:
            val = float(raw[key])
        except (TypeError, ValueError):
            errors.append(f"{source}: {key} must be a number")
            return 1.0
        if not val > 0:
            errors.append(f"{source}: {key} must be > 0")
            return 1.0
        return val

    conversion = _positive("conversion")
    price_quantum = _positive("price_quantum")
    initial_money = _positive("initial_money", DEFAULT_ENDOWMENT)

    rounds = raw.get("rounds")
    if not _is_int(rounds) or rounds < 1:
        errors.append(f"{source}: rounds must be an integer >= 1")
        rounds = 1
    master_seed = raw.get("master_seed")
    if not _is_int(master_seed) or master_seed < 0:
        errors.append(f"{source}: master_seed must be a nonnegative integer")
        master_seed = 0

    demand: int | dict[tuple[str, str], int] = 1
    raw_demand = raw.get("demand", 1)
    if _is_int(raw_demand):
        if raw_demand < 0:
            errors.append(f"{source}: demand must be >= 0")
        else:
            demand = raw_demand
    elif isinstance(raw_demand, dict):
        matrix: dict[tuple[str, str], int] = {}
        for pid, per_job in raw_demand.items():
            if not isinstance(per_job, dict):
                errors.append(f"{source}: demand[{pid!r}] must be a mapping")
                continue
            for jid, units in per_job.items():
                if not _is_int(units) or units < 0:
                    errors.append(
                        f"{source}: demand[{pid!r}][{jid!r}] must be a nonnegative integer"
                    )
                else:
                    matrix[(str(pid), str(jid))] = units
        demand = matrix
    else:
        errors.append(f"{source}: demand must be an integer or a nested mapping")

    outputs = raw.get("outputs", [])
    if not isinstance(outputs, list) or any(o not in OUTPUT_KINDS for o in outputs):
        errors.append(f"{source}: outputs must be a list drawn from {OUTPUT_KINDS}")
        outputs = []

    walk: WalkRun | None = None
    if "walk" in raw:
        where = f"{source}: walk"
        w = raw["walk"]
        if not isinstance(w, dict):
            errors.append(f"{where}: must be a mapping")
        else:
            _check_keys(w, {"true_price", "eta", "sigma", "steps", "traces"}, where, errors)
            try:
                walk = WalkRun(
                    params=WalkParams(
                        true_price=float(w["true_price"]),
                        eta=float(w["eta"]),
                        sigma=float(w["sigma"]),
                    ),
                    steps=int(w.get("steps", 1000)),
                    traces=int(w.get("traces", 1)),
                )
                if walk.steps < 1 or walk.traces < 1:
                    errors.append(f"{where}: steps and traces must be >= 1")
                    walk = None
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"{where}: {exc}")
    if "walk" in outputs and walk is None:
        errors.append(f"{source}: outputs include 'walk' but no valid walk block given")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        jobs=jobs,
        conversion=conversion,
        price_quantum=price_quantum,
        rounds=rounds,
        master_seed=master_seed,
        outputs=list(outputs),
        players=players,
        population=population,
        demand=demand,
        initial_money=initial_money,
        walk=walk,
    )


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
    out: dict[str, Any] = {
        "jobs": [{"job_id": j.job_id, "workload": j.workload} for j in sc.jobs],
        "conversion": sc.conversion,
        "price_quantum": sc.price_quantum,
        "rounds": sc.rounds,
        "master_seed": sc.master_seed,
        "initial_money": sc.initial_money,
        "outputs": list(sc.outputs),
    }
    if sc.players is not None:
        out["players"] = [
            {"player_id": p.player_id, "efficiencies": dict(p.efficiencies)}
            | ({} if p.money is None else {"money": p.money})
            for p in sc.players
        ]
    if sc.population is not None:
        out["population"] = {
            "count": sc.population.count,
            "efficiency_distribution": sc.population.efficiency_distribution,
            "params": dict(sc.population.params),
        }
    if isinstance(sc.demand, dict):
        nested: dict[str, dict[str, int]] = {}
        for (pid, jid), units in sc.demand.items():
            nested.setdefault(pid, {})[jid] = units
        out["demand"] = nested
    else:
        out["demand"] = sc.demand
    if sc.walk is not None:
        out["walk"] = {
            "true_price": sc.walk.params.true_price,
            "eta": sc.walk.params.eta,
            "sigma": sc.walk.params.sigma,
            "steps": sc.walk.steps,
            "traces": sc.walk.traces,
        }
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


def _decimals(quantum: float) -> int:
    exponent = decimal.Decimal(repr(quantum)).normalize().as_tuple().exponent
    return max(0, -int(exponent))


def export_csv(rows: list[tuple], header: list[str], path: str | Path) -> Path:
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


def run_scenario(sc: ScenarioConfig, out_dir: str | Path) -> dict[str, Any]:
    """Execute a scenario end to end and write every selected output.

    Returns a summary with the paths written, per-round reports, the final
    state, and the assignment analysis. Byte-identical outputs for equal
    (config, seed).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = build_economy(sc)
    price_dp = _decimals(sc.price_quantum)

    def fp(x: float) -> str:  # price-valued column
        return f"{x:.{price_dp}f}"

    def fe(x: float) -> str:  # energy-valued column
        return f"{x:.9f}"

    assignment, assignment_energy = optimal_assignment(config)
    autarky = autarky_energy(config)

    state = MarketState.from_config(config, sc.initial_money)
    offers = post_offers(config)
    reports: list[RoundReport] = []
    snapshots: list[WealthSnapshot] = []
    spent_by_round: list[dict[str, float]] = []
    keep_detail = "trades" in sc.outputs
    for _ in range(sc.rounds):
        state, report = execute_round(
            config, state, offers=offers, record_detail=keep_detail
        )
        reports.append(report)
        if "wealth" in sc.outputs:
            snapshots.append(
                WealthSnapshot(
                    round=report.round,
                    wealth_by_player=dict(state.money),
                    energy_saved_by_player=dict(state.energy_saved),
                )
            )
            spent_by_round.append(dict(state.energy_spent))

    paths: dict[str, Path] = {}
    if "trades" in sc.outputs:
        rows = [
            (
                str(rep.round),
                t.buyer,
                t.seller,
                t.job,
                str(t.units),
                fp(t.price),
                fe(t.buyer_self_cost),
                fe(t.seller_cost),
                fe(t.system_energy_saved),
            )
            for rep in reports
            for t in rep.trades
        ]
        paths["trades"] = export_csv(
            rows,
            [
                "round",
                "buyer",
                "seller",
                "job",
                "units",
                "price",
                "buyer_self_cost",
                "seller_cost",
                "system_energy_saved",
            ],
            out_dir / "trades.csv",
        )
    if "wealth" in sc.outputs:
        rows = [
            (
                str(s.round),
                pid,
                fp(s.wealth_by_player[pid]),
                fe(spent[pid]),
                fe(s.energy_saved_by_player[pid]),
            )
            for s, spent in zip(snapshots, spent_by_round)
            for pid in config.player_ids()
        ]
        paths["wealth"] = export_csv(
            rows,
            ["round", "player", "money", "energy_spent", "energy_saved"],
            out_dir / "wealth.csv",
        )
    if "savings" in sc.outputs:
        rows = [
            (
                str(rnd),
                fe(rep.autarky_energy),
                fe(rep.energy_expended_total),
                fe(saved),
                fe(frac),
            )
            for rep, (rnd, saved, frac) in zip(reports, system_savings_series(reports))
        ]
        paths["savings"] = export_csv(
            rows,
            ["round", "autarky_energy", "energy_expended", "energy_saved", "saved_fraction"],
            out_dir / "savings.csv",
        )
    if "density" in sc.outputs:
        rows = []
        for jid in config.job_ids():
            be = [
                break_even_price(config.cost(pid, jid), config.conversion)
                for pid in config.player_ids()
            ]
            for price, mass in build_price_density(be).atoms:
                rows.append((jid, fp(price), str(mass)))
        paths["density"] = export_csv(rows, ["job", "price", "mass"], out_dir / "density.csv")
    if "walk" in sc.outputs and sc.walk is not None:
        rows = []
        for i in range(sc.walk.traces):
            trace = simulate_walk(
                sc.walk.params,
                sc.walk.steps,
                derive_trace_seed(sc.master_seed, i),
            )
            for step, value in enumerate(trace.values):
                rows.append((str(i), str(step), fe(float(value))))
        paths["walk"] = export_csv(rows, ["trace", "step", "value"], out_dir / "walk.csv")

    return {
        "paths": paths,
        "reports": reports,
        "final_state": state,
        "config": config,
        "assignment": assignment,
        "assignment_energy": assignment_energy,
        "autarky_energy": autarky,
        "snapshots": snapshots,
    }


def artifact_digests(paths: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of each written artifact, for reproducibility checks."""
    return {
        name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for name, p in sorted(paths.items())
    }
