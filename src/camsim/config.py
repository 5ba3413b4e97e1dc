"""Scenario configuration: the YAML's rules, and the economy they describe.

A scenario is a YAML file describing an economy (explicit players or a
seeded population generator), a demand pattern, the number of rounds, the
outputs wanted, and optionally the parameters of the price-estimation
walk. Every random draw derives from the single ``master_seed`` through
numpy SeedSequence spawn keys: ``(0,)`` for population generation and
``(2, i)`` for walk trace ``i`` (the market loop itself draws nothing).
Identical config bytes therefore give byte-identical output files. A
``ScenarioConfig``, ``PopulationSpec``, ``WalkRun`` or ``WalkParams`` built
in code is held to each field's rule, from the same table the YAML uses, in
its words.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .core import ID_RULE, EconomyConfig, JobSpec, Player, csv_safe, is_count
from .csvtext import OUTPUT_KINDS
from .market import DEFAULT_ENDOWMENT


class ConfigError(ValueError):
    """Carries every validation problem found in a scenario."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class PopulationSpec:
    """A drawn population. Built in code, it holds to the YAML's rules too."""

    count: int
    efficiency_distribution: str
    params: dict[str, float]

    def __post_init__(self) -> None:
        _check_fields(self, _POPULATION_RULES)
        name, params = self.efficiency_distribution, self.params
        if name not in EFFICIENCY_DRAWS:
            problem = f"efficiency_distribution must be one of {tuple(EFFICIENCY_DRAWS)}"
        elif set(params) != set(names := EFFICIENCY_DRAWS[name][0]):
            problem = f"params for {name} must be {sorted(names)}"
        elif name == "uniform" and params["low"] > params["high"]:
            problem = "params: low must be <= high"
        else:
            return
        raise ConfigError([f": {problem}"])


@dataclass(frozen=True)
class WalkParams:
    """A walk's parameters. Built in code, they hold to the YAML's rules
    (``WALK_PARAM_RULES``) and raise its ConfigError."""

    true_price: float
    eta: float
    sigma: float

    def __post_init__(self) -> None:
        _check_fields(self, WALK_PARAM_RULES)
        # A -0.0 true price walks from 0.0, so walk.csv never prints -0.
        object.__setattr__(self, "true_price", self.true_price + 0.0)


@dataclass(frozen=True)
class WalkRun:
    params: WalkParams
    steps: int
    traces: int

    def __post_init__(self) -> None:
        _check_fields(self, _WALK_RULES)


@dataclass
class ScenarioConfig:
    """A scenario. Built in code, it holds to each field's YAML rule and to
    those between fields, raising ConfigError in the YAML's words; ``jobs``,
    ``players`` and ``demand`` hold to ``JobSpec``, ``Player`` and ``EconomyConfig``."""

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

    def __post_init__(self) -> None:
        errors: list[str] = []
        if (self.players is None) == (self.population is None):
            errors.append(": give exactly one of 'players' or 'population'")
        if isinstance(self.outputs, list) and "walk" in self.outputs and self.walk is None:
            errors.append(": outputs include 'walk' but no walk block given")
        _check_fields(self, _SCALAR_RULES, errors)


# A rule returns the checked value of one config entry. It raises ValueError
# for one problem, or ConfigError (a ValueError) for several, each worded as
# the rest of the sentence that follows the entry's name (" must be ...",
# ": unknown key ...").
Rule = Callable[[Any], Any]


def _apply(rule: Rule, value: Any, name: str, errors: list[str]) -> Any:
    """rule(value), or None with each problem appended to errors under name."""
    try:
        return rule(value)
    except ConfigError as exc:
        errors += [f"{name}{e}" for e in exc.errors]
    except ValueError as exc:
        errors.append(f"{name}{exc}")
    return None


def _checked(entries: Iterable[tuple[str, Rule, Any]], errors: Sequence[str] = ()) -> list:
    """rule(value) of each (name, rule, value); if any fails, one ConfigError
    holds ``errors`` and then each problem under its entry's name."""
    errors = list(errors)
    values = [_apply(rule, value, name, errors) for name, rule, value in entries]
    if errors:
        raise ConfigError(errors)
    return values


def _check_fields(spec: Any, rules: dict[str, Rule], errors: Sequence[str] = ()) -> None:
    """Set each field of ``spec`` named in ``rules``, frozen or not, to its checked value."""
    values = _checked([(f": {k}", rule, getattr(spec, k)) for k, rule in rules.items()], errors)
    spec.__dict__.update(zip(rules, values))


def _integer(low: int) -> Rule:
    """An integer >= low, as ``is_count`` tests it."""

    def rule(x: Any) -> int:
        if not is_count(x, low):
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
        keys = [k for k in x if k in rules]
        values = _checked([(f": {k}", rules[k], x[k]) for k in keys], errors)
        return build(**dict(zip(keys, values)))

    return rule


def _list_of(rule: Rule, nonempty: bool = False) -> Rule:
    def check(x: Any) -> list:
        if not isinstance(x, list):
            raise ValueError(" must be a list")
        if nonempty and not x:
            raise ValueError(" must not be empty")
        return _checked((f"[{n}]", rule, item) for n, item in enumerate(x))

    return check


def _by_id(rule: Rule) -> Rule:
    """A mapping from player or job ids to values that each pass ``rule``."""

    def check(x: Any) -> dict[str, Any]:
        if not isinstance(x, dict):
            raise ValueError(" must be a mapping")
        return dict(zip(map(str, x), _checked((f"[{k!r}]", rule, v) for k, v in x.items())))

    return check


def _demand(x: Any) -> int | dict[tuple[str, str], int]:
    """Units per round: one count for all (player, job), or {player: {job: units}}."""
    if not isinstance(x, dict):
        return _integer(0)(x)
    rows = _by_id(_by_id(_integer(0)))(x)
    return {(pid, jid): units for pid, row in rows.items() for jid, units in row.items()}


def _id(x: Any) -> str:
    """A player or job id. CSVs print ids unquoted: no comma, quote, CR or LF."""
    x = str(x)
    if not csv_safe(x):
        raise ValueError(ID_RULE)
    return x


def _outputs(x: Any) -> list[str]:
    if not isinstance(x, list) or any(o not in OUTPUT_KINDS for o in x):
        raise ValueError(f" must be a list drawn from {OUTPUT_KINDS}")
    return list(x)


# Each distribution of drawn efficiencies: its parameters' names, and its
# draw of a table of the given size from them, in that order.
EFFICIENCY_DRAWS: dict[str, tuple[tuple[str, ...], Callable[..., np.ndarray]]] = {
    "uniform": (("low", "high"), lambda rng, low, high, size: rng.uniform(low, high, size)),
    "log-normal": (("mu", "sigma"), lambda rng, mu, sigma, size: rng.lognormal(mu, sigma, size)),
    "pareto": (("alpha", "minimum"), lambda rng, a, m, size: m * (1.0 + rng.pareto(a, size))),
}
# Each parameter's rule: every drawn efficiency must be finite and > 0.
PARAM_RULES = {
    "low": _POSITIVE,
    "high": _POSITIVE,
    "mu": _number(),
    "sigma": _NONNEGATIVE,
    "alpha": _POSITIVE,
    "minimum": _POSITIVE,
}
_POPULATION_RULES = {
    "count": _integer(1),
    "efficiency_distribution": str,
    "params": _mapping(PARAM_RULES),
}
WALK_PARAM_RULES = {
    "true_price": _NONNEGATIVE,
    "eta": _number(" in (0, 2)", lambda v: 0 < v < 2),
    "sigma": _NONNEGATIVE,
}
_WALK_RULES = {"steps": _integer(1), "traces": _integer(1)}
_SCALAR_RULES = {
    "conversion": _POSITIVE,
    "price_quantum": _POSITIVE,
    "rounds": _integer(1),
    "master_seed": _integer(0),
    "initial_money": _POSITIVE,
    "outputs": _outputs,
}


SCENARIO_RULE = _mapping(
    {
        "jobs": _list_of(
            _mapping(
                {"job_id": _id, "workload": _NONNEGATIVE}, ("job_id", "workload"), JobSpec
            )
        ),
        "players": _list_of(
            _mapping(
                {
                    "player_id": _id,
                    "efficiencies": _by_id(_POSITIVE),
                    "money": _NONNEGATIVE,
                },
                ("player_id", "efficiencies"),
                Player,
            ),
            nonempty=True,
        ),
        "population": _mapping(_POPULATION_RULES, tuple(_POPULATION_RULES), PopulationSpec),
        "demand": _demand,
        "walk": _mapping(
            {**WALK_PARAM_RULES, **_WALK_RULES},
            ("true_price", "eta", "sigma"),
            lambda steps=1000, traces=1, **p: WalkRun(WalkParams(**p), steps, traces),
        ),
        **_SCALAR_RULES,
    },
    ("jobs", "conversion", "price_quantum", "rounds", "master_seed"),
    ScenarioConfig,
)


def parse_mapping(raw: Any, source: str = "<config>") -> ScenarioConfig:
    """Validate a parsed YAML tree; raises ConfigError with every problem."""
    [sc] = _checked([(source, SCENARIO_RULE, raw)])
    return sc


# libyaml's parser when PyYAML was built with it; both build the same tree.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path, master_seed: int | None = None) -> ScenarioConfig:
    """Parse and fully validate a scenario file; reports all errors at once.

    PyYAML reads the file's bytes and picks the encoding (UTF-8 unless a
    byte-order mark says otherwise), whatever the locale, so bytes it cannot
    decode are bad YAML. A ``master_seed`` given here, the CLI's ``--seed``,
    stands in for the file's, which may then be missing; it passes the same
    rule, and a bad one is reported with the file's problems.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    errors: list[str] = []
    seed = None
    if master_seed is not None:
        seed = _apply(_SCALAR_RULES["master_seed"], master_seed, "--seed: master_seed", errors)
    try:
        with path.open("rb") as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except yaml.YAMLError as exc:
        message = " ".join(str(exc).split())  # one line, like every other error
        raise ConfigError([f"{path}: not valid YAML: {message}", *errors]) from exc
    if master_seed is not None and isinstance(raw, dict):
        # A bad --seed is reported once, under its own name.
        raw = {**raw, "master_seed": 0 if seed is None else seed}
    try:
        sc = parse_mapping(raw, source=str(path))
    except ConfigError as exc:
        errors = exc.errors + errors
    if errors:
        raise ConfigError(errors)
    return sc


def build_economy(sc: ScenarioConfig) -> EconomyConfig:
    """Materialize the economy. A generated population is drawn as one
    efficiency table and passed in as it is, never as ``Player`` objects."""
    rest = dict(demand=sc.demand, conversion=sc.conversion, price_quantum=sc.price_quantum)
    if sc.players is not None:
        return EconomyConfig.of(sc.players, sc.jobs, **rest)
    width = max(4, len(str(sc.population.count)))
    ids = list(map(f"P{{:0{width}d}}".format, range(1, sc.population.count + 1)))
    rng = np.random.default_rng(np.random.SeedSequence(sc.master_seed, spawn_key=(0,)))
    pop, jobs = sc.population, sorted(sc.jobs, key=lambda j: j.job_id)
    names, draw = EFFICIENCY_DRAWS[pop.efficiency_distribution]
    with np.errstate(over="ignore"):  # the config reports a draw of inf or 0
        eff = draw(rng, *[pop.params[k] for k in names], (pop.count, len(jobs)))
    return EconomyConfig(ids, [j.job_id for j in jobs], eff, [j.workload for j in jobs], **rest)

