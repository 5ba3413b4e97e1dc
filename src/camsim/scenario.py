"""Scenario configuration, deterministic execution, and CSV export.

A scenario is a YAML file describing an economy (explicit players or a
seeded population generator), a demand pattern, the number of rounds, the
outputs wanted, and optionally the parameters of the price-estimation
walk. Every random draw derives from the single ``master_seed`` through
numpy SeedSequence spawn keys: ``(0,)`` for population generation and
``(2, i)`` for walk trace ``i`` (the market loop itself draws nothing).
Identical config bytes therefore give byte-identical output files.

A run is one streaming pass. The per-round outputs (trades, wealth,
savings) are opened once. Each round's trades and savings lines are written
as the round ends, then dropped, and its ledgers, updated in place, are
copied into a block of wealth rows that is written when it fills. A round
that repeats the last round's trades reuses their formatted lines. walk.csv
is simulated and written in blocks of steps; only density.csv is built
whole. Every number is printed as ``f"{v:.{d}f}"``. Wealth, walk and
density lines are assembled a block at a time by one writer, ``_lines``,
whose number fields go through a fixed-point kernel (``_fixed_cells``)
where rounding in floats is exact, take Python's digits for half-way
cells, and print by f-strings, field by field, where the kernel refuses.
"""

from __future__ import annotations

import decimal
import hashlib
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

import numpy as np
import yaml

from .analysis import system_savings_series
from .assignment import optimal_assignment
from .core import ID_RULE, EconomyConfig, JobSpec, Player, autarky_energy, csv_safe
from .market import (
    DEFAULT_ENDOWMENT,
    MarketState,
    RoundReport,
    TradeRecord,
    check_ledger_bound,
    execute_round,
    post_offers,
)
from .walk import WalkParams, derive_trace_seed, simulate_walk

class ConfigError(Exception):
    """Carries every validation problem found in a scenario."""

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

    def __post_init__(self) -> None:
        """Hold a config built in code to the YAML's rules between fields.
        Each problem is worded as the rest of a sentence after the config's
        name, as the rules below word theirs."""
        errors: list[str] = []
        if (self.players is None) == (self.population is None):
            errors.append(": give exactly one of 'players' or 'population'")
        outputs = _apply(_outputs, self.outputs, ": outputs", errors) or []
        if "walk" in outputs and self.walk is None:
            errors.append(": outputs include 'walk' but no walk block given")
        if errors:
            raise ConfigError(errors)


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
_SEED = _integer(0)


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
    if efficiency_distribution == "uniform" and params["low"] > params["high"]:
        raise ValueError(": params: low must be <= high")
    return PopulationSpec(count, efficiency_distribution, params)


def _walk(
    true_price: float, eta: float, sigma: float, steps: int = 1000, traces: int = 1
) -> WalkRun:
    return WalkRun(WalkParams(true_price, eta, sigma), steps, traces)


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
        "master_seed": _SEED,
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
    ScenarioConfig,
)


def parse_mapping(raw: Any, source: str = "<config>") -> ScenarioConfig:
    """Validate a parsed YAML tree; raises ConfigError with every problem."""
    errors: list[str] = []
    sc = _apply(SCENARIO_RULE, raw, source, errors)
    if errors:
        raise ConfigError(errors)
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
        seed = _apply(_SEED, master_seed, "--seed: master_seed", errors)
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
    """Materialize the economy. A generated population is drawn as one
    efficiency table and passed in as it is, never as ``Player`` objects."""
    if sc.players is not None:
        ids = [p.player_id for p in sc.players]
    else:
        width = max(4, len(str(sc.population.count)))
        ids = list(map(f"P{{:0{width}d}}".format, range(1, sc.population.count + 1)))
    rest = dict(demand=sc.demand, conversion=sc.conversion, price_quantum=sc.price_quantum)
    if sc.players is not None:
        return EconomyConfig.of(sc.players, sc.jobs, **rest)
    rng = np.random.default_rng(np.random.SeedSequence(sc.master_seed, spawn_key=(0,)))
    jobs = sorted(sc.jobs, key=lambda j: j.job_id)
    with np.errstate(over="ignore"):  # the config reports a draw of inf or 0
        eff = _draw_efficiencies(sc.population, len(jobs), rng)
    return EconomyConfig(ids, [j.job_id for j in jobs], eff, [j.workload for j in jobs], **rest)


def export_csv(rows: Iterable[str], header: Sequence[str], path: str | Path) -> Path:
    """Write the header, then ``rows``: finished CSV text, each piece ending in ``"\\n"``.

    The file is UTF-8 with LF endings, whatever the locale. The caller
    formats every cell, without the locale, at its column's precision.
    """
    path = Path(path)
    with _writing(path), _open(path, header) as fh:
        fh.writelines(rows)
    return path


def _open(path: Path, header: Sequence[str]) -> TextIO:
    """A new CSV file, UTF-8 with LF endings, holding its header line."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    fh.write(",".join(header) + "\n")
    return fh


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Raise an OSError from the block again as ``failed writing <path>: ...``."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


@dataclass(frozen=True)
class _Pieces:
    """CSV text made piece by piece as it is written; len() counts the pieces."""

    count: int
    pieces: Iterator[str]

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[str]:
        return self.pieces


# Cells formatted in arrays. _PAD fills the bytes a shorter cell leaves
# unused; it never occurs in UTF-8, so one boolean compaction drops it from
# finished lines. _DIGITS[c] is the four ASCII digits of 0 <= c < 10**4, as
# one 4-byte word.
_PAD = 0xFF
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_DIGITS = _DIGITS.reshape(10**4, 4).view(np.uint32).ravel()
_POW10 = 10 ** np.arange(16, dtype=np.int64)  # every integer below 2**52 has <= 16 digits
# The wealth.csv and walk.csv rows formatted as one block.
_BLOCK_ROWS = 2048


def _fixed_cells(values: np.ndarray, d: int) -> np.ndarray | None:
    """The UTF-8 bytes of ``f"{v:.{d}f}"`` for every cell v of ``values``.

    Returns uint8 cells of shape ``values.shape + (width,)``: each cell's
    characters in order, with ``_PAD`` bytes where it is shorter than the
    widest. None when some cell is out of the exact range: not finite, or
    ``|v|·10**d >= 2**52``.

    ``p = |v|·10**d`` is the exact product P rounded once. Below 2**52 every
    half-integer is a float, and rounding to nearest never steps over a
    float, so ``rint(p)`` is P rounded half to even unless p is itself a
    half-integer. There P may lie either side of p, so those few cells take
    their digits from Python's own f-string. The integer digits are counted
    by exact comparisons with powers of ten, and the sign is the sign bit,
    so ``-0.0`` prints ``-0``.
    """
    v = np.asarray(values, dtype=np.float64)
    if d > 22:  # 10**d is a float exactly up to 10**22
        return None
    with np.errstate(over="ignore"):
        p = np.abs(v) * float(10**d)
    if not (p < 2.0**52).all():
        return None
    r = np.rint(p)
    half = np.flatnonzero(np.abs(p - r) == 0.5)
    if half.size:
        r.flat[half] = [int(f"{x:.{d}f}".replace(".", "")) for x in np.abs(v.flat[half]).tolist()]
    q, n = r.astype(np.int64).ravel(), r.size
    whole = np.maximum(np.searchsorted(_POW10, q, side="right") - d, 1)
    m = int(whole.max(initial=1))
    words = np.empty((n, -(-(m + d) // 4)), np.uint32)
    for j in reversed(range(words.shape[1])):
        high = q // 10**4
        words[:, j] = _DIGITS[q - high * 10**4]
        q = high
    digits = words.view(np.uint8)[:, -(m + d) :]
    cells = np.empty((n, 1 + m + (d > 0) + d), np.uint8)
    cells[:, 0] = np.where(np.signbit(v).ravel(), ord("-"), _PAD)
    cells[:, 1 : m + 1] = digits[:, :m]
    for j in range(m - int(whole.min(initial=m))):  # leading zeros
        cells[whole < m - j, 1 + j] = _PAD
    if d:
        cells[:, m + 1] = ord(".")
        cells[:, m + 2 :] = digits[:, m:]
    return cells.reshape(*v.shape, cells.shape[1])


def _text_cells(texts: Sequence[str]) -> np.ndarray:
    """The UTF-8 bytes of each text, one row each, padded with ``_PAD``."""
    raw = [t.encode() for t in texts]
    width = max(map(len, raw), default=0)
    joined = b"".join(b.ljust(width, bytes([_PAD])) for b in raw)
    return np.frombuffer(joined, np.uint8).reshape(len(raw), width)


# A field of a block of CSV lines: the _text_cells of some texts, or
# (values, d), numbers that print as f"{v:.{d}f}" of a float.
Field = np.ndarray | tuple[Any, int]


def _lines(shape: tuple[int, ...], *fields: Field) -> str:
    """One CSV line per index of ``shape``, in row-major order: each field's
    cells broadcast to ``shape + (their width,)``. A number field prints
    through ``_fixed_cells``, or, when some cell of it is out of that
    kernel's exact range, as the ``_text_cells`` of its f-strings; both give
    the same bytes."""
    cells = []
    for f in fields:
        if not isinstance(f, np.ndarray):
            values, d = np.asarray(f[0], np.float64), f[1]
            f = _fixed_cells(values, d)
            if f is None:
                f = _text_cells([f"{v:.{d}f}" for v in values.ravel().tolist()])
                f = f.reshape(*values.shape, f.shape[-1])
        cells.append(f)
    lines = np.empty((*shape, sum(c.shape[-1] + 1 for c in cells)), np.uint8)
    at = 0
    for c in cells:
        w = c.shape[-1]
        lines[..., at : at + w] = c
        lines[..., at + w] = ord(",")
        at += w + 1
    lines[..., -1] = ord("\n")
    flat = lines.ravel()
    return str(flat[flat != _PAD], "utf-8")


def _price_decimals(quantum: float) -> int:
    """Prices print at the price quantum's decimals: 0.01 gives 2."""
    exponent = decimal.Decimal(repr(quantum)).normalize().as_tuple().exponent
    return max(0, -int(exponent))


def _trade_lines(d: int, trades: tuple[TradeRecord, ...]) -> list[str]:
    """One round's trades.csv lines, without the round and the newline."""
    return [
        f"{t.buyer},{t.seller},{t.job},{t.units},{t.price:.{d}f},"
        f"{t.buyer_self_cost:.9f},{t.seller_cost:.9f},{t.system_energy_saved:.9f}"
        for t in trades
    ]


def _savings_line(report: RoundReport) -> str:
    [(rnd, saved, frac)] = system_savings_series([report])
    autarky, expended = report.autarky_energy, report.energy_expended_total
    return f"{rnd},{autarky:.9f},{expended:.9f},{saved:.9f},{frac:.9f}\n"


def _density_lines(config: EconomyConfig, d: int) -> _Pieces:
    """density.csv as one text: each job's atoms, from ``config.densities``."""
    jobs, densities = config.job_ids(), config.densities
    job = np.repeat(np.arange(len(jobs)), [x.prices.size for x in densities])
    prices = np.concatenate([np.empty(0), *(x.prices for x in densities)])
    masses = np.concatenate([np.empty(0, np.int64), *(x.masses for x in densities)])
    text = _lines(job.shape, _text_cells(jobs)[job], (prices, d), (masses, 0))
    return _Pieces(job.size, iter([text]))


def _walk_lines(sc: ScenarioConfig) -> _Pieces:
    """walk.csv in blocks of ``_BLOCK_ROWS`` steps, each simulated as it is
    written: a trace's blocks draw from one generator, and each starts from
    the last value of the one before, so they are the trace drawn whole."""
    walk = sc.walk

    def blocks() -> Iterator[str]:
        for i in range(walk.traces):
            trace = _text_cells([str(i)])
            seed = np.random.SeedSequence(derive_trace_seed(sc.master_seed, i))
            rng, last = np.random.default_rng(seed), None
            for first in range(0, walk.steps, _BLOCK_ROWS):
                steps = min(_BLOCK_ROWS, walk.steps - first)
                values = simulate_walk(walk.params, steps, rng, start=last).values
                last = float(values[-1])
                yield _lines((steps,), trace, (np.arange(first, first + steps), 0), (values, 9))

    return _Pieces(walk.traces * -(-walk.steps // _BLOCK_ROWS), blocks())


# Each output kind's CSV header; a selected kind is written to <kind>.csv.
# Energies print at 9 decimals and prices at the price quantum's decimals.
HEADERS = {
    "trades": (
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
    "wealth": ("round", "player", "money", "energy_spent", "energy_saved"),
    "savings": ("round", "autarky_energy", "energy_expended", "energy_saved", "saved_fraction"),
    "density": ("job", "price", "mass"),
    "walk": ("trace", "step", "value"),
}
OUTPUT_KINDS = tuple(HEADERS)


def run_scenario(
    sc: ScenarioConfig,
    out_dir: str | Path,
    observe: Callable[[RoundReport, EconomyConfig], None] | None = None,
) -> dict[str, Any]:
    """Execute a scenario end to end and write every selected output.

    The rounds stream: after each round its lines are appended to the
    trades and savings CSVs, and ``observe(report, config)``, when given,
    sees its report. Each round's ledgers are copied into a block of at
    most ``_BLOCK_ROWS`` wealth rows, whose text is written when the block
    is full and after the last round. No round's state or report outlives
    the round, and only the last distinct trades' lines do, so memory does
    not grow with the number of rounds.

    Returns the paths written (``paths``), the economy (``config``), the
    trades over all rounds (``n_trades``), and the per-round energy of the
    optimal assignment and of autarky. Equal (config, seed) give
    byte-identical outputs. An economy the config cannot describe, such as
    a player without an efficiency for some job, jobs without players, or
    one whose ledgers could overflow a float within the rounds, raises
    ConfigError before any file is written.
    """
    try:
        config = build_economy(sc)
        state = MarketState.from_config(config, sc.initial_money)
        check_ledger_bound(config, state, sc.rounds)
        _, assignment_energy = optimal_assignment(config)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    autarky = autarky_energy(config)

    paths = {kind: out_dir / f"{kind}.csv" for kind in HEADERS if kind in sc.outputs}
    offers = post_offers(config)
    d = _price_decimals(sc.price_quantum)
    n_trades = 0
    ids = _text_cells(config.player_ids())
    block = np.empty((min(sc.rounds, max(1, _BLOCK_ROWS // (len(ids) or 1))), 3, len(ids)))
    with ExitStack() as files:
        sinks = {}
        for kind, path in paths.items():
            if kind == "density":
                export_csv(_density_lines(config, d), HEADERS[kind], path)
            elif kind == "walk":
                export_csv(_walk_lines(sc), HEADERS[kind], path)
            else:
                with _writing(path):
                    sinks[kind] = files.enter_context(_open(path, HEADERS[kind]))

        def write(kind: str, text: str) -> None:
            with _writing(paths[kind]):
                sinks[kind].write(text)

        # The trades last formatted, and their lines. A round whose report
        # holds that same tuple repeats its trades (see execute_round). The
        # tuple is held, so `is` cannot match a freed tuple's recycled id.
        last, body = None, []
        for n in range(sc.rounds):
            state, report = execute_round(
                config, state, offers=offers, record_detail="trades" in sinks
            )
            n_trades += report.n_trades
            if observe is not None:
                observe(report, config)
            if "trades" in sinks:
                if report.trades is not last:
                    last, body = report.trades, _trade_lines(d, report.trades)
                r = report.round
                write("trades", f"{r}," + f"\n{r},".join(body) + "\n" if body else "")
            if "wealth" in sinks:
                k = n % len(block) + 1
                block[k - 1] = state.money, state.energy_spent, state.energy_saved
                if k == len(block) or n + 1 == sc.rounds:
                    money, spent, saved = block[:k].transpose(1, 0, 2)
                    first = state.round - k + 1
                    rounds = _text_cells([str(r) for r in range(first, first + k)])
                    fields = rounds[:, None], ids, (money, d), (spent, 9), (saved, 9)
                    write("wealth", _lines((k, len(ids)), *fields))
            if "savings" in sinks:
                write("savings", _savings_line(report))
        for kind, fh in sinks.items():
            with _writing(paths[kind]):
                fh.close()
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
