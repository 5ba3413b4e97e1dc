"""wealth.csv, walk.csv and density.csv are formatted in blocks of rows by
an exact fixed-point kernel. These tests hold the kernel to Python's own
``f"{v:.{d}f}"`` and the blocks to the per-cell oracle."""

import dataclasses
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import camsim
from camsim import csvtext, market, scenario
from camsim.cli import main
from camsim.config import parse_mapping
from camsim.csvtext import _PAD, _fixed_cells
from camsim.scenario import artifact_digests, run_scenario
from tests.oracles import run_scenario_by_cell
from tests.test_market import count_repeats
from tests.test_scenario import ALTERNATING, assert_same_bytes, golden_with, small_scenarios

DATA = Path(__file__).parent / "data"
WORKLOADS = sorted((Path(__file__).parents[1] / "bench" / "workloads").glob("*.yaml"))


def cell_texts(values: list[float], d: int) -> list[str] | None:
    cells = _fixed_cells(np.array(values), d)
    if cells is None:
        return None
    return [bytes(c[c != _PAD]).decode() for c in cells]


@st.composite
def hard_doubles(draw, d: int) -> float:
    """Doubles where fixed-point printing is hard at ``d`` decimals: exact
    ties k/2**m, the edge of the exact range, the last value before a carry
    adds a digit, and a few floats either side of each; or any double."""
    kind = draw(st.sampled_from(["any", "tie", "edge", "nines", "half-nines"]))
    if kind == "any":
        return draw(st.floats(allow_nan=False, allow_infinity=False))
    if kind == "tie":
        v = draw(st.integers(-(2**53), 2**53)) / 2.0 ** draw(st.integers(0, 60))
    else:
        q = 10 ** draw(st.integers(1, 16)) - 1
        v = {"edge": 2.0**52, "nines": q, "half-nines": q + 0.5}[kind] / 10**d
    for _ in range(abs(step := draw(st.integers(-3, 3)))):
        v = float(np.nextafter(v, np.inf if step > 0 else -np.inf))
    return -v if draw(st.booleans()) else v


@st.composite
def blocks(draw) -> tuple[list[float], int]:
    d = draw(st.integers(0, 12))
    return draw(st.lists(hard_doubles(d), min_size=1, max_size=8)), d


@given(block=blocks())
@example(block=([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308], 9))
@example(block=([0.5, 1.5, 2.5, -0.5, 0.125, 0.375], 0))
@example(block=([0.125, 0.375, 1.005, 2.675, 9.995, 99.995], 2))
@example(block=([2.0**52 / 10**9, float(np.nextafter(2.0**52 / 10**9, 0))], 9))
@settings(max_examples=1000, deadline=None)
def test_fixed_cells_print_as_python_does(block):
    """Each cell is ``f"{v:.{d}f}"`` byte for byte, or the block is reported
    out of range, exactly when some |v|·10**d is not below 2**52."""
    values, d = block
    texts = cell_texts(values, d)
    assert (texts is None) == any(not abs(v) * 10.0**d < 2.0**52 for v in values)
    if texts is not None:
        assert texts == [f"{v:.{d}f}" for v in values]


# Integer parts that end on a 4-digit word's boundary, or one past it.
WORD_EDGES = [9999.5, 10000.0, 10.0**8 - 1, 10.0**8, 9999.0, 0.0, 0.5, 0.25, 1234.5678]


@pytest.mark.parametrize("signs", ["positive", "mixed"])
@pytest.mark.parametrize("d", range(8))
def test_cells_at_word_edges_print_as_python_does(d, signs):
    """Every d % 4, twice, with integer parts of 1, 4, 5, 8 and 9 digits.
    The cells are as wide as the widest without its sign, plus a sign column
    only in a block with a negative cell."""
    values = WORD_EDGES if signs == "positive" else [-v for v in WORD_EDGES[::2]] + WORD_EDGES[1::2]
    assert cell_texts(values, d) == [f"{v:.{d}f}" for v in values]
    width = max(len(f"{abs(v):.{d}f}") for v in values) + (signs == "mixed")
    assert _fixed_cells(np.array(values), d).shape == (len(values), width)


def test_a_block_of_2048_rows_and_three_fields_peaks_below_the_digit_kernel():
    """One wealth block of 2,048 lines: money at 2 decimals and two energies
    at 9, formatted in bytes of its own. Its tracemalloc peak was at most
    339,902 bytes in three runs when the kernel printed a digit at a time,
    and is 321,030 bytes with words."""
    rng = np.random.default_rng(0)
    fields = [(rng.uniform(0.0, hi, 2048), d) for hi, d in ((2e4, 2), (5e4, 9), (3e3, 9))]
    csvtext._lines((2048,), *fields)  # warm-up
    tracemalloc.start()
    try:
        text = csvtext._lines((2048,), *fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 2048
    assert peak <= 339_902


def test_fixed_cells_refuse_what_is_not_finite():
    for v in (np.nan, np.inf, -np.inf):
        assert _fixed_cells(np.array([1.0, v]), 2) is None
    for d in (23, 400):  # 10**23 is not a float, and 10**400 overflows one
        assert _fixed_cells(np.array([1.0]), d) is None


def test_fixed_cells_keep_the_shape_of_the_values():
    cells = _fixed_cells(np.arange(6.0).reshape(2, 3), 1)
    assert cells.shape[:2] == (2, 3)
    assert cell_texts([], 3) == []


@pytest.mark.parametrize("rows", [1, 7])
@given(sc=small_scenarios())
@example(sc=parse_mapping(ALTERNATING))
@example(sc=parse_mapping({**ALTERNATING, "rounds": 5}))
@settings(max_examples=20, deadline=None)
def test_any_block_budget_matches_the_per_cell_oracle(rows, sc):
    """Blocks of one row, and of seven, which split the rounds and the walk
    steps unevenly, write the bytes of the per-cell lines too."""
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(scenario, "_BLOCK_ROWS", rows)
        paths = run_scenario(sc, Path(tmp) / "run")["paths"]
        assert_same_bytes(paths, run_scenario_by_cell(sc, Path(tmp) / "oracle"))


def test_cells_out_of_the_exact_range_match_the_oracle(tmp_path):
    """Money at 12 decimals and walk values of 1e8 at 9 leave the kernel's
    range, so those blocks print through the f-string path."""
    sc = parse_mapping(
        golden_with(
            "price_quantum: 1.0e-12\n"
            "rounds: 3\n"
            "outputs: [trades, wealth, walk]\n"
            "walk: {true_price: 1.0e+8, eta: 0.5, sigma: 1.0, steps: 5}\n"
        )
    )
    assert _fixed_cells(np.array([sc.initial_money]), 12) is None
    assert _fixed_cells(np.array([1.0e8]), 9) is None
    paths = run_scenario(sc, tmp_path / "run")["paths"]
    assert_same_bytes(paths, run_scenario_by_cell(sc, tmp_path / "oracle"))
    money = [line.split(",")[2] for line in paths["wealth"].read_text().splitlines()[1:]]
    assert all(len(cell.split(".")[1]) == 12 for cell in money)


def test_density_out_of_the_exact_range_matches_the_oracle(tmp_path):
    """Prices at 16 decimals leave the kernel's range, so density.csv
    prints through the f-string path."""
    sc = parse_mapping(golden_with("price_quantum: 1.0e-16\nrounds: 1\noutputs: [density]\n"))
    assert _fixed_cells(np.array([10.0]), 16) is None
    paths = run_scenario(sc, tmp_path / "run")["paths"]
    assert_same_bytes(paths, run_scenario_by_cell(sc, tmp_path / "oracle"))
    assert paths["density"].read_text().splitlines()[1] == "x,5.0000000000000000,1"


def test_an_economy_without_jobs_matches_the_oracle(tmp_path):
    sc = parse_mapping(
        golden_with(
            "jobs: []\n"
            "players: [{player_id: P1, efficiencies: {}}]\n"
            "outputs: [trades, wealth, savings, density]\n"
        )
    )
    paths = run_scenario(sc, tmp_path / "run")["paths"]
    assert_same_bytes(paths, run_scenario_by_cell(sc, tmp_path / "oracle"))
    assert paths["density"].read_text() == "job,price,mass\n"


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda p: p.stem)
def test_bench_workloads_shortened_match_the_per_cell_oracle(tmp_path, workload):
    raw = yaml.safe_load(workload.read_bytes())
    raw["rounds"] = 30
    if "walk" in raw:
        raw["walk"]["steps"] = 3000
    sc = parse_mapping(raw)
    paths = run_scenario(sc, tmp_path / "run")["paths"]
    assert_same_bytes(paths, run_scenario_by_cell(sc, tmp_path / "oracle"))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda p: p.stem)
def test_bench_workloads_shortened_write_the_same_bytes_without_the_repeat_check(
    tmp_path, monkeypatch, workload
):
    """With no outcome keeping what the repeat check needs, every round is
    decided column by column, and the shortened workloads write the same
    bytes as with the check."""
    raw = yaml.safe_load(workload.read_bytes())
    raw["rounds"] = 30
    if "walk" in raw:
        raw["walk"]["steps"] = 3000
    sc = parse_mapping(raw)
    passed = count_repeats(monkeypatch)
    checked = run_scenario(sc, tmp_path / "checked")["paths"]
    assert sum(passed) == 29  # every round after the first repeats it
    passed.clear()
    outcome = market._RoundPlan._outcome
    monkeypatch.setattr(
        market._RoundPlan,
        "_outcome",
        lambda plan, buy, record_detail: dataclasses.replace(
            outcome(plan, buy, record_detail), repeat=None
        ),
    )
    assert_same_bytes(run_scenario(sc, tmp_path / "unchecked")["paths"], checked)
    assert len(passed) == 30 and not any(passed)


# The fields the kernel refuses, by decimals: every one, or some, so that
# each wealth and walk block mixes kernel and f-string fields. The 9-decimal
# fields end every such line, so refusing all but those puts f-string fields
# mid-line too.
REFUSALS = {
    "": lambda d: True,
    "-refusing-9-decimals": lambda d: d == 9,
    "-refusing-all-but-9-decimals": lambda d: d != 9,
}
FALLBACKS = [
    pytest.param(w, refuses, id=w.stem + name)
    for name, refuses in REFUSALS.items()
    for w in WORKLOADS
]


@pytest.mark.parametrize("workload, refuses", FALLBACKS)
def test_the_f_string_fallback_writes_the_kernel_bytes(tmp_path, monkeypatch, workload, refuses):
    """With the kernel refusing fields, wealth, walk and density print those
    fields through the one f-string fallback, the step and mass columns as
    ``.0f`` of a float, and all five outputs keep the kernel's bytes and the
    oracle's. The kernel refuses each refused ``d`` of the run at least once,
    so a patch that ``_lines`` does not read fails here."""
    raw = yaml.safe_load(workload.read_bytes())
    raw["rounds"] = 30
    raw["outputs"] = list(csvtext.OUTPUT_KINDS)
    raw["walk"] = {**raw.get("walk", {"true_price": 1.0, "eta": 0.5, "sigma": 0.1}), "steps": 3000}
    sc = parse_mapping(raw)
    kernel = run_scenario(sc, tmp_path / "kernel")["paths"]
    kernel_cells = csvtext._fixed_cells
    refused = Counter()

    def refusing(values, d):
        if refuses(d):
            refused[d] += 1
            return None
        return kernel_cells(values, d)

    monkeypatch.setattr(csvtext, "_fixed_cells", refusing)
    fallback = run_scenario(sc, tmp_path / "fallback")["paths"]
    # Steps and masses print at 0 decimals, prices at the quantum's, energies
    # and walk values at 9.
    decimals = {0, 9, scenario._price_decimals(sc.price_quantum)}
    assert all(refused[d] for d in decimals if refuses(d)), refused
    assert_same_bytes(fallback, kernel)
    assert_same_bytes(fallback, run_scenario_by_cell(sc, tmp_path / "oracle"))


def test_walk_memory_does_not_grow_with_steps(tmp_path):
    """walk.csv is simulated a piece and written a block at a time, so ten
    times the steps may not take ten times the memory."""

    def peak(steps: int) -> int:
        sc = parse_mapping(
            golden_with(
                "outputs: [walk]\n"
                f"walk: {{true_price: 1.0, eta: 0.5, sigma: 0.1, steps: {steps}}}\n"
            )
        )
        tracemalloc.start()
        try:
            run_scenario(sc, tmp_path / str(steps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20_000)  # warm-up, so that one-off caches count in neither run
    assert peak(200_000) <= 2 * peak(20_000)


FULL = pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")


@pytest.mark.parametrize("target", ["directory", pytest.param("/dev/full", marks=FULL)])
def test_cli_walk_csv_write_error_exits_2_naming_it(tmp_path, capsys, target):
    """A walk block that cannot be written names walk.csv, as the other
    outputs do."""
    config = tmp_path / "walk.yaml"
    config.write_text(
        yaml.safe_dump(
            golden_with(
                "outputs: [wealth, walk]\n"
                "walk: {true_price: 1.0, eta: 0.5, sigma: 0.1, steps: 5000}\n"
            )
        )
    )
    out = tmp_path / "out"
    out.mkdir()
    if target == "directory":
        (out / "walk.csv").mkdir()
    else:
        (out / "walk.csv").symlink_to(target)
    assert main([str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"failed writing {out / 'walk'}.csv: ")


def test_csvs_are_utf8_whatever_the_locale(tmp_path):
    """A player id outside ASCII is written as UTF-8 under the C locale too,
    with Python's UTF-8 mode and locale coercion both off."""
    config = tmp_path / "golden.yaml"
    text = (DATA / "golden.yaml").read_text(encoding="utf-8")
    config.write_bytes(text.replace("P1", "Pé").encode("utf-8"))
    src = Path(camsim.__file__).resolve().parents[1]
    entry = "import sys; from camsim.cli import main; sys.exit(main(sys.argv[1:]))"
    digests = {}
    for locale in ("C", "C.utf8"):
        env = dict(
            os.environ,
            LC_ALL=locale,
            PYTHONCOERCECLOCALE="0",
            PYTHONUTF8="0",
            PYTHONPATH=str(src),
        )
        out = tmp_path / locale
        argv = [sys.executable, "-c", entry, str(config), "-o", str(out)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests[locale] = artifact_digests({p.stem: p for p in out.iterdir()})
    assert digests["C"] == digests["C.utf8"]
    assert "Pé," in (tmp_path / "C" / "wealth.csv").read_text(encoding="utf-8")
