"""wealth.csv is formatted in a forked writer process while the rounds run.
These tests hold its bytes to the same writer run in process and to the
per-cell oracle, and check that no writer outlives ``run_scenario``, however
the run ends."""

import os
import re
import warnings
from pathlib import Path

import pytest
import yaml

from camsim import market, scenario
from camsim.config import load_config, parse_mapping
from camsim.scenario import run_scenario
from tests.oracles import run_scenario_by_cell
from tests.test_scenario import ALTERNATING, assert_same_bytes, golden_with

DATA = Path(__file__).parent / "data"
WORKLOADS = sorted((Path(__file__).parents[1] / "bench" / "workloads").glob("*.yaml"))
# 200 players x 300 rounds of wealth rows: 30 blocks of 10 rounds, each
# block's text far over a file buffer, and more blocks than a pipe holds.
LONG = golden_with(
    "population:\n"
    "  {count: 200, efficiency_distribution: uniform, params: {low: 0.5, high: 2.0}}\n"
    "rounds: 300\n"
    "outputs: [wealth]\n"
)


def counted_forks(monkeypatch) -> list[int]:
    """The pids ``os.fork`` returns to this process from here on."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def shortened(workload: Path) -> dict:
    raw = yaml.safe_load(workload.read_bytes())
    raw["rounds"] = 30
    if "walk" in raw:
        raw["walk"]["steps"] = 3000
    return raw


@pytest.mark.parametrize(
    "raw",
    [yaml.safe_load((DATA / "golden.yaml").read_text()), *map(shortened, WORKLOADS)],
    ids=["golden", *(w.stem for w in WORKLOADS)],
)
def test_the_forked_writer_writes_the_in_process_bytes(tmp_path, monkeypatch, raw):
    """Without ``os.fork`` the same writer runs in process; both write the
    per-cell oracle's bytes. wealth is added to the outputs of a workload
    that does not write it."""
    sc = parse_mapping({**raw, "outputs": sorted({*raw["outputs"], "wealth"})})
    forks = counted_forks(monkeypatch)
    forked = run_scenario(sc, tmp_path / "forked")["paths"]
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    in_process = run_scenario(sc, tmp_path / "in-process")["paths"]
    assert_same_bytes(forked, in_process)
    assert_same_bytes(forked, run_scenario_by_cell(sc, tmp_path / "oracle"))


@pytest.mark.parametrize("outputs", [["wealth"], ["trades", "savings", "density"]])
def test_a_run_forks_a_writer_only_for_wealth_and_reaps_it(tmp_path, monkeypatch, outputs):
    sc = parse_mapping(golden_with(f"outputs: {outputs}\n"))
    forks = counted_forks(monkeypatch)
    run_scenario(sc, tmp_path)
    assert len(forks) == ("wealth" in outputs)
    assert_no_child()


def test_a_round_that_raises_leaves_no_writer_and_the_rows_before_it(tmp_path, monkeypatch):
    """The rounds raise in round 3, and run_scenario raises that only after
    the writer has written the blocks sent before it, as one writer in
    process would, and exited."""
    monkeypatch.setattr(scenario, "_BLOCK_ROWS", 3)  # one round per block
    sc = parse_mapping(ALTERNATING)
    whole = run_scenario(sc, tmp_path / "whole")["paths"]["wealth"].read_text().splitlines()

    def fails_round_3(config, state, offers, record_detail):
        if state.round == 2:
            raise ZeroDivisionError("round 3")
        return market.execute_round(config, state, offers, record_detail)

    monkeypatch.setattr("camsim.scenario.execute_round", fails_round_3)
    forks = counted_forks(monkeypatch)
    with pytest.raises(ZeroDivisionError, match="round 3"):
        run_scenario(sc, tmp_path / "failed")
    assert len(forks) == 1
    assert_no_child()
    written = (tmp_path / "failed" / "wealth.csv").read_text().splitlines()
    assert written == whole[: 1 + 2 * 3]  # the header, and rounds 1 and 2


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("raw", [golden_with("outputs: [wealth]\n"), LONG], ids=["golden", "long"])
def test_a_writer_that_cannot_write_is_reaped_and_names_the_file(tmp_path, monkeypatch, raw):
    """Every write to /dev/full fails. The golden run's rows fail only when
    the writer closes the file, after the last round; the long run's first
    block fails, and the rounds stop within the few blocks the pipe holds."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "wealth.csv").symlink_to("/dev/full")
    rounds = []
    forks = counted_forks(monkeypatch)
    message = re.escape(f"failed writing {out / 'wealth.csv'}: [Errno 28] ")
    with pytest.raises(OSError, match=f"^{message}"):
        run_scenario(parse_mapping(raw), out, lambda report, config: rounds.append(report))
    assert len(forks) == 1
    assert_no_child()
    if raw is LONG:
        assert len(rounds) < raw["rounds"] // 3


def test_a_writer_exception_never_runs_the_callers_code_twice(tmp_path, monkeypatch):
    """A writer that raises ends in ``os._exit``: run_scenario raises its
    error in the caller, and the caller's code after it runs once, in this
    process. A writer that returned here would add a second line."""
    marks, parent = tmp_path / "marks", os.getpid()

    def broken(*args):
        raise ZeroDivisionError("in the writer")

    monkeypatch.setattr(scenario, "_lines", broken)  # wealth alone prints through it
    forks = counted_forks(monkeypatch)
    try:
        with pytest.raises(RuntimeError, match="ZeroDivisionError: in the writer"):
            run_scenario(parse_mapping(golden_with("outputs: [wealth]\n")), tmp_path / "out")
    finally:
        with open(marks, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != parent:
            os._exit(0)
    assert marks.read_text() == f"{parent}\n"
    assert len(forks) == 1
    assert_no_child()


def test_a_writer_killed_by_a_signal_fails_the_run(tmp_path, monkeypatch):
    """A writer that dies without a word never passes for one that wrote
    everything: run_scenario raises, naming its status."""

    def killed(*args):
        os.kill(os.getpid(), 9)

    monkeypatch.setattr(scenario, "_lines", killed)
    with pytest.raises(RuntimeError, match="exited with status -9"):
        run_scenario(parse_mapping(golden_with("outputs: [wealth]\n")), tmp_path)
    assert_no_child()


def test_the_fork_warning_of_a_process_with_threads_is_not_raised(tmp_path, monkeypatch):
    """Python 3.12 warns in the parent, after forking, when the process has
    threads, such as OpenBLAS's; under ``filterwarnings = error`` that would
    raise with the writer already running. Here a fork that warns so stands
    in for it, under the same filter."""
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead"
                " to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    sc = load_config(DATA / "golden.yaml")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = run_scenario(sc, tmp_path)["paths"]
    assert paths["wealth"].read_bytes() == (DATA / "golden_out" / "wealth.csv").read_bytes()
    assert_no_child()
