"""camsim benchmark: the CLI end to end, or layer by layer with --trace 1.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh single-threaded interpreter (child.py) that imports
camsim.cli from ./src and runs ``camsim CONFIG -o <fresh dir> --seed N
--check`` once. Samples run one at a time (a closed loop with one client)
until --seconds have passed and at least MIN_SAMPLES ran; timings are
medians over the samples.

Before the timed samples, one sample runs the workload's default seed and
its CSV digests must equal bench/reference_digests.json. Every sample of
the given seed must write the same CSV bytes. A sample fails if the CLI
exits non-zero (a --check violation included), if its digests differ, or
if it crashes; ``failed`` counts failed samples against ``attempted``.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
runs untraced samples for half of --seconds and traced samples for the
rest, and reports the per-layer metrics; the traced samples must agree
exactly on COUNTS. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("wide_offers", "long_ledger", "tight_budget")
MIN_SAMPLES = 3
MIN_TRACED = 2
# Whole invocation, so that a hung sample cannot hold the run past 180 s.
DEADLINE_S = 170.0
IMPORTS = {"analysis.import_s": "camsim.analysis", "walk.import_s": "camsim.walk"}
# Per-layer metrics that are exact counts: traced samples of one input must
# agree on them.
COUNTS = (
    "market.trades",
    "market.forced",
    "market.budget_bound_rounds",
    "pricing.offers_posted",
    "scenario.csv_bytes",
    "core.autarky_energy_calls",
)


def workload_config(workload: str) -> Path:
    return BENCH / "workloads" / f"{workload}.yaml"


def settled_units(config: Path) -> int:
    """Demand units settled over the run: every demanded unit is bought or self-produced."""
    raw = yaml.safe_load(config.read_text())
    return raw["demand"] * raw["population"]["count"] * len(raw["jobs"]) * raw["rounds"]


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    wanted = set(IMPORTS.values())
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and parts[-1].strip() in wanted:
            found[parts[-1].strip()] = int(parts[1]) / 1e6
    return found


def run_sample(
    config: Path, seed: int, tmp: Path, deadline: float, traced: bool = False
) -> dict | None:
    """Run one child interpreter; its result, or None if it crashed or timed out."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    result_path = work / "result.json"
    cmd = [sys.executable] + (["-X", "importtime"] if traced else [])
    cmd += [str(BENCH / "child.py"), str(config), str(seed), str(work / "out")]
    cmd += [str(result_path), str(int(traced))]
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0 or not result_path.exists():
            print(f"sample crashed:\n{proc.stderr[-4000:]}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        print("sample timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work)
    if not Path(result["camsim_file"]).resolve().is_relative_to(SRC):
        print(f"camsim imported from {result['camsim_file']}, not {SRC}", file=sys.stderr)
        return None
    if traced:
        result["imports"] = import_times(proc.stderr)
    return result


def run_loop(
    config: Path,
    seed: int,
    tmp: Path,
    deadline: float,
    seconds: float,
    minimum: int,
    traced: bool = False,
) -> list[dict | None]:
    samples: list[dict | None] = []
    start = time.monotonic()
    while (len(samples) < minimum or time.monotonic() - start < seconds) and (
        time.monotonic() < deadline
    ):
        samples.append(run_sample(config, seed, tmp, deadline, traced))
    return samples


def passed(sample: dict | None, digests: dict | None) -> bool:
    return sample is not None and sample["exit_code"] == 0 and sample["digests"] == digests


def end_to_end(samples: list[dict], setup_samples: list[dict], units: int) -> dict[str, float]:
    run_s = statistics.median(s["run_s"] for s in samples)
    return {
        "run_s": run_s,
        "setup_s": statistics.median(s["import_s"] for s in setup_samples),
        "settled_units_per_s": units / run_s,
        "peak_rss_mb": statistics.median(s["maxrss_kb"] for s in samples) / 1024,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    layers = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    for metric, module in IMPORTS.items():
        layers[metric] = statistics.median(s["imports"][module] for s in traced)
    layers["trace.run_s"] = statistics.median(s["run_s"] for s in traced)
    layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(
        s["run_s"] for s in untraced
    )
    return layers


def counts_repeat(traced: list[dict]) -> bool:
    return all(len({s["layers"][name] for s in traced}) == 1 for name in COUNTS)


def report(metrics: dict[str, float], units: dict[str, str], n: int) -> dict:
    """Print each metric by name with its unit; return them in result form."""
    out = {}
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:34s} {metrics[name]:.6g} {unit}  (median of {n})")
            out[name] = {"value": metrics[name], "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "camsim" / "cli.py").is_file():
        print(f"no camsim sources under {SRC}: run from a camsim checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run kills the running sample and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reference = json.loads((BENCH / "reference_digests.json").read_text())[args.workload]
    config = workload_config(args.workload)
    # Build: byte-compile the sources once, so no sample pays for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "camsim")],
        check=True,
        capture_output=True,
        timeout=60,
    )

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        default_run = run_sample(config, reference["seed"], tmp, deadline)
        if default_run is not None and default_run["digests"] != reference["digests"]:
            print(f"default-seed digests differ: {default_run['digests']}", file=sys.stderr)
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_loop(config, args.seed, tmp, deadline, seconds, MIN_SAMPLES)
        traced = []
        if args.trace:
            traced = run_loop(
                config, args.seed, tmp, deadline, seconds, MIN_TRACED, traced=True
            )
    finally:
        shutil.rmtree(tmp)

    if args.seed == reference["seed"]:
        expected = reference["digests"]
    else:
        expected = next((s["digests"] for s in untraced if s and s["exit_code"] == 0), None)
    ok_untraced = [s for s in untraced if passed(s, expected)]
    ok_traced = [s for s in traced if passed(s, expected)]
    attempted = 1 + len(untraced) + len(traced)
    failed = (
        attempted
        - passed(default_run, reference["digests"])
        - len(ok_untraced)
        - len(ok_traced)
    )
    print(f"{'failed_runs':34s} {failed}/{attempted}")

    correct = failed == 0 and bool(ok_untraced)
    metrics: dict = {}
    if ok_untraced:
        setup_samples = ok_untraced + ([default_run] if default_run else [])
        e2e = end_to_end(ok_untraced, setup_samples, settled_units(config))
        metrics = report(e2e, e2e_units, len(ok_untraced))
    if args.trace:
        # The end-to-end lines above stay on stdout; the result carries the layers.
        correct = correct and len(ok_traced) >= MIN_TRACED and counts_repeat(ok_traced)
        metrics = {}
        if ok_traced and ok_untraced:
            metrics = report(per_layer(ok_traced, ok_untraced), layer_units, len(ok_traced))
            spans_out = ROOT / ".bench_out" / f"spans-{args.workload}.json"
            spans_out.parent.mkdir(exist_ok=True)
            spans_out.write_text(json.dumps(ok_traced[-1]["spans"]))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
