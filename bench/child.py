"""One benchmark sample: a fresh interpreter imports camsim.cli and runs it once.

    python3 bench/child.py CONFIG SEED OUT_DIR RESULT_JSON TRACED

Runs ``camsim CONFIG -o OUT_DIR --seed SEED --check`` through
``camsim.cli.main`` and writes the timings, the CLI exit code, the peak RSS
and the SHA-256 digests of the CSVs to RESULT_JSON. With TRACED=1 the
functions listed in ``spans.PATCHES`` are wrapped first and the spans and
per-layer metrics are written too.

Only the built-in ``sys`` and ``time`` are loaded before the timed
``import camsim.cli``, so ``import_s`` is the import a CLI user pays.
"""

import sys
import time


def main() -> int:
    config, seed, out_dir, result_path, traced = sys.argv[1:6]
    t0 = time.perf_counter()
    import camsim.cli

    import_s = time.perf_counter() - t0

    import json
    import resource
    from pathlib import Path

    from camsim.scenario import artifact_digests

    argv = [config, "-o", out_dir, "--seed", seed, "--check"]
    tracer = None
    entry = camsim.cli.main
    if traced == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", entry)

    t0 = time.perf_counter()
    exit_code = entry(argv)
    run_s = time.perf_counter() - t0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    csvs = {p.stem: p for p in Path(out_dir).glob("*.csv")}
    result = {
        "camsim_file": camsim.cli.__file__,
        "exit_code": exit_code,
        "import_s": import_s,
        "run_s": run_s,
        "maxrss_kb": maxrss_kb,
        "digests": artifact_digests(csvs),
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["layers"] = tracer.layer_metrics()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
