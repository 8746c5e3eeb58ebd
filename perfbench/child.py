"""One benchmark run in a fresh interpreter, through the CLI's own entry.

    python3 perfbench/child.py SUBCOMMAND CONFIG OUT_DIR REPORT_JSON [--setup-only] [--trace]

Imports qpdyn, loads and validates the config (``load_config``, as the CLI
does), then calls ``run_experiment`` at one worker.  The exit code follows
the CLI: 2 on a config error, 3 when a numerical-safety flag was raised.
REPORT_JSON receives the monotonic clock at the end of set-up, the wall time
of ``run_experiment``, the output sizes, the environment, and with
``--trace`` the per-layer figures.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
EXIT_WRONG_PACKAGE = 4


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str]) -> int:
    subcommand, config, out, report_path = argv[:4]
    setup_only, traced = "--setup-only" in argv, "--trace" in argv
    report: dict = {}

    def finish(code: int) -> int:
        report["exit_code"] = code
        Path(report_path).write_text(json.dumps(report))
        return code

    import qpdyn
    from qpdyn.harness.cli import EXIT_CONFIG, EXIT_SAFETY, SUBCOMMANDS
    from qpdyn.harness.config import ConfigError, load_config
    from qpdyn.harness.recipes import run_experiment

    expected = Path(os.environ["PYTHONPATH"]).resolve() / "qpdyn"
    if Path(qpdyn.__file__).resolve().parent != expected:
        report["error"] = f"imported qpdyn from {qpdyn.__file__}, not {expected}"
        return finish(EXIT_WRONG_PACKAGE)
    try:
        cfg = load_config(config, experiment=SUBCOMMANDS[subcommand])
    except ConfigError as exc:
        report["error"] = str(exc)
        return finish(EXIT_CONFIG)
    report["setup_done"] = time.monotonic()
    if setup_only:
        report["env"] = environment()
        return finish(0)

    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.install()
    t0 = time.perf_counter()
    try:
        result = run_experiment(cfg, out, workers=1)
    except ConfigError as exc:  # recipes validate their keys while planning
        report["error"] = str(exc)
        return finish(EXIT_CONFIG)
    wall = time.perf_counter() - t0
    report["wall_s"] = wall
    report["rows_written"] = sum(result.row_counts.values())
    report["bytes_written"] = sum(f.stat().st_size for f in result.files)
    report["safety_flags"] = result.safety_flags
    if tracer is not None:
        report["layers"] = tracer.metrics(wall)
    return finish(EXIT_SAFETY if result.safety_flags else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
