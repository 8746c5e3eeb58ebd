"""qpdyn benchmark: recipe workloads timed end to end, each run in a fresh
interpreter, plus a traced run for the per-layer breakdown.

    python3 perfbench/run.py --workload box-scan-2d --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src`` and nothing else is read or written outside the checkout
(run directories live under ``.bench_build/perfbench`` and are removed).

Each run goes through ``load_config`` then ``run_experiment`` at one worker,
as the CLI does, in a new process with BLAS and OpenMP pinned to one thread:
CLI users pay the imports and the eigendecomposition cache fill on every
invocation, so a warm interpreter would time the wrong thing.

``--trace 0`` repeats timed runs until ``--seconds`` is used and reports the
medians of ``wall_s`` (time of ``run_experiment``), ``setup_s`` (process
start until qpdyn is imported and the config validated; several set-up-only
processes add samples), ``cpu_s`` (user + system time of the run's process)
and ``peak_rss_mb`` (that process's own peak, from ``os.wait4``).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
figures of ``layertrace.METRICS``; ``trace.overhead_s`` is the traced minus
the untraced median ``wall_s``, and traced CSVs must equal untraced ones.

Every run's outputs are checked (``workloads.check_outputs``); at the
default seed they are also compared with stored references.  A run fails on
a non-zero exit (2: config error, 3: safety flag) or a failed check.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import THREAD_VARIABLES
from layertrace import METRICS
from workloads import (DEFAULT_SEED, ROUTE_REL_DEV_MAX, WORKLOADS, Workload,
                       check_outputs, phase_for_seed)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 3  # least set-up-only processes per timed run, for setup_s
MAX_SETUP_PROBES = 20
MARGIN = 1.15  # a run starts only if 1.15 x the longest so far still fits
HARD_LIMIT_S = 170.0  # a whole invocation must end well within 180 s


@dataclass
class Run:
    code: int
    report: dict
    elapsed: float  # parent-observed, spawn to reap
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    out: Path
    problems: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: "1" for v in THREAD_VARIABLES})
    # installed packages run from compiled bytecode; let the warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args: list[str], out: Path, hard_deadline: float) -> Run:
    """Run child.py to completion in a fresh interpreter and reap it with
    ``os.wait4``, so the resource usage is that process's own."""
    out.mkdir(parents=True)
    report_path = out / "report.json"
    with open(out / "child.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args[:2], str(out), str(report_path), *args[2:]],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
    timer = threading.Timer(max(1.0, hard_deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.monotonic() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    run = Run(
        code=code,
        report=report,
        elapsed=elapsed,
        setup_s=report["setup_done"] - t0 if "setup_done" in report else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        out=out,
    )
    if code != 0:
        tail = (out / "child.log").read_text(errors="replace")[-2000:]
        run.problems.append(f"exit code {code}: {report.get('error') or tail}")
    return run


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "experiment.cfg"
        self.config.write_text(workload.config_text(seed))
        self._n = 0

    def _out(self) -> Path:
        self._n += 1
        return self.dir / f"run-{self._n}"

    def setup_only(self) -> Run:
        run = spawn([self.workload.subcommand, str(self.config), "--setup-only"],
                    self._out(), self.hard_deadline)
        shutil.rmtree(run.out)
        return run

    def workload_run(self, traced: bool) -> Run:
        """One checked run; the caller removes its outputs."""
        args = [self.workload.subcommand, str(self.config)] + (["--trace"] if traced else [])
        run = spawn(args, self._out(), self.hard_deadline)
        if run.code == 0:
            try:
                run.problems, run.extras = check_outputs(self.workload, run.out, self.seed)
            except (OSError, KeyError, ValueError) as exc:
                run.problems = [f"unreadable outputs: {exc!r}"]
        return run

    def time_left_for(self, seconds: float) -> bool:
        """Whether something that took ``seconds`` before fits in the budget."""
        end = time.monotonic() + MARGIN * seconds
        return end <= self.deadline and end < self.hard_deadline

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _csv_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs 11 samples, has {n})"
    k = n - 10  # k-th smallest has exactly ten samples above it
    return f"p{100.0 * k / n:.1f} {sorted(values)[k - 1]:.6g}"


def timed(bench: Bench) -> tuple[list[Run], list[float]]:
    """Timed runs while the budget lasts, then set-up-only processes in the
    time left (at least ``SETUP_PROBES``) for more ``setup_s`` samples."""
    runs: list[Run] = []
    while True:
        run = bench.workload_run(traced=False)
        shutil.rmtree(run.out)
        runs.append(run)
        if not bench.time_left_for(max(r.elapsed for r in runs)):
            break
    probes = [bench.setup_only() for _ in range(SETUP_PROBES)]
    while len(probes) < MAX_SETUP_PROBES and bench.time_left_for(
        max(r.elapsed for r in probes)
    ):
        probes.append(bench.setup_only())
    return runs, [r.setup_s for r in probes + runs if r.ok]


def traced(bench: Bench) -> tuple[list[Run], list[Run]]:
    plain: list[Run] = []
    spans: list[Run] = []
    while True:
        u = bench.workload_run(traced=False)
        t = bench.workload_run(traced=True)
        if u.ok and t.ok and _csv_bytes(u.out) != _csv_bytes(t.out):
            t.problems.append("traced CSV outputs differ from untraced ones")
        shutil.rmtree(u.out)
        shutil.rmtree(t.out)
        plain.append(u)
        spans.append(t)
        if not bench.time_left_for(u.elapsed + t.elapsed):
            return plain, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qpdyn" / "__init__.py").is_file():
        print(f"no qpdyn sources under {SRC}; run inside a qpdyn checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, args.seconds)
    try:
        warm = bench.setup_only()  # compiles bytecode and fills the file cache
        if not warm.ok:
            print(f"set-up failed: {warm.problems}", file=sys.stderr)
            return 1
        if args.trace:
            plain, spans = traced(bench)
            runs = plain + spans
        else:
            runs, setups = timed(bench)
    finally:
        bench.close()

    env = warm.report["env"]
    good = [r for r in runs if r.ok]
    failed = len(runs) - len(good)
    print(f"workload {workload.name}: seed {args.seed}, phase x = "
          f"{phase_for_seed(args.seed)!r}, trace {args.trace}, "
          f"{args.seconds:g} s budget, {len(runs)} runs")
    print(f"  why: {workload.why}")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for r in runs:
        for p in r.problems:
            print(f"  FAILED run: {p}")
    print(f"  fail_rate {failed}/{len(runs)} = {failed / len(runs):.3g}")
    route = [r.extras["route_rel_dev"] for r in good if "route_rel_dev" in r.extras]
    if route:
        print(f"  route_rel_dev {max(route):.3e} (max over runs; "
              f"a run fails above {ROUTE_REL_DEV_MAX:g})")
    if not good or (args.trace and not all(any(r.ok for r in rs) for rs in (plain, spans))):
        print("no successful run to measure", file=sys.stderr)
        return 1

    if args.trace:
        ok_spans = [r for r in spans if r.ok]
        metrics = {
            name: statistics.median(r.report["layers"][name] for r in ok_spans)
            for name in ok_spans[0].report["layers"]
        }
        metrics["dynamics.route_rel_dev"] = max(route, default=0.0)
        metrics["harness.rows_written"] = float(ok_spans[0].report["rows_written"])
        metrics["harness.bytes_written"] = float(ok_spans[0].report["bytes_written"])
        metrics["trace.overhead_s"] = (
            statistics.median(r.report["wall_s"] for r in ok_spans)
            - statistics.median(r.report["wall_s"] for r in plain if r.ok)
        )
        values = {name: (metrics[name], METRICS[name][0]) for name in METRICS}
        for name, (value, unit) in values.items():
            print(f"  {name:42s} {value:.6g} {unit}")
    else:
        samples = {
            "wall_s": [r.report["wall_s"] for r in good],
            "setup_s": setups,
            "cpu_s": [r.cpu_s for r in good],
            "peak_rss_mb": [r.peak_rss_mb for r in good],
        }
        values = {}
        for name, unit in END_TO_END.items():
            vals = samples[name]
            values[name] = (statistics.median(vals), unit)
            print(f"  {name:12s} median {values[name][0]:.6g} {unit}, "
                  f"{high_percentile(vals)}, n = {len(vals)}: "
                  + " ".join(f"{v:.4g}" for v in vals))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
