"""Experiment recipes: validated plans of independent tasks, a worker pool,
and deterministic CSV merges.

Every task is a pure function of picklable inputs, so a run scatters tasks
across processes and gathers them in plan order; identical configs produce
byte-identical CSV bodies at any worker count.  Wall-clock times and
environment details live in the run manifest, never in the CSV rows.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .. import __version__
from ..arithmetic import DiophantineParams, diophantine_check, discrepancy, orbit_points
from ..dynamics import (
    DEFAULT_LEAKAGE_TOL,
    QuadratureError,
    amplitude_table_direct,
    amplitude_table_parseval,
    double_while_flagged,
    evolve,
    fit_log_exponent,
    lyapunov_estimate,
    moment_series,
)
from ..greens import (
    ClassificationParams,
    bad_set,
    fit_sublinear_exponent,
    scan_boxes,
    scan_centers,
)
from ..operators import StateVector
from .config import (
    ConfigError,
    ConfigReader,
    ExperimentConfig,
    build_dynamics,
    build_operator,
    config_from_raw,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Task:
    fn: Callable[..., dict]  # module level, so it pickles into workers
    kwargs: dict


@dataclass
class RunResult:
    experiment: str
    config_hash: str
    files: list[Path]
    safety_flags: list[str]
    row_counts: dict[str, int]


# ---------------------------------------------------------------------------
# task bodies (module level so they pickle into worker processes)


def _task_evolve(spec, initial, times, radius, leakage_tol, prob_floor):
    phi = StateVector.delta(initial)
    res = evolve(spec, phi, times, radius, leakage_tol)
    rows = []
    for i, t in enumerate(res.times):
        for site, amp in zip(res.sites, res.amplitudes[i]):
            prob = abs(amp) ** 2
            if prob >= prob_floor:
                rows.append((t, *site, amp.real, amp.imag, prob))
    flags = ["leakage"] if res.flagged else []
    return {"main": rows, "flags": flags, "leakage": res.leakage,
            "norm_drift": res.norm_drift, "matrix_order": len(res.sites)}


def _task_moment_series(spec, initial, mode, p, times, horizons, radius,
                        leakage_tol, max_doublings):
    phi = StateVector.delta(initial)
    fingerprint = spec.fingerprint()
    if mode == "instantaneous":
        series = double_while_flagged(
            lambda r: moment_series(spec, phi, p, times, r, leakage_tol),
            radius, max_doublings,
        )
        runs = [series]
        samples = [(t, v, series) for t, v in series.entries]
        diagnostic = {"norm_drift": series.norm_drift}
    else:
        if mode == "time-averaged-direct":
            def table(T, r):
                return amplitude_table_direct(spec, phi, T, r, leakage_tol)
        else:
            def table(T, r):
                return amplitude_table_parseval(
                    spec, initial, T, r, control_orders=(0.0, p),
                    leakage_tol=leakage_tol,
                )
        runs = [double_while_flagged(partial(table, T), radius, max_doublings)
                for T in horizons]
        samples = [(T, run.moment(p), run) for T, run in zip(horizons, runs)]
        diagnostic = {
            "tail_bound": max((run.tail_bound for run in runs), default=0.0),
            "panels": max((run.panels for run in runs), default=0),
        }
    rows = [(mode, p, x, v, run.radius, run.leakage, fingerprint)
            for x, v, run in samples]
    xs = np.array([x for x, _, _ in samples])
    values = np.array([v for _, v, _ in samples])
    return {
        "main": rows,
        "fit": [_fit_series(mode, p, xs, values)],
        "flags": ["leakage" for run in runs if run.flagged],
        "leakage": max((run.leakage for run in runs), default=0.0),
        "matrix_order": max((_box_order(spec, run.radius) for run in runs),
                            default=0),
        **diagnostic,
    }


def _box_order(spec, radius: int) -> int:
    """Order of the matrix of the cube [-r, r]^d: (2r + 1)^d points."""
    return (2 * radius + 1) ** spec.dimension


def _fit_series(mode, p, times, values):
    try:
        fit = fit_log_exponent((times, values))
        return (mode, p, fit.gamma, fit.residual_rms, fit.poor_fit, "")
    except ValueError as exc:
        return (mode, p, float("nan"), float("nan"), False, str(exc))


def _task_box_scan(spec, size, sub_size, energy, eps, params, centers):
    rows = []
    residual = 0.0
    z = complex(energy, eps)
    for center, shape_id, verdict in scan_boxes(
        spec, size, sub_size, z, params, centers=centers
    ):
        residual = max(residual, verdict.residual)
        rows.append(
            (
                size,
                sub_size,
                energy,
                eps,
                *center,
                shape_id,
                verdict.norm,
                verdict.decay_margin,
                verdict.good,
                verdict.strongly_good,
            )
        )
    return {"main": rows, "flags": [], "residual": residual,
            "matrix_order": _box_order(spec, sub_size)}


def _task_bad_set(spec, size, sub_size, energy, eps, params, centers):
    report = bad_set(
        spec, size, sub_size, complex(energy, eps), params, centers=centers
    )
    partial = (energy, eps, size, sub_size, report.count, report.total_centers)
    return {"main": [], "partial": partial, "flags": [],
            "residual": report.max_residual,
            "matrix_order": _box_order(spec, sub_size)}


def _task_parseval_check(spec, source, p, T, radius, leakage_tol, rel_tol):
    phi = StateVector.delta(source)
    direct = amplitude_table_direct(spec, phi, T, radius, leakage_tol)
    parseval = amplitude_table_parseval(
        spec, source, T, radius, control_orders=(0.0, p), rel_tol=rel_tol
    )
    entries = [
        (T, *site, dv, pv, abs(dv - pv))
        for site, dv, pv in zip(direct.sites, direct.values, parseval.values)
    ]
    d_m, p_m = direct.moment(p), parseval.moment(p)
    rel = abs(d_m - p_m) / d_m if d_m else 0.0
    summary = [
        (T, p, d_m, p_m, rel, direct.total(), parseval.total(), direct.leakage,
         direct.flagged)
    ]
    flags = ["leakage"] if direct.flagged else []
    return {"main": entries, "summary": summary, "flags": flags,
            "tail_bound": parseval.tail_bound, "panels": parseval.panels,
            "matrix_order": len(direct.sites)}


def _task_discrepancy(dynamics, n_points, phase, grid_resolution):
    run = dynamics if phase is None else type(dynamics)(
        dynamics.mode, dynamics.alpha, (phase,) * len(dynamics.phase)
    )
    pts = orbit_points(run, n_points)
    report = discrepancy(pts, grid_resolution)
    row = (
        report.torus_dim,
        n_points,
        *run.alpha,
        *run.phase,
        report.value,
        report.method,
        report.attained,
    )
    return {"main": [row], "flags": []}


def _task_diophantine(alpha, kappa, tau, k_max):
    params = DiophantineParams(kappa=kappa, tau=tau, k_max=k_max)
    report = diophantine_check(alpha, params)
    row = (
        len(alpha),
        kappa,
        tau,
        k_max,
        report.passed,
        *report.worst_k,
        report.margin,
    )
    return {"main": [row], "flags": []}


def _task_lyapunov(spec, energy, eps, length, phases):
    est = lyapunov_estimate(spec, complex(energy, eps), length, phases)
    row = (energy, eps, length, len(phases), est.value, est.stderr)
    return {"main": [row], "flags": []}


def _run_task(task: Task):
    """The task's result and the seconds it took.  A quadrature that does
    not converge leaves the task no rows, only its safety flag."""
    start = time.perf_counter()
    try:
        result = task.fn(**task.kwargs)
    except QuadratureError as exc:
        result = {"flags": [f"quadrature: {exc}"]}
    return result, time.perf_counter() - start


def execute_tasks(
    tasks: Sequence[Task], workers: int
) -> tuple[list[dict], list[float]]:
    """Run the tasks, in plan order, logging one INFO line per task; returns
    their results and the seconds each took."""

    def logged(timed):
        results, seconds = [], []
        for task, (result, s) in zip(tasks, timed):
            results.append(result)
            seconds.append(s)
            log.info("task %d/%d %s finished in %.3f s", len(results),
                     len(tasks), task.fn.__name__.removeprefix("_task_"), s)
        return results, seconds

    if workers <= 1 or len(tasks) <= 1:
        return logged(map(_run_task, tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return logged(pool.map(_run_task, tasks))


# ---------------------------------------------------------------------------
# recipes


@dataclass
class Plan:
    """Tasks and output files of one run; each file gets its key's task rows
    in plan order unless ``aggregate`` reduces all results to them."""

    tasks: list[Task]
    files: dict[str, tuple[str, list[str]]]  # output key -> (suffix, columns)
    aggregate: Callable[[list[dict]], dict[str, list[tuple]]] | None = None


def _coords_header(d: int) -> list[str]:
    return [f"n{i}" for i in range(d)]


def _plan_evolve(cfg: ExperimentConfig) -> Plan:
    r = ConfigReader(cfg.raw)
    spec = build_operator(r)
    radius = r.integer("evolve.radius", default=32, minimum=2)
    times = r.floats("evolve.times", required=True)
    initial = r.site("evolve.initial", spec and spec.dimension, radius)
    tol = r.number("evolve.leakage_tol", default=DEFAULT_LEAKAGE_TOL, minimum=0.0)
    floor = r.number("evolve.prob_floor", default=1e-12, minimum=0.0)
    if times is not None and sorted(times) != list(times):
        r.issues.append("'evolve.times' must be sorted ascending")
    r.check()
    task = Task(
        _task_evolve,
        dict(spec=spec, initial=initial, times=times, radius=radius,
             leakage_tol=tol, prob_floor=floor),
    )
    header = ["t", *_coords_header(spec.dimension), "re", "im", "prob"]
    return Plan([task], {"main": ("snapshots", header)})


_MOMENT_MODES = (
    "instantaneous",
    "time-averaged-direct",
    "time-averaged-parseval",
)
MAX_DOUBLINGS = 2  # box doublings of a flagged moment run under auto_double


def _plan_moments(cfg: ExperimentConfig) -> Plan:
    r = ConfigReader(cfg.raw)
    spec = build_operator(r)
    radius = r.integer("moments.radius", default=64, minimum=2)
    ps = r.floats("moments.p", default=(2.0,))
    modes = r.strings("moments.modes", "instantaneous", _MOMENT_MODES)
    times = r.floats("moments.times", default=None)
    horizons = r.floats("moments.horizons", default=None)
    if "instantaneous" in modes and times is None:
        r.issues.append("'moments.times' is required for instantaneous series")
    if any(m.startswith("time-averaged") for m in modes) and horizons is None:
        r.issues.append("'moments.horizons' is required for time-averaged series")
    times = times or ()  # an explicitly empty grid is a no-op, not an error
    horizons = horizons or ()
    if any(p <= 0 for p in ps or ()):
        r.issues.append("'moments.p' entries must be positive")
    initial = r.site("moments.initial", spec and spec.dimension, radius)
    tol = r.number("moments.leakage_tol", default=DEFAULT_LEAKAGE_TOL, minimum=0.0)
    doublings = MAX_DOUBLINGS if r.flag("moments.auto_double") else 0
    r.check()
    tasks = [
        Task(
            _task_moment_series,
            dict(spec=spec, initial=initial, mode=mode, p=p, times=times,
                 horizons=horizons, radius=radius, leakage_tol=tol,
                 max_doublings=doublings),
        )
        for mode in modes
        for p in ps
    ]
    header = ["mode", "p", "t_or_T", "value", "radius", "leakage", "model"]
    fit_header = ["mode", "p", "gamma", "residual_rms", "poor_fit", "note"]
    return Plan(tasks, {"main": ("moments", header), "fit": ("fits", fit_header)})


def _scan_setup(r: ConfigReader):
    spec = build_operator(r)
    sizes = r.integers("scan.sizes", required=True) or ()
    sub_exp = r.number("scan.sub_exponent", default=0.3, minimum=0.0, maximum=1.0)
    sub_fixed = r.integer("scan.sub_size", default=None, minimum=1)
    energies = r.floats("scan.energies", default=(0.0,))
    eps = r.number("scan.epsilon", default=1e-3, minimum=0.0)
    for key, values in (("scan.sizes", sizes), ("scan.energies", energies)):
        if len(set(values)) < len(values):
            r.issues.append(f"'{key}' repeats a value: {list(values)}")
    params = None
    if spec is not None:
        overrides = {}
        for name in ("c2", "sigma"):
            v = r.number(f"class.{name}", default=None)
            if v is not None:
                overrides[name] = float(v)
        try:
            params = ClassificationParams.for_spec(spec, **overrides)
        except ValueError as exc:
            r.issues.append(f"classification: {exc}")
    pairs = []
    for n in sizes:
        sub = sub_fixed if sub_fixed is not None else math.ceil(n**sub_exp)
        if sub >= n:
            r.issues.append(f"sub-box size {sub} must be smaller than N={n}")
        pairs.append((n, sub))
    return spec, pairs, energies, float(eps), params


SCAN_CHUNK = 64  # centers per task; fixed so plans don't depend on workers


def _center_chunks(size: int, d: int) -> list[list[tuple[int, ...]]]:
    centers = list(scan_centers(size, d))
    return [centers[i : i + SCAN_CHUNK] for i in range(0, len(centers), SCAN_CHUNK)]


def _plan_box_scan(cfg: ExperimentConfig) -> Plan:
    r = ConfigReader(cfg.raw)
    spec, pairs, energies, eps, params = _scan_setup(r)
    r.check()
    tasks = [
        Task(
            _task_box_scan,
            dict(spec=spec, size=n, sub_size=sub, energy=e, eps=eps,
                 params=params, centers=chunk),
        )
        for n, sub in pairs
        for e in energies
        for chunk in _center_chunks(n, spec.dimension)
    ]
    header = ["N", "N1", "E", "eps", *_coords_header(spec.dimension),
              "shapeId", "norm", "worstPairDecayMargin", "good", "stronglyGood"]
    return Plan(tasks, {"main": ("scan", header)})


def _plan_sublinear(cfg: ExperimentConfig) -> Plan:
    r = ConfigReader(cfg.raw)
    spec, pairs, energies, eps, params = _scan_setup(r)
    if len(pairs) < 3:
        r.issues.append("'scan.sizes' needs at least three scales for the fit")
    r.check()
    tasks = [
        Task(
            _task_bad_set,
            dict(spec=spec, size=n, sub_size=sub, energy=e, eps=eps,
                 params=params, centers=chunk),
        )
        for e in energies
        for n, sub in pairs
        for chunk in _center_chunks(n, spec.dimension)
    ]
    header = ["N", "N1", "E", "eps", "badCount", "totalCenters", "fraction"]
    fit_header = ["E", "eps", "delta", "slope", "slopeStderr", "residualRms",
                  "noBadBoxes"]
    return Plan(
        tasks,
        {"main": ("counts", header), "fit": ("fit", fit_header)},
        aggregate=partial(_aggregate_sublinear, energies, eps, pairs),
    )


def _aggregate_sublinear(energies, eps, pairs, results):
    """Sum per-chunk bad counts into per-(E, N) rows plus per-E fits."""
    sums: dict[tuple[float, int], list[int]] = {}
    for res in results:
        e, _, n, _, count, total = res["partial"]
        acc = sums.setdefault((e, n), [0, 0])
        acc[0] += count
        acc[1] += total
    count_rows = []
    fit_rows = []
    for e in energies:
        per_scale = []
        for n, sub in pairs:
            count, total = sums[(e, n)]
            per_scale.append((n, count))
            count_rows.append((n, sub, e, eps, count, total, count / total))
        fit = fit_sublinear_exponent(per_scale)
        fit_rows.append(
            (e, eps, fit.delta, fit.slope, fit.slope_stderr,
             fit.residual_rms, fit.no_bad_boxes)
        )
    return {"main": count_rows, "fit": fit_rows}


def _plan_parseval(cfg: ExperimentConfig) -> Plan:
    r = ConfigReader(cfg.raw)
    spec = build_operator(r)
    radius = r.integer("parseval.radius", default=64, minimum=2)
    horizons = r.floats("parseval.horizons", required=True)
    p = r.number("parseval.p", default=2.0, minimum=0.0)
    source = r.site("parseval.source", spec and spec.dimension, radius)
    tol = r.number("parseval.leakage_tol", default=DEFAULT_LEAKAGE_TOL, minimum=0.0)
    rel_tol = r.number("parseval.rel_tol", default=1e-9, minimum=0.0)
    if horizons is not None and any(T <= 0 for T in horizons):
        r.issues.append("'parseval.horizons' must be positive")
    r.check()
    tasks = [
        Task(
            _task_parseval_check,
            dict(spec=spec, source=source, p=float(p), T=T, radius=radius,
                 leakage_tol=tol, rel_tol=rel_tol),
        )
        for T in horizons
    ]
    d = spec.dimension
    header = ["T", *_coords_header(d), "aDirect", "aParseval", "absDeviation"]
    summary = ["T", "p", "momentDirect", "momentParseval", "relDeviation",
               "totalDirect", "totalParseval", "leakage", "flaggedLeakage"]
    return Plan(tasks, {"main": ("entries", header), "summary": ("summary", summary)})


def _plan_discrepancy(cfg: ExperimentConfig) -> Plan:
    r = ConfigReader(cfg.raw)
    dynamics = build_dynamics(r, prefix="orbit")
    sizes = r.integers("disc.sizes", required=True)
    samples = r.integer("disc.phase_samples", default=0, minimum=0)
    resolution = r.integer("disc.grid_resolution", default=32, minimum=2)
    if dynamics is not None and not dynamics.lattice_dim_compatible(1):
        r.issues.append("orbit dynamics must be driven by a single index")
    if sizes is not None and any(n < 1 for n in sizes):
        r.issues.append("'disc.sizes' must be positive")
    r.check()
    rng = np.random.default_rng(cfg.seed)
    phases: list[float | None] = [None]
    phases += [float(x) for x in rng.random(samples)]
    tasks = [
        Task(
            _task_discrepancy,
            dict(dynamics=dynamics, n_points=n, phase=phase,
                 grid_resolution=resolution),
        )
        for n in sizes
        for phase in phases
    ]
    b = dynamics.torus_dim
    header = ["b", "N", *[f"alpha{i}" for i in range(b)],
              *[f"x{i}" for i in range(b)], "D_N", "method", "attained"]
    return Plan(tasks, {"main": ("discrepancy", header)})


def _plan_diophantine(cfg: ExperimentConfig) -> Plan:
    r = ConfigReader(cfg.raw)
    alpha = r.floats("dio.alpha", required=True)
    kappa = r.number("dio.kappa", default=DiophantineParams.kappa, minimum=1.0)
    tau = r.number("dio.tau", default=DiophantineParams.tau, minimum=0.0)
    # the default cutoff is a 1-d one: at b = 2 its half-box holds 2e12 vectors
    k_max = r.integer("dio.kmax", default=DiophantineParams.k_max, minimum=1,
                      required=alpha is not None and len(alpha) >= 2)
    if tau is not None and tau <= 0:
        r.issues.append("'dio.tau' must be positive")
    r.check()
    task = Task(
        _task_diophantine,
        dict(alpha=alpha, kappa=float(kappa), tau=float(tau), k_max=k_max),
    )
    b = len(alpha)
    header = ["b", "kappa", "tau", "kmax", "passed", *[f"k{i}" for i in range(b)],
              "margin"]
    return Plan([task], {"main": ("diophantine", header)})


def _plan_lyapunov(cfg: ExperimentConfig) -> Plan:
    r = ConfigReader(cfg.raw)
    spec = build_operator(r)
    energies = r.floats("lyapunov.energies", required=True)
    eps = r.number("lyapunov.epsilon", default=0.0, minimum=0.0)
    length = r.integer("lyapunov.length", default=10000, minimum=10)
    n_phases = r.integer("lyapunov.phase_samples", default=8, minimum=1)
    if spec is not None and not spec.is_schrodinger_1d:
        r.issues.append(
            "lyapunov needs the 1-d nearest-neighbour kernel at unit coupling"
        )
    r.check()
    rng = np.random.default_rng(cfg.seed)
    phases = tuple(float(x) for x in rng.random(n_phases))
    tasks = [
        Task(
            _task_lyapunov,
            dict(spec=spec, energy=float(e), eps=float(eps), length=length,
                 phases=phases),
        )
        for e in energies
    ]
    header = ["E", "eps", "length", "nPhases", "value", "stderr"]
    return Plan(tasks, {"main": ("lyapunov", header)})


RECIPES: dict[str, Callable[[ExperimentConfig], Plan]] = {
    "evolve": _plan_evolve,
    "moment-growth": _plan_moments,
    "bad-set-scan": _plan_box_scan,
    "sublinear": _plan_sublinear,
    "parseval-crosscheck": _plan_parseval,
    "discrepancy-sweep": _plan_discrepancy,
    "diophantine": _plan_diophantine,
    "lyapunov-map": _plan_lyapunov,
}


# ---------------------------------------------------------------------------
# running and writing


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):  # np.float64 too, whose repr names its type
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _write_run(
    out_dir: str | Path,
    stem: str,
    headers: dict[str, tuple[str, list[str]]],
    rows: dict[str, list[tuple]],
    results: list[dict],
    flags: list[str],
    start: float,
    **manifest: Any,
) -> tuple[list[Path], dict[str, int]]:
    """Write one CSV per output key plus the run manifest.

    Run diagnostics (wall time, the seconds of each task in plan order, the
    largest resolvent residual of a scan,
    the largest truncation leakage of an evolution or moment run, the
    largest norm drift of an evolution, the largest quadrature tail bound
    of a time-averaged table, the most energy-quadrature panels of a
    Parseval table and the order of the largest box a dynamics task
    decomposed) go to the manifest only, so CSV bodies stay
    byte-identical across runs.
    Returns the written paths and the CSV row counts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    counts = {}
    for key, (suffix, header) in headers.items():
        path = out / f"{stem}_{suffix}.csv"
        _write_csv(path, header, rows[key])
        files.append(path)
        counts[path.name] = len(rows[key])
    for key, name in (("residual", "max_resolvent_residual"),
                      ("leakage", "max_leakage"),
                      ("norm_drift", "max_norm_drift"),
                      ("tail_bound", "max_tail_bound"),
                      ("panels", "max_quadrature_panels"),
                      ("matrix_order", "max_matrix_order")):
        values = [res[key] for res in results if key in res]
        if values:
            manifest[name] = max(values)
    manifest.update(
        outputs=[f.name for f in files],
        row_counts=counts,
        safety_flags=flags,
        versions=_versions(),
        wall_time_s=time.time() - start,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    manifest_path = out / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    files.append(manifest_path)
    return files, counts


def _run(
    runs: list[tuple[tuple, ExperimentConfig]],
    sweep_axes: tuple[str, ...],
    out_dir: str | Path,
    stem: str,
    workers: int,
    experiment: str,
    config_hash: str,
    **manifest: Any,
) -> RunResult:
    """Plan every (axis values, config) run, execute all their tasks in one
    pool, and write the merged CSVs and the manifest.

    Each run's rows come from its plan's ``aggregate`` or else its tasks'
    rows in plan order; a row starts with the run's axis values, experiment
    and config hash, ahead of the plan's columns.  The manifest's ``seed``
    is the runs' seed when they share one, else the list of each run's.
    """
    start = time.time()
    plans = [(combo, run, RECIPES[run.experiment](run)) for combo, run in runs]
    results, seconds = execute_tasks(
        [t for _, _, plan in plans for t in plan.tasks], workers
    )
    leading = [f"axis.{a}" for a in sweep_axes] + ["experiment", "config_hash"]
    headers: dict[str, tuple[str, list[str]]] = {}
    rows: dict[str, list[tuple]] = {}
    pos = 0
    for combo, run, plan in plans:
        chunk = results[pos : pos + len(plan.tasks)]
        pos += len(plan.tasks)
        if plan.aggregate is not None:
            out = plan.aggregate(chunk)
        else:
            out = {key: [row for res in chunk for row in res.get(key, [])]
                   for key in plan.files}
        for key, (suffix, header) in plan.files.items():
            headers[key] = (suffix, leading + header)
            rows.setdefault(key, []).extend(
                (*combo, run.experiment, run.hash, *row) for row in out[key]
            )
    flags = [flag for res in results for flag in res.get("flags", [])]
    seeds = [run.seed for _, run in runs]
    files, counts = _write_run(
        out_dir, stem, headers, rows, results, flags, start,
        experiment=experiment, config_hash=config_hash, task_seconds=seconds,
        seed=seeds[0] if len(set(seeds)) == 1 else seeds, **manifest,
    )
    return RunResult(experiment, config_hash, files, flags, counts)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    workers: int = 1,
    prefix: str | None = None,
) -> RunResult:
    """Plan, execute, and persist one experiment; see RECIPES for names."""
    if cfg.experiment not in RECIPES:
        raise ConfigError(
            [f"unknown experiment '{cfg.experiment}'; choose from "
             f"{sorted(RECIPES)}"]
        )
    stem = prefix or str(cfg.get("output.prefix", cfg.experiment))
    return _run([((), cfg)], (), out_dir, stem, workers, cfg.experiment,
                cfg.hash)


def _versions() -> dict[str, str]:
    import scipy

    return {
        "qpdyn": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_sweep(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    workers: int = 1,
) -> RunResult:
    """Cartesian-product dispatch of a recipe over config axes.

    ``sweep.axes`` lists dotted keys that must already exist in the config;
    ``sweep.values.<axis>`` supplies each axis grid.  The merged CSVs carry
    the axis values as leading columns, ordered by axis tuple regardless of
    worker count.
    """
    recipe = cfg.get("sweep.recipe", cfg.get("experiment"))
    if recipe in (None, "sweep"):
        raise ConfigError(["sweep needs 'sweep.recipe' naming a recipe"])
    if recipe not in RECIPES:
        raise ConfigError([f"unknown sweep recipe '{recipe}'"])
    axes = cfg.get("sweep.axes")
    if axes is None:
        raise ConfigError(["missing required key 'sweep.axes'"])
    axes = tuple(axes) if isinstance(axes, tuple) else (axes,)
    issues = []
    grids = []
    for axis in axes:
        if axis not in cfg.raw:
            issues.append(f"sweep axis '{axis}' does not exist in the config")
            continue
        values = cfg.get(f"sweep.values.{axis}")
        if values is None:
            issues.append(f"missing 'sweep.values.{axis}'")
            continue
        grids.append(tuple(values) if isinstance(values, tuple) else (values,))
    if issues:
        raise ConfigError(issues)

    runs = []
    for combo in itertools.product(*grids):
        raw = dict(cfg.raw)
        raw["experiment"] = recipe
        raw.update(zip(axes, combo))
        runs.append((combo, config_from_raw(raw, recipe)))
    stem = str(cfg.get("output.prefix", f"sweep_{recipe}"))
    return _run(runs, axes, out_dir, stem, workers, f"sweep:{recipe}", cfg.hash,
                axes=list(axes), combos=len(runs))
